"""Hot numeric kernels of the isolation pipeline, written against numpy.

``horner_points`` and ``horner_pair`` evaluate a polynomial (the sign tests and
Newton steps of the real path); ``graeffe_step_me`` is one root-squaring step
of the float radii engine, and ``mantexp`` splits coefficients into its
representation.  Callers look these names up on the module at call time, so a
wrapper installed on the module (for tracing) sees every call.

Polynomial coefficients are ascending-degree throughout.  The Graeffe kernel
works on a split (mantissa, exponent) representation, ``c_i = m_i * 2**e_i``
with ``|m_i| in [1, 2)`` or ``m_i == 0``, so that thousands of effective
squarings never overflow or underflow the coefficient vector.  It fills its
outputs a block of columns at a time: row ``j``, column ``t`` of a block pairs
``i = j - t`` with ``k = j + t``, both read through strided windows on
zero-padded copies of the input, so a block costs a fixed number of array
operations and each of its temporaries holds at most ``_BLOCK`` entries
(256 KiB of float64) whatever the degree.
"""

import numpy as np


def horner_points(coeffs, xs):
    """Values of the polynomial at every point of ``xs``."""
    acc = np.full(len(xs), coeffs[-1], dtype=np.result_type(coeffs, xs))
    for c in coeffs[-2::-1]:
        acc = acc * xs + c
    return acc


def horner_pair(coeffs, x):
    """Value and first derivative at ``x`` in one pass."""
    b = coeffs[-1]
    d = b * 0
    for c in coeffs[-2::-1]:
        d = d * x + b
        b = b * x + c
    return b, d


def mantexp(c, e=0):
    """Split ``c_i * 2**e_i = m_i * 2**f_i`` with ``|m_i| in [1, 2)``; returns ``(m, f)``.

    Zeros get ``m_i = f_i = 0``.  The scaling is by powers of two, so exact.
    """
    c = np.asarray(c, dtype=np.complex128)
    nz = c != 0
    _, ex = np.frexp(np.abs(c))
    shift = np.where(nz, 1 - ex, 0)
    m = np.empty_like(c)
    m.real = np.ldexp(c.real, shift)
    m.imag = np.ldexp(c.imag, shift)
    return m, np.where(nz, e + ex - 1, 0).astype(np.int64)


_BLOCK = 2**15
# exponent of zero mantissas: below every anchor, and a sum of two fits an int64;
# a column of zero products sums to 0, whose exponent mantexp sets to 0
_ZERO_EXP = -(2**61)


def graeffe_step_me(m, e):
    """One step ``q(x**2) = (-1)**n p(x) p(-x)`` on ``c_i = m_i * 2**e_i``.

    Output ``j`` sums ``(-1)**i m_i m_k`` over the pairs ``i + k = 2j``.  Its
    anchor ``top[j]`` is the largest ``e_i + e_k`` of a nonzero product; each
    product is scaled by the exact ``2**(e_i + e_k - top[j])``, written into
    the float64 exponent bits, and becomes 0 below ``2**-1022``.  The sum is
    the ``i = j`` term plus twice the pairwise sum of the pairs ``i < j``,
    which come in both orders.  The sums are then renormalized together to
    ``|m| in [1, 2)``.  Real mantissas are squared in float64.
    """
    n = len(m) - 1
    if not m.imag.any():
        m = m.real
    T = n // 2 + 1
    # coefficient i sits at T + i of padded copies.  The i operand carries the
    # pair's sign (-1)**i and is reversed: column j's window starts at
    # L - 1 - T - j.  One view per dtype holds it, then k's (at L + T + j)
    z = np.zeros(T, dtype=np.int64)
    pm = np.concatenate([z, m, z])
    pe = np.where(pm != 0, np.concatenate([z, e, z]), _ZERO_EXP)
    L = len(pm)
    sm = pm * (-1.0) ** (np.arange(L) - T)
    wm, we = (np.lib.stride_tricks.as_strided(x, (2 * L - T + 1, T), 2 * x.strides, writeable=False)
              for x in (np.concatenate([sm[::-1], pm]), np.concatenate([pe[::-1], pe])))
    acc, top = np.empty(n + 1, dtype=m.dtype), np.empty(n + 1, dtype=np.int64)
    rows = max(1, _BLOCK // T)
    for j0 in range(0, n + 1, rows):
        j1 = min(j0 + rows, n + 1)
        w = min(j1 - 1, n - j0) + 1  # the block's longest column
        ri, rk = slice(L - 1 - T - j0, L - 1 - T - j1, -1), slice(L + T + j0, L + T + j1)
        ex = we[ri, :w] + we[rk, :w]
        top[j0:j1] = ex.max(axis=1)
        ex -= top[j0:j1, None] - 1023
        np.maximum(ex, 0, out=ex)
        ex <<= 52
        terms = wm[ri, :w] * wm[rk, :w] * ex.view(np.float64)
        acc[j0:j1] = terms[:, 0] + 2.0 * terms[:, 1:].sum(axis=1)
    return mantexp(-acc if n % 2 else acc, top)


def warmup():
    """Run every kernel once on tiny inputs (imports and first-call set-up)."""
    c = np.array([-1.0, 0.0, 1.0])
    horner_points(c, np.array([0.5, 2.0]))
    horner_pair(c, 0.5)
    graeffe_step_me(*mantexp(c))
