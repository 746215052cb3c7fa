"""Hot numeric kernels of the isolation pipeline, written against numpy.

``horner_points`` and ``horner_pair`` evaluate a polynomial (the sign tests and
Newton steps of the real path); ``graeffe_step_me`` is one root-squaring step
of the float radii engine, and ``mantexp`` splits coefficients into its
representation.  Callers look these names up on the module at call time, so a
wrapper installed on the module (for tracing) sees every call.

Per-item loops run on Python scalars: ``horner_pair`` gets a list of Python
numbers on the real path and in ``poly.evaluate`` (the same bits as numpy, and
overflow to inf raises no warning), but an ndarray in the complex Newton
polish, where Python's complex division rounds differently from numpy's.

Polynomial coefficients are ascending-degree throughout.  The Graeffe kernel
works on a split (mantissa, exponent) representation, ``c_i = m_i * 2**e_i``
with ``|m_i| in [1, 2)`` or ``m_i == 0``, so that thousands of effective
squarings never overflow or underflow the coefficient vector; real ``m_i``
stay float64.  It fills its outputs a block of columns at a time: row ``j``,
column ``t`` of a block pairs ``i = j - t`` with ``k = j + t``, both read
through read-only strided windows on one zero-padded buffer per operand, so a
block costs a fixed number of array operations and each of its temporaries
holds at most ``_BLOCK`` entries (256 KiB of float64) whatever the degree.
A radii query keeps the buffers and windows in one ``Workspace`` for all
its squarings, which then only copy their input in.
"""

import numpy as np


def horner_points(coeffs, xs):
    """Values of the polynomial at every point of ``xs``."""
    acc = np.full(len(xs), coeffs[-1], dtype=np.result_type(coeffs, xs))
    for c in coeffs[-2::-1]:
        acc = acc * xs + c
    return acc


def horner_pair(coeffs, x):
    """Value and first derivative at ``x`` in one pass, on a list or an ndarray ``coeffs``."""
    b = coeffs[-1]
    d = b * 0
    for c in coeffs[-2::-1]:
        d = d * x + b
        b = b * x + c
    return b, d


def mantexp(c, e=np.int64(0)):
    """Split ``c_i * 2**e_i = m_i * 2**f_i`` with ``|m_i| in [1, 2)``; returns ``(m, f)``.

    ``c`` is a float64 or complex128 array, and ``m`` keeps its dtype.  Zeros
    get ``m_i = f_i = 0``.  The scaling is exact.
    """
    if c.dtype.kind != "c":
        m, ex = np.frexp(c)
        return 2.0 * m, np.where(c != 0, e + ex - 1, 0)
    _, ex = np.frexp(np.abs(c))
    m = np.empty(c.shape, dtype=np.complex128)
    m.real = np.ldexp(c.real, 1 - ex)
    m.imag = np.ldexp(c.imag, 1 - ex)
    return m, np.where(c != 0, e + ex - 1, 0)


_BLOCK = 2**15
# exponent of zero mantissas: below every anchor, and a sum of two fits an int64;
# a column of zero products sums to 0, whose exponent mantexp sets to 0
_ZERO_EXP = -(2**61)


class Workspace:
    """The buffers of ``graeffe_step_me`` for one degree and dtype, kept between steps.

    A step refits a workspace of another degree or dtype first; otherwise it
    only copies its input into the padded buffers.
    """

    key = None

    def fit(self, n, dtype):
        # zero-padded halves of length L: coefficient i sits at T + i of the plain
        # one and at L - 1 - T - i of the reversed one, which carries the sign
        # (-1)**i.  Row r of a window reads buf[r:r + T]
        T = n // 2 + 1
        L = n + 1 + 2 * T
        bm, be = np.zeros(2 * L, dtype=dtype), np.full(2 * L, _ZERO_EXP)
        wm, we = (np.ndarray((2 * L - T + 1, T), x.dtype, x, 0, 2 * x.strides) for x in (bm, be))
        wm.flags.writeable = we.flags.writeable = False
        rm = bm[L - 1 - T::-1][:n + 1]  # the reversed half in index order
        self.key = (n, dtype)
        self.parts = (T, L, wm, we, bm[L + T:2 * L - T], be[L + T:2 * L - T], rm,
                      be[L - 1 - T::-1][:n + 1], rm[1::2],
                      np.empty(n + 1, dtype=dtype), np.empty(n + 1, dtype=np.int64))


def graeffe_step_me(m, e, ws=None):
    """One step ``q(x**2) = (-1)**n p(x) p(-x)`` on ``c_i = m_i * 2**e_i``.

    Output ``j`` sums ``(-1)**i m_i m_k`` over the pairs ``i + k = 2j``.  Its
    anchor ``top[j]`` is the largest ``e_i + e_k`` of a nonzero product; each
    product is scaled by the exact ``2**(e_i + e_k - top[j])``, written into
    the float64 exponent bits, and becomes 0 below ``2**-1022``.  The sum is
    the ``i = j`` term plus twice the pairwise sum of the pairs ``i < j``,
    which come in both orders.  The sums are then renormalized together to
    ``|m| in [1, 2)``.  Real mantissas are squared and returned in float64,
    also when they come complex-typed.  A query passes one ``Workspace``
    ``ws`` to all its steps; without it the step builds its own buffers.
    """
    n = len(m) - 1
    if m.dtype.kind == "c" and not m.imag.any():
        m = m.real
    if ws is None:
        ws = Workspace()
    if ws.key != (n, m.dtype):
        ws.fit(n, m.dtype)
    T, L, wm, we, pm, pe, rm, re, signs, acc, top = ws.parts
    pm[...] = rm[...] = m
    signs *= -1
    pe[...] = re[...] = np.where(m != 0, e, _ZERO_EXP)
    rows = max(1, _BLOCK // T)
    for j0 in range(0, n + 1, rows):
        j1 = min(j0 + rows, n + 1)
        w = min(j1 - 1, n - j0) + 1  # the block's longest column
        # column j starts at L - 1 - T - j for i, L + T + j for k
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
