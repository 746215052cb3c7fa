"""Hot numeric kernels of the isolation pipeline, written against numpy.

``horner_points`` and ``horner_pair`` evaluate a polynomial (the sign tests and
Newton steps of the real path); ``graeffe_step_me`` is one root-squaring step
of the float radii engine, and ``mantexp`` splits coefficients into its
representation.  Callers look these names up on the module at call time, so a
wrapper installed on the module (for tracing) sees every call.

Polynomial coefficients are ascending-degree throughout.  The Graeffe kernel
works on a split (mantissa, exponent) representation, ``c_i = m_i * 2**e_i``
with ``|m_i| in [1, 2)`` or ``m_i == 0``, so that thousands of effective
squarings never overflow or underflow the coefficient vector.
"""

import numpy as np

# ---------------------------------------------------------------------------
# Horner evaluation
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# Graeffe root-squaring step on the (mantissa, exponent) representation
# ---------------------------------------------------------------------------


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


def graeffe_step_me(m, e):
    """One step ``q(x**2) = (-1)**n p(x) p(-x)`` on ``c_i = m_i * 2**e_i``.

    Each output coefficient sums its even-even and odd-odd products scaled to
    the largest contributing exponent; the sums are then renormalized together
    to ``|m| in [1, 2)``.
    """
    n = len(m) - 1
    ev_m, ev_e = m[0::2], e[0::2]
    od_m, od_e = m[1::2], e[1::2]
    ne, no = len(ev_m), len(od_m)
    acc = np.zeros(n + 1, dtype=np.complex128)
    top = np.zeros(n + 1, dtype=np.int64)
    sgn = 1.0 if n % 2 == 0 else -1.0
    for j in range(n + 1):
        tm = []
        te = []
        a0, a1 = max(0, j - ne + 1), min(j, ne - 1)
        if a0 <= a1:
            a = np.arange(a0, a1 + 1)
            tm.append(ev_m[a] * ev_m[j - a])
            te.append(ev_e[a] + ev_e[j - a])
        jj = j - 1
        if jj >= 0:
            b0, b1 = max(0, jj - no + 1), min(jj, no - 1)
            if b0 <= b1:
                b = np.arange(b0, b1 + 1)
                tm.append(-od_m[b] * od_m[jj - b])
                te.append(od_e[b] + od_e[jj - b])
        if not tm:
            continue
        tmv = np.concatenate(tm)
        tev = np.concatenate(te)
        mask = tmv != 0
        if not mask.any():
            continue
        tmv, tev = tmv[mask], tev[mask]
        top[j] = tev.max()
        acc[j] = sgn * (tmv * np.exp2((tev - top[j]).astype(np.float64))).sum()
    return mantexp(acc, top)


def warmup():
    """Run every kernel once on tiny inputs (imports and first-call set-up)."""
    c = np.array([-1.0, 0.0, 1.0])
    horner_points(c, np.array([0.5, 2.0]))
    horner_pair(c, 0.5)
    m = np.array([-1.0 + 0j, 0j, 1.0 + 0j])
    e = np.zeros(3, dtype=np.int64)
    graeffe_step_me(m, e)
