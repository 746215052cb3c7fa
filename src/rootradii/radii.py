"""Root-radii estimation: Newton polygon plus Graeffe refinement.

The Newton-polygon estimator reads root-radius approximations off the slopes
of the upper convex hull of the points ``(i, log2|p_i|)``; it is accurate
within a factor ``2n``.  Squaring the roots ``k`` times before applying it and
taking ``2**k``-th roots of the results sharpens the factor to
``(2n)**(1/2**k)``.

One driver, ``_radii``, runs this procedure for every entry point: it strips
the roots at the center, squares up to ``k`` times under one stop rule and
reads the hull.  The squarings run on a per-coefficient (mantissa, exponent)
representation, of which there are two.  The radii at the origin
(``newton_polygon_radii``, ``refined_radii``) use float64 mantissas.  The
distances from a far center (``distances_from_point``) use the exact Taylor
shift and ``P + 1``-bit Gaussian-integer mantissas of ``_dd``, at a precision
``P`` that starts at ``max(64, 16n)`` and doubles until two precisions agree.
After many squarings the coefficient magnitudes of the iterated polynomial
span far more than the ~2000 bits a float64 can express, while the hull only
ever needs ``log2`` of each coefficient; splitting the exponent out keeps
every quantity representable with no loss relevant to the estimates
(coefficient rounding errors shrink by ``2**k`` when the roots are
extracted).
"""

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import _dd, _kernels
from .poly import Polynomial, PrecisionLossError

__all__ = [
    "RadiiEstimate",
    "newton_polygon_radii",
    "choose_iteration_count",
    "refined_radii",
    "distances_from_point",
]


@dataclass(frozen=True)
class RadiiEstimate:
    """Non-increasing root-radius approximations with their guarantee factor.

    Each true radius ``r_j`` satisfies ``1/rel_factor <= radii[j]/r_j <=
    rel_factor`` (zero radii are exact).
    """

    radii: np.ndarray
    rel_factor: float
    squarings_used: int

    def __post_init__(self):
        r = np.array(self.radii, dtype=np.float64)
        r.setflags(write=False)
        object.__setattr__(self, "radii", r)


def _to_mantexp(coeffs):
    """Split ``c_i = m_i * 2**e_i`` with ``|m_i| in [1, 2)`` (``m_i = 0`` for zeros)."""
    c = np.asarray(coeffs, dtype=np.complex128)
    m = np.zeros(len(c), dtype=np.complex128)
    e = np.zeros(len(c), dtype=np.int64)
    for i, ci in enumerate(c):
        a = abs(ci)
        if a != 0.0:
            _, ex = math.frexp(a)
            m[i] = ci * math.ldexp(1.0, -(ex - 1))
            e[i] = ex - 1
    return m, e


def _hull_radii(m, e, k):
    """Radii estimates from the upper hull of ``(i, log2|c_i|)`` after ``k`` squarings.

    Ordinate differences are formed as ``float(int64 exponent difference) +
    (mantissa log difference)`` so that a uniform exponent shift (a power-of-
    two rescaling of the polynomial) changes nothing bitwise, no matter how
    large the exponents have grown.  Zero coefficients are simply absent from
    the hull.  Requires nonzero constant and leading coefficients.
    """
    xs = []
    es = []
    gs = []
    for i in range(len(m)):
        if m[i] != 0:
            xs.append(i)
            es.append(int(e[i]))
            gs.append(math.log2(abs(m[i])))

    def ydiff(a, b):
        return float(es[b] - es[a]) + (gs[b] - gs[a])

    hull = []  # indices into xs/es/gs; upper hull, slopes non-increasing
    for idx in range(len(xs)):
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            if ydiff(a, b) * (xs[idx] - xs[b]) <= ydiff(b, idx) * (xs[b] - xs[a]):
                hull.pop()
            else:
                break
        hull.append(idx)
    scale = 2.0**k
    out = []
    for t in range(len(hull) - 1):
        a, b = hull[t], hull[t + 1]
        slope = ydiff(a, b) / (xs[b] - xs[a])
        r = 2.0 ** (-slope / scale)
        out.extend([r] * (xs[b] - xs[a]))
    out.reverse()
    return np.array(out, dtype=np.float64)


def choose_iteration_count(n: int, target_rel_error: float) -> int:
    """Smallest ``k`` with ``(2n)**(1/2**k) <= 1 + target_rel_error``."""
    if n < 1:
        raise ValueError("degree must be at least 1")
    if not target_rel_error > 0:
        raise ValueError("target relative error must be positive")
    if 2 * n <= 1 + target_rel_error:
        return 0
    k = max(0, math.ceil(math.log2(math.log(2 * n) / math.log1p(target_rel_error))))
    while k > 0 and (2 * n) ** (2.0 ** -(k - 1)) <= 1 + target_rel_error:
        k -= 1
    while (2 * n) ** (2.0**-k) > 1 + target_rel_error:
        k += 1
    return k


class _Representation(NamedTuple):
    """How one representation squares; its state ends with the exponent array."""

    mantexp: Callable  # coefficient arrays -> state
    step: Callable  # state -> next state, or None when the step is unusable
    mantissa: Callable  # state -> complex mantissas for the hull


def _float_step(m, e):
    m2, e2 = _kernels.graeffe_step_me(m, e)
    if np.isfinite(m2).all() and m2[0] != 0 and m2[-1] != 0:
        return m2, e2
    return None


_FLOAT = _Representation(_to_mantexp, _float_step, lambda m, e: m)

# distance queries start at max(64, 16n) bits and give up past this many
_MAX_BITS = 2**13
_U = 2.0**-53


def _int_representation(P):
    # anchors are single products of nonzero mantissas, so no step is unusable
    return _Representation(
        lambda re, im: _dd.mantexp_dd(re, im, P),
        lambda re, im, e: _dd.graeffe_step_me_dd(re, im, e, P),
        lambda re, im, e: _dd.hull_mantissas(re, im, P),
    )


def _agree(a, b):
    """Every radius of ``a`` within ``b``'s factor (plus 4 ulps) of ``b``'s; zeros equal."""
    zero = b.radii == 0
    tol = b.rel_factor - 1.0 + 4 * _U
    return np.array_equal(a.radii == 0, zero) and bool(
        np.all(np.abs(a.radii[~zero] / b.radii[~zero] - 1.0) <= tol)
    )


def _radii(p, target_rel_error, coeffs, rep):
    """The radii procedure behind every entry point.

    ``coeffs()`` returns the ascending coefficient arrays of the polynomial
    whose root radii are wanted (``p`` itself, or ``p`` shifted to a center);
    a root at the center is an index where every array is zero.  ``rep`` is
    the squaring representation.  With ``target_rel_error=None`` nothing is
    squared and the radii hold within ``2n``.
    """
    if p.coeffs[-1] == 0:
        raise ValueError("leading coefficient must be nonzero")
    n = p.degree
    if n == 0:
        return RadiiEstimate(np.empty(0), 1.0, 0)
    cs = coeffs()
    nzero = 0
    while nzero < n and all(c[nzero] == 0 for c in cs):
        nzero += 1
    if nzero == n:
        # pure power: every radius is exactly zero, nothing to square
        return RadiiEstimate(np.zeros(n), float(2 * n) if target_rel_error is None else 1.0, 0)
    k = 0 if target_rel_error is None else choose_iteration_count(n, target_rel_error)
    state = rep.mantexp(*(c[nzero:] for c in cs))
    done = 0
    for _ in range(k):
        # stop on numeric degradation: the last healthy iterate keeps its
        # honestly larger factor
        nxt = rep.step(*state)
        if nxt is None or np.abs(nxt[-1]).max() > 2**60:
            break
        state = nxt
        done += 1
    radii = _hull_radii(rep.mantissa(*state), state[-1], done)
    if nzero:
        radii = np.concatenate([radii, np.zeros(nzero)])
    return RadiiEstimate(radii, float((2 * n) ** (2.0**-done)), done)


def newton_polygon_radii(p: Polynomial) -> RadiiEstimate:
    """Estimate all root radii within the factor ``2n`` from the coefficient hull.

    Roots at the origin (vanishing low-order coefficients) are reported as
    exact zero radii.
    """
    return _radii(p, None, lambda: (p.coeffs,), _FLOAT)


def refined_radii(p: Polynomial, target_rel_error: float) -> RadiiEstimate:
    """Root radii within ``1 + target_rel_error`` via Graeffe squaring plus the hull.

    If precision degrades before the planned squaring count, the estimate from
    the last healthy iteration is returned with its honestly larger factor.
    """
    return _radii(p, target_rel_error, lambda: (p.coeffs,), _FLOAT)


def distances_from_point(p: Polynomial, z, target_rel_error: float) -> RadiiEstimate:
    """Distances from ``z`` to all roots of ``p``, non-increasing.

    Mathematically these are the root radii of ``p(x + z)``.  For a far center
    the distances cluster within a relative band of about ``1/|z|``, and the
    coefficient basis conditions them like ``(2|z|)**n / prod(gaps)``, far
    beyond float64.  So the shift is exact and the squarings run on
    ``P + 1``-bit integer mantissas: ``P`` starts at ``max(64, 16n)`` and
    doubles until two successive precisions give radii that agree within the
    factor, and the higher-precision estimate is returned.  Past
    ``2**13`` bits it raises ``PrecisionLossError``, as it does for a
    non-finite ``z`` (a center that overflowed).  A vanishing constant term
    of the shifted polynomial reports the corresponding distances as exact
    zeros.
    """
    if not np.isfinite(complex(z)):
        raise PrecisionLossError(f"shift center {z} is not finite")
    # the shift is exact, so every precision squares the same polynomial; its
    # power-of-two factor moves no radius
    re, im, _ = _dd.taylor_shift_dd(p.coeffs, z)
    P, est = max(64, 16 * p.degree), None
    while P <= _MAX_BITS:
        nxt = _radii(p, target_rel_error, lambda: (re, im), _int_representation(P))
        if est is not None and _agree(est, nxt):
            return nxt
        P, est = 2 * P, nxt
    raise PrecisionLossError(f"distances did not settle within {_MAX_BITS} bits")
