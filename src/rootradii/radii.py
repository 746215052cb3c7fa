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
(``newton_polygon_radii``, ``refined_radii``) use float64 mantissas, and
their ``rel_factor`` is the exact-arithmetic ``(2n)**(1/2**k)``: it does not
yet count the float engine's rounding.  The distances from a far center
(``distances_from_point``) use the exact Taylor shift and ``P + 1``-bit
Gaussian-integer mantissas of ``_dd`` with an error radius per coefficient,
and their ``rel_factor`` counts every rounding of that engine, though not
the float hull's own (see ``RadiiEstimate``).  After many
squarings the coefficient magnitudes of the iterated polynomial
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
    rel_factor`` (zero radii are exact).  From ``distances_from_point`` the
    factor includes every rounding of the exact shift and the integer
    squarings; the float hull's own arithmetic (slope division and
    ``2**x``) moves each radius by about ``|log2 r| * 2**-52`` relative
    more, which no factor includes.  From ``refined_radii`` and
    ``newton_polygon_radii`` it holds in exact arithmetic and does not yet
    include the float engine's rounding.
    """

    radii: np.ndarray
    rel_factor: float
    squarings_used: int

    def __post_init__(self):
        r = np.array(self.radii, dtype=np.float64)
        r.setflags(write=False)
        object.__setattr__(self, "radii", r)


def _hull_radii(m, e, k):
    """Radii estimates from the upper hull of ``(i, log2|c_i|)`` after ``k`` squarings.

    Ordinate differences are formed as ``float(int64 exponent difference) +
    (mantissa log difference)`` so that a uniform exponent shift (a power-of-
    two rescaling of the polynomial) changes nothing bitwise, no matter how
    large the exponents have grown; the stop rule of ``_radii`` keeps every
    exponent within ``2**52``, so the difference converts to float exactly.
    Zero coefficients are simply absent from the hull.  Requires nonzero
    constant and leading coefficients; raises PrecisionLossError when a radius
    overflows or underflows to 0.  Returns the radii and the coefficient
    indices of the hull vertices.
    """
    ms, es = m.tolist(), np.asarray(e).tolist()
    xs = [i for i, mi in enumerate(ms) if mi != 0]
    es = [es[i] for i in xs]
    gs = [math.log2(abs(ms[i])) for i in xs]

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
        log_r = -ydiff(a, b) / (xs[b] - xs[a]) / scale
        r = 2.0**log_r if log_r < 1024.0 else math.inf
        if not 0.0 < r < math.inf:
            raise PrecisionLossError(f"a root radius of 2**{log_r:.6g} is outside the float range")
        out.extend([r] * (xs[b] - xs[a]))
    out.reverse()
    return np.array(out, dtype=np.float64), [xs[h] for h in hull]


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
    mantissa: Callable  # state -> mantissas for the hull
    log2_error: Callable  # (state, hull vertices) -> ordinate error bound


def _float_step(ws, m, e):
    m2, e2 = _kernels.graeffe_step_me(m, e, ws)
    if np.isfinite(m2).all() and m2[0] != 0 and m2[-1] != 0:
        return ws, m2, e2
    return None


# one workspace per query, whose padded buffers every squaring reuses; the
# float engine counts no rounding: eps = 0 gives the exact-arithmetic factor
# (2n)**(2**-k)
_FLOAT = _Representation(
    lambda c: (_kernels.Workspace(), *_kernels.mantexp(c)),
    _float_step,
    lambda ws, m, e: m,
    lambda state, hull: 0.0,
)

# distance queries start at max(128, 16n) bits and give up past this many
_MAX_BITS = 2**13
# a certified factor whose factor - 1 is within this relative slack of the
# exact-arithmetic one gains nothing from more bits
_SETTLED = 1e-9


def _int_representation(P):
    # a step is unusable once its error bound has failed
    return _Representation(
        lambda re, im: _dd.mantexp_dd(re, im, P),
        lambda *state: _dd.graeffe_step_me_dd(*state, P),
        lambda re, im, rad, s, e: _dd.hull_mantissas(re, im, P),
        lambda state, hull: _dd.log2_error(state[2], state[3], hull),
    )


def _radii(p, target_rel_error, cs, rep):
    """The radii procedure behind every entry point.

    ``cs`` holds the ascending coefficient arrays of the polynomial
    whose root radii are wanted (``p`` itself, or ``p`` shifted to a center);
    a root at the center is an index where every array is zero.  ``rep`` is
    the squaring representation.  With ``target_rel_error=None`` nothing is
    squared and the radii hold within ``2n``.

    The factor after ``k`` squarings is ``(2n * 4**eps)**(2**-k)`` with
    ``eps`` from ``rep.log2_error``; the float representation tracks no
    error and gives ``eps = 0``.  For one that does, the factor is certified
    (Imbach & Pan, CASC 2021, certify Graeffe root radii the same way).
    Let ``y_i`` be the hull's ordinates, ``y*_i = log2|c*_i|`` those of the
    exact iterate, and ``eps`` the bound of ``log2_error``: ``y*_i <= y_i +
    eps`` at every point and ``y*_i >= y_i - eps`` at the vertices of the
    computed upper hull ``f``.

    - ``f + eps`` is concave and lies above every ``y*_i``, so the exact
      hull ``g`` satisfies ``g <= f + eps``.
    - At each vertex of ``f``, ``g >= y* >= f - eps``; between two vertices
      ``f`` is linear and ``g`` concave, so ``g >= f - eps`` on all of
      ``[0, n]``.  The end vertices have ``y*`` finite, so ``g`` spans the
      same degree.
    - So ``|g - f| <= eps`` at every integer, and every unit-interval slope
      of ``f`` is within ``2 eps`` of ``g``'s.  The Newton polygon puts the
      iterate's radii within ``2n`` of ``2**-slope(g)``, hence within
      ``2n * 4**eps`` of ``2**-slope(f)``; the ``2**k``-th roots take the
      ``2**k``-th root of that factor.
    """
    if p.coeffs[-1] == 0:
        raise ValueError("leading coefficient must be nonzero")
    n = p.degree
    if n == 0:
        return RadiiEstimate(np.empty(0), 1.0, 0)
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
        # stop on numeric degradation, or before an exponent difference can
        # pass 2**53 and round in the hull: the last healthy iterate keeps
        # its honestly larger factor
        nxt = rep.step(*state)
        if nxt is None or np.abs(nxt[-1]).max() > 2**52:
            break
        state = nxt
        done += 1
    radii, hull = _hull_radii(rep.mantissa(*state), state[-1], done)
    if nzero:
        radii = np.concatenate([radii, np.zeros(nzero)])
    eps = rep.log2_error(state, hull)
    factor = (2 * n * 4.0**eps) ** (2.0**-done) if eps < 256 else math.inf
    return RadiiEstimate(radii, factor, done)


def newton_polygon_radii(p: Polynomial) -> RadiiEstimate:
    """Estimate all root radii within the factor ``2n`` from the coefficient hull.

    Roots at the origin (vanishing low-order coefficients) are reported as
    exact zero radii.
    """
    return _radii(p, None, (p.coeffs,), _FLOAT)


def refined_radii(p: Polynomial, target_rel_error: float) -> RadiiEstimate:
    """Root radii within ``1 + target_rel_error`` via Graeffe squaring plus the hull.

    If precision degrades before the planned squaring count, the estimate from
    the last healthy iteration is returned with its honestly larger factor.
    """
    return _radii(p, target_rel_error, (p.coeffs,), _FLOAT)


def _settled(est, n, target_rel_error):
    """Whether ``est``'s certified factor meets the target or the exact-arithmetic factor."""
    exact = (2 * n) ** (2.0**-est.squarings_used)
    return est.rel_factor - 1.0 <= max(target_rel_error, (exact - 1.0) * (1.0 + _SETTLED))


def distances_from_point(p: Polynomial, z, target_rel_error: float) -> RadiiEstimate:
    """Distances from ``z`` to all roots of ``p``, non-increasing.

    Mathematically these are the root radii of ``p(x + z)``.  For a far center
    the distances cluster within a relative band of about ``1/|z|``, and the
    coefficient basis conditions them like ``(2|z|)**n / prod(gaps)``, far
    beyond float64.  So the shift is exact and the squarings run on
    ``P + 1``-bit integer mantissas that carry error radii, and the factor
    returned is certified: it counts every rounding of those squarings (not
    the float hull's own, about ``|log2 r| * 2**-52`` relative).  It squares
    once at ``P = max(128, 16n)`` and keeps that result only if its certified
    factor is the one exact arithmetic gives after the same squarings
    (``factor - 1`` within a relative ``1e-9`` of it); otherwise it doubles
    ``P`` until the factor meets either that or ``1 + target_rel_error``.
    Past ``2**13`` bits it raises ``PrecisionLossError``, as it does for a
    non-finite ``z`` (a center that overflowed).  A vanishing constant term
    of the shifted polynomial reports the corresponding distances as exact
    zeros.
    """
    if not np.isfinite(complex(z)):
        raise PrecisionLossError(f"shift center {z} is not finite")
    # the shift is exact, so every precision squares the same polynomial; its
    # power-of-two factor moves no radius
    re, im, _ = _dd.taylor_shift_dd(p.coeffs, z)
    P = max(128, 16 * p.degree)
    # a first factor that only meets the target has lost bits to rounding
    # that one doubling mostly wins back, and the annuli are that much wider
    target = 0.0
    while P <= _MAX_BITS:
        est = _radii(p, target_rel_error, (re, im), _int_representation(P))
        if _settled(est, p.degree, target):
            return est
        target = target_rel_error
        P *= 2
    raise PrecisionLossError(f"distances did not settle within {_MAX_BITS} bits")
