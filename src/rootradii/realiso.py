"""Real-root isolation: radii estimates -> candidate intervals -> sign changes
-> bracketed Newton refinement.

The three stages:

1. every radius estimate ``r`` spawns up to two candidate intervals
   ``[r/(1+d), r(1+d)]`` and its mirror on the negative axis, ``d`` being the
   estimate's guaranteed relative error;
2. the polynomial's sign is computed once per distinct interval endpoint and
   every candidate whose endpoint signs differ is selected (an odd number of
   roots lies inside such an interval);
3. each selected interval is refined in rounds of up to three Newton steps
   from the bracket's midpoint, cut short when an iterate leaves the bracket
   or the derivative is tiny or not finite, each round ending in a bisection,
   until it converges or a round leaves the bracket unchanged (a suspect).

Only simple, well-isolated real roots are found this way: an even-multiplicity
root never produces a sign change and is invisible by design.
"""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .poly import Polynomial, _ratio_bound
from .radii import RadiiEstimate, refined_radii

__all__ = [
    "IsolatorConfig",
    "IsolationInterval",
    "RealRoot",
    "RealIsolationResult",
    "candidate_intervals",
    "select_sign_change_intervals",
    "refine_interval",
    "isolate_real_roots",
    "narrow_root_ranges",
]

_DERIV_FLOOR = 1e-300
# relative error of the root radii behind the candidate intervals
_RADII_TARGET = 0.001


@dataclass(frozen=True)
class IsolatorConfig:
    """The isolation pipeline's one setting: the precision of refined roots.

    ``precision_bits``, from 1 to 52, sets the target relative error
    ``1/2**precision_bits`` of refined roots.
    """

    precision_bits: int = 27

    def __post_init__(self):
        if not isinstance(self.precision_bits, numbers.Integral):
            raise ValueError("precision_bits must be an integer")
        # past the float64 mantissa the refinement's stop test cannot be met
        if not 1 <= self.precision_bits <= 52:
            raise ValueError("precision_bits must be in [1, 52]")


@dataclass(frozen=True)
class IsolationInterval:
    lo: float
    hi: float
    status: str = "candidate"  # candidate | sign_change | refined | suspect_ill_conditioned

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise ValueError("interval endpoints out of order")


@dataclass(frozen=True)
class RealRoot:
    value: float
    width: float
    residual: float
    interval_provenance: IsolationInterval


@dataclass(frozen=True)
class RealIsolationResult:
    roots: tuple
    suspects: tuple
    stats: dict = field(default_factory=dict)


def _require_real(p: Polynomial):
    # the sign tests compare real values; a complex input would be cast to its real part
    if not p.is_real:
        raise ValueError("real-root isolation requires real coefficients")


def candidate_intervals(radii: RadiiEstimate):
    """Stage 1: up to two candidate intervals per radius estimate.

    A radius ``r`` with guarantee factor ``1+d`` yields ``[r/(1+d), r(1+d)]``
    and ``[-r(1+d), -r/(1+d)]``; a zero radius yields the single point
    ``[0, 0]``.  Equal intervals (from equal radii) are kept once, in sorted
    order; intervals that merely overlap or nearly coincide are all kept, as
    their endpoints may bracket different roots.
    """
    return [IsolationInterval(lo, hi, "candidate") for lo, hi in _candidates(radii)]


def _candidates(radii: RadiiEstimate):
    """``candidate_intervals`` as sorted ``(lo, hi)`` float pairs."""
    fac = radii.rel_factor
    out = set()
    for r in radii.radii.tolist():
        if r == 0.0:
            out.add((0.0, 0.0))
        else:
            out.add((r / fac, r * fac))
            out.add((-r * fac, -r / fac))
    return sorted(out)


def _select(p: Polynomial, candidates):
    """Sign-test every ``(lo, hi)`` candidate, evaluating each distinct endpoint once.

    Returns (selected sign-change intervals, exact-zero degenerate intervals,
    overflow-suspect intervals, number of sign evaluations); only these
    become ``IsolationInterval`` records.
    """
    if not candidates:
        return [], [], [], 0
    # the sorted distinct endpoints, and per candidate the indices of both
    xs, ends = np.unique(candidates, return_inverse=True)
    ends = ends.reshape(-1, 2).tolist()
    with np.errstate(over="ignore", invalid="ignore"):
        vals = _kernels.horner_points(p.coeffs, xs)
    finite = np.isfinite(vals).tolist()
    signs = np.sign(vals).tolist()
    xs = xs.tolist()

    selected = []
    zeros = []
    suspects = []
    seen_zero = set()
    for (lo, hi), (i_lo, i_hi) in zip(candidates, ends):
        if not (finite[i_lo] and finite[i_hi]):
            suspects.append(IsolationInterval(lo, hi, "suspect_ill_conditioned"))
            continue
        hit = False
        for idx in (i_lo, i_hi):
            if signs[idx] == 0.0 and idx not in seen_zero:
                seen_zero.add(idx)
                zeros.append(IsolationInterval(xs[idx], xs[idx], "refined"))
                hit = True
        if hit:
            continue
        if signs[i_lo] * signs[i_hi] < 0:
            selected.append(IsolationInterval(lo, hi, "sign_change"))
    return selected, zeros, suspects, len(xs)


def select_sign_change_intervals(p: Polynomial, candidates):
    """Stage 2: the candidates whose endpoint signs differ.

    The polynomial is evaluated once per distinct endpoint (at most ``4n`` of
    them).  An exact zero at an endpoint comes back as a degenerate refined
    interval at that point; an overflowing evaluation marks the interval
    suspect instead of aborting.
    """
    _require_real(p)
    selected, zeros, suspects, _ = _select(p, [(iv.lo, iv.hi) for iv in candidates])
    return selected + zeros + suspects


def _refine(p: Polynomial, iv: IsolationInterval, cfg: IsolatorConfig):
    """Bracketed Newton refinement of one sign-change interval with finite ends.

    Returns (RealRoot | suspect IsolationInterval, newton_steps, rounds).
    Raises ValueError unless the endpoint values differ in sign or one is 0.
    A round depends only on the bracket, and the bracket only shrinks, so the
    loop ends: by the stop test, or on a round that leaves it unchanged.
    """
    c = p.coeffs.tolist()
    tol_bits = 2.0**-cfg.precision_bits

    def root(x, width=0.0, res=0.0):
        return RealRoot(x, width, res, iv)

    def converged(x, width):  # one more evaluation, for the residual
        v, _ = _kernels.horner_pair(c, x)
        return root(x, width, abs(v))

    lo, hi = float(iv.lo), float(iv.hi)
    flo, _ = _kernels.horner_pair(c, lo)
    fhi, _ = _kernels.horner_pair(c, hi)
    if flo == 0.0:
        return root(lo), 0, 0
    if fhi == 0.0:
        return root(hi), 0, 0
    if not (flo < 0.0 < fhi or fhi < 0.0 < flo):
        raise ValueError(f"p has no sign change on [{lo!r}, {hi!r}]")
    slo = math.copysign(1.0, flo)

    y = 0.5 * lo + 0.5 * hi  # lo + hi may overflow
    steps = 0
    rounds = 0
    while True:
        rounds += 1
        bracket = (lo, hi)
        for _ in range(3):
            f, df = _kernels.horner_pair(c, y)
            steps += 1
            if f == 0.0:
                return root(y), steps, rounds
            if math.copysign(1.0, f) == slo:
                lo = y
            else:
                hi = y
            if not _DERIV_FLOOR <= abs(df) < math.inf:  # tiny, overflowed or nan
                break
            y_next = y - f / df
            if not (lo <= y_next <= hi):
                break
            if abs(y_next - y) < tol_bits * max(1.0, abs(y_next)):
                if y_next != y:
                    return converged(y_next, 2.0 * abs(y_next - y)), steps + 1, rounds
                # a step that rounds to nothing would claim width 0: ask for a sign flip
                nb = math.nextafter(y, hi if y == lo else lo)
                fnb, _ = _kernels.horner_pair(c, nb)
                if fnb == 0.0 or math.copysign(1.0, fnb) != math.copysign(1.0, f):
                    return root(y, 2.0 * abs(nb - y), abs(f)), steps + 1, rounds
                lo, hi = (nb, hi) if y == lo else (lo, nb)
                break
            y = y_next
        # one bisection step, keep the half with the sign change
        m = 0.5 * lo + 0.5 * hi
        fm, _ = _kernels.horner_pair(c, m)
        if fm == 0.0:
            return root(m), steps, rounds
        if math.copysign(1.0, fm) == slo:
            lo = m
        else:
            hi = m
        y = 0.5 * lo + 0.5 * hi
        if hi - lo < tol_bits * max(1.0, abs(y)):
            return converged(y, hi - lo), steps, rounds
        if (lo, hi) == bracket:
            return IsolationInterval(lo, hi, "suspect_ill_conditioned"), steps, rounds


def refine_interval(p: Polynomial, iv: IsolationInterval, cfg: IsolatorConfig = None):
    """Stage 3 for one interval: Newton in rounds of three, each ending in a bisection.

    A round's Newton steps start at the bracket's midpoint and end early when
    an iterate leaves the bracket or the derivative is tiny or not finite.
    Stops when successive iterates, or the bracket's ends, differ by less than
    ``2**-precision_bits * max(1, |y|)``; a Newton step that rounds to nothing
    stops only at a sign flip between the iterate and its float neighbour,
    which the width then spans.  A round that moves neither end (adjacent
    floats that miss the stop test, Newton declining) would repeat forever,
    so the bracket comes back ``suspect_ill_conditioned``.  Raises ValueError
    unless both ends are finite and their values differ in sign or one is 0.
    """
    _require_real(p)
    if not (math.isfinite(iv.lo) and math.isfinite(iv.hi)):
        raise ValueError("interval endpoints must be finite")
    result, _, _ = _refine(p, iv, cfg or IsolatorConfig())
    return result


def _positive_root_bound(c):
    """Cauchy-style upper bound on the positive roots of ``c`` (ascending), or None if none.

    Only coefficients whose sign opposes the leading one can create a positive
    root; if there are none the polynomial is single-signed on (0, inf).
    """
    lead = c[-1] > 0
    b = _ratio_bound([abs(a) if (a > 0) != lead else 0.0 for a in c[:-1]] + [abs(c[-1])])
    return b if b > 0.0 else None


def narrow_root_ranges(p: Polynomial):
    """Outer bounds for the positive and negative roots from four transforms.

    Upper bounds come from the coefficients and from those of the argument
    negation (odd coefficients flipped); lower bounds are the reciprocals of
    the bounds for their reversals.  A range is None when that sign has no
    roots at all.  A zero constant term reports the lower bounds as 0.
    """
    _require_real(p)
    if p.coeffs[-1] == 0:
        raise ValueError("leading coefficient must be nonzero")
    c = p.coeffs.tolist()
    ranges = []
    for q in (c, [-a if i % 2 else a for i, a in enumerate(c)]):
        hi = _positive_root_bound(q)
        # a zero constant term is a root at 0; the reversal's roots are the reciprocals
        inv = math.inf if q[0] == 0 else _positive_root_bound(q[::-1])
        ranges.append(None if hi is None or inv is None else (1.0 / inv, hi))
    pos_range, neg_range = ranges
    return pos_range, None if neg_range is None else (-neg_range[1], -neg_range[0])


def _clip_to_ranges(candidates, pos_range, neg_range):
    """Clip each ``(lo, hi)`` candidate, which never straddles 0, to its sign's root range."""
    out = []
    for lo, hi in candidates:
        rng = (0.0, 0.0) if lo == hi == 0.0 else pos_range if lo >= 0.0 else neg_range
        if rng is not None:
            lo, hi = max(lo, rng[0]), min(hi, rng[1])
            if lo <= hi:
                out.append((lo, hi))
    return out


def _dedup_roots(roots, bits):
    """Merge roots that agree within tolerance, keeping the smallest residual."""
    if not roots:
        return []
    roots = sorted(roots, key=lambda r: r.value)
    out = [roots[0]]
    for r in roots[1:]:
        tol = 2.0 ** (1 - bits) * max(1.0, abs(r.value))
        if abs(r.value - out[-1].value) <= tol:
            if r.residual < out[-1].residual:
                out[-1] = r
        else:
            out.append(r)
    return out


def isolate_real_roots(p: Polynomial, cfg: IsolatorConfig = None) -> RealIsolationResult:
    """All three stages, run once.

    The radii are estimated within ``1 + 1e-3``, the candidates clipped to
    the root ranges are sign-tested once, and each sign-change interval is
    refined until it converges or a round moves neither end.  Suspects are
    the candidates whose sign test overflowed and the brackets whose
    refinement stalled that way.  Converged roots within ``2**(1-b) *
    max(1, |x|)`` of each other are merged, keeping the smaller residual:
    below 1 the tolerance is absolute, so roots that close to 0 become one.
    """
    cfg = cfg or IsolatorConfig()
    _require_real(p)
    if p.is_zero:
        raise ValueError("every x is a root of the zero polynomial")
    stats = {"squarings": 0, "sign_evals": 0, "newton_steps": 0, "max_newton_rounds": 0}
    if p.degree == 0:
        return RealIsolationResult((), (), stats)

    pos_range, neg_range = narrow_root_ranges(p)
    est = refined_radii(p, _RADII_TARGET)
    cands = _clip_to_ranges(_candidates(est), pos_range, neg_range)
    selected, zeros, suspects, nevals = _select(p, cands)
    stats.update(squarings=est.squarings_used, sign_evals=nevals)
    roots = [RealRoot(z.lo, 0.0, 0.0, z) for z in zeros]
    for iv in selected:
        got, steps, rounds = _refine(p, iv, cfg)
        stats["newton_steps"] += steps
        stats["max_newton_rounds"] = max(stats["max_newton_rounds"], rounds)
        if isinstance(got, RealRoot):
            roots.append(got)
        else:
            suspects.append(got)
    roots = _dedup_roots(roots, cfg.precision_bits)
    return RealIsolationResult(tuple(roots), tuple(suspects), stats)
