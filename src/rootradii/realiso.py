"""Real-root isolation: radii estimates -> candidate intervals -> sign changes
-> bracketed Newton refinement.

The three stages:

1. every radius estimate ``r`` spawns up to two candidate intervals
   ``[r/(1+d), r(1+d)]`` and its mirror on the negative axis, ``d`` being the
   estimate's guaranteed relative error;
2. the polynomial's sign is computed once per distinct interval endpoint and
   every candidate whose endpoint signs differ is selected (an odd number of
   roots lies inside such an interval);
3. each selected interval is refined by Newton iterations from its midpoint,
   in rounds of three, falling back to one bisection step (keeping the half
   with the sign change) whenever an iterate escapes the bracket.

Only simple, well-isolated real roots are found this way: an even-multiplicity
root never produces a sign change and is invisible by design.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import _kernels
from .poly import Polynomial, negate_arg, reverse
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

_ENDPOINT_MERGE_RTOL = 1e-12
_DERIV_FLOOR = 1e-300
# radii tolerance of the first pass; each retry divides it by ten
_FIRST_PASS_TARGET = 0.001


@dataclass(frozen=True)
class IsolatorConfig:
    """Tuning knobs for the isolation pipeline.

    ``precision_bits`` sets the target relative error ``1/2**precision_bits``
    of refined roots; ``max_real_roots`` caps the refined roots returned;
    ``work_budget`` caps the total refinement effort, counted in polynomial
    evaluations (a Newton step costs two, a bisection one); ``max_retries``
    caps the retries, each of which re-runs the radii at a ten-fold smaller
    tolerance where suspects remain.
    """

    precision_bits: int = 27
    max_real_roots: Optional[int] = None
    work_budget: int = 4096
    max_retries: int = 2

    def __post_init__(self):
        if self.precision_bits < 1:
            raise ValueError("precision_bits must be >= 1")
        if self.work_budget <= 0:
            raise ValueError("work_budget must be positive")
        if self.max_real_roots is not None and self.max_real_roots < 1:
            raise ValueError("max_real_roots must be >= 1")


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


def candidate_intervals(radii: RadiiEstimate):
    """Stage 1: up to two candidate intervals per radius estimate.

    A radius ``r`` with guarantee factor ``1+d`` yields ``[r/(1+d), r(1+d)]``
    and ``[-r(1+d), -r/(1+d)]``; a zero radius yields the single point
    ``[0, 0]``.  Coinciding intervals (endpoints equal within 1e-12 relative)
    are merged; mere overlaps are kept, they carry information.
    """
    fac = radii.rel_factor
    raw = []
    for r in radii.radii:
        r = float(r)
        if r == 0.0:
            raw.append((0.0, 0.0))
        else:
            raw.append((r / fac, r * fac))
            raw.append((-r * fac, -r / fac))
    raw.sort()
    out = []
    for lo, hi in raw:
        if out:
            plo, phi = out[-1]
            tol_lo = _ENDPOINT_MERGE_RTOL * max(1.0, abs(lo))
            tol_hi = _ENDPOINT_MERGE_RTOL * max(1.0, abs(hi))
            if abs(lo - plo) <= tol_lo and abs(hi - phi) <= tol_hi:
                continue
        out.append((lo, hi))
    return [IsolationInterval(lo, hi, "candidate") for lo, hi in out]


def _distinct_endpoints(intervals):
    """Sorted endpoint set with near-coincident points (1e-12 relative) merged.

    Also returns, per interval, the indices of the merged points that its
    ``lo`` and ``hi`` went into.
    """
    pts = [t for iv in intervals for t in (iv.lo, iv.hi)]
    merged = []
    rep = [0] * len(pts)
    for k in sorted(range(len(pts)), key=pts.__getitem__):
        t = pts[k]
        if not (merged and abs(t - merged[-1]) <= _ENDPOINT_MERGE_RTOL * max(1.0, abs(t))):
            merged.append(t)
        rep[k] = len(merged) - 1
    return merged, list(zip(rep[0::2], rep[1::2]))


def _select(p: Polynomial, candidates):
    """Sign-test every candidate interval, evaluating each distinct endpoint once.

    Returns (selected sign-change intervals, exact-zero degenerate intervals,
    overflow-suspect intervals, number of sign evaluations).
    """
    if not candidates:
        return [], [], [], 0
    merged, ends = _distinct_endpoints(candidates)
    xs = np.array(merged, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = _kernels.horner_points(np.asarray(p.coeffs, dtype=np.float64), xs)
    finite = np.isfinite(vals)
    signs = np.sign(vals)

    selected = []
    zeros = []
    suspects = []
    seen_zero = set()
    for iv, (i_lo, i_hi) in zip(candidates, ends):
        if not (finite[i_lo] and finite[i_hi]):
            suspects.append(IsolationInterval(iv.lo, iv.hi, "suspect_ill_conditioned"))
            continue
        hit = False
        for idx in (i_lo, i_hi):
            if signs[idx] == 0.0 and idx not in seen_zero:
                seen_zero.add(idx)
                zeros.append(IsolationInterval(merged[idx], merged[idx], "refined"))
                hit = True
        if hit:
            continue
        if signs[i_lo] * signs[i_hi] < 0:
            selected.append(IsolationInterval(iv.lo, iv.hi, "sign_change"))
    return selected, zeros, suspects, len(merged)


def select_sign_change_intervals(p: Polynomial, candidates):
    """Stage 2: the candidates whose endpoint signs differ.

    The polynomial is evaluated once per distinct endpoint (at most ``4n`` of
    them).  An exact zero at an endpoint comes back as a degenerate refined
    interval at that point; an overflowing evaluation marks the interval
    suspect instead of aborting.
    """
    selected, zeros, suspects, _ = _select(p, candidates)
    return selected + zeros + suspects


@np.errstate(over="ignore", invalid="ignore")
def _refine(p: Polynomial, iv: IsolationInterval, cfg: IsolatorConfig, budget: int):
    """Bracketed Newton refinement of one sign-change interval.

    Returns (RealRoot | suspect IsolationInterval, evals, newton_steps, rounds).
    """
    c = np.asarray(p.coeffs, dtype=np.float64)
    tol_bits = 2.0**-cfg.precision_bits

    def residual_at(x):
        v, _ = _kernels.horner_pair(c, float(x))
        return abs(v)

    if iv.lo == iv.hi:
        return RealRoot(iv.lo, 0.0, residual_at(iv.lo), iv), 1, 0, 0

    lo, hi = iv.lo, iv.hi
    evals = 0
    flo, _ = _kernels.horner_pair(c, lo)
    fhi, _ = _kernels.horner_pair(c, hi)
    evals += 2
    if flo == 0.0:
        return RealRoot(lo, 0.0, 0.0, iv), evals, 0, 0
    if fhi == 0.0:
        return RealRoot(hi, 0.0, 0.0, iv), evals, 0, 0
    slo = math.copysign(1.0, flo)

    y = 0.5 * (lo + hi)
    steps = 0
    rounds = 0
    while evals < budget:
        rounds += 1
        need_bisect = False
        for _ in range(3):
            f, df = _kernels.horner_pair(c, y)
            evals += 2
            steps += 1
            if f == 0.0:
                return RealRoot(y, 0.0, 0.0, iv), evals, steps, rounds
            if math.copysign(1.0, f) == slo:
                lo = y
            else:
                hi = y
            if not _DERIV_FLOOR <= abs(df) < math.inf:  # tiny, overflowed or nan
                need_bisect = True
                break
            y_next = y - f / df
            if not (lo <= y_next <= hi):
                need_bisect = True
                break
            if abs(y_next - y) < tol_bits * max(1.0, abs(y_next)):
                width = 2.0 * abs(y_next - y)
                res = residual_at(y_next)
                evals += 1
                return RealRoot(float(y_next), width, res, iv), evals, steps + 1, rounds
            y = y_next
        if not need_bisect and evals >= budget:
            break
        # one bisection step, keep the half with the sign change
        m = 0.5 * (lo + hi)
        fm, _ = _kernels.horner_pair(c, m)
        evals += 1
        if fm == 0.0:
            return RealRoot(m, 0.0, 0.0, iv), evals, steps, rounds
        if math.copysign(1.0, fm) == slo:
            lo = m
        else:
            hi = m
        y = 0.5 * (lo + hi)
        if hi - lo < tol_bits * max(1.0, abs(y)):
            res = residual_at(y)
            evals += 1
            return RealRoot(float(y), hi - lo, res, iv), evals, steps, rounds
    return IsolationInterval(lo, hi, "suspect_ill_conditioned"), evals, steps, rounds


def refine_interval(p: Polynomial, iv: IsolationInterval, cfg: IsolatorConfig = None):
    """Stage 3 for one interval: Newton in rounds of three, guarded by bisection.

    Stops when successive iterates differ by less than
    ``2**-precision_bits * max(1, |y|)``; if the evaluation budget runs out
    first, the (shrunken) interval comes back with status
    ``suspect_ill_conditioned``.
    """
    cfg = cfg or IsolatorConfig()
    result, _, _, _ = _refine(p, iv, cfg, cfg.work_budget)
    return result


def _positive_root_bound(p: Polynomial):
    """Cauchy-style upper bound on positive roots, or None when there are none.

    Only coefficients whose sign opposes the leading one can create a positive
    root; if there are none the polynomial is single-signed on (0, inf).
    """
    c = p.coeffs
    n = p.degree
    an = c[n]
    best = None
    for i in range(1, n + 1):
        a = c[n - i]
        if a != 0.0 and (a > 0) != (an > 0):
            r = (abs(a) / abs(an)) ** (1.0 / i)
            if best is None or r > best:
                best = r
    return None if best is None else 2.0 * best


def narrow_root_ranges(p: Polynomial):
    """Outer bounds for the positive and negative roots from four transforms.

    Upper bounds come from the polynomial and its argument negation, lower
    bounds from their reversals; a range is None when that sign has no roots
    at all.  A zero constant term reports the lower bounds as 0.
    """
    if not p.is_real:
        raise ValueError("narrowing requires real coefficients")
    if p.coeffs[-1] == 0:
        raise ValueError("leading coefficient must be nonzero")

    def lower_from_reverse(q):
        if q.coeffs[0] == 0:
            return 0.0
        b = _positive_root_bound(reverse(q))
        if b is None:
            return None
        return 1.0 / b

    pos_hi = _positive_root_bound(p)
    pos_lo = lower_from_reverse(p)
    neg = negate_arg(p)
    neg_hi = _positive_root_bound(neg)
    neg_lo = lower_from_reverse(neg)

    pos_range = None if (pos_hi is None or pos_lo is None) else (pos_lo, pos_hi)
    neg_range = None if (neg_hi is None or neg_lo is None) else (-neg_hi, -neg_lo)
    return pos_range, neg_range


def _clip_to_ranges(candidates, pos_range, neg_range):
    """Clip each candidate to the root range of its sign; candidates never straddle 0."""
    out = []
    for iv in candidates:
        if iv.lo == iv.hi == 0.0:
            out.append(iv)
            continue
        rng = pos_range if iv.lo >= 0.0 else neg_range
        if rng is None:
            continue
        lo = max(iv.lo, rng[0])
        hi = min(iv.hi, rng[1])
        if lo <= hi:
            out.append(IsolationInterval(lo, hi, iv.status))
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
    """All three stages, with adaptive retries on suspect intervals.

    If the first pass leaves suspects and retries remain, the radii are
    recomputed at a ten-fold smaller tolerance and only candidates meeting the
    suspect regions are re-refined.  Converged roots agreeing within
    ``2**(1-b)`` relative are merged.  Only refined roots count toward
    ``max_real_roots``; suspects do not.
    """
    cfg = cfg or IsolatorConfig()
    if not p.is_real:
        raise ValueError("real-root isolation requires real coefficients")
    n = p.degree
    stats = {"squarings": 0, "sign_evals": 0, "newton_steps": 0, "max_newton_rounds": 0}
    if n == 0:
        return RealIsolationResult((), (), stats)
    max_roots = cfg.max_real_roots if cfg.max_real_roots is not None else n

    target = _FIRST_PASS_TARGET
    pos_range, neg_range = narrow_root_ranges(p)

    roots = []
    suspects = []
    budget_left = cfg.work_budget
    for attempt in range(1 + cfg.max_retries):
        est = refined_radii(p, target)
        if attempt == 0:
            stats["squarings"] = est.squarings_used
        cands = _clip_to_ranges(candidate_intervals(est), pos_range, neg_range)
        if attempt > 0:
            # retry only where the previous pass ran out of budget
            cands = [
                iv
                for iv in cands
                if any(iv.lo <= s.hi and s.lo <= iv.hi for s in suspects)
            ]
            if not cands:
                break
        selected, zeros, overflow_suspects, nevals = _select(p, cands)
        stats["sign_evals"] += nevals
        suspects = list(overflow_suspects)
        for z in zeros:
            roots.append(RealRoot(z.lo, 0.0, 0.0, z))
        capped = False
        if selected:
            per_budget = max(8, math.ceil(budget_left / len(selected)))
            for iv in selected:
                got, evals, steps, rounds = _refine(p, iv, cfg, per_budget)
                budget_left = max(1, budget_left - evals)
                stats["newton_steps"] += steps
                stats["max_newton_rounds"] = max(stats["max_newton_rounds"], rounds)
                if isinstance(got, RealRoot):
                    roots.append(got)
                    if len(_dedup_roots(roots, cfg.precision_bits)) >= max_roots:
                        capped = True
                        break
                else:
                    suspects.append(got)
        if capped or not suspects:
            break
        target /= 10.0
    roots = _dedup_roots(roots, cfg.precision_bits)[:max_roots]
    return RealIsolationResult(tuple(roots), tuple(suspects), stats)
