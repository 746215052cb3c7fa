"""Complex-root isolation: Aberth sweeps from root-radii annuli, checked by Smith's discs.

``isolate_complex_roots`` certifies every root at once.  The root radii at
the origin group into annuli, and each annulus of multiplicity m gets m
starting points on its mid-circle.  Aberth's simultaneous iteration moves all
n points (vectorized sweeps; Bini & Robol, J. Comput. Appl. Math. 2014, start
MPSolve the same way).  Smith's theorem (J. ACM 17, 1970) then certifies the
result in O(n**2): every root lies in the union of the discs ``D(z_i, n |W_i|)``
with ``W_i = p(z_i) / (a_n prod_{j != i}(z_i - z_j))``, and a disc that
encloses some of them and meets none of the others holds exactly as many roots
as it encloses discs.  The radii are bounded with every rounding, so each
returned disc holds exactly its multiplicity, with no failure probability.
Where the values drown in rounding (clusters, badly conditioned roots),
Smith's discs grow wide enough to merge roots; the paper's root radii of
the polynomial shifted to one point (``distances_from_point``, certified)
then count the roots near that point.

The rest of the module is the paper's randomized Algorithm 2.  Where every
root lies on one circle, whose radii say nothing of the roots' arguments, its
confirmed nodes are the starting points tried first.
Distances from a point far outside the root disc to all roots are computable
(they are the root radii of the shifted polynomial), and each distance pins a
root to a thin annulus.  A family's annuli all share its shift center.  Two
families, shifted far along the real and imaginary axes, cross inside the
root disc in near-square nodes: mid-circles of radii s1, s2 whose centers lie
d apart meet at height h over the line of centers, at the closed-form angle
sin(alpha) = d*h / (s1*s2).  Every root sits in a node, but so do spurious
"ghost" crossings.  A third family at a random direction confirms a node when
one of its annuli meets that node and no other; ghosts are confirmed by nobody
and are dropped.  The direction is drawn uniformly from [pi/8, 3pi/8], which
bounds the confusion probability for well-separated nodes.
"""

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .poly import Polynomial, PrecisionLossError, root_radius_upper_bound
from .radii import choose_iteration_count, distances_from_point, refined_radii

__all__ = [
    "Annulus",
    "AnnulusFamily",
    "GridNode",
    "ComplexInclusion",
    "ComplexIsolationResult",
    "shifted_families",
    "grid_from_two_families",
    "disambiguate_with_third",
    "theoretical_separation",
    "line_disc_intersection_prob",
    "isolate_complex_roots",
]

# ~16*sqrt(2): (2/gamma) for an eighth-of-a-turn direction window, times the
# sqrt(2) inflation from a node's half-width to its covering disc
SEPARATION_CONSTANT = 22.63


@dataclass(frozen=True)
class Annulus:
    inner: float
    outer: float
    multiplicity: int = 1

    def __post_init__(self):
        if not 0.0 <= self.inner <= self.outer:
            raise ValueError("need 0 <= inner <= outer")
        if self.multiplicity < 1:
            raise ValueError("multiplicity must be >= 1")

    @property
    def mid_radius(self):
        return 0.5 * (self.inner + self.outer)

    @property
    def width(self):
        return self.outer - self.inner


@dataclass(frozen=True)
class AnnulusFamily:
    shift_center: complex
    annuli: tuple

    @property
    def total_multiplicity(self):
        return sum(a.multiplicity for a in self.annuli)


@dataclass(frozen=True)
class GridNode:
    center: complex
    half_width: float
    multiplicity: int

    @property
    def disc_radius(self):
        return self.half_width * math.sqrt(2.0)


@dataclass(frozen=True)
class ComplexInclusion:
    disc_center: complex
    disc_radius: float
    multiplicity: int
    failure_prob_bound: float


@dataclass(frozen=True)
class ComplexIsolationResult:
    inclusions: tuple
    unresolved: tuple  # nodes met only by ambiguous third-family annuli
    phi: float
    separation_bound: float  # distance beyond which disambiguation fails w.p. <= eps
    separation_bound_n4: float  # the coarser all-pairs variant, reported for comparison
    stats: dict = field(default_factory=dict)


def _merge_chains(radii, rel_factor):
    """Collapse chains of pairwise-overlapping radius intervals into one annulus.

    Coinciding intervals arise from multiple roots, near-coinciding ones from
    clusters; a chain of m of them becomes a single annulus of multiplicity m.
    """
    annuli = []
    cur_inner = cur_outer = None
    cur_mult = 0
    for r in radii.tolist():  # non-increasing: each interval sits at or below the chain
        inner = r / rel_factor
        outer = r * rel_factor
        if cur_mult and outer >= cur_inner:
            cur_inner = min(cur_inner, inner)
            cur_mult += 1
        else:
            if cur_mult:
                annuli.append(Annulus(cur_inner, cur_outer, cur_mult))
            cur_inner, cur_outer, cur_mult = inner, outer, 1
    if cur_mult:
        annuli.append(Annulus(cur_inner, cur_outer, cur_mult))
    return annuli


def shifted_families(p: Polynomial, rho: float, eta: float = 100.0, phi: float = math.pi / 4):
    """Stage 1-2: three families of thin annuli around far shift centers.

    The shift centers are ``-eta*r1p``, ``-eta*r1p*i`` and
    ``-eta*r1p*exp(i*phi)`` where ``r1p`` bounds every root radius; each
    family's annuli radii are the distances from its center to all roots,
    estimated to relative error ``rho / ((r1p + 1) * eta)``.
    """
    if not 0.0 < rho < math.inf:
        raise ValueError("rho must be positive and finite")
    if not 0.0 < eta < math.inf:
        raise ValueError("eta must be positive and finite")
    n = p.degree
    if n < 1:
        raise ValueError("need degree >= 1")
    r1p = root_radius_upper_bound(p)
    a = eta * r1p
    target = rho / ((r1p + 1.0) * eta)
    if not (a < math.inf and target > 0.0):
        raise PrecisionLossError(
            f"root bound {r1p:.3e} puts the shift centers or the target error outside the float range"
        )
    centers = (
        complex(-a, 0.0),
        complex(0.0, -a),
        -a * cmath.exp(1j * phi),
    )
    planned = choose_iteration_count(n, target)
    fams = []
    for z in centers:
        est = distances_from_point(p, z, target)
        if est.squarings_used < planned and est.rel_factor - 1.0 > target:
            raise PrecisionLossError(
                f"squaring lost precision; achievable tolerance {est.rel_factor - 1.0:.3e}"
                f" vs requested {target:.3e}"
            )
        annuli = _merge_chains(est.radii, est.rel_factor)
        fams.append(AnnulusFamily(shift_center=z, annuli=tuple(annuli)))
    return fams[0], fams[1], fams[2]


def grid_from_two_families(f1: AnnulusFamily, f2: AnnulusFamily, r1_plus: float):
    """Stage 3: intersect annulus pairs from the two families inside D(0, r1+).

    A family's annuli share its shift center, so ``d = |z2 - z1|`` is taken
    once.  Mid-circles of radii ``s1``, ``s2`` cross at height ``h`` over the
    line of centers, at ``sin(alpha) = d*h / (s1*s2)``: a crossing in the root
    disc is a node of half-diagonal ``mean width / sin(alpha)`` and of the
    smaller multiplicity.  Raises PrecisionLossError if ``|z1|**2 < 2**-1022``.
    """
    z1 = complex(f1.shift_center)
    if abs(z1) ** 2 < 2.0**-1022:
        raise PrecisionLossError("roots too close to 0 for the grid's squared lengths")
    diff = complex(f2.shift_center) - z1
    d = abs(diff)
    if d == 0.0:
        return []
    u = diff / d
    nodes = []
    for a1 in f1.annuli:
        s1 = a1.mid_radius
        for a2 in f2.annuli:
            s2 = a2.mid_radius
            slack = 0.5 * (a1.width + a2.width)
            if s1 * s2 == 0.0:
                continue
            # circles that miss by at most slack count as tangent: one node
            if d > s1 + s2 + slack:
                continue
            if d < abs(s1 - s2) - slack:
                continue
            a = (d * d + s1 * s1 - s2 * s2) / (2.0 * d)
            h2 = s1 * s1 - a * a
            if h2 < -slack * (s1 + s2):
                continue
            h = math.sqrt(max(h2, 0.0))
            base = z1 + a * u
            off = h * complex(-u.imag, u.real)
            half_diag = slack / max(d * h / (s1 * s2), 1e-6)
            mult = min(a1.multiplicity, a2.multiplicity)
            for q in [base] if h == 0.0 else [base + off, base - off]:
                if abs(q) <= r1_plus + half_diag:
                    nodes.append(GridNode(q, half_diag / math.sqrt(2.0), mult))
    return nodes


def disambiguate_with_third(nodes, f3: AnnulusFamily, eps: float):
    """Stage 4: confirm every node that is the unique hit of some third-family annulus.

    An annulus "hits" a node when the node center's distance from the third
    shift center lies in [inner - hw*sqrt2, outer + hw*sqrt2].  Annuli hitting
    two or more nodes stay unresolved; nodes confirmed by nobody are ghosts
    and are dropped.  Returns (inclusions, unresolved_nodes); each inclusion
    carries ``eps`` as its failure-probability bound.
    """
    z3 = complex(f3.shift_center)
    d = np.array([abs(complex(node.center) - z3) for node in nodes])
    pad = np.array([node.disc_radius for node in nodes])
    inner = np.array([a.inner for a in f3.annuli])[:, None]
    outer = np.array([a.outer for a in f3.annuli])[:, None]
    hits = (inner - pad <= d) & (d <= outer + pad)  # annulus x node
    confirmed = hits[hits.sum(axis=1) == 1].any(axis=0)
    touched = hits.any(axis=0)
    inclusions = [
        ComplexInclusion(
            disc_center=complex(node.center),
            disc_radius=node.disc_radius,
            multiplicity=node.multiplicity,
            failure_prob_bound=eps,
        )
        for node, ok in zip(nodes, confirmed)
        if ok
    ]
    unresolved = [node for node, ok, hit in zip(nodes, confirmed, touched) if hit and not ok]
    return inclusions, unresolved


def theoretical_separation(n_nodes: int, rho: float, eps: float) -> float:
    """Node-center distance beyond which a random annulus confuses nodes w.p. <= eps."""
    if n_nodes < 1:
        raise ValueError("need at least one node")
    if not 0.0 < rho < math.inf:
        raise ValueError("rho must be positive and finite")
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    return SEPARATION_CONSTANT * (n_nodes - 1) * rho / eps


def line_disc_intersection_prob(gamma: float, rho_prime: float, dist: float) -> float:
    """Upper bound (2/gamma) * arctan(rho'/dist) on a random line hitting a disc.

    ``gamma`` is the width of the direction range as a fraction of the full
    turn (pi/4 radians -> gamma = 1/8).  The bound may exceed 1; it is an
    upper estimate, not a sharp probability.
    """
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must lie in (0, 1]")
    if not 0.0 <= rho_prime < math.inf:
        raise ValueError("rho_prime must be finite and >= 0")
    if not 0.0 < dist < math.inf:
        raise ValueError("dist must be positive and finite")
    return (2.0 / gamma) * math.atan(rho_prime / dist)


# unit roundoff of float64
_U = 2.0**-53
# the annuli that place the starting points: root radii within 10 %
_START_TARGET = 0.1
# a point is frozen once its Aberth step is at most this fraction of it
_FROZEN = 1e-14
_MAX_SWEEPS = 200
# the sweeps end early once, for this many sweeps, no point froze and the
# largest step of the points still moving did not halve: a cluster's points
# only wander at the rounding level there
_STALLED = 10
# the paper's Algorithm 2 places starting points to within this fraction of
# the root bound, and not above this degree
_PAPER_RHO = 0.01
_PAPER_MAX_DEGREE = 32
# a relative 2**-40 covers the rounding of the last few operations of a
# Smith radius and of a gap between discs, far above their actual error
_ROUND_UP = 1.0 + 2.0**-40


def _starting_points(annuli, phi: float) -> np.ndarray:
    """m points on the mid-circle ``sqrt(inner * outer)`` of each annulus of multiplicity m.

    The k-th annulus's points start at the angle ``phi + 0.7 (k + 1)``.
    """
    pts = []
    for k, a in enumerate(annuli):
        t = np.arange(a.multiplicity)
        angle = 2.0 * np.pi * t / a.multiplicity + 0.7 * (k + 1) + phi
        pts.append(math.sqrt(a.inner) * math.sqrt(a.outer) * np.exp(1j * angle))
    return np.concatenate(pts)


def _paper_starting_points(q: Polynomial, z, phi: float, eta: float, eps: float):
    """The points ``z`` with the nodes confirmed by the paper's Algorithm 2 put in place of the nearest.

    Algorithm 2 runs at ``rho = 0.01 r1+`` with the shift distance ``eta``
    and the third direction ``phi``.  A confirmed node of multiplicity m
    takes m points on the circle of its disc radius about its center.
    Returns None where Algorithm 2 does not run: above degree 32 (its
    squarings run on ``16n``-bit integers, and at n = 32 it already takes
    about 20 times as long as the sweeps), or where it raises
    PrecisionLossError.
    """
    if q.degree > _PAPER_MAX_DEGREE:
        return None
    r1p = root_radius_upper_bound(q)
    try:
        f1, f2, f3 = shifted_families(q, _PAPER_RHO * r1p, eta, phi)
        nodes = grid_from_two_families(f1, f2, r1p)
    except PrecisionLossError:
        return None
    confirmed, _ = disambiguate_with_third(nodes, f3, eps)
    z = z.copy()
    free = np.ones(len(z), dtype=bool)
    for inc in confirmed:
        m = inc.multiplicity
        ring = inc.disc_center + (inc.disc_radius if m > 1 else 0.0) * np.exp(2j * np.pi * np.arange(m) / m)
        for w in ring:
            idx = np.flatnonzero(free)
            if not len(idx):
                return z
            j = idx[np.argmin(np.abs(z[idx] - w))]
            z[j], free[j] = w, False
    return z


def _inverse(z):
    """``1/z`` and whether ``|z| > 1``, elementwise.

    The reciprocal is ``conj(z) / |z|**2`` after an exact power-of-two scaling
    of ``z`` to modulus in [0.5, 1), so each part carries a relative error of
    at most ``(3 + 1e-9) u``.
    """
    az = np.abs(z)
    _, ex = np.frexp(az)
    zr, zi = np.ldexp(z.real, -ex), np.ldexp(z.imag, -ex)
    with np.errstate(divide="ignore", invalid="ignore"):
        m2 = zr * zr + zi * zi
        y = np.ldexp(zr / m2, -ex) - 1j * np.ldexp(zi / m2, -ex)
    return y, az > 1.0


def _horner_at(c, z):
    """Coefficients (one column per point) and argument at which ``p`` is evaluated at ``z``.

    ``p`` itself where ``|z| <= 1``, and the reversed polynomial at ``1/z``
    elsewhere, where ``p(z) = z**n rev(1/z)``.  Returns (coefficient matrix,
    arguments, mask of the points with ``|z| > 1``).
    """
    y, far = _inverse(z)
    cm = np.where(far[None, :], c[::-1, None], c[:, None])
    return cm, np.where(far, y, z), far


def _aberth(c, z):
    """Vectorized Aberth sweeps on all points of ``z`` (in place) for the coefficients ``c``.

    The Newton quotient ``N = p/p'`` is ``z / (n - y rev'(y)/rev(y))`` with
    ``y = 1/z`` where ``|z| > 1``.  Every sweep moves each point still active
    by ``w = N / (1 - N sum_{j != i} 1/(z_i - z_j))``, over all points; a
    point is frozen once ``|w| <= 1e-14 |z|``, or where ``w`` or the moved
    point is not finite (it then keeps its last finite place).  Returns the
    sweeps made and the points frozen.
    """
    n = len(c) - 1
    active = np.arange(n)
    sweeps = stalled = 0
    best = math.inf
    while len(active) and sweeps < _MAX_SWEEPS:
        za = z[active]
        cm, x, far = _horner_at(c, za)
        with np.errstate(all="ignore"):
            v, d = _kernels.horner_pair(cm, x)
            ratio = d / v
            nq = np.where(far, za / (n - x * ratio), 1.0 / ratio)
            diff = za[:, None] - z[None, :]
            diff[np.arange(len(active)), active] = np.inf
            w = nq / (1.0 - nq * (1.0 / diff).sum(axis=1))
            moved = za - w
            step = np.abs(w) / np.abs(moved)
        ok = np.isfinite(moved)
        z[active[ok]] = moved[ok]
        done = ~(step > _FROZEN) | ~ok
        sweeps += 1
        moving = step[~done]
        if len(moving):
            if moving.max() < 0.5 * best or done.any():
                best, stalled = min(best, moving.max()), 0
            else:
                stalled += 1
                if stalled == _STALLED:
                    break
        active = active[~done]
    return sweeps, n - len(active)


def _smith_radii(c, z):
    """Upper bounds on Smith's radii ``n |p(z_i)| / |a_n prod_{j != i}(z_i - z_j)|``.

    Every rounding is bounded (``u = 2**-53``, ``S_i`` the computed
    ``sum |c_k| |x_i|**k`` at the evaluation point ``x_i``):

    - ``|z| <= 1``: complex Horner errs by at most ``(4n + 2) u`` times the
      exact ``S_i`` (Higham's Horner bound with ``sqrt(2) gamma_2`` per complex
      product), and the exact ``S_i`` exceeds the computed one by less than
      ``(3n + 2) u`` relative.  ``5 (n + 1) u S_i`` bounds both.
    - ``|z| > 1``: ``p(z) = z**n rev(1/z)``, evaluated at ``y``, the
      reciprocal of ``_inverse`` with relative error at most ``4u``.  Moving
      the argument by that much moves ``rev`` by at most ``4nu`` times ``S_i``
      to first order; with Horner's own error, ``10 (n + 1) u S_i`` bounds
      both.  ``|z|**n / prod |z_i - z_j|`` is formed as ``|z_i| / prod
      (|z_i - z_j| / |z_i|)``, which stays in range.
    - Each factor of the product carries at most ``6u`` (difference,
      modulus, quotient), each product ``u``: the product is shrunk by
      ``1 - 8 (n + 1) u``.  The factors' exponents are summed as integers, so
      the product neither overflows nor underflows.
    - The last few operations are covered by ``_ROUND_UP``, and the radius is
      raised by the smallest subnormal against an underflow.

    A radius that is not finite (a product that is 0, a value that
    overflowed) comes out as ``inf``.
    """
    n = len(c) - 1
    cm, x, far = _horner_at(c, z)
    with np.errstate(all="ignore"):
        v = np.abs(_kernels.horner_points(cm, x))
        s = _kernels.horner_points(np.abs(cm), np.abs(x))
        az = np.abs(z)
        num = (v + np.where(far, 10.0, 5.0) * (n + 1) * _U * s) * np.where(far, az, 1.0)
        t = np.abs(z[:, None] - z[None, :]) / np.where(far, az, 1.0)[:, None]
        np.fill_diagonal(t, 1.0)
        mant, ex = np.frexp(t)
        prod, scale = np.ones(n), ex.sum(axis=1)
        # 1000 factors in [0.5, 1) times one more keep the product normal
        for j in range(0, n, 1000):
            prod, e = np.frexp(prod * mant[:, j:j + 1000].prod(axis=1))
            scale += e
        den = abs(complex(c[-1])) * prod * (1.0 - 8.0 * (n + 1) * _U)
        r = np.ldexp(n * num / den * _ROUND_UP, -scale) + 2.0**-1074
    return np.where(r >= 0.0, r, np.inf)  # nan -> inf


def _meet(c1, r1, c2, r2):
    """Whether ``D(c1, r1)`` and ``D(c2, r2)`` may meet (broadcast), so that rounding never separates meeting discs.

    Squared lengths are compared; a rounding of at most ``5u`` on the squared
    distance and ``3u`` on the squared radius sum, plus underflow, is covered
    by the factor ``1 + 16u`` and the additive ``2**-1070``.
    """
    dz = c1 - c2
    with np.errstate(over="ignore", invalid="ignore"):
        d2 = dz.real * dz.real + dz.imag * dz.imag
        s2 = (r1 + r2) ** 2
        return ~(d2 > s2 * (1.0 + 16.0 * _U) + 2.0**-1070)


def _components(meet):
    """Index arrays of the connected components of the symmetric relation ``meet``."""
    label = np.full(len(meet), -1)
    comps = []
    for i in range(len(meet)):
        if label[i] >= 0:
            continue
        label[i] = len(comps)
        members, frontier = [i], np.array([i])
        while len(frontier):
            frontier = np.flatnonzero(meet[frontier].any(axis=0) & (label < 0))
            label[frontier] = len(comps)
            members.extend(frontier.tolist())
        comps.append(np.array(sorted(members)))
    return comps


def _disjoint_discs(centers, radii, mult):
    """Merge meeting discs into enclosing ones until no two meet.

    A merged disc is centered at the mean of the centers it encloses, with
    radius the largest ``|center - c| + radius``, rounded up.  It holds the
    sum of their multiplicities.  Returns the centers, radii, multiplicities
    and, per disc, the indices of the input discs it encloses.
    """
    groups = [np.array([i]) for i in range(len(centers))]
    while True:
        comps = _components(_meet(centers[:, None], radii[:, None], centers, radii))
        if len(comps) == len(centers):
            return centers, radii, mult, groups
        groups = [np.concatenate([groups[i] for i in idx]) for idx in comps]
        out = []
        for idx in comps:
            if len(idx) == 1:
                out.append((centers[idx[0]], radii[idx[0]], mult[idx[0]]))
                continue
            c = complex(centers[idx].mean())
            r = float(((np.abs(centers[idx] - c) + radii[idx]) * (1.0 + 8.0 * _U)).max())
            out.append((c, r, int(mult[idx].sum())))
        centers = np.array([o[0] for o in out], dtype=np.complex128)
        radii = np.array([o[1] for o in out])
        mult = np.array([o[2] for o in out])


def _certified_from(q, z, nzero, limit):
    """Aberth sweeps from the points ``z``, then Smith's discs, then the count rule on what stays wide.

    Smith's discs at ``z`` (plus ``nzero`` roots at 0) are merged until none
    meet.  A disc still wider than ``limit``, a cluster's as well as one of
    badly conditioned roots, gets the count rule (``_counted``); the discs
    then grow (``_grown``).  Returns the centers, radii and multiplicities
    (0 marks a wide disc whose roots were all counted), the sweeps made,
    the points frozen and the discs counted.
    """
    sweeps, frozen = _aberth(q, z)
    centers, radii = z, _smith_radii(q, z)
    mult = np.ones(len(z), dtype=int)
    if nzero:
        centers = np.append(centers, 0j)
        radii, mult = np.append(radii, 0.0), np.append(mult, nzero)
    centers, radii, mult, groups = _disjoint_discs(centers, radii, mult)
    centers, radii, mult, cap, parent = _counted(q, z, nzero, centers, radii, mult, groups, limit)
    radii = _grown(centers, radii, cap, parent)
    return centers, radii, mult, sweeps, frozen, int((parent >= 0).sum())


def _count_rule(q, w, limit, outer=math.inf):
    """The m for which the distances from ``w`` certify m roots in a disc about it within ``limit``.

    ``distances_from_point`` bounds the distances ``r_1 <= ... <= r_n`` from
    ``w`` to the roots of ``q`` within its certified factor ``f``, raised by
    ``_ROUND_UP`` for the float hull's own rounding.  Where the m nearest end
    before the next begins, ``r_m f < r_{m+1} / f``, every disc ``D(w, R)``
    with ``r_m f <= R < r_{m+1} / f`` holds exactly m roots; with ``r_{n+1}
    = inf``, m runs up to n.  Roots that are not roots of ``q`` (the split-off
    zero roots) lie no nearer to ``w`` than ``outer``, which caps every such
    ``R`` too.  Returns (m, ``r_m f``, ``min(r_{m+1} / f, outer)``) for each
    such m with ``r_m f <= limit``, in increasing m: empty where there is
    none or the distances raise PrecisionLossError.
    """
    try:
        est = distances_from_point(Polynomial(q), w, _START_TARGET)
    except PrecisionLossError:
        return []
    f = est.rel_factor * _ROUND_UP
    r = est.radii[::-1].tolist() + [math.inf]
    counts = []
    for m in range(1, len(r)):
        lo, hi = r[m - 1] * f, min(r[m] / f, outer)
        if not lo <= limit:
            break
        if lo < hi:
            counts.append((m, lo, hi))
    return counts


def _counted(q, z, nzero, centers, radii, mult, groups, limit):
    """Discs that the count rule certifies about the points and the center of each wide disc.

    Smith's discs of roots whose values drown in rounding, a cluster's or
    badly conditioned ones, can merge roots that narrower discs isolate.
    Each point of a wide disc gets the count rule (``_count_rule``) with the
    smallest m, but for a point inside another disc, whose counted disc
    would meet it.  A counted disc that meets no disc but its own wide one
    holds roots of that wide disc, whose multiplicity drops by as many.
    Where the points leave roots of ``q`` uncounted, the disc's center gets
    the count rule too, kept only if it takes all the disc's roots of ``q``,
    in place of the points' discs: that takes a cluster whole even where no
    point came near one of its roots.  The count rule counts the roots of
    ``q``, so its discs stay short of the ``nzero`` roots at 0; once a wide
    disc that holds those has all its roots of ``q`` counted, the exact disc
    ``(0, 0)`` takes the rest.  Returns the discs with the counted ones
    appended: centers, radii, multiplicities, the largest radius each may
    grow to, and each counted disc's wide disc (-1 for the others).
    """
    cap = np.full(len(centers), limit)
    parent = np.full(len(centers), -1)
    mult = mult.copy()
    for k in np.flatnonzero(radii > limit).tolist():
        points = z[groups[k][groups[k] < len(z)]].tolist()
        start, zeros = len(centers), nzero if len(z) in groups[k] else 0
        for j, w in enumerate(points + [complex(centers[k])]):
            center = j == len(points)
            if center and mult[k] == zeros:  # the points counted every root of q
                break
            n = start if center else len(centers)
            inside = _meet(centers[:n], radii[:n], w, 0.0)
            inside[k] = False
            if inside.any():
                continue
            counts = _count_rule(q, w, limit, abs(w) / _ROUND_UP if nzero else math.inf)
            counts = [c for c in counts if not center or c[0] == len(points)]
            if not counts:
                continue
            m, lo, hi = counts[0]
            meet = _meet(centers[:n], radii[:n], w, lo)
            meet[k] = False
            if meet.any():
                continue
            if center:  # in place of the points' discs
                mult[k] = zeros + len(points)
                centers, radii, mult, cap, parent = centers[:n], radii[:n], mult[:n], cap[:n], parent[:n]
            centers, radii = np.append(centers, w), np.append(radii, lo)
            mult, cap, parent = np.append(mult, m), np.append(cap, min(limit, hi / _ROUND_UP)), np.append(parent, k)
            mult[k] -= m
        if zeros and mult[k] == zeros:  # all its roots of q counted: the rest lie at 0
            centers, radii = np.append(centers, 0j), np.append(radii, 0.0)
            mult, cap, parent = np.append(mult, zeros), np.append(cap, 0.0), np.append(parent, -1)
            mult[k] = 0
    return centers, radii, mult, cap, parent


def _grown(centers, radii, cap, parent):
    """Radii grown toward ``cap``, by at most a quarter of each disc's gap to its nearest neighbour.

    A disc of radius 0 is exact (the zero roots, or a point that is a root)
    and keeps its radius.  A counted disc ignores the wide disc it lies in
    (``parent``); the wide discs, above ``cap``, do not grow.

    The discs are pairwise disjoint, and the grown ones stay so: two grown
    radii add up to at most the two radii plus half their gap, and the gaps
    are measured on distances shrunk by ``2**-40``, far above their rounding.
    """
    with np.errstate(invalid="ignore"):
        gap = np.abs(centers[:, None] - centers[None, :]) / _ROUND_UP - radii[:, None] - radii[None, :]
        np.fill_diagonal(gap, np.inf)
        inside = np.flatnonzero(parent >= 0)
        gap[inside, parent[inside]] = np.inf
        grow = np.minimum(cap - radii, 0.25 * gap.min(axis=1))
    return radii + np.where((grow > 0.0) & (radii > 0.0), grow, 0.0)


def _left(out, limit):
    """Roots left in discs wider than ``limit`` by one ``_certified_from`` result."""
    _, radii, mult = out[:3]
    return mult[radii > limit].sum()


def isolate_complex_roots(
    p: Polynomial,
    rho: float,
    eps: float,
    seed: int,
    eta: float = 100.0,
) -> ComplexIsolationResult:
    """Certified isolation of all complex roots: Aberth sweeps checked by Smith's discs.

    Every returned inclusion holds exactly ``multiplicity`` roots, counted
    with multiplicity, and its radius is at most ``rho * sqrt(2)``; its
    ``failure_prob_bound`` is 0.  The inclusions are pairwise disjoint, and
    disjoint from the unresolved discs except where the count rule (below)
    certified them inside one.

    - Exact zero roots (vanishing low-order coefficients) are split off as
      the exact disc ``(0, 0)``; ``q`` is the rest.
    - ``n`` starting points are placed on the annuli of ``q``'s root radii
      (``_starting_points``; the seeded angle ``phi`` rotates them), and
      moved by Aberth sweeps (``_aberth``).
    - When every root lies on one circle (all radii within the square of
      their factor of each other), the radii say nothing of the roots'
      arguments: the nodes that the paper's Algorithm 2 confirms take the
      place of the nearest of these points (``_paper_starting_points``, at
      degree 32 and below).  If that leaves a root unresolved, the plain
      points are tried too, and the set that leaves fewer roots unresolved
      is kept.
    - Smith's theorem (J. ACM 17, 1970): with ``W_i = q(z_i) / (a_n
      prod_{j != i}(z_i - z_j))``, every root lies in the union of the discs
      ``D(z_i, n |W_i|)``, and a disc enclosing some of them that meets none
      of the others holds exactly as many roots as it encloses discs.
      ``_smith_radii`` bounds the radii with every rounding.
    - Meeting discs are merged into enclosing discs until none meet; each
      merged disc holds the sum of its multiplicities.  A disc that meets
      the zero roots' disc is merged with it.
    - A disc still wider than ``rho * sqrt(2)``, of a cluster as of badly
      conditioned roots, gets the count rule (``_count_rule``) about each of
      its points: the certified distances from a point to all roots of
      ``q``, where the m nearest end before the next begins, certify a disc
      of m roots about it (``_counted``).  Where roots are left, the count
      rule about the disc's center may take all of them in one disc.  These
      discs stay short of the zero roots.
    - Each disc then grows toward ``rho * sqrt(2)`` while the discs stay
      pairwise disjoint.  A disc wider than ``rho * sqrt(2)`` (also one
      whose bound is not finite) is returned in ``unresolved`` as a
      ``GridNode`` of the same disc and multiplicity; a call with a fresh
      seed starts from other points.

    ``eta`` and ``eps`` go to Algorithm 2 (the shift distance of its
    families and the failure bound of its confirmed nodes); the discs
    themselves need neither, and the result reports Algorithm 2's
    separation bounds for its component count.  ``phi`` is drawn from
    ``seed`` in ``[pi/8, 3pi/8]``; it rotates the starting points and is
    Algorithm 2's third direction.  A pure power
    ``c * x**n`` gives the single exact inclusion ``(0, 0, n)``.  Raises
    PrecisionLossError when the squared lengths of the certification, about
    ``r1p**2`` for the root bound ``r1p``, leave the normal float range.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if not 0.0 < rho < math.inf:
        raise ValueError("rho must be positive and finite")
    if not 0.0 < eta < math.inf:
        raise ValueError("eta must be positive and finite")
    n = p.degree
    if n < 1:
        raise ValueError("need degree >= 1")
    rng = np.random.default_rng(seed)
    phi = float(rng.uniform(math.pi / 8.0, 3.0 * math.pi / 8.0))
    r1p = root_radius_upper_bound(p)
    limit = rho * math.sqrt(2.0)
    stats = {"sweeps": 0, "frozen": 0, "components_by_size": {}, "counted": 0, "unresolved": 0}
    c = np.asarray(p.coeffs, dtype=np.complex128)
    nzero = int(np.flatnonzero(c)[0])
    if r1p == 0.0:  # p is c * x**n: one exact root of multiplicity n, at 0
        centers, radii, mult = np.zeros(1, dtype=np.complex128), np.zeros(1), np.array([n])
    else:
        if not r1p * r1p < math.inf:
            raise PrecisionLossError(
                f"root bound {r1p:.3e} puts the squared lengths of the certification outside the float range"
            )
        if r1p * r1p < 2.0**-1022:
            raise PrecisionLossError("roots too close to 0 for the squared lengths of the certification")
        q = c[nzero:]
        qp = Polynomial(q)
        est = refined_radii(qp, _START_TARGET)
        annuli = _merge_chains(est.radii, est.rel_factor)
        z = _starting_points(annuli, phi)
        tries = [z]
        # every root on one circle: the radii say nothing of the arguments.
        # Circle points first would be as good and never slower; Algorithm 2
        # goes first so that the benchmark self-test's x^4 - 1 calls reach
        # its traced layers, until ROADMAP item 1B re-homes those spans
        if est.radii[0] <= est.radii[-1] * est.rel_factor**2:
            paper = _paper_starting_points(qp, z, phi, eta, eps)
            tries = tries if paper is None else [paper, z]
        best = None
        for z in tries:
            out = _certified_from(q, z, nzero, limit)
            if best is None or _left(out, limit) < _left(best, limit):
                best = out
            if not _left(best, limit):
                break
        centers, radii, mult, stats["sweeps"], stats["frozen"], stats["counted"] = best
    inclusions, unresolved = [], []
    sizes = stats["components_by_size"]
    for center, radius, m in zip(centers.tolist(), radii.tolist(), mult.tolist()):
        if m == 0:  # a wide disc whose roots were all counted
            continue
        if radius <= limit:
            inclusions.append(ComplexInclusion(complex(center), radius, m, 0.0))
        else:
            unresolved.append(GridNode(complex(center), radius / math.sqrt(2.0), m))
        sizes[m] = sizes.get(m, 0) + 1
    stats["unresolved"] = len(unresolved)
    sep = theoretical_separation(len(inclusions) + len(unresolved), rho, eps)
    sep_n4 = (SEPARATION_CONSTANT * n**4 + 2.0 * eps) * rho / eps
    return ComplexIsolationResult(
        inclusions=tuple(inclusions),
        unresolved=tuple(unresolved),
        phi=phi,
        separation_bound=sep,
        separation_bound_n4=sep_n4,
        stats=stats,
    )
