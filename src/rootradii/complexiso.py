"""Randomized complex-root isolation from three families of thin annuli.

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
from dataclasses import dataclass, field, replace

import numpy as np

from . import _kernels
from .poly import Polynomial, PrecisionLossError, root_radius_upper_bound
from .radii import choose_iteration_count, distances_from_point

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


def _newton_polish(p: Polynomial, z: complex, steps: int = 4) -> complex:
    """A few plain complex Newton steps; a convenience, not a certified contraction."""
    c = np.asarray(p.coeffs, dtype=np.complex128)
    for _ in range(steps):
        v, dv = _kernels.horner_pair(c, z)
        if abs(dv) < 1e-300:
            break
        step = v / dv
        z = z - step
        if abs(step) < 1e-15 * max(1.0, abs(z)):
            break
    return complex(z)


def isolate_complex_roots(
    p: Polynomial,
    rho: float,
    eps: float,
    seed: int,
    eta: float = 100.0,
) -> ComplexIsolationResult:
    """Full Algorithm-2 driver with a seeded random direction.

    Confirmed inclusions each contain a root within ``rho*sqrt(2)`` of the
    disc center (with probability at least ``1 - eps`` for roots separated
    beyond the reported bound).  Unresolved nodes are returned rather than
    retried; re-running with a fresh seed draws a new direction.  Every
    multiplicity-1 disc center is polished by a few plain Newton steps.  A
    pure power ``c * x**n`` gives the single exact inclusion ``(0, 0, n)``.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    phi = float(rng.uniform(math.pi / 8.0, 3.0 * math.pi / 8.0))
    f1, f2, f3 = shifted_families(p, rho, eta=eta, phi=phi)
    r1p = root_radius_upper_bound(p)
    if r1p == 0.0:  # p is c * x**n: one exact root of multiplicity n, at 0
        nodes, unresolved = [], []
        inclusions = [ComplexInclusion(0j, 0.0, p.degree, 0.0)]
    else:
        nodes = grid_from_two_families(f1, f2, r1p)
        inclusions, unresolved = disambiguate_with_third(nodes, f3, eps=eps)
    inclusions = [
        replace(inc, disc_center=_newton_polish(p, inc.disc_center))
        if inc.multiplicity == 1
        else inc
        for inc in inclusions
    ]
    n = p.degree
    sep = theoretical_separation(max(1, len(nodes)), rho, eps)
    sep_n4 = (SEPARATION_CONSTANT * n**4 + 2.0 * eps) * rho / eps
    stats = {
        "n_nodes": len(nodes),
        "n_annuli": [len(f.annuli) for f in (f1, f2, f3)],
        "r1_plus": r1p,
    }
    return ComplexIsolationResult(
        inclusions=tuple(inclusions),
        unresolved=tuple(unresolved),
        phi=phi,
        separation_bound=sep,
        separation_bound_n4=sep_n4,
        stats=stats,
    )
