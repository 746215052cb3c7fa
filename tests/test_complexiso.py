import cmath
import math

import mpmath
import numpy as np
import pytest

import rootradii as rr
from rootradii.complexiso import (
    SEPARATION_CONSTANT,
    ComplexInclusion,
    disambiguate_with_third,
    grid_from_two_families,
    shifted_families,
)
from rootradii.poly import Polynomial, PrecisionLossError, root_radius_upper_bound

from conftest import SECT5_COEFFS, random_complex_poly, random_real_poly

SQRT2 = math.sqrt(2.0)


def _grid_reference(f1, f2, r1_plus):
    """The grid at 50 digits, with the crossing angle from the two radial vectors.

    Each annulus pair's mid-circles are intersected as two general circles
    (tangent when they miss by at most the mean width), and
    ``sin(alpha) = |Im(v1 * conj(v2))| / (|v1| |v2|)`` with ``v1``, ``v2`` from
    the shift centers to the crossing.  Returns (center, half_width,
    multiplicity, sin_alpha) per node, in the grid's order.
    """
    with mpmath.workdps(50):
        z1, z2 = mpmath.mpc(f1.shift_center), mpmath.mpc(f2.shift_center)
        d = abs(z2 - z1)
        u = (z2 - z1) / d
        nodes = []
        for a1 in f1.annuli:
            for a2 in f2.annuli:
                s1, s2 = mpmath.mpf(a1.mid_radius), mpmath.mpf(a2.mid_radius)
                slack = (mpmath.mpf(a1.width) + mpmath.mpf(a2.width)) / 2
                if d > s1 + s2 + slack or d < abs(s1 - s2) - slack:
                    continue
                a = (d * d + s1 * s1 - s2 * s2) / (2 * d)
                h2 = s1 * s1 - a * a
                if h2 < -slack * (s1 + s2):
                    continue
                h = mpmath.sqrt(max(h2, 0))
                base = z1 + a * u
                off = h * mpmath.mpc(-u.imag, u.real)
                for q in [base] if h == 0 else [base + off, base - off]:
                    v1, v2 = q - z1, q - z2
                    sin_alpha = abs(mpmath.im(v1 * mpmath.conj(v2))) / (abs(v1) * abs(v2))
                    half_diag = slack / max(sin_alpha, mpmath.mpf(1e-6))
                    if abs(q) > r1_plus + half_diag:
                        continue
                    mult = min(a1.multiplicity, a2.multiplicity)
                    nodes.append((q, half_diag / mpmath.sqrt(2), mult, sin_alpha))
        return nodes


def _grid_cases():
    rng = np.random.default_rng(24)
    return [
        pytest.param(Polynomial(SECT5_COEFFS), id="worked7"),
        pytest.param(Polynomial([-1.0, 0.0, 0.0, 0.0, 1.0]), id="x4-1"),
        pytest.param(random_real_poly(rng, 7), id="real7"),
        pytest.param(random_real_poly(rng, 11), id="real11"),
        pytest.param(random_complex_poly(rng, 15), id="cplx15"),
    ]


class TestShiftedFamilies:
    def test_pm_one_hand_geometry(self):
        p = Polynomial([-1.0, 0.0, 1.0])
        rho, eta = 1e-3, 100.0
        f1, f2, f3 = shifted_families(p, rho, eta=eta, phi=math.pi / 4)
        r1p = root_radius_upper_bound(p)
        assert f1.shift_center == complex(-eta * r1p, 0.0)
        # distances from the real-axis center to the roots +-1
        mids = sorted(a.mid_radius for a in f1.annuli for _ in range(a.multiplicity))
        assert abs(mids[0] - (eta * r1p - 1.0)) < 1e-3
        assert abs(mids[-1] - (eta * r1p + 1.0)) < 1e-3
        # width guarantee: relative width at most twice the requested bound
        bound = rho / ((r1p + 1.0) * eta)
        for fam in (f1, f2, f3):
            assert fam.total_multiplicity == 2
            for a in fam.annuli:
                assert a.outer / a.inner - 1.0 <= 2.0 * bound * (1 + 1e-9)

    def test_single_root_at_origin(self):
        f1, f2, f3 = shifted_families(Polynomial([0.0, 1.0]), 1e-3)
        for fam in (f1, f2, f3):
            assert len(fam.annuli) == 1
            assert fam.annuli[0].inner == fam.annuli[0].outer == 0.0

    def test_sect5_multiplicity_structure(self, sect5, sect5_oracle):
        f1, f2, f3 = shifted_families(sect5, 1e-3, eta=100.0, phi=0.46)
        for fam in (f1, f2, f3):
            assert fam.total_multiplicity == 7
        # the conjugate pair is equidistant from the real-axis center, so one
        # family-1 annulus carries multiplicity 2; family-2 splits the pair
        assert any(a.multiplicity == 2 for a in f1.annuli)
        mids = {round(a.mid_radius, 4) for a in f2.annuli}
        pair_d = sorted(np.abs(sect5_oracle.roots - f2.shift_center))[-2:]
        assert round(pair_d[0], 4) != round(pair_d[1], 4) or len(mids) < 7
        # every annulus tracks a true distance
        for fam in (f1, f2, f3):
            true = np.abs(sect5_oracle.roots - complex(fam.shift_center))
            for a in fam.annuli:
                assert np.any((true >= a.inner - 1e-9) & (true <= a.outer + 1e-9))

    def test_sect5_merged_annulus_width_scales_with_multiplicity(self, sect5):
        # a chain of m collapsed radius intervals may be up to m times the
        # single-annulus width, never more
        rho, eta = 1e-3, 100.0
        f1, f2, f3 = shifted_families(sect5, rho, eta=eta, phi=0.46)
        r1p = root_radius_upper_bound(sect5)
        bound = 2.0 * rho / ((r1p + 1.0) * eta)
        for fam in (f1, f2, f3):
            for a in fam.annuli:
                assert a.outer / a.inner - 1.0 <= a.multiplicity * bound * (1 + 1e-6)


class TestGrid:
    def test_degree_one_single_node(self):
        p = Polynomial([-1.0, 1.0])  # root 1
        f1, f2, _ = shifted_families(p, 1e-3, phi=0.7)
        nodes = grid_from_two_families(f1, f2, root_radius_upper_bound(p))
        assert len(nodes) == 1
        assert abs(complex(nodes[0].center) - 1.0) <= 1e-3 * SQRT2

    def test_pm_one_nodes_cover_roots(self):
        p = Polynomial([-1.0, 0.0, 1.0])
        f1, f2, _ = shifted_families(p, 1e-3, phi=0.7)
        nodes = grid_from_two_families(f1, f2, root_radius_upper_bound(p))
        for root in (1.0, -1.0):
            assert any(abs(complex(n.center) - root) <= 1e-3 * SQRT2 for n in nodes)

    def test_double_root_multiplicity_two(self):
        p = Polynomial([1.0, -2.0, 1.0])
        f1, f2, _ = shifted_families(p, 1e-3, phi=0.7)
        nodes = grid_from_two_families(f1, f2, root_radius_upper_bound(p))
        assert len(nodes) == 1
        assert nodes[0].multiplicity == 2

    def test_node_count_at_most_n_squared_ish(self, sect5):
        f1, f2, _ = shifted_families(sect5, 1e-3, phi=0.7)
        nodes = grid_from_two_families(f1, f2, root_radius_upper_bound(sect5))
        assert len(nodes) <= 2 * sect5.degree**2

    @pytest.mark.parametrize("p", _grid_cases())
    def test_nodes_match_50_digit_geometry(self, p):
        f1, f2, _ = shifted_families(p, 1e-3, phi=0.7)
        r1p = root_radius_upper_bound(p)
        nodes = grid_from_two_families(f1, f2, r1p)
        want = _grid_reference(f1, f2, r1p)
        assert len(nodes) == len(want) > 0
        for node, (q, half_width, mult, sin_alpha) in zip(nodes, want):
            assert node.multiplicity == mult
            # the float crossing carries rounding of the shift distance 100*r1p,
            # so a node near 0 is accurate relative to the root disc, not to |q|
            assert abs(mpmath.mpc(node.center) - q) <= 1e-12 * r1p
            if sin_alpha >= 1e-3:
                assert abs(node.half_width - half_width) <= 1e-12 * half_width


class TestDisambiguate:
    def test_degree_one_confirmed(self):
        p = Polynomial([-1.0, 1.0])
        f1, f2, f3 = shifted_families(p, 1e-3, phi=0.7)
        nodes = grid_from_two_families(f1, f2, root_radius_upper_bound(p))
        inclusions, unresolved = disambiguate_with_third(nodes, f3, eps=0.05)
        assert len(inclusions) == 1 and not unresolved

    def test_pm_one_monte_carlo_phi(self):
        # failure probability over the direction draw, against the
        # line-through-disc bound with the actual node geometry
        p = Polynomial([-1.0, 0.0, 1.0])
        rho = 1e-3
        rng = np.random.default_rng(2024)
        f1, f2, _ = shifted_families(p, rho, phi=0.5)
        r1p = root_radius_upper_bound(p)
        nodes = grid_from_two_families(f1, f2, r1p)
        n_nodes = len(nodes)
        failures = 0
        trials = 1000
        for _ in range(trials):
            phi = rng.uniform(math.pi / 8, 3 * math.pi / 8)
            fams = shifted_families(p, rho, phi=phi)
            inclusions, _ = disambiguate_with_third(nodes, fams[2], eps=0.05)
            hit = {round(complex(i.disc_center).real) for i in inclusions}
            if hit != {1, -1}:
                failures += 1
        min_sep = min(
            abs(complex(a.center) - complex(b.center))
            for i, a in enumerate(nodes)
            for b in nodes[i + 1 :]
        )
        bound = SEPARATION_CONSTANT * (n_nodes - 1) * rho / min_sep
        sigma = math.sqrt(max(bound * (1 - min(bound, 1.0)), 1e-12) / trials)
        assert failures / trials <= bound + 3 * sigma + 1e-9

    def test_sect5_seven_inclusions_small_rho(self, sect5, sect5_oracle):
        rho = 1e-4
        res = rr.isolate_complex_roots(sect5, rho=rho, eps=0.05, seed=3)
        assert len(res.inclusions) == 7
        assert sum(i.multiplicity for i in res.inclusions) == 7
        for inc in res.inclusions:
            assert min(abs(inc.disc_center - z) for z in sect5_oracle.roots) <= rho * SQRT2


class TestSeparationFormulas:
    def test_single_node_zero(self):
        assert rr.theoretical_separation(1, 1e-3, 0.05) == 0.0

    def test_two_nodes_value(self):
        assert math.isclose(rr.theoretical_separation(2, 1e-3, 0.05), 0.4526)

    @pytest.mark.parametrize(
        "rho, eps",
        [
            (1e-3, 0.0),
            (1e-3, -0.05),
            (1e-3, 1.0),
            (1e-3, math.nan),
            (0.0, 0.05),
            (-1e-3, 0.05),
            (math.inf, 0.05),
            (math.nan, 0.05),
        ],
    )
    def test_meaningless_inputs_rejected(self, rho, eps):
        with pytest.raises(ValueError, match="rho must be positive|eps must lie"):
            rr.theoretical_separation(3, rho, eps)

    def test_both_bounds_reported(self, sect5):
        res = rr.isolate_complex_roots(sect5, rho=1e-3, eps=0.05, seed=0)
        n = sect5.degree
        assert res.separation_bound_n4 == (SEPARATION_CONSTANT * n**4 + 2 * 0.05) * 1e-3 / 0.05
        assert res.separation_bound <= res.separation_bound_n4


class TestLineDiscProbability:
    @pytest.mark.parametrize(
        "gamma, rho_prime, dist",
        [
            (math.nan, 1.0, 1.0),
            (1.5, 1.0, 1.0),
            (0.125, -1.0, 1.0),
            (0.125, math.nan, 1.0),
            (0.125, math.inf, 1.0),
            (0.125, 1.0, math.nan),
            (0.125, 1.0, math.inf),
        ],
    )
    def test_meaningless_inputs_rejected(self, gamma, rho_prime, dist):
        with pytest.raises(ValueError, match="gamma|rho_prime|dist"):
            rr.line_disc_intersection_prob(gamma, rho_prime, dist)

    def test_range_ends_accepted(self):
        assert rr.line_disc_intersection_prob(1.0, 0.0, 1.0) == 0.0
        assert rr.line_disc_intersection_prob(1.0, 1.0, 1.0) == 2.0 * math.atan(1.0)

    def test_vanishes_with_distance(self):
        probs = [rr.line_disc_intersection_prob(0.125, 10.0**-k, 1.0) for k in range(1, 9)]
        assert all(a > b for a, b in zip(probs, probs[1:]))
        assert probs[-1] < 1e-6

    def test_eighth_turn_reproduces_constant(self):
        rho = 1e-3
        dist = 1.0
        p = rr.line_disc_intersection_prob(0.125, rho * SQRT2, dist)
        assert p < 22.6275 * rho / dist
        assert p > 22.6 * rho / dist * 0.99

    def test_monte_carlo_upper_bound(self):
        # random lines through D(z, rho') at a uniform angle in [pi/8, 3pi/8];
        # empirical hit rate on D(z', rho') stays below the analytic bound
        rng = np.random.default_rng(11)
        trials = 100_000
        for ratio in (0.01, 0.1, 0.3):
            rho_p = 1e-2
            dist = rho_p / ratio
            zp = dist * np.exp(1j * np.pi / 4)  # along the cone's center
            r = rho_p * np.sqrt(rng.uniform(0, 1, trials))
            t = rng.uniform(0, 2 * np.pi, trials)
            pts = r * np.exp(1j * t)
            ang = rng.uniform(np.pi / 8, 3 * np.pi / 8, trials)
            d = np.exp(1j * ang)
            # distance from zp to the line through pts with direction d
            off = np.abs(np.imag((zp - pts) * np.conj(d)))
            hits = (off <= rho_p).mean()
            bound = rr.line_disc_intersection_prob(0.125, rho_p, dist)
            sigma = math.sqrt(min(bound, 1.0) * max(1 - min(bound, 1.0), 1e-12) / trials)
            assert hits <= bound + 3 * sigma


class TestIsolateComplexRoots:
    def test_fourth_roots_of_unity(self):
        p = Polynomial([-1.0, 0.0, 0.0, 0.0, 1.0])
        res = rr.isolate_complex_roots(p, rho=1e-3, eps=0.05, seed=12)
        assert len(res.inclusions) == 4
        for want in (1.0, -1.0, 1.0j, -1.0j):
            assert any(abs(i.disc_center - want) <= 1e-3 * SQRT2 for i in res.inclusions)

    def test_double_root(self):
        res = rr.isolate_complex_roots(Polynomial([1.0, -2.0, 1.0]), rho=1e-3, eps=0.05, seed=0)
        assert len(res.inclusions) == 1
        assert res.inclusions[0].multiplicity == 2
        assert abs(res.inclusions[0].disc_center - 1.0) <= 1e-3 * SQRT2

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_pure_power_exact_root(self, n):
        res = rr.isolate_complex_roots(Polynomial([0.0] * n + [1.0]), 1e-3, 0.05, 0)
        assert res.inclusions == (ComplexInclusion(0j, 0.0, n, 0.0),)
        assert res.unresolved == ()

    def test_tiny_roots_found_or_raise(self):
        # roots +-i*s: below s ~ 1e-160 the grid's squared lengths leave the normal range
        s = 1e-150
        res = rr.isolate_complex_roots(Polynomial([s, 0.0, 1.0 / s]), 1e-3, 0.05, 0)
        assert len(res.inclusions) == 2
        for want in (1j * s, -1j * s):
            assert any(abs(i.disc_center - want) <= i.disc_radius for i in res.inclusions)
        # the last polynomial's root, -1e-600, is past the float range: its
        # bound must not be the 0 of a pure power
        for coeffs in ([1e-162, 0.0, 1e162], [1e-170, 0.0, 1e170], [1e-300, 1e300]):
            with pytest.raises(PrecisionLossError, match="too close to 0"):
                rr.isolate_complex_roots(Polynomial(coeffs), 1e-3, 0.05, 0)

    @pytest.mark.parametrize("coeffs", [[1e300, 1e-300], [1.0, 5e-324]])
    def test_root_bound_past_float_range_raises(self, coeffs):
        # the bound is inf: the shift centers cannot be formed
        with pytest.raises(PrecisionLossError, match="outside the float range"):
            rr.isolate_complex_roots(Polynomial(coeffs), 1e-3, 0.05, 0)

    def test_deterministic_under_seed(self, sect5):
        a = rr.isolate_complex_roots(sect5, rho=1e-3, eps=0.05, seed=42)
        b = rr.isolate_complex_roots(sect5, rho=1e-3, eps=0.05, seed=42)
        assert a.phi == b.phi
        assert a.inclusions == b.inclusions
        assert a.unresolved == b.unresolved

    def test_phi_range(self, sect5):
        for seed in range(20):
            res = rr.isolate_complex_roots(sect5, rho=1e-3, eps=0.05, seed=seed)
            assert math.pi / 8 <= res.phi <= 3 * math.pi / 8

    def test_eps_validated(self, sect5):
        with pytest.raises(ValueError):
            rr.isolate_complex_roots(sect5, rho=1e-3, eps=1.5, seed=0)

    @pytest.mark.parametrize("eta", [0.0, -5.0, math.inf, math.nan])
    def test_eta_validated(self, sect5, eta):
        with pytest.raises(ValueError, match="eta must be positive and finite"):
            rr.isolate_complex_roots(sect5, rho=1e-3, eps=0.05, seed=0, eta=eta)

    @pytest.mark.parametrize("rho", [0.0, -1.0, math.inf, math.nan])
    def test_rho_validated(self, sect5, rho):
        with pytest.raises(ValueError, match="rho must be positive and finite"):
            rr.isolate_complex_roots(sect5, rho=rho, eps=0.05, seed=0)

    def test_polish_sharpens_simple_centers(self, sect5, sect5_oracle):
        res = rr.isolate_complex_roots(sect5, rho=1e-4, eps=0.05, seed=3)
        assert len(res.inclusions) == 7
        for inc in res.inclusions:
            assert min(abs(inc.disc_center - z) for z in sect5_oracle.roots) <= 1e-9

    def test_simple_centers_residual_at_rounding_level(self, sect5):
        # an unpolished center is ~1e-11 off here, with a residual 1e-12 of the scale
        res = rr.isolate_complex_roots(sect5, rho=1e-4, eps=0.05, seed=3)
        for inc in res.inclusions:
            z = inc.disc_center
            scale = sum(abs(a) * abs(z) ** i for i, a in enumerate(sect5.coeffs))
            assert abs(rr.evaluate(sect5, z)) <= 1e-14 * scale
