import cmath
import math

import numpy as np
import pytest

import rootradii as rr
from rootradii import _dd, radii
from rootradii.poly import Polynomial, PrecisionLossError, root_radius_upper_bound

from conftest import (
    PRINT_SLACK,
    SECT5_COEFFS,
    SECT5_RADII_BRACKETS,
    random_real_poly,
    sorted_moduli,
)


class TestNewtonPolygonRadii:
    def test_pure_power_all_zero(self):
        est = rr.newton_polygon_radii(Polynomial([0, 0, 0, 1.0]))
        assert np.array_equal(est.radii, np.zeros(3))

    def test_symmetric_pair_within_factor(self):
        est = rr.newton_polygon_radii(Polynomial([-1.0, 0.0, 1.0]))
        assert est.rel_factor == 4.0
        assert np.all(est.radii >= 0.25) and np.all(est.radii <= 4.0)

    def test_factor_guarantee_random_degree8(self):
        rng = np.random.default_rng(99)
        checked = 0
        while checked < 20:
            p = random_real_poly(rng, 8)
            rs = rr.all_roots_oracle(p)
            if not rs.converged:
                continue
            checked += 1
            est = rr.newton_polygon_radii(p)
            ratio = est.radii / sorted_moduli(rs.roots)
            assert np.all(ratio >= 1.0 / 16.0) and np.all(ratio <= 16.0)

    def test_sorted_non_increasing(self, sect5):
        est = rr.newton_polygon_radii(sect5)
        assert np.all(np.diff(est.radii) <= 0)


class TestChooseIterationCount:
    def test_sect5_case(self):
        # the worked example reports 14 iterations for this precision; the
        # closed-form minimum is smaller and is what this routine returns
        assert rr.choose_iteration_count(7, 0.001) == 12

    def test_huge_target_needs_none(self):
        for n in (1, 5, 64):
            assert rr.choose_iteration_count(n, 2.0 * n - 1.0) == 0
            assert rr.choose_iteration_count(n, 4.0 * n) == 0

    @pytest.mark.parametrize("n,target", [(64, 0.001), (7, 0.001), (256, 1e-5), (3, 0.2)])
    def test_minimal_k_by_direct_inequality(self, n, target):
        k = rr.choose_iteration_count(n, target)
        assert (2 * n) ** (2.0**-k) <= 1 + target
        if k > 0:
            assert (2 * n) ** (2.0 ** -(k - 1)) > 1 + target

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            rr.choose_iteration_count(0, 0.1)
        with pytest.raises(ValueError):
            rr.choose_iteration_count(4, 0.0)


class TestRefinedRadii:
    def test_sect5_brackets(self, sect5):
        est = rr.refined_radii(sect5, 0.001)
        assert est.squarings_used <= 14
        assert len(est.radii) == 7
        for r, (lo, hi) in zip(est.radii, SECT5_RADII_BRACKETS):
            assert lo - PRINT_SLACK <= r <= hi + PRINT_SLACK

    def test_quadruple_root_tight(self):
        p = Polynomial([1.0, -4.0, 6.0, -4.0, 1.0])  # (x-1)^4
        est = rr.refined_radii(p, 0.001)
        assert np.all(np.abs(est.radii - 1.0) <= 1e-3)

    def test_random_degree12_within_target(self):
        rng = np.random.default_rng(123)
        checked = 0
        while checked < 10:
            p = random_real_poly(rng, 12)
            rs = rr.all_roots_oracle(p)
            if not rs.converged:
                continue
            checked += 1
            est = rr.refined_radii(p, 1e-3)
            ratio = est.radii / sorted_moduli(rs.roots)
            assert np.all(np.abs(ratio - 1.0) <= 1e-3 + 1e-6)

    def test_squarings_match_schedule(self, sect5):
        est = rr.refined_radii(sect5, 0.001)
        assert est.squarings_used == rr.choose_iteration_count(7, 0.001)
        assert est.rel_factor == (14.0) ** (2.0**-est.squarings_used)

    def test_rel_factor_monotone_in_target(self, sect5):
        factors = [rr.refined_radii(sect5, t).rel_factor for t in (0.5, 0.05, 0.005, 0.0005)]
        assert all(a >= b for a, b in zip(factors, factors[1:]))

    def test_scale_invariance_power_of_two_exact(self, sect5):
        scaled = Polynomial(np.asarray(sect5.coeffs) * 2.0**10)
        a = rr.refined_radii(sect5, 1e-3)
        b = rr.refined_radii(scaled, 1e-3)
        assert np.array_equal(a.radii, b.radii)

    def test_scale_invariance_general_scalar(self, sect5):
        scaled = Polynomial(np.asarray(sect5.coeffs) * 3.7)
        a = rr.refined_radii(sect5, 1e-3)
        b = rr.refined_radii(scaled, 1e-3)
        assert np.allclose(a.radii, b.radii, rtol=1e-12)

    def test_fourteen_step_chain_matches_printed_intervals(self, sect5):
        # the worked example ran 14 squarings; driving the engine to exactly
        # that count reproduces its printed radii to 0.001
        from rootradii import _kernels
        from rootradii.radii import _hull_radii

        m, e = _kernels.mantexp(sect5.coeffs)
        for _ in range(14):
            m, e = _kernels.graeffe_step_me(m, e)
        radii, _ = _hull_radii(m, e, 14)
        want = [1.65062919, 1.55670111, 1.55670111, 0.92387953, 0.92387953, 0.38268343, 0.38268343]
        assert np.all(np.abs(radii - np.array(want)) <= 1e-3)

    def test_root_count_with_origin_roots(self):
        # x^3 (x - 2)(x + 1): radii [2, 1, 0, 0, 0]
        c = np.convolve([0, 0, 0, 1.0], np.convolve([-2.0, 1.0], [1.0, 1.0]))
        est = rr.refined_radii(Polynomial(c), 1e-3)
        assert len(est.radii) == 5
        assert np.allclose(est.radii[:2], [2.0, 1.0], rtol=2e-3)
        assert np.array_equal(est.radii[2:], np.zeros(3))

    def test_interior_zero_coefficients_skipped(self):
        est = rr.refined_radii(Polynomial([1.0, 0, 0, 0, 0, 1.0]), 1e-3)  # x^5 + 1
        assert np.allclose(est.radii, np.ones(5), rtol=1e-6)

    @pytest.mark.parametrize("c0,c2", [(-4e-320, 1.0), (1.0, 1e-310)])
    def test_subnormal_coefficient(self, c0, c2):
        # the mantissa split scales a subnormal up by more than 2**1023
        est = rr.refined_radii(Polynomial([c0, 0.0, c2]), 1e-3)
        true = math.sqrt(abs(c0)) / math.sqrt(c2)
        assert np.all(np.abs(est.radii / true - 1.0) <= est.rel_factor - 1.0 + 1e-12)

    @pytest.mark.parametrize("coeffs", [[1e300, 1e-300], [1e-300, 1e300]])
    @pytest.mark.parametrize("estimate", [rr.newton_polygon_radii, lambda p: rr.refined_radii(p, 1e-3)])
    def test_radius_past_float_range_raises(self, coeffs, estimate):
        # the roots -1e600 and -1e-600 have no float radius
        with pytest.raises(PrecisionLossError, match="outside the float range"):
            estimate(Polynomial(coeffs))

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 5 Part B: the float engine's factor ignores rounding; at "
        "1e-12 the worked example claims 6.0e-13 and is 8.6e-11 off",
    )
    def test_tight_target_within_factor(self, sect5):
        mpmath = pytest.importorskip("mpmath")
        est = rr.refined_radii(sect5, 1e-12)
        with mpmath.workdps(50):
            roots = mpmath.polyroots(SECT5_COEFFS[::-1], maxsteps=200, extraprec=100)
            true = sorted((abs(r) for r in roots), reverse=True)
            err = max(abs(mpmath.mpf(float(r)) / t - 1) for r, t in zip(est.radii, true))
        assert float(err) <= est.rel_factor - 1.0

    def test_extreme_coefficient_magnitudes(self):
        p = Polynomial([1e-30, 1e10, -3.5e-20, 2e25])
        rs = rr.all_roots_oracle(p)
        est = rr.refined_radii(p, 1e-3)
        true = np.sort(np.abs(rs.roots))[::-1]
        assert np.all(np.abs(est.radii / true - 1.0) <= 1e-3 + 1e-6)


# radii 1e100 and 1 (the float sum 1e100 + 1 is 1e100); the reference is
# LAPACK's companion eigenvalues
HUGE_SPREAD = [1e100, -(1e100 + 1.0), 1.0]
# near the 2**52 exponent bound the guarantee factor is within a few ulps of
# 1; the reported radii and the reference each carry float64 rounding
ROUNDING_SLACK = 4 * np.finfo(np.float64).eps


def assert_stopped_early(est, n, target):
    assert est.squarings_used < rr.choose_iteration_count(n, target)
    assert est.rel_factor == (2 * n) ** (2.0**-est.squarings_used)


def assert_within_factor(est, true):
    assert np.all(np.abs(est.radii / true - 1.0) <= est.rel_factor - 1.0 + ROUNDING_SLACK)


class TestStopRule:
    """The exponents passing 2**52 end the squarings before the planned count."""

    def test_refined_radii_stops_early(self):
        # stops after 43 of the 54 planned squarings
        assert_stopped_early(rr.refined_radii(Polynomial(HUGE_SPREAD), 1e-300), 2, 1e-300)

    def test_refined_radii_within_factor_after_early_stop(self):
        est = rr.refined_radii(Polynomial(HUGE_SPREAD), 1e-300)
        true = np.sort(np.abs(np.roots(HUGE_SPREAD[::-1])))[::-1]
        assert_within_factor(est, true)

    def test_distances_stop_early(self, sect5, sect5_oracle):
        # the constant term of the shifted polynomial is about 400**7; stops
        # after 46 of the 55 planned squarings
        est = rr.distances_from_point(sect5, -400.0, 1e-300)
        assert_stopped_early(est, 7, 1e-300)
        assert_within_factor(est, np.sort(np.abs(sect5_oracle.roots + 400.0))[::-1])


class TestDistancesFromPoint:
    def test_center_reduces_to_radii(self):
        est = rr.distances_from_point(Polynomial([-1.0, 0.0, 1.0]), 0.0, 1e-3)
        assert np.all(np.abs(est.radii - 1.0) <= est.rel_factor - 1.0)
        assert est.rel_factor <= 1.001

    def test_point_on_root_gives_exact_zero(self):
        est = rr.distances_from_point(Polynomial([-1.0, 0.0, 1.0]), 1.0, 1e-3)
        assert abs(est.radii[0] - 2.0) <= 2e-3
        assert est.radii[1] == 0.0

    def test_random_degree6_against_oracle(self):
        rng = np.random.default_rng(7)
        z = 2.0 + 1.0j
        checked = 0
        while checked < 10:
            p = random_real_poly(rng, 6)
            rs = rr.all_roots_oracle(p)
            if not rs.converged:
                continue
            checked += 1
            est = rr.distances_from_point(p, z, 1e-3)
            true = np.sort(np.abs(rs.roots - z))[::-1]
            assert np.all(np.abs(est.radii / true - 1.0) <= 1e-3 + 1e-6)

    def test_agrees_with_plain_shift_pipeline_when_benign(self):
        # one exact shift, rounded once and squared by the float engine,
        # against the exact engine of distances_from_point: for a near shift
        # both are valid and must agree
        rng = np.random.default_rng(99)
        z = complex(0.5, 0.2)
        for _ in range(5):
            p = random_real_poly(rng, 7)
            a = rr.distances_from_point(p, z, 1e-4)
            b = rr.refined_radii(rr.taylor_shift(p, z), 1e-4)
            assert np.allclose(a.radii, b.radii, rtol=3e-4)

    def test_precision_past_bit_cap_raises(self):
        # degree 513 starts at 16 * 513 = 8208 bits, past the 2**13-bit cap
        p = Polynomial([-1.0] + [0.0] * 512 + [1.0])
        with pytest.raises(PrecisionLossError, match="did not settle within 8192 bits"):
            rr.distances_from_point(p, -100.0, 1e-8)

    @pytest.mark.parametrize("z", [math.inf, complex(0.0, -math.inf), math.nan])
    def test_non_finite_center_raises(self, z):
        with pytest.raises(PrecisionLossError):
            rr.distances_from_point(Polynomial([-1.0, 0.0, 1.0]), z, 1e-3)

    def test_far_shift_keeps_precision(self, sect5, sect5_oracle):
        # the reason for the exact shift and integer squaring: distances from
        # a point 400 away cluster within a 1% band and would drown in float64
        z = complex(-400.0, 0.0)
        est = rr.distances_from_point(sect5, z, 2e-6)
        true = np.sort(np.abs(sect5_oracle.roots - z))[::-1]
        assert np.all(np.abs(est.radii / true - 1.0) <= 2e-6)


class TestDistancesAgainstMpmath:
    """Distances from the complex path's far centers, checked in 60 digits.

    Dense Gaussian polynomials, shifted to ``-100 * r1+`` along three
    directions at the target ``shifted_families`` uses with ``rho = 1e-3``:
    the distances cluster within about 1%, so their coefficient basis needs
    far more than float64 precision from degree 12 on.
    """

    def assert_within_factor(self, c, eta, directions, roots=None):
        # ``roots``: the exact roots, where the float coefficients are exact
        mpmath = pytest.importorskip("mpmath")
        p = Polynomial(c)
        with mpmath.workdps(60):
            if roots is None:
                coeffs = [mpmath.mpc(complex(x)) for x in c[::-1]]
                roots = mpmath.polyroots(coeffs, maxsteps=400, extraprec=200)
            else:
                roots = [mpmath.mpc(r) for r in roots]
        r1p = root_radius_upper_bound(p)
        target = 1e-3 / ((r1p + 1.0) * eta)
        for direction in directions:
            z = -eta * r1p * direction
            est = rr.distances_from_point(p, z, target)
            with mpmath.workdps(60):
                true = sorted((abs(r - mpmath.mpc(z)) for r in roots), reverse=True)
                err = max(abs(mpmath.mpf(float(r)) / t - 1) for r, t in zip(est.radii, true))
            assert float(err) <= est.rel_factor - 1.0, (len(c) - 1, z)

    @pytest.mark.parametrize("n", [4, 7, 10, 12, 15, 20, 30])
    def test_gaussian_within_factor(self, n):
        rng = np.random.default_rng(n)
        real = rng.standard_normal(n + 1)
        for c in (real, real + 1j * rng.standard_normal(n + 1)):
            self.assert_within_factor(c, 100.0, (1.0, 1j, cmath.exp(0.25j * math.pi)))

    @pytest.mark.parametrize(
        "roots,exact",
        [([1, 1, 1, -2], True), ([1, 1 + 1e-9, 1 + 2e-9, 5], False), (list(range(1, 11)), True)],
        ids=["triple-root", "cluster-1e-9", "wilkinson-10"],
    )
    def test_multiple_roots_clusters_and_wilkinson(self, roots, exact):
        # integer roots give exact integer coefficients; the cluster's rounded
        # coefficients have roots about 6e-6 from 1, found by mpmath
        c = np.poly(roots)[::-1]
        directions = (1.0, 1j, cmath.exp(0.25j * math.pi))
        self.assert_within_factor(c, 100.0, directions, roots if exact else None)

    @pytest.mark.parametrize("n,eta", [(64, 100.0), (128, 100.0), (40, 1e5), (64, 1e5)])
    def test_high_degree(self, n, eta):
        # the first squarings lose about n bits each to cancellation, over a
        # thousand in all at n = 128: more than a float's exponent range, so
        # the radii must keep their own scale.  The roots are np.roots
        # polished by Newton's method in 60 digits (mpmath's polyroots takes
        # half a minute at n = 128).
        mpmath = pytest.importorskip("mpmath")
        c = np.random.default_rng(n).standard_normal(n + 1)
        with mpmath.workdps(60):
            coeffs = [mpmath.mpf(float(x)) for x in c[::-1]]
            roots = []
            for r in np.roots(c[::-1]):
                x = mpmath.mpc(complex(r))
                for _ in range(6):
                    y, dy = mpmath.polyval(coeffs, x, derivative=True)
                    x -= y / dy
                roots.append(x)
        self.assert_within_factor(c, eta, (1.0,), roots)

    def test_farther_center_needs_more_bits(self):
        # at eta = 1e5 the first precision, 16n bits, is off by about 1e4
        # times the exact-arithmetic factor; its certified factor says so, and
        # only the doubling rule gets within it
        c = np.random.default_rng(8).standard_normal(9)
        self.assert_within_factor(c, 1e5, (1.0,))
        p = Polynomial(c)
        r1p = root_radius_upper_bound(p)
        target = 1e-3 / ((r1p + 1.0) * 1e5)
        re, im, _ = _dd.taylor_shift_dd(c, -1e5 * r1p)
        first = radii._radii(p, target, (re, im), radii._int_representation(16 * p.degree))
        assert not radii._settled(first, p.degree, target)
