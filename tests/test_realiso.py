import math
import warnings

import numpy as np
import pytest

import rootradii as rr
from rootradii.poly import Polynomial
from rootradii.radii import RadiiEstimate
from rootradii.realiso import IsolationInterval, IsolatorConfig

from conftest import SECT5_REAL_ROOTS, random_real_poly


# 1e-305 * (x**2 - (1 + 2**-52)): p' stays below _DERIV_FLOOR on [1, 2]
STALLING = Polynomial([-1e-305 * (1 + 2**-52), 0.0, 1e-305])


def bisected_sqrt2():
    # oracle: plain interval bisection, independent of the Newton path
    lo, hi = 1.0, 2.0
    for _ in range(200):
        m = 0.5 * (lo + hi)
        if m * m - 2.0 > 0:
            hi = m
        else:
            lo = m
    return 0.5 * (lo + hi)


def sect5_candidates(sect5):
    return rr.candidate_intervals(rr.refined_radii(sect5, 0.001))


class TestCandidateIntervals:
    def test_single_radius(self):
        est = RadiiEstimate(np.array([1.0]), 1.1, 0)
        ivs = rr.candidate_intervals(est)
        assert len(ivs) == 2
        neg, pos = ivs
        assert math.isclose(pos.lo, 1 / 1.1) and math.isclose(pos.hi, 1.1)
        assert math.isclose(neg.lo, -1.1) and math.isclose(neg.hi, -1 / 1.1)

    def test_sect5_printed_radii_give_twelve(self):
        # the doubled radius is exactly repeated, so its two intervals
        # coincide and merge: 7 radii -> 14 intervals -> 12 distinct
        printed = [1.65055, 1.55675, 1.55675, 0.92395, 0.92385, 0.3827, 0.38275]
        est = RadiiEstimate(np.array(sorted(printed, reverse=True)), 1 + 6.4e-4, 12)
        assert len(rr.candidate_intervals(est)) == 12

    def test_sect5_computed_radii_give_twelve(self, sect5):
        assert len(sect5_candidates(sect5)) == 12

    def test_nearly_equal_radii_kept_apart(self):
        # only equal intervals are kept once; these differ in the 13th digit
        est = RadiiEstimate(np.array([1.0 + 1e-13, 1.0]), 1.01, 0)
        assert len(rr.candidate_intervals(est)) == 4

    def test_zero_radius_degenerate(self):
        est = RadiiEstimate(np.array([1.0, 0.0]), 1.01, 0)
        ivs = rr.candidate_intervals(est)
        assert any(iv.lo == iv.hi == 0.0 for iv in ivs)


class TestSelectSignChange:
    def test_sect5_selects_nine(self, sect5):
        selected = rr.select_sign_change_intervals(sect5, sect5_candidates(sect5))
        sign_changes = [iv for iv in selected if iv.status == "sign_change"]
        assert len(sign_changes) == 9
        first = min(sign_changes, key=lambda iv: iv.lo)
        assert first.lo <= -1.65062919 <= first.hi
        assert first.hi - first.lo < 0.005

    def test_no_real_roots_selects_nothing(self):
        p = Polynomial([1.0, 0.0, 1.0])
        est = rr.refined_radii(p, 0.001)
        assert rr.select_sign_change_intervals(p, rr.candidate_intervals(est)) == []

    def test_pm_one_brackets(self):
        p = Polynomial([-1.0, 0.0, 1.0])
        est = RadiiEstimate(np.array([1.0]), 1.01, 0)
        selected = rr.select_sign_change_intervals(p, rr.candidate_intervals(est))
        assert len(selected) == 2
        assert any(iv.lo <= -1.0 <= iv.hi for iv in selected)
        assert any(iv.lo <= 1.0 <= iv.hi for iv in selected)

    def test_roots_below_1e_12_bracketed(self):
        # x**2 - 1e-22: every candidate is about 1e-14 wide
        p = Polynomial([-1e-22, 0.0, 1.0])
        selected = rr.select_sign_change_intervals(
            p, rr.candidate_intervals(rr.refined_radii(p, 0.001))
        )
        for root in (1e-11, -1e-11):
            assert any(iv.status == "sign_change" and iv.lo <= root <= iv.hi for iv in selected)

    def test_pm_one_computed_radii_all_bracket_roots(self):
        # the doubled radius splits into two estimates, so each root may be
        # bracketed by two overlapping selected intervals; dedup happens later
        p = Polynomial([-1.0, 0.0, 1.0])
        selected = rr.select_sign_change_intervals(
            p, rr.candidate_intervals(rr.refined_radii(p, 0.01))
        )
        assert 2 <= len(selected) <= 4
        for iv in selected:
            assert iv.lo <= -1.0 <= iv.hi or iv.lo <= 1.0 <= iv.hi

    def test_exact_zero_endpoint_degenerate(self):
        p = Polynomial([-1.0, 0.0, 1.0])
        ivs = [IsolationInterval(0.5, 1.0), IsolationInterval(1.0, 2.0)]
        out = rr.select_sign_change_intervals(p, ivs)
        assert any(iv.status == "refined" and iv.lo == iv.hi == 1.0 for iv in out)


class TestRefineInterval:
    def test_sect5_positive_root(self, sect5):
        iv = IsolationInterval(0.3826, 0.3828, "sign_change")
        root = rr.refine_interval(sect5, iv)
        assert abs(root.value - 0.38268343) < 1e-7

    def test_sect5_negative_root_fast(self, sect5):
        iv = IsolationInterval(-1.6507, -1.6504, "sign_change")
        cfg = IsolatorConfig()
        from rootradii.realiso import _refine

        root, _, rounds = _refine(sect5, iv, cfg)
        assert abs(root.value - -1.65062919) < 1e-7
        assert rounds <= 3

    @pytest.mark.parametrize(
        "coeffs, lo, hi",
        [([1.0, 0.0, 1.0], -1.0, 1.0), ([-1.0, 1.0], 2.0, 2.0)],
        ids=["x2+1", "degenerate-off-root"],
    )
    def test_no_sign_change_rejected(self, coeffs, lo, hi):
        # equal endpoint signs bracket no root, so any returned value would be wrong
        with pytest.raises(ValueError, match="no sign change"):
            rr.refine_interval(Polynomial(coeffs), IsolationInterval(lo, hi))

    def test_sqrt2_to_forty_bits(self):
        cfg = IsolatorConfig(precision_bits=40)
        root = rr.refine_interval(Polynomial([-2.0, 0.0, 1.0]), IsolationInterval(1.0, 2.0, "sign_change"), cfg)
        assert abs(root.value - bisected_sqrt2()) <= 2.0**-40 * 2

    def test_overflowing_derivative_bisects(self):
        # Re p of two degree-512 family cells: near x = 4 the derivative
        # overflows while p stays near 1e304, and a Newton step f/inf = 0
        # used to end the refinement as a width-0 root 1.4e-6 off
        from rootradii.bench import cell_seed
        from rootradii.oracle import generate_family

        for base, r in ((16, 8), (26, 12)):
            p = Polynomial(np.real(generate_family(2, 512, r, cell_seed(base, 512, r, 2)).coeffs))
            eig = np.roots(p.coeffs[::-1])
            roots = rr.isolate_real_roots(p).roots
            assert any(abs(x.value - 4.0) < 0.02 for x in roots)
            for x in roots:
                assert x.width > 0 or x.residual == 0, x
                assert np.min(np.abs(eig - x.value)) <= 1e-7 * max(1.0, abs(x.value)), x

    def test_stalled_refinement_returns_suspect(self):
        # the derivative stays below _DERIV_FLOOR, so every round bisects; the
        # bracket stalls at two adjacent floats that miss the 52-bit stop test
        cfg = IsolatorConfig(precision_bits=52)
        out = rr.refine_interval(STALLING, IsolationInterval(1.0, 2.0, "sign_change"), cfg)
        assert out == IsolationInterval(1.0, 1.0000000000000002, "suspect_ill_conditioned")

    def test_newton_step_rounding_to_nothing_spans_a_sign_flip(self):
        # at 52 bits Newton's last step at sqrt(5) rounds to 0, which used to
        # report width 0; the width now reaches the float neighbour across
        # which the computed sign flips
        p = Polynomial([-5.0, 0.0, 1.0])
        root = rr.refine_interval(p, IsolationInterval(1.0, 5.0), IsolatorConfig(precision_bits=52))
        assert root.value == 2.23606797749979
        assert root.width == 2 * math.ulp(root.value)
        below, above = root.value - root.width / 2, root.value + root.width / 2
        assert below * below - 5.0 < 0.0 < above * above - 5.0

    def test_sqrt2_from_a_bracket_to_1e300(self):
        # about 370 rounds of bisection: a cap on the rounds would return a suspect
        root = rr.refine_interval(Polynomial([-2.0, 0.0, 1.0]), IsolationInterval(1.0, 1e300))
        assert abs(root.value - bisected_sqrt2()) <= 2.0**-27

    def test_midpoint_near_float_max(self):
        # 0.5 * (lo + hi) overflows here
        root = rr.refine_interval(Polynomial([-1.5e308, 1.0]), IsolationInterval(1e308, 1.7e308))
        assert root.value == 1.5e308

    @pytest.mark.parametrize("lo, hi", [(0.0, math.inf), (-math.inf, math.inf)])
    def test_non_finite_endpoint_rejected(self, lo, hi):
        # with a nan midpoint the bracket never repeats, so the refinement would not end
        with pytest.raises(ValueError, match="must be finite"):
            rr.refine_interval(Polynomial([0.0, 1.0]), IsolationInterval(lo, hi))


@pytest.mark.parametrize(
    "stage",
    [
        lambda p: rr.select_sign_change_intervals(p, [IsolationInterval(1.0, 2.0)]),
        lambda p: rr.refine_interval(p, IsolationInterval(1.0, 2.0)),
    ],
    ids=["select_sign_change_intervals", "refine_interval"],
)
def test_real_stage_rejects_complex_coefficients(stage):
    # x**2 - (2 - i) has no real root; its real part x**2 - 2 has sqrt(2)
    with pytest.raises(ValueError, match="requires real coefficients"):
        stage(Polynomial([-2.0 + 1j, 0.0, 1.0]))


class TestNarrowRootRanges:
    def test_even_quadratic(self):
        pos, neg = rr.narrow_root_ranges(Polynomial([-4.0, 0.0, 1.0]))
        assert pos is not None and pos[0] <= 2.0 <= pos[1]
        assert neg is not None and neg[0] <= -2.0 <= neg[1]
        assert pos[1] == 4.0  # 2 * max opposite-sign ratio root

    def test_all_negative_roots_empty_positive_range(self):
        p = Polynomial([2.0, 3.0, 1.0])  # (x+1)(x+2)
        pos, neg = rr.narrow_root_ranges(p)
        assert pos is None
        assert neg is not None and neg[0] <= -2.0 and neg[1] >= -1.0
        # and the isolator finds only the negative roots
        res = rr.isolate_real_roots(p)
        assert sorted(round(r.value, 8) for r in res.roots) == [-2.0, -1.0]

    def test_unit_roots_inside_both_ranges(self):
        p = Polynomial([-1.0, 0, 0, 0, 0, 0, 1.0])  # x^6 - 1
        pos, neg = rr.narrow_root_ranges(p)
        assert pos[0] <= 1.0 <= pos[1]
        assert neg[0] <= -1.0 <= neg[1]

    def test_zero_constant_reports_zero_lower_bound(self):
        pos, neg = rr.narrow_root_ranges(Polynomial([0.0, -1.0, 1.0]))  # x(x-1)
        assert pos is not None and pos[0] == 0.0

    @pytest.mark.parametrize("root", [1e300, 1e-300])
    def test_extreme_scales_contain_roots(self, root):
        # (x**2 - root**2) / root: the coefficient ratio root**2 leaves the float range
        pos, neg = rr.narrow_root_ranges(Polynomial([-root, 0.0, 1.0 / root]))
        assert pos[0] <= root <= pos[1]
        assert neg[0] <= -root <= neg[1]

    @pytest.mark.parametrize("coeffs, root", [([1e300, 1e-300], -math.inf), ([1e-300, 1e300], -0.0)])
    def test_root_past_float_range(self, coeffs, root):
        # the roots -1e600 and -1e-600 round to -inf and -0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pos, neg = rr.narrow_root_ranges(Polynomial(coeffs))
        assert pos is None
        assert neg[0] <= root <= neg[1]


class TestIsolateRealRoots:
    def test_sect5_five_roots(self, sect5):
        res = rr.isolate_real_roots(sect5)
        assert len(res.roots) == 5
        for got, want in zip(res.roots, SECT5_REAL_ROOTS):
            assert abs(got.value - want) < 1e-7
            assert got.width <= 2.0 ** (1 - 27) * max(1.0, abs(got.value))
        assert res.suspects == ()

    def test_chebyshev4(self):
        res = rr.isolate_real_roots(rr.chebyshev1(4))
        want = [-0.92387953, -0.38268343, 0.38268343, 0.92387953]
        assert len(res.roots) == 4
        for got, w in zip(res.roots, want):
            assert abs(got.value - w) < 1e-7

    def test_no_real_roots_sextic(self):
        c = np.convolve(np.convolve([1.0, 0, 1.0], [1.0, 0, 1.0]), [1.0, 0, 1.0])
        res = rr.isolate_real_roots(Polynomial(c))  # (x^2+1)^3
        assert res.roots == () and res.suspects == ()

    def test_complex_coefficients_rejected(self):
        with pytest.raises(ValueError):
            rr.isolate_real_roots(Polynomial([1j, 1.0]))

    def test_zero_polynomial_rejected(self):
        # every x is a root, so an empty root list would be a wrong answer
        with pytest.raises(ValueError, match="zero polynomial"):
            rr.isolate_real_roots(Polynomial([0.0, 0.0]))

    def test_precision_bits_past_mantissa_rejected(self):
        with pytest.raises(ValueError, match="precision_bits"):
            IsolatorConfig(precision_bits=53)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"precision_bits": 27.5},
            {"precision_bits": math.nan},
        ],
        ids=lambda kw: ",".join(f"{k}={v}" for k, v in kw.items()),
    )
    def test_non_integer_settings_rejected(self, kwargs):
        (name,) = kwargs
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            IsolatorConfig(**kwargs)

    def test_numpy_integer_settings_accepted(self):
        cfg = IsolatorConfig(precision_bits=np.int64(30))
        res = rr.isolate_real_roots(Polynomial([-2.0, 0.0, 1.0]), cfg)
        assert len(res.roots) == 2

    def test_sqrt2_pair_at_52_bits(self):
        res = rr.isolate_real_roots(Polynomial([-2.0, 0.0, 1.0]), IsolatorConfig(precision_bits=52))
        assert res.suspects == ()
        values = sorted(r.value for r in res.roots)
        assert len(values) == 2
        assert all(abs(abs(v) - math.sqrt(2.0)) <= 2.0**-51 for v in values)

    def test_root_at_origin_found_exactly(self):
        res = rr.isolate_real_roots(Polynomial([0.0, -1.0, 1.0]))  # x(x-1)
        values = sorted(r.value for r in res.roots)
        assert values[0] == 0.0
        assert abs(values[1] - 1.0) < 1e-7

    def test_even_multiplicity_invisible(self):
        res = rr.isolate_real_roots(Polynomial([1.0, -2.0, 1.0]))  # (x-1)^2
        assert res.roots == ()

    def test_endpoint_budget_bound(self, sect5):
        res = rr.isolate_real_roots(sect5)
        assert res.stats["sign_evals"] <= 4 * sect5.degree

    def test_soundness_no_fabrication(self, oracle_corpus):
        b = 27
        for p, rs in oracle_corpus[:40]:
            res = rr.isolate_real_roots(p)
            dp = rr.derivative(p)
            for root in res.roots:
                bound = (
                    abs(rr.evaluate(dp, root.value)) * 2.0 ** (2 - b) * max(1.0, abs(root.value))
                    + 1e-12 * np.abs(p.coeffs).max()
                )
                assert abs(rr.evaluate(p, root.value)) <= bound

    def test_completeness_on_separated_roots(self):
        rng = np.random.default_rng(77)
        for _ in range(15):
            k = int(rng.integers(2, 6))
            roots = np.sort(rng.uniform(-3, 3, size=k))
            while np.any(np.diff(roots) < 0.2):
                roots = np.sort(rng.uniform(-3, 3, size=k))
            c = np.array([1.0])
            for r in roots:
                c = np.convolve(c, [-r, 1.0])
            res = rr.isolate_real_roots(Polynomial(c))
            assert len(res.roots) == k
            for want, got in zip(roots, res.roots):
                assert abs(got.value - want) <= 2.0**-26 * max(1.0, abs(want))

    def test_result_sorted_by_value(self, oracle_corpus):
        for p, _ in oracle_corpus[:20]:
            res = rr.isolate_real_roots(p)
            values = [r.value for r in res.roots]
            assert values == sorted(values)

    def test_widely_scaled_roots(self):
        c = np.convolve([-1e6, 1.0], [-2e6, 1.0])
        res = rr.isolate_real_roots(Polynomial(c))
        assert len(res.roots) == 2
        assert abs(res.roots[0].value - 1e6) <= 1e6 * 2.0**-26
        assert abs(res.roots[1].value - 2e6) <= 2e6 * 2.0**-26

    def test_roots_at_1e300(self):
        res = rr.isolate_real_roots(Polynomial([-1e300, 0.0, 1e-300]))
        values = sorted(r.value for r in res.roots)
        assert len(values) == 2
        assert all(abs(abs(v) - 1e300) <= 1e300 * 2.0**-26 for v in values)

    def test_record_numbers_are_python_floats(self, sect5):
        roots = list(rr.isolate_real_roots(sect5).roots)
        # an exact zero at an endpoint, one at a Newton iterate, and a Newton
        # step that rounds to nothing, whose width reaches the float neighbour
        x_minus_1 = Polynomial([-1.0, 1.0])
        roots.append(rr.refine_interval(x_minus_1, IsolationInterval(np.float64(1.0), np.float64(2.0))))
        roots.append(rr.refine_interval(x_minus_1, IsolationInterval(0.5, 3.0)))
        assert [r.value for r in roots[-2:]] == [1.0, 1.0]
        sqrt5 = rr.refine_interval(
            Polynomial(np.array([-5.0, 0.0, 1.0])), IsolationInterval(np.float64(1.0), np.float64(5.0)),
            IsolatorConfig(precision_bits=52),
        )
        assert sqrt5.width > 0.0
        for r in roots + [sqrt5]:
            assert type(r.value) is type(r.width) is type(r.residual) is float, r
        # a stalled refinement, and a sign test that overflows near the root 1e300.
        # Both suspects' ends come from bisection or clipping: a bracket stalls
        # only at [2**k, 2**k + ulp] at 52 bits with Newton declining, and no
        # input was found whose stalled end is a Newton iterate, so Newton
        # iterates are checked through the roots above
        suspects = [rr.refine_interval(STALLING, IsolationInterval(1.0, 2.0), IsolatorConfig(precision_bits=52))]
        suspects += rr.isolate_real_roots(Polynomial([1.0, -1e300, 1.0])).suspects
        assert len(suspects) == 2
        for s in suspects:
            assert s.status == "suspect_ill_conditioned"
            assert type(s.lo) is type(s.hi) is float, s

    def test_tiny_leading_coefficient(self):
        res = rr.isolate_real_roots(Polynomial([1.0, 1.0, 1e-8]))
        values = sorted(r.value for r in res.roots)
        assert abs(values[0] + 1e8) <= 1e8 * 1e-6
        assert abs(values[1] + 1.0) <= 1e-6

    def test_triple_root_inside_noise_band(self):
        # odd multiplicity gives a sign change but Newton converges only
        # linearly; anything reported lies inside the double-precision noise
        # band of the root: |p(v)| ~ eps there for any v within ~(4 eps)**(1/3) of 1
        c = np.convolve(np.convolve([-1.0, 1.0], [-1.0, 1.0]), [-1.0, 1.0])
        res = rr.isolate_real_roots(Polynomial(c))
        assert res.roots
        for r in res.roots:
            assert abs(r.value - 1.0) <= 1e-5
        for s in res.suspects:
            assert abs(0.5 * (s.lo + s.hi) - 1.0) <= 1e-3


    def test_newton_step_rounding_to_nothing_without_a_sign_flip(self):
        # real-family cell b32-n128-r12-t1: near -0.6088 a Newton step rounds
        # to 0 where the sign does not flip at the float neighbour, so the
        # refinement goes on instead of returning a width-0 root
        from rootradii.bench import cell_seed
        from rootradii.oracle import generate_family

        p = generate_family(1, 128, 12, cell_seed(32, 128, 12, 1))
        eig = np.roots(p.coeffs[::-1])
        res = rr.isolate_real_roots(p)
        assert any(abs(x.value + 0.6087614290087) < 1e-12 for x in res.roots)
        for x in res.roots:
            assert x.width > 0 or x.residual == 0, x
            assert np.min(np.abs(eig - x.value)) <= 2.0**-26 * max(1.0, abs(x.value)), x

    def test_one_pass_covers_every_real_root(self, monkeypatch):
        # real-family case b0-n512-r8-t1: the sign test overflows near 6.787,
        # which no tighter radius cures, so the radii run once
        from rootradii import realiso
        from rootradii.bench import cell_seed
        from rootradii.oracle import generate_family

        calls = []

        def counted(*args):
            calls.append(args)
            return rr.refined_radii(*args)

        monkeypatch.setattr(realiso, "refined_radii", counted)
        p = generate_family(1, 512, 8, cell_seed(0, 512, 8, 1))
        res = rr.isolate_real_roots(p)
        assert len(calls) == 1
        got = np.array([r.value for r in res.roots])
        ref = np.roots(p.coeffs[::-1])
        ref = ref[np.abs(ref.imag) <= 1e-7 * np.maximum(1.0, np.abs(ref))].real
        assert len(ref) == 12
        for x in ref:
            near = len(got) and np.abs(got - x).min() <= 2.0**-26 * abs(x)
            assert near or any(s.lo <= x <= s.hi for s in res.suspects), x


class TestFuzzAgainstOracle:
    def test_isolated_simple_real_roots_always_found(self):
        # wider-degree fuzz: every simple real oracle root whose neighborhood
        # is clearly free of other roots must be matched; nothing may be
        # fabricated beyond the evaluation noise floor
        rng = np.random.default_rng(1234)
        b = 27
        checked = 0
        while checked < 30:
            degree = int(rng.integers(3, 41))
            p = random_real_poly(rng, degree)
            rs = rr.all_roots_oracle(p)
            if not rs.converged:
                continue
            checked += 1
            res = rr.isolate_real_roots(p)
            found = np.array([r.value for r in res.roots])
            for z in rs.roots:
                if abs(z.imag) > 1e-10:
                    continue
                others = rs.roots[np.abs(rs.roots - z) > 1e-12]
                if len(others) and np.abs(others - z).min() < 0.05 * max(1.0, abs(z)):
                    continue  # not comfortably isolated, no promise
                assert len(found) and np.abs(found - z.real).min() <= 2.0 ** (1 - b) * max(
                    1.0, abs(z.real)
                ), f"missed isolated real root {z.real} of degree-{degree} instance"
            dp = rr.derivative(p)
            for r in res.roots:
                noise = 1e-10 * float(np.polyval(np.abs(p.coeffs)[::-1], abs(r.value)))
                bound = abs(rr.evaluate(dp, r.value)) * 2.0 ** (2 - b) * max(1.0, abs(r.value))
                assert abs(rr.evaluate(p, r.value)) <= bound + noise


class TestNewtonQuadraticConvergence:
    def test_isolated_start_contracts_doubly_exponentially(self):
        # x1 = 0 with the other four roots at distance >= 100, start at 0.01:
        # 3*(n-1)*|y0 - x1| = 0.12 < |y0 - xj| for every other root
        c = np.array([1.0])
        for r in (100.0, -100.0, 120.0, -120.0):
            c = np.convolve(c, [-r, 1.0])
        c = np.convolve(c, [0.0, 1.0])
        p = Polynomial(c)
        dp = rr.derivative(p)
        y = 0.01
        y0_err = abs(y)
        k = 0
        while True:
            bound = 2.0 * y0_err / 2.0 ** (2.0**k)
            if bound < 1e-14:
                break
            assert abs(y) <= bound, f"iterate {k} above the contraction bound"
            y = y - rr.evaluate(p, y).real / rr.evaluate(dp, y).real
            k += 1
        assert k >= 4
