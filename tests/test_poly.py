import math
import warnings

import numpy as np
import pytest

import rootradii as rr
from rootradii import _kernels, newton_polygon_radii
from rootradii.poly import Polynomial

from conftest import SECT5_COEFFS, random_complex_poly, random_real_poly


class TestPolynomial:
    def test_trailing_zeros_trimmed(self):
        p = Polynomial([1.0, 2.0, 0.0, 0.0])
        assert p.degree == 1

    def test_zero_polynomial_allowed(self):
        p = Polynomial([0.0])
        assert p.is_zero

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Polynomial([1.0, np.inf])

    def test_coeffs_immutable(self):
        p = Polynomial([1.0, 2.0])
        with pytest.raises(ValueError):
            p.coeffs[0] = 5.0


class TestEvaluate:
    def test_simple_quadratic(self):
        assert rr.evaluate(Polynomial([-1, 0, 1]), 2.0) == 3.0

    def test_sect5_at_root(self, sect5):
        assert abs(rr.evaluate(sect5, 0.38268343)) < 1e-6

    def test_sect5_at_zero(self, sect5):
        assert rr.evaluate(sect5, 0.0) == 4.0

    def test_overflow_raises(self):
        with pytest.raises(OverflowError):
            rr.evaluate(Polynomial([0, 0, 1]), 1e200)


class TestDerivative:
    def test_quadratic(self):
        d = rr.derivative(Polynomial([-1, 0, 1]))
        assert np.array_equal(d.coeffs, [0.0, 2.0])

    def test_constant_gives_zero_polynomial(self):
        d = rr.derivative(Polynomial([5.0]))
        assert d.is_zero

    def test_cubic_term_by_term(self):
        d = rr.derivative(Polynomial([4, 3, 2, 1]))
        assert np.array_equal(d.coeffs, [3.0, 4.0, 3.0])


class TestTaylorShift:
    def test_square_shift_one(self):
        q = rr.taylor_shift(Polynomial([0, 0, 1]), 1.0)
        assert np.array_equal(q.coeffs, [1.0, 2.0, 1.0])

    def test_identity_shift(self):
        p = Polynomial([-1, 0, 1])
        q = rr.taylor_shift(p, 0.0)
        assert np.array_equal(q.coeffs, p.coeffs)

    def test_constant_term_is_value_at_shift(self):
        rng = np.random.default_rng(5)
        p = random_real_poly(rng, 6)
        q = rr.taylor_shift(p, 3.0)
        v = rr.evaluate(p, 3.0)
        assert abs(complex(q.coeffs[0]) - v) <= 1e-12 * abs(v)

    def test_real_inputs_stay_real(self):
        q = rr.taylor_shift(Polynomial([1.0, 2.0, 3.0]), -2.0)
        assert q.is_real

    def test_consistency_with_evaluation(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            p = random_complex_poly(rng, int(rng.integers(1, 9)))
            z = complex(rng.normal(), rng.normal())
            w = complex(rng.normal(), rng.normal())
            a = rr.evaluate(rr.taylor_shift(p, z), w)
            b = rr.evaluate(p, w + z)
            assert abs(a - b) <= 1e-10 * max(1.0, abs(b))

    def test_persistent_overflow_raises(self):
        p = Polynomial(np.ones(41))
        with pytest.raises(rr.PrecisionLossError):
            rr.taylor_shift(p, 1e30)

    @pytest.mark.parametrize("degree", [0, 2])
    @pytest.mark.parametrize("z", [math.nan, math.inf, complex(0.0, math.inf)])
    def test_non_finite_center_raises(self, degree, z):
        # a constant used to come back unshifted, a nan center as an overflow
        p = Polynomial([1.0, -2.0, 3.0][: degree + 1])
        with pytest.raises(rr.PrecisionLossError, match="shift center .* is not finite"):
            rr.taylor_shift(p, z)


class TestReverseAndNegate:
    def test_reverse_simple(self):
        q = rr.reverse(Polynomial([4, 3, 2]))
        assert np.array_equal(q.coeffs, [2.0, 3.0, 4.0])

    def test_reverse_linear_root_map(self):
        q = rr.reverse(Polynomial([-2, 1]))  # root 2 -> 1/2
        assert np.array_equal(q.coeffs, [1.0, -2.0])
        assert abs(rr.evaluate(q, 0.5)) == 0.0

    def test_reverse_zero_constant_errors(self):
        with pytest.raises(ValueError, match="deflate"):
            rr.reverse(Polynomial([0, 1]))

    def test_negate_odd_function(self):
        q = rr.negate_arg(Polynomial([0, 1, 0, 1]))  # x^3 + x
        assert np.array_equal(q.coeffs, [0.0, -1.0, 0.0, -1.0])

    def test_root_maps_against_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            p = random_real_poly(rng, int(rng.integers(2, 7)))
            if abs(p.coeffs[0]) < 1e-6:
                continue
            roots = rr.all_roots_oracle(p).roots
            rev_roots = rr.all_roots_oracle(rr.reverse(p)).roots
            neg_roots = rr.all_roots_oracle(rr.negate_arg(p)).roots
            for x in roots:
                assert min(abs(rev_roots - 1.0 / x)) < 1e-6 * max(1.0, abs(1.0 / x))
                assert min(abs(neg_roots + x)) < 1e-8 * max(1.0, abs(x))


class TestGraeffeStep:
    def test_squares_pm_one(self):
        q = rr.graeffe_step(Polynomial([-1, 0, 1]))
        assert np.array_equal(q.coeffs, [1.0, -2.0, 1.0])

    def test_linear_root_squares(self):
        q = rr.graeffe_step(Polynomial([-3, 1]))
        assert np.array_equal(q.coeffs, [-9.0, 1.0])

    def test_zero_constant_term(self):
        q = rr.graeffe_step(Polynomial([0, 1, 2]))  # roots 0 and -1/2
        assert np.array_equal(q.coeffs, [0.0, -1.0, 4.0])

    def test_degree_zero(self):
        assert np.array_equal(rr.graeffe_step(Polynomial([-3.0])).coeffs, [9.0])
        assert np.array_equal(rr.graeffe_step(Polynomial([1j])).coeffs, [-1.0])

    def test_equals_engine_kernel_bit_for_bit(self):
        rng = np.random.default_rng(43)
        for n in range(1, 65):
            for complex_coeffs in (False, True):
                c = rng.standard_normal(n + 1)
                if complex_coeffs:
                    c = c + 1j * rng.standard_normal(n + 1)
                c = c * 2.0 ** rng.integers(-300, 301, n + 1)
                m, e = _kernels.graeffe_step_me(*_kernels.mantexp(c))
                want = np.ldexp(m.real, e) + 1j * np.ldexp(m.imag, e)
                got = rr.graeffe_step(Polynomial(c)).coeffs
                assert np.array_equal(np.asarray(got, dtype=np.complex128), want)

    def test_real_input_matches_complex_typed_kernel(self):
        # real coefficients reach the kernel as float64; the result is the
        # complex-typed kernel's, and real
        rng = np.random.default_rng(44)
        for n in range(1, 33):
            c = rng.standard_normal(n + 1) * 2.0 ** rng.integers(-300, 301, n + 1)
            m, e = _kernels.graeffe_step_me(*_kernels.mantexp(c.astype(complex)))
            got = rr.graeffe_step(Polynomial(c)).coeffs
            assert got.dtype == np.float64
            assert np.array_equal(got, np.ldexp(m.real, e)) and not m.imag.any()

    def test_wide_range_keeps_both_ends(self):
        q = rr.graeffe_step(Polynomial([1e100, 1e-100]))
        assert np.array_equal(q.coeffs, [-1e200, 1e-200])

    def test_underflowing_leading_coefficient_raises(self):
        with pytest.raises(rr.PrecisionLossError):
            rr.graeffe_step(Polynomial([1.0, 1e-170]))

    def test_overflow_raises(self):
        with pytest.raises(rr.PrecisionLossError):
            rr.graeffe_step(Polynomial([1e200, 1.0]))

    def test_root_squaring_against_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(15):
            p = random_real_poly(rng, int(rng.integers(2, 9)))
            rs = rr.all_roots_oracle(p)
            if not rs.converged:
                continue
            qs = rr.all_roots_oracle(rr.graeffe_step(p))
            for x in rs.roots:
                target = x * x
                assert min(abs(qs.roots - target)) <= 1e-8 * max(1.0, abs(target))


class TestNormalize:
    """Scaling every coefficient by a power of two changes no radius."""

    def test_radii_estimates_scale_invariant(self):
        p = Polynomial(np.array(SECT5_COEFFS))
        q = Polynomial(np.array(SECT5_COEFFS) * 2.0**-14)
        assert np.array_equal(newton_polygon_radii(p).radii, newton_polygon_radii(q).radii)


class TestRootRadiusUpperBound:
    def test_sect5_value(self, sect5):
        # max over i of |p_{7-i}/8|**(1/i) is |16/8| = 2, reached at i = 1
        assert rr.root_radius_upper_bound(sect5) == 4.0

    def test_unit_circle_family(self):
        p = Polynomial([-1, 0, 0, 0, 0, 1])  # x^5 - 1
        assert rr.root_radius_upper_bound(p) == 2.0

    def test_hand_expanded_quadratic(self):
        p = Polynomial([5, -6, 1])  # (x-5)(x-1)
        assert rr.root_radius_upper_bound(p) == 12.0

    def test_sandwich_against_oracle(self, oracle_corpus):
        for p, rs in oracle_corpus[:50]:
            r1 = np.abs(rs.roots).max()
            bound = rr.root_radius_upper_bound(p)
            n = p.degree
            assert 0.5 * bound / n <= r1 * (1 + 1e-9)
            assert r1 <= bound * (1 + 1e-9)

    def test_binomials_past_float_range(self):
        # a + b*x**n has |x| = |a/b|**(1/n); a/b itself may leave the float range
        for a, b, n in [(1e-300, 1e300, 2), (1e300, 1e-300, 2), (1.0, 1e-300, 4), (1e-300, 1.0, 4)]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                bound = rr.root_radius_upper_bound(Polynomial([a] + [0.0] * (n - 1) + [b]))
            log2_x = (math.log2(a) - math.log2(b)) / n
            assert math.log2(0.5 * bound / n) <= log2_x + 1e-9
            assert log2_x <= math.log2(bound) + 1e-9


class TestCoefficientFiles:
    def test_round_trip_real(self, tmp_path, sect5):
        path = tmp_path / "p.txt"
        rr.write_coefficients(path, sect5)
        q = rr.read_coefficients(path)
        assert np.array_equal(q.coeffs, sect5.coeffs)

    def test_round_trip_complex(self, tmp_path):
        p = Polynomial([1 + 2j, 0, 3 - 4j])
        path = tmp_path / "p.txt"
        rr.write_coefficients(path, p)
        q = rr.read_coefficients(path)
        assert np.array_equal(q.coeffs, p.coeffs)

    def test_comments_and_blanks_ignored(self):
        p = rr.parse_coefficients("# header\n\n1.0\n2.0   # inline\n")
        assert np.array_equal(p.coeffs, [1.0, 2.0])

    def test_bad_line_reports_number(self):
        with pytest.raises(ValueError, match="line 2"):
            rr.parse_coefficients("1.0\nnope\n")

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            rr.parse_coefficients("# nothing\n")
