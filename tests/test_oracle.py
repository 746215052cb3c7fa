import numpy as np
import pytest

import rootradii as rr
from rootradii.poly import Polynomial

from conftest import random_real_poly


class TestAllRootsOracle:
    def test_pm_one(self):
        rs = rr.all_roots_oracle(Polynomial([-1.0, 0.0, 1.0]))
        assert rs.converged
        assert sorted(np.round(rs.roots.real, 10)) == [-1.0, 1.0]
        assert np.abs(rs.roots.imag).max() < 1e-10

    def test_sect5_printed_roots(self, sect5_oracle):
        printed = [
            0.3827 + 0.0j,
            -0.3827 + 0.0j,
            0.9239 + 0.0j,
            -0.9239 + 0.0j,
            -0.1747 + 1.5469j,
            -0.1747 - 1.5469j,
            -1.6506 + 0.0j,
        ]
        for want in printed:
            assert min(abs(sect5_oracle.roots - want)) < 1e-4

    def test_construct_then_solve_round_trip(self):
        rng = np.random.default_rng(3)
        chosen = rng.uniform(-2, 2, 10) + 1j * rng.uniform(-2, 2, 10)
        c = np.array([1.0 + 0j])
        for z in chosen:
            c = np.convolve(c, [-z, 1.0])
        rs = rr.all_roots_oracle(Polynomial(c))
        assert rs.converged
        for z in chosen:
            assert min(abs(rs.roots - z)) < 1e-8

    def test_residuals_small_when_converged(self, oracle_corpus):
        # scale the residual by sum_i |c_i||z|^i, the evaluation magnitude at
        # the root; roots far outside the unit disc are steep points where the
        # raw |p(z)| is large for any backward-stable solver
        for p, rs in oracle_corpus[:50]:
            c = np.abs(p.coeffs)
            for z, res in zip(rs.roots, rs.residuals):
                scale = float(np.polyval(c[::-1], abs(z)))
                assert res <= 1e-8 * scale

    def test_zero_roots_deflated(self):
        rs = rr.all_roots_oracle(Polynomial([0.0, 0.0, -1.0, 1.0]))  # x^2 (x-1)
        assert rs.converged
        assert sorted(np.round(np.abs(rs.roots), 9)) == [0.0, 0.0, 1.0]

    def test_huge_spread_not_converged(self):
        # the float polynomial x**2 - 1e100 x + 1e100 has roots 1e100 - 1 and
        # about 1; the oracle's small root fails the backward-error check
        rs = rr.all_roots_oracle(Polynomial([1e100, -(1e100 + 1.0), 1.0]))
        assert not rs.converged

    @pytest.mark.parametrize("lapack", ["raises", "non-finite"])
    def test_circle_start_when_lapack_fails(self, monkeypatch, sect5, sect5_oracle, lapack):
        def roots(c):
            if lapack == "raises":
                raise np.linalg.LinAlgError("eigenvalues did not converge")
            return np.full(len(c) - 1, np.nan)

        monkeypatch.setattr(np, "roots", roots)
        rs = rr.all_roots_oracle(sect5)
        assert rs.converged and rs.sweeps > 1
        for z in sect5_oracle.roots:
            assert min(abs(rs.roots - z)) < 1e-10

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            rr.all_roots_oracle(Polynomial([5.0]))


class TestChebyshev:
    def test_degree_four_coefficients(self):
        assert np.array_equal(rr.chebyshev1(4).coeffs, [1.0, 0.0, -8.0, 0.0, 8.0])

    def test_degree_one_is_x(self):
        assert np.array_equal(rr.chebyshev1(1).coeffs, [0.0, 1.0])

    def test_degree_twelve_closed_form_roots(self):
        p = rr.chebyshev1(12)
        want = np.cos((2 * np.arange(1, 13) - 1) * np.pi / 24)
        rs = rr.all_roots_oracle(p)
        assert rs.converged
        for w in want:
            assert min(abs(rs.roots - w)) < 1e-12


class TestGenerateFamily:
    def test_type3_factor_shape(self):
        # degree n-r = 2 -> integral factor 1 + 2x + 3x^2
        p = rr.generate_family(3, 6, 4, seed=0)
        want = np.convolve(rr.chebyshev1(4).coeffs, [1.0, 2.0, 3.0])
        assert np.array_equal(p.coeffs, want)

    def test_deterministic_under_seed(self):
        a = rr.generate_family(1, 20, 4, seed=9)
        b = rr.generate_family(1, 20, 4, seed=9)
        assert np.array_equal(a.coeffs, b.coeffs)
        c = rr.generate_family(1, 20, 4, seed=10)
        assert not np.array_equal(a.coeffs, c.coeffs)

    def test_degree_and_leading(self):
        for t in (1, 2, 3):
            p = rr.generate_family(t, 17, 5, seed=4)
            assert p.degree == 17
            assert p.coeffs[-1] != 0

    def test_type2_is_complex(self):
        assert not rr.generate_family(2, 10, 3, seed=1).is_real

    def test_chebyshev_roots_survive_product(self):
        want = np.cos((2 * np.arange(1, 5) - 1) * np.pi / 8)
        for t in (1, 2, 3):
            p = rr.generate_family(t, 12, 4, seed=8)
            rs = rr.all_roots_oracle(p)
            if not rs.converged:
                continue
            for w in want:
                assert min(abs(rs.roots - w)) < 1e-6

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            rr.generate_family(1, 4, 4, seed=0)
        with pytest.raises(ValueError):
            rr.generate_family(5, 10, 4, seed=0)
