"""Error radii of the integer Graeffe engine against exact integer arithmetic.

``_dd.mantexp_dd`` and ``_dd.graeffe_step_me_dd`` carry with every
``P + 1``-bit coefficient a relative radius that must hold the exact
coefficient.  The exact Taylor shift and the exact Graeffe
iterates are computed here with Python ints on Gaussian-integer pairs,
sharing no code with the engine, and every coefficient at every step is
checked to lie within its radius.
"""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from rootradii import _dd
from rootradii.poly import Polynomial, root_radius_upper_bound

from conftest import SECT5_COEFFS

# exact iterates double in size every step; these many keep the module fast
STEPS = 6


def cmul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def exact_shift(c, z):
    """Coefficients of ``2**(D*(n+1)) * p(x + z)`` as Gaussian-integer pairs.

    With ``C_i = c_i * 2**D`` and ``Z = z * 2**D`` integral, coefficient ``j``
    is ``sum_{i>=j} C_i binom(i, j) Z**(i-j) 2**(D*(n-i+j))``.
    """
    parts = [Fraction(v) for x in [*c, z] for v in (complex(x).real, complex(x).imag)]
    D = max(f.denominator for f in parts).bit_length() - 1
    ints = [int(f * 2**D) for f in parts]
    C, Z = list(zip(ints[:-2:2], ints[1:-2:2])), (ints[-2], ints[-1])
    n = len(C) - 1
    powers = [(1, 0)]
    for _ in range(n):
        powers.append(cmul(powers[-1], Z))
    out = []
    for j in range(n + 1):
        re = im = 0
        for i in range(j, n + 1):
            t = cmul(C[i], powers[i - j])
            w = math.comb(i, j) << (D * (n - i + j))
            re, im = re + w * t[0], im + w * t[1]
        out.append((re, im))
    return out


def exact_step(c):
    """``q_j = (-1)**n * sum_{i+k=2j} (-1)**i c_i c_k`` on Gaussian-integer pairs."""
    n = len(c) - 1
    out = []
    for j in range(n + 1):
        re = im = 0
        for i in range(max(0, 2 * j - n), min(2 * j, n) + 1):
            t = cmul(c[i], c[2 * j - i])
            s = -1 if (n + i) & 1 else 1
            re, im = re + s * t[0], im + s * t[1]
        out.append((re, im))
    return out


def assert_within_radii(state, exact, where):
    """Every exact coefficient lies within ``rad * 2**-s * |c|`` of the engine's ``c``."""
    re, im, rad, s, e = state
    for j, ((xr, xi), r, i, d, ej) in enumerate(zip(exact, re, im, rad, e)):
        f = min(ej, 0)  # the difference in units of 2**f
        dr = (r << (ej - f)) - (xr << -f)
        di = (i << (ej - f)) - (xi << -f)
        err2 = Fraction(dr * dr + di * di) * Fraction(2) ** (2 * f)
        bound2 = (Fraction(d) * Fraction(2) ** (ej - s)) ** 2 * (r * r + i * i)
        assert err2 <= bound2, (where, j)


def check_query(c, z, P=None, steps=STEPS):
    """Check every radius of ``steps`` squarings; each must stay finite, so
    that no check is skipped."""
    n = len(c) - 1
    P = max(64, 16 * n) if P is None else P
    exact = exact_shift(c, z)
    while exact[0] == (0, 0):  # a root at the center is stripped by the engine
        exact = exact[1:]
    state = _dd.mantexp_dd([x[0] for x in exact], [x[1] for x in exact], P)
    assert_within_radii(state, exact, (z, 0))
    for k in range(1, steps + 1):
        state = _dd.graeffe_step_me_dd(*state, P)
        assert state is not None and math.inf not in state[2], (z, k)
        exact = exact_step(exact)
        assert_within_radii(state, exact, (z, k))
    return state


def complex_centers(c):
    a = 100.0 * root_radius_upper_bound(Polynomial(c))
    return (complex(-a, 0.0), complex(0.0, -a), -a * cmath.exp(0.25j * math.pi))


class TestErrorRadiiAgainstExactIterates:
    @pytest.mark.parametrize("z", [-400.0, 400j, -400j])
    def test_worked_example(self, z):
        # small integer coefficients and center: affordable to the 10th step
        check_query(SECT5_COEFFS, z, steps=10)

    @pytest.mark.parametrize("n", [4, 7, 10])
    def test_gaussians_at_complex_centers(self, n):
        rng = np.random.default_rng(n)
        real = rng.standard_normal(n + 1)
        for c in (real, real + 1j * rng.standard_normal(n + 1)):
            for z in complex_centers(c):
                check_query(c, z)

    @pytest.mark.parametrize(
        "c",
        [
            np.polynomial.polynomial.polyfromroots([1.0, 1.0, 1.0, -2.0]),  # (x-1)**3 (x+2)
            np.poly([1, 1 + 1e-9, 1 + 2e-9, 5])[::-1],
        ],
        ids=["triple-root", "cluster-1e-9"],
    )
    def test_multiple_roots_and_clusters(self, c):
        for z in (*complex_centers(c), 1.0):
            check_query(c, z)

    def test_radii_are_not_vacuous(self):
        # the checks above mean something only if the radii stay small: the
        # worked example at -400 keeps every coefficient within 2**-40
        state = check_query(SECT5_COEFFS, -400.0, steps=10)
        assert max(state[2]) * 2.0 ** -state[3] < 2.0**-40

    def test_skipped_pair_counts(self):
        # exact mantissas where output 2's kept pairs cancel to 2**400, 128
        # bits below them, while c_0 c_4 lies 200 bits below the anchor, past
        # the 3P cut: only its bound covers the true 2**400 + 2**329
        P = 64
        re, im, rad = [2**64, 2**64, 2**64 + 1, 2**64 + 2, 2**64], [0] * 5, [0.0] * 5
        e = [0, 200, 200, 199, 200]
        exact = [(r << ei, 0) for r, ei in zip(re, e)]
        state = _dd.graeffe_step_me_dd(re, im, rad, P, e, P)
        assert (state[0][2] << state[4][2]) == 2**400
        assert_within_radii(state, exact_step(exact), "near-cancelling")
        # and where they cancel exactly, the zero that is left is not exact
        re[2], re[3] = 2**64, 2**64
        state = _dd.graeffe_step_me_dd(re, im, rad, P, e, P)
        assert (state[0][2], state[2][2]) == (0, math.inf)
