import numpy as np
import pytest

import rootradii as rr

# 8x^7 + 16x^6 + 16x^5 + 16x^4 - 23x^3 - 30x^2 + 3x + 4, the degree-7 product
# of the degree-4 Chebyshev polynomial with x^3 + 2x^2 + 3x + 4; five real
# roots, one complex-conjugate pair, all well separated
SECT5_COEFFS = [4.0, 3.0, -30.0, -23.0, 16.0, 16.0, 16.0, 8.0]
SECT5_REAL_ROOTS = [-1.65062919, -0.92387953, -0.38268343, 0.38268343, 0.92387953]

# printed 4-decimal enclosures of the seven radii estimates; containment is
# checked with half-a-print-ulp slack since the brackets are rounded
SECT5_RADII_BRACKETS = [
    (1.6504, 1.6507),
    (1.5565, 1.5570),
    (1.5565, 1.5570),
    (0.9238, 0.9241),
    (0.9237, 0.9240),
    (0.3827, 0.3827),
    (0.3826, 0.3828),
]
PRINT_SLACK = 5e-5


@pytest.fixture(scope="session")
def sect5():
    return rr.Polynomial(SECT5_COEFFS)


@pytest.fixture(scope="session")
def sect5_oracle(sect5):
    rs = rr.all_roots_oracle(sect5)
    assert rs.converged
    return rs


def random_real_poly(rng, degree):
    c = rng.standard_normal(degree + 1)
    while c[-1] == 0.0:
        c[-1] = rng.standard_normal()
    return rr.Polynomial(c)


def random_complex_poly(rng, degree):
    c = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
    while c[-1] == 0.0:
        c[-1] = rng.standard_normal() + 1j * rng.standard_normal()
    return rr.Polynomial(c)


@pytest.fixture(scope="session")
def oracle_corpus():
    """200 random polynomials of degrees 2..12 with converged oracle root sets."""
    rng = np.random.default_rng(20240811)
    corpus = []
    i = 0
    while len(corpus) < 200:
        degree = 2 + (i % 11)
        p = random_real_poly(rng, degree)
        i += 1
        rs = rr.all_roots_oracle(p)
        if rs.converged:
            corpus.append((p, rs))
    return corpus


def sorted_moduli(roots):
    return np.sort(np.abs(roots))[::-1]
