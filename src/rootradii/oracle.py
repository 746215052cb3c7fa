"""Independent ground truth: a simultaneous all-roots solver and test families.

The Durand-Kerner (Weierstrass) iteration here shares no code with the
isolation pipeline (no Graeffe squaring, no hull, no bracketed Newton), so it
can serve as the oracle for every derived expectation in the test suite and
for the benchmark's error column.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .poly import Polynomial

__all__ = ["RootSet", "all_roots_oracle", "chebyshev1", "generate_family"]


@dataclass(frozen=True)
class RootSet:
    """All roots of a polynomial with per-root residuals ``|p(root)|``."""

    roots: np.ndarray
    residuals: np.ndarray
    converged: bool
    sweeps: int


_TOL = 1e-12
_MAX_SWEEPS = 500


def all_roots_oracle(p: Polynomial) -> RootSet:
    """Durand-Kerner simultaneous iteration started from LAPACK's roots.

    The starting points are the companion-matrix eigenvalues (``np.roots``)
    of the rescaled monic polynomial, or a perturbed circle when LAPACK fails
    or returns non-finite values.  Runs in double precision until the largest
    per-sweep correction drops below ``_TOL`` or ``_MAX_SWEEPS`` sweeps have
    passed.  ``converged`` also requires a backward-stable result:
    ``|p(z)| <= 4n u sum_i |c_i| |z|**i`` at every root, with ``u = 2**-53``.
    Non-convergence is flagged rather than raised.  Roots at the origin are
    deflated exactly and appended back.
    """
    if p.degree < 1:
        raise ValueError("need degree >= 1")
    c = np.asarray(p.coeffs, dtype=np.complex128)
    nzero = 0
    while c[0] == 0:
        c = c[1:]
        nzero += 1
    n = len(c) - 1
    roots = np.zeros(0, dtype=np.complex128)
    sweeps = 0
    converged = True
    if n >= 1:
        # rescale the variable so the geometric-mean root radius is about 1;
        # keeps the Weierstrass products representable at high degree
        lg = np.log2(np.abs(c), out=np.full(len(c), -np.inf), where=np.abs(c) > 0)
        s = 2.0 ** ((lg[0] - lg[n]) / n)
        d = lg + np.arange(n + 1) * np.log2(s)
        d = d - d.max()
        cs = np.where(np.abs(c) > 0, c / np.where(np.abs(c) > 0, np.abs(c), 1.0), 0.0)
        cs = cs * np.exp2(d)
        cs = cs / cs[n]
        z, sweeps, converged = _durand_kerner(cs, _starting_points(cs), _TOL, _MAX_SWEEPS)
        roots = z * s
        converged = converged and _backward_stable(c, roots)
    if nzero:
        roots = np.concatenate([roots, np.zeros(nzero, dtype=np.complex128)])
    with np.errstate(over="ignore", invalid="ignore"):
        vals = _kernels.horner_points(np.asarray(p.coeffs, dtype=np.complex128), roots)
        residuals = np.abs(vals)
    return RootSet(roots=roots, residuals=residuals, converged=bool(converged), sweeps=int(sweeps))


def _starting_points(cs):
    """LAPACK's roots of monic ``cs``, else a perturbed circle around the centroid."""
    n = len(cs) - 1
    try:
        z0 = np.roots(cs[::-1]).astype(np.complex128)
        if len(z0) == n and np.isfinite(z0).all():
            return z0
    except np.linalg.LinAlgError:
        pass
    ang = 2.0 * np.pi * np.arange(n) / n + 0.4
    radius = 1.0 + 0.05 * np.arange(n) / n
    return -cs[n - 1] / n + radius * np.exp(1j * ang)


def _backward_stable(c, z):
    """``|p(z)| <= 4n u sum_i |c_i| |z|**i`` at every point of ``z``.

    Outside the unit disc the same ratio is taken on the reversed polynomial
    at ``1/z``, so that neither side overflows.
    """
    n = len(c) - 1
    out = np.abs(z) > 1.0
    ok = True
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for cc, x in ((c, z[~out]), (c[::-1], 1.0 / z[out])):
            val = np.abs(_kernels.horner_points(cc, x))
            bound = _kernels.horner_points(np.abs(cc), np.abs(x))
            ok = ok and bool(np.all(val <= 4 * n * 2.0**-53 * bound))
    return ok


def _durand_kerner(cm, z0, tol, max_sweeps):
    """Durand-Kerner (Weierstrass) sweeps on monic ``cm`` from starting points ``z0``.

    The correction ``w_i = p(z_i) / prod_{j!=i}(z_i - z_j)`` is formed in log2
    magnitude + phase so the ~n-factor product never over- or underflows;
    ``p(z_i)`` uses a Horner recurrence renormalized on the fly for the same
    reason.  Returns (roots, sweeps run, converged).
    """
    # fully simultaneous (Jacobi) updates stall in symmetric 2-cycles at a few
    # hundred roots where the sequential sweep converges; strided blocks of at
    # most ~16 points recover the sequential behavior while staying vectorized
    n = len(cm) - 1
    z = z0.copy()
    rev = cm[::-1]
    nblocks = min(n, max(1, -(-n // 16)), 64)
    sweeps = 0
    converged = False
    for _ in range(max_sweeps):
        sweeps += 1
        maxcorr = 0.0
        for b in range(nblocks):
            idx = np.arange(b, n, nblocks)
            zi = z[idx]
            pv = np.full(len(idx), rev[0], dtype=np.complex128)
            pe = np.zeros(len(idx))
            for c in rev[1:]:
                pv = pv * zi
                big = np.abs(pv) > 2.0**256
                if big.any():
                    pv = np.where(big, pv * 2.0**-512, pv)
                    pe = np.where(big, pe + 512.0, pe)
                pv = pv + c * np.exp2(-pe)
            diff = zi[:, None] - z[None, :]
            diff[np.arange(len(idx)), idx] = 1.0
            ad = np.abs(diff)
            ad[ad == 0.0] = 1e-300
            ldm = np.log2(ad).sum(axis=1)
            darg = np.angle(diff).sum(axis=1)
            apv = np.abs(pv)
            zero = apv == 0.0
            lw = np.log2(apv + zero) + pe - ldm
            w = np.exp2(np.minimum(lw, 300.0)) * np.exp(1j * (np.angle(pv) - darg))
            w[zero] = 0.0
            z[idx] = zi - w
            mc = float(np.abs(w).max())
            if mc > maxcorr:
                maxcorr = mc
        if maxcorr < tol:
            converged = True
            break
    return z, sweeps, converged


def chebyshev1(r: int) -> Polynomial:
    """Chebyshev polynomial of the first kind, degree ``r``; roots ``cos((2j-1)pi/(2r))``."""
    if r < 1:
        raise ValueError("need r >= 1")
    t0 = np.array([1.0])
    t1 = np.array([0.0, 1.0])
    for _ in range(r - 1):
        t2 = np.zeros(len(t1) + 1)
        t2[1:] = 2.0 * t1
        t2[: len(t0)] -= t0
        t0, t1 = t1, t2
    return Polynomial(t1)


def generate_family(family_type: int, n: int, r: int, seed: int) -> Polynomial:
    """Benchmark polynomial: Chebyshev of degree ``r`` times a degree ``n-r`` factor.

    family_type 1: real standard Gaussian coefficients;
    family_type 2: complex coefficients with standard Gaussian components;
    family_type 3: integral consecutive coefficients, ``i+1`` for ``x**i``.
    """
    if not 1 <= r < n:
        raise ValueError("need 1 <= r < n")
    if family_type not in (1, 2, 3):
        raise ValueError("family_type must be 1, 2 or 3")
    rng = np.random.default_rng(seed)
    m = n - r
    if family_type == 1:
        f = rng.standard_normal(m + 1)
        while f[-1] == 0.0:
            f[-1] = rng.standard_normal()
    elif family_type == 2:
        f = rng.standard_normal(m + 1) + 1j * rng.standard_normal(m + 1)
        while f[-1] == 0.0:
            f[-1] = rng.standard_normal() + 1j * rng.standard_normal()
    else:
        f = np.arange(1, m + 2, dtype=np.float64)
    product = np.convolve(chebyshev1(r).coeffs, f)
    return Polynomial(product)
