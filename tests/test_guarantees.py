"""The guarantees of the isolators, checked in exact arithmetic or against mpmath.

Nothing here reuses the checking code of the package: every float is a
dyadic rational, so signs, moduli and Smith's inequality are decided
exactly with Python ints and ``Fraction``s.

- Complex discs: each certified disc satisfies Smith's inequality at its
  center, the discs are disjoint, and against ``mpmath.polyroots`` each
  holds exactly its multiplicity.
- Real widths: each returned root's width ``value +- width/2`` holds an exact
  sign change (or the residual is an exact 0).
"""

import functools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import rootradii as rr
from rootradii import complexiso
from rootradii.poly import Polynomial

WORKED = [4.0, 3.0, -30.0, -23.0, 16.0, 16.0, 16.0, 8.0]
TRIPLE = [-2.0, 5.0, -3.0, -1.0, 1.0]  # (x - 1)**3 (x + 2)
CLUSTER = np.poly([1.0, 1.0 + 1e-9, 1.0 + 2e-9, 5.0])[::-1].tolist()


def _gaussian(rng, n, complex_coeffs):
    c = rng.standard_normal(n + 1)
    if complex_coeffs:
        c = c + 1j * rng.standard_normal(n + 1)
    return Polynomial(c)


def _gaussians():
    rng = np.random.default_rng(17)
    return [
        pytest.param(_gaussian(rng, n, cx), id=f"{'cplx' if cx else 'real'}{n}")
        for n in (4, 7, 10, 15, 20, 30)
        for cx in (False, True)
    ]


def _fixed():
    return [
        pytest.param(Polynomial(WORKED), id="worked7"),
        pytest.param(Polynomial([-1.0, 0.0, 0.0, 0.0, 1.0]), id="x4-1"),
        pytest.param(Polynomial([1.0, -2.0, 1.0]), id="double"),
        pytest.param(Polynomial(TRIPLE), id="triple"),
        pytest.param(Polynomial(CLUSTER), id="cluster1e-9"),
        pytest.param(Polynomial([0.0, 0.0, -2.0, 1.0]), id="zero-double"),
    ]


# ---------------------------------------------------------------------------
# complex discs
# ---------------------------------------------------------------------------


def _fc(z):
    z = complex(z)
    return Fraction(z.real), Fraction(z.imag)


def _abs2(a):
    return a[0] * a[0] + a[1] * a[1]


def _gaussian_ints(values):
    """``([(re, im), ...], k)``: each value, as a complex float, is ``(re + i*im) / 2**k`` in ints."""
    parts = [x.as_integer_ratio() for v in map(complex, values) for x in (v.real, v.imag)]
    k = max(d for _, d in parts).bit_length() - 1
    nums = [a << (k - d.bit_length() + 1) for a, d in parts]
    return list(zip(nums[0::2], nums[1::2])), k


def _smith_sides(coeffs, zs):
    """Yields ints ``(lhs, rhs)`` per point of the ``n`` points ``zs``, in order, with
    ``n**2 |p(z_i)|**2 / (|a_n|**2 prod_{j != i} |z_i - z_j|**2) == lhs / rhs``.

    With ``C = coeffs * 2**D`` and ``Z = zs * 2**K`` in Gaussian ints,
    homogeneous Horner gives ``p(z_i) * 2**(D + K n)`` and the product is
    ``prod |Z_i - Z_j|**2 * 2**(-2K (n - 1))``: the powers of two cancel but
    for ``2**(2K)``.
    """
    c, _ = _gaussian_ints(coeffs)
    z, k = _gaussian_ints(zs)
    n = len(c) - 1
    an2 = c[-1][0] ** 2 + c[-1][1] ** 2
    for i, (x, y) in enumerate(z):
        re, im = c[-1]
        for m in range(n - 1, -1, -1):
            sh = k * (n - m)
            re, im = re * x - im * y + (c[m][0] << sh), re * y + im * x + (c[m][1] << sh)
        prod = 1
        for j, (u, v) in enumerate(z):
            if j != i:
                prod *= (x - u) ** 2 + (y - v) ** 2
        yield n * n * (re * re + im * im), (an2 * prod) << (2 * k)


def _smith_disc(sides, r):
    """Whether the radius ``r`` reaches Smith's bound ``lhs / rhs <= r**2``, exactly."""
    lhs, rhs = sides
    a, b = r.as_integer_ratio()
    return lhs * b * b <= a * a * rhs


def _mp_roots(p):
    return _mp_roots_of(tuple(p.coeffs.tolist()))


@functools.cache
def _mp_roots_of(coeffs):
    # polyroots dominates this module's time: it runs once per polynomial
    with mpmath.workdps(30):
        mp = [mpmath.mpc(complex(c)) for c in reversed(coeffs)]
        return tuple(mpmath.polyroots(mp, maxsteps=300, extraprec=300))


def _inside(roots, inc):
    with mpmath.workdps(30):
        c = mpmath.mpc(inc.disc_center)
        return sum(abs(z - c) < inc.disc_radius for z in roots)


def _disjoint(c1, r1, c2, r2):
    d = (c1[0] - c2[0], c1[1] - c2[1])
    return _abs2(d) > (Fraction(r1) + Fraction(r2)) ** 2


def _check_smith(p, res):
    """Smith's inequality at every inclusion, when every disc is a single point's.

    With the points ``z_i`` (the centers of all discs, inclusions and
    unresolved), a disc of radius ``r_i`` is a Smith disc when
    ``n |p(z_i)| <= r_i |a_n| prod_{j != i} |z_i - z_j|``; squared, in
    Python ints.  An inclusion that is no Smith disc must be one of the
    ``stats["counted"]`` discs of the count rule: it holds exactly one of
    mpmath's roots and may lie inside an unresolved disc.  Returns the
    number of inclusions checked.
    """
    discs = [(i.disc_center, i.disc_radius, i.multiplicity) for i in res.inclusions]
    discs += [(u.center, u.disc_radius, u.multiplicity) for u in res.unresolved]
    if len(discs) != p.degree or any(m != 1 for _, _, m in discs):
        return 0
    pts = [_fc(c) for c, _, _ in discs]
    counted = 0
    sides = _smith_sides(p.coeffs.tolist(), [c for c, _, _ in discs])
    for i, (inc, si) in enumerate(zip(res.inclusions, sides)):
        smith = _smith_disc(si, inc.disc_radius)
        if not smith:
            counted += 1
            assert _inside(_mp_roots(p), inc) == 1, (i, inc)
        for j, (c, r, _) in enumerate(discs):
            if j != i and (smith or j < len(res.inclusions)):
                assert _disjoint(pts[i], inc.disc_radius, _fc(c), r), (i, j)
    assert counted <= res.stats["counted"]
    return len(res.inclusions)


@pytest.mark.parametrize("p", _gaussians() + _fixed()[:2])
def test_smith_inequality_exact(p):
    # at rho = 1e-3 the discs have grown; at the tiny rho the Smith radius
    # itself decides between an inclusion and an unresolved disc
    checked = 0
    for rho in (1e-3, 1e-12, 1e-13, 1e-14, 1e-15):
        checked += _check_smith(p, rr.isolate_complex_roots(p, rho, 0.05, 0))
    assert checked > 0


@pytest.mark.parametrize("p", _gaussians() + _fixed()[:2])
def test_smith_radii_bound_exact_at_any_points(p):
    # points off the roots, where |p(z_i)| is far above its rounding: the
    # radii must still bound n |W_i|, on both sides of |z| = 1
    rng = np.random.default_rng(p.degree)
    roots = np.roots(p.coeffs[::-1])
    n = p.degree
    for rel in (1e-8, 1e-3, 0.3):
        z = roots * (1.0 + rel * (rng.standard_normal(n) + 1j * rng.standard_normal(n)))
        radii = complexiso._smith_radii(np.asarray(p.coeffs, dtype=np.complex128), z)
        for i, (r, si) in enumerate(zip(radii.tolist(), _smith_sides(p.coeffs.tolist(), z.tolist()))):
            assert _smith_disc(si, r), (rel, i, r)




@pytest.mark.parametrize("p", _gaussians() + _fixed())
def test_every_disc_holds_its_multiplicity(p):
    res = rr.isolate_complex_roots(p, 1e-3, 0.05, 0)
    assert res.unresolved == ()
    assert sum(i.multiplicity for i in res.inclusions) == p.degree
    zeros = next(k for k, c in enumerate(p.coeffs.tolist()) if c != 0)
    roots = _mp_roots(Polynomial(p.coeffs[zeros:]))
    with mpmath.workdps(30):
        for inc in res.inclusions:
            if inc.disc_radius == 0.0:  # the exact roots at 0
                assert (inc.disc_center, inc.multiplicity) == (0j, zeros)
                continue
            c = mpmath.mpc(inc.disc_center)
            assert abs(c) > inc.disc_radius or zeros == 0
            inside = sum(abs(z - c) < inc.disc_radius for z in roots)
            assert inside == inc.multiplicity, inc
            assert inc.failure_prob_bound == 0.0


@pytest.mark.parametrize("rho, least", [(1e-2, 20), (1e-3, 13), (0.4, 20), (1.0, 20), (3.0, 20)])
def test_wilkinson_roots_counted_inside_a_wide_smith_disc(rho, least):
    # the Smith radii of the roots near 15 come out near 170 and swallow the
    # others; the count rule certifies the points one by one.  The wide
    # disc's center (about 10.5) counts 2 roots from rho 0.4 on and 8 at
    # rho 3, never all 20, so it must not lump the roots the points isolate
    p = Polynomial(np.poly(np.arange(1.0, 21.0))[::-1])
    res = rr.isolate_complex_roots(p, rho, 0.05, 0)
    assert res.stats["counted"] >= least
    assert all(i.multiplicity == 1 for i in res.inclusions)
    assert sum(i.multiplicity for i in res.inclusions) >= least
    assert sum(i.multiplicity for i in res.inclusions + res.unresolved) == 20
    roots = _mp_roots(p)
    for k, inc in enumerate(res.inclusions):
        assert _inside(roots, inc) == inc.multiplicity, inc
        assert inc.disc_radius <= rho * math.sqrt(2.0)
        for other in res.inclusions[k + 1:]:
            assert _disjoint(_fc(inc.disc_center), inc.disc_radius, _fc(other.disc_center), other.disc_radius)


@pytest.mark.parametrize(
    "p",
    [
        pytest.param(Polynomial(np.poly(np.arange(1.0, 11.0))[::-1]), id="wilkinson10"),
        pytest.param(Polynomial(CLUSTER), id="cluster1e-9"),
        _gaussians()[5],
    ],
)
def test_count_rule_counts_mpmath_roots(p):
    # at points near each root and between roots, each of the count rule's
    # discs holds exactly m roots at every radius from lo up to (not
    # including) hi
    roots = _mp_roots(p)
    q = np.asarray(p.coeffs, dtype=np.complex128)
    ref = np.array([complex(z) for z in roots])
    rng = np.random.default_rng(3)
    points = [z * (1.0 + rel * complex(*rng.standard_normal(2))) for z in ref for rel in (1e-9, 1e-4, 1e-2)]
    points += [(a + b) / 2 for a, b in zip(ref, np.roll(ref, 1))]
    hits = 0
    for w in points:
        counts = complexiso._count_rule(q, complex(w), 10.0)
        with mpmath.workdps(30):
            d = [abs(z - mpmath.mpc(w)) for z in roots]
            for m, lo, hi in counts:
                assert lo < hi
                assert sum(x <= lo for x in d) == m, (w, counts)
                assert sum(x < hi for x in d) == m, (w, counts)
        hits += bool(counts)
    assert hits >= len(points) // 2


def test_count_rule_certifies_all_n_roots():
    # about a five-fold root the nearest m < 5 never end before the next
    # begin; r_6 is taken as inf, so the disc of all 5 roots is certified
    q = np.poly([1.0] * 5)[::-1].astype(np.complex128)
    [(m, lo, hi)] = complexiso._count_rule(q, 1.0 + 1e-4, 10.0)
    assert (m, hi) == (5, math.inf)
    assert 1e-4 <= lo <= 10.0


def test_counted_discs_never_count_one_root_twice():
    # two points next to the root 1 of Wilkinson-10 inside one wide disc:
    # only one of them may carry a counted disc
    p = Polynomial(np.poly(np.arange(1.0, 11.0))[::-1])
    q = np.asarray(p.coeffs, dtype=np.complex128)
    z = np.array([1.0 + 1e-7, 1.0 - 1e-7j] + list(range(3, 11)), dtype=np.complex128)
    centers, radii, mult, cap, parent = complexiso._counted(
        q, z, 0, np.array([5.5 + 0j]), np.array([20.0]), np.array([10]), [np.arange(10)], 1e-2
    )
    counted = np.flatnonzero(parent >= 0)
    assert mult[0] + mult[counted].sum() == 10
    roots = _mp_roots(p)
    for i in counted:
        inc = complexiso.ComplexInclusion(complex(centers[i]), float(cap[i]), int(mult[i]), 0.0)
        assert _inside(roots, inc) == mult[i]
        for j in counted[counted > i]:
            assert _disjoint(_fc(centers[i]), cap[i], _fc(centers[j]), cap[j])


def test_points_inside_another_disc_are_not_counted(monkeypatch):
    # the second point next to the root 1 lies inside the first one's counted
    # disc: its own counted disc would meet that one and be dropped, so the
    # count rule is not run there, and the discs are those without the point
    p = Polynomial(np.poly(np.arange(1.0, 11.0))[::-1])
    q = np.asarray(p.coeffs, dtype=np.complex128)
    z = np.array([1.0 + 1e-7, 1.0 + 1.5e-7] + list(range(3, 11)), dtype=np.complex128)
    near = []
    count_rule = complexiso._count_rule

    def counting(q, w, *args):
        near.append(abs(w - 1.0) < 1e-3)
        return count_rule(q, w, *args)

    monkeypatch.setattr(complexiso, "_count_rule", counting)
    wide = (np.array([5.5 + 0j]), np.array([20.0]), np.array([10]))
    _, radii, mult, _, parent = complexiso._counted(q, z, 0, *wide, [np.arange(10)], 1e-2)
    assert sum(near) == 1
    _, radii1, mult1, _, parent1 = complexiso._counted(q, np.delete(z, 1), 0, *wide, [np.arange(9)], 1e-2)
    assert np.array_equal(mult, mult1) and np.array_equal(radii, radii1) and np.array_equal(parent, parent1)


@pytest.mark.parametrize(
    "p, mults",
    [
        (Polynomial(TRIPLE), [(1, -2.0), (3, 1.0)]),
        (Polynomial(CLUSTER), [(1, 5.0), (3, 1.0)]),
        (Polynomial(np.poly([1.0] * 3)[::-1]), [(3, 1.0)]),
        (Polynomial(np.poly([1.0] * 5)[::-1]), [(5, 1.0)]),
        (Polynomial(np.poly([1.0] * 5 + [-2.0])[::-1]), [(1, -2.0), (5, 1.0)]),
        (Polynomial(np.poly([1j] * 4 + [-1.0] * 3)[::-1]), [(3, -1.0), (4, 1j)]),
        (Polynomial(np.poly([1.0] * 8)[::-1]), [(8, 1.0)]),
        (Polynomial(np.poly([0.7] * 4 + [-1.71])[::-1]), [(1, -1.71), (4, 0.7)]),
    ],
)
def test_clusters_are_one_disc(p, mults):
    # (multiplicity, root) pairs: the coefficients are integers or Gaussian
    # integers, so the roots are exact (the 1e-9 cluster's lie within 1e-5).
    # The rounded coefficients of (x - 0.7)**4 (x + 1.71) split the four-fold
    # root about 1e-4 apart, with the mean within rounding of 0.7; one disc
    # of all four holds that mean
    res = rr.isolate_complex_roots(p, 1e-3, 0.05, 0)
    assert sorted(i.multiplicity for i in res.inclusions) == [m for m, _ in mults]
    for inc in res.inclusions:
        d = abs(inc.disc_center - dict(mults)[inc.multiplicity])
        assert d <= 1e-3 * math.sqrt(2.0) and d <= inc.disc_radius, inc


def test_counted_discs_stay_short_of_the_zero_roots():
    # a wide disc holds the zero root of x (x - 1) (x + 3) and the points
    # 0.1 and -3.  Seen from 0.1, the root 1 of q is the nearest, but 0 lies
    # nearer still: a disc about 0.1 that takes in 1 takes in 0 as well
    q = np.poly([1.0, -3.0])[::-1].astype(np.complex128)
    z = np.array([0.1, -3.0], dtype=np.complex128)
    centers, radii, mult, cap, parent = complexiso._counted(
        q, z, 1, np.array([-1.0 + 0j]), np.array([5.0]), np.array([3]), [np.arange(3)], 2.0
    )
    counted = np.flatnonzero((parent >= 0) & (mult > 0))
    assert len(counted)
    for i in counted:
        for r in (radii[i], cap[i]):
            assert sum(abs(x - centers[i]) <= r for x in (0.0, 1.0, -3.0)) == mult[i], (centers[i], r)


@pytest.mark.parametrize(
    "zeros, a, k, rho",
    [(1, 1.0, 8, 0.79), (1, 1.0, 8, 3.0), (2, 2.0, 8, 1.54), (1, 1j, 6, 1.1), (1, 0.5, 12, 0.57)],
)
def test_counted_discs_keep_out_the_zero_roots(zeros, a, k, rho):
    # x**zeros (x - a)**k, with exact coefficients and so exact roots: the
    # Smith discs about a reach 0 and take the zero roots' disc in, and
    # rho*sqrt(2) exceeds the distance from a counted disc's center to 0.
    # A counted disc of the k roots must stop short of 0, and the zero roots
    # then come out as their exact disc
    roots = [0.0] * zeros + [a] * k
    res = rr.isolate_complex_roots(Polynomial(np.poly(roots)[::-1]), rho, 0.05, 0)
    assert res.unresolved == ()
    assert sorted(i.multiplicity for i in res.inclusions) == sorted([zeros, k])
    for inc in res.inclusions:
        assert sum(abs(r - inc.disc_center) <= inc.disc_radius for r in roots) == inc.multiplicity, inc


def test_large_degree_recall():
    # complex Gaussians at n = 40..128, four draws each from default_rng(n),
    # scored against LAPACK's companion eigenvalues
    found = total = 0
    for n in (40, 64, 96, 128):
        rng = np.random.default_rng(n)
        for _ in range(4):
            p = _gaussian(rng, n, True)
            ref = np.roots(p.coeffs[::-1])
            res = rr.isolate_complex_roots(p, 1e-3, 0.05, 0)
            c = np.array([i.disc_center for i in res.inclusions])
            r = np.array([i.disc_radius for i in res.inclusions])
            d = np.abs(ref[:, None] - c[None, :])
            found += int((d <= r + 1e-9 * np.maximum(1.0, np.abs(ref))[:, None]).any(axis=1).sum())
            total += n
    assert found / total >= 0.99


# ---------------------------------------------------------------------------
# real widths
# ---------------------------------------------------------------------------


def _sign(coeffs, x):
    """Exact sign of p at the dyadic rational x, by homogeneous Horner in ints."""
    fr = [Fraction(c) for c in coeffs]
    den = max(f.denominator for f in fr)
    ints = [f.numerator * (den // f.denominator) for f in fr]
    a, b = x.numerator, x.denominator
    n = len(ints) - 1
    acc, bk = ints[n], 1
    for k in range(n - 1, -1, -1):
        bk *= b
        acc = acc * a + ints[k] * bk
    return (acc > 0) - (acc < 0)


def _broken_widths(p, res):
    coeffs = p.coeffs.tolist()
    broken = 0
    for rt in res.roots:
        if rt.residual == 0.0 and _sign(coeffs, Fraction(rt.value)) == 0:
            continue
        half = Fraction(rt.width) / 2
        lo = _sign(coeffs, Fraction(rt.value) - half)
        hi = _sign(coeffs, Fraction(rt.value) + half)
        broken += not lo * hi < 0
    return broken


def test_real_small_widths_hold_a_sign_change():
    # the real-small workload's seed-0 inputs: degrees 2-32 in turn
    rng = np.random.default_rng(0)
    broken = roots = 0
    for i in range(400):
        c = rng.standard_normal(2 + i % 31 + 1)
        while c[-1] == 0.0:
            c[-1] = rng.standard_normal(1)[0]
        p = Polynomial(c)
        res = rr.isolate_real_roots(p)
        roots += len(res.roots)
        broken += _broken_widths(p, res)
    assert roots > 900
    assert broken == 0


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 4: on these Chebyshev-times-random cells at 27 bits, "
    "4 of 44 widths hold no exact sign change",
)
def test_real_family_widths_hold_a_sign_change():
    broken = 0
    for t, n, r, seed in ((1, 128, 12, 0), (1, 128, 12, 3), (3, 128, 12, 0)):
        p = rr.generate_family(t, n, r, seed)
        broken += _broken_widths(p, rr.isolate_real_roots(p))
    assert broken == 0
