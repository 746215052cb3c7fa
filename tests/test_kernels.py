"""Numeric kernels against exact rational arithmetic.

Every float64 is a dyadic rational, so Python ``Fraction`` arithmetic on the
kernels' own inputs gives exact references that share no code with the
kernels.  Rounding-error bounds follow Higham, *Accuracy and Stability of
Numerical Algorithms*, with unit roundoff ``u = 2**-53`` and
``gamma_k = k*u / (1 - k*u)``.
"""

import math
import tracemalloc
from fractions import Fraction

import numpy as np

import rootradii as rr
from rootradii import _dd, _kernels
from rootradii.oracle import _durand_kerner, chebyshev1
from rootradii.poly import Polynomial

U = Fraction(1, 2**53)


def gamma(k):
    return k * U / (1 - k * U)


def cfrac(z):
    """Exact (real, imaginary) parts of a float or complex as Fractions."""
    z = complex(z)
    return Fraction(z.real), Fraction(z.imag)


def cmul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def cabs_err(got, exact):
    """``|got - exact|`` for a computed complex and an exact Fraction pair."""
    g = cfrac(got)
    return abs(complex(float(g[0] - exact[0]), float(g[1] - exact[1])))


def ilog2(x):
    """log2 of the magnitude of a nonzero (arbitrarily large) int."""
    b = abs(x).bit_length() - 1
    return b + math.log2(abs(x) / 2**b)


def me_value_log2(m, e):
    mask = m != 0
    out = np.full(len(m), -np.inf)
    out[mask] = e[mask] + np.log2(np.abs(m[mask]))
    return out


class TestHornerParity:
    """Horner evaluation within its running error bound (Higham, section 5.1).

    The value has error at most ``gamma_2n * sum |c_i| |x|**i``; the derivative
    from the same pass at most ``gamma_2n * sum i |c_i| |x|**(i-1)``, since each
    path from ``c_i`` to the result passes through at most ``2n`` roundings.
    """

    def test_points(self):
        rng = np.random.default_rng(1)
        for n in range(1, 41):
            c = rng.standard_normal(n + 1)
            xs = np.concatenate([rng.standard_normal(12), rng.uniform(-1.3, 1.3, 4)])
            got = _kernels.horner_points(c, xs)
            cf = [Fraction(ci) for ci in c]
            for x, v in zip(xs, got):
                xf = Fraction(x)
                exact, absum, xp = Fraction(0), Fraction(0), Fraction(1)
                for ci in cf:
                    exact += ci * xp
                    absum += abs(ci) * abs(xp)
                    xp *= xf
                assert abs(Fraction(v) - exact) <= gamma(2 * n) * absum, (n, x)

    def test_pair(self):
        rng = np.random.default_rng(2)
        for n in range(1, 41):
            c = rng.standard_normal(n + 1)
            cf = [Fraction(ci) for ci in c]
            for x in rng.standard_normal(4):
                v, d = _kernels.horner_pair(c, x)
                xf = Fraction(x)
                val = sum(ci * xf**i for i, ci in enumerate(cf))
                der = sum(i * ci * xf ** (i - 1) for i, ci in enumerate(cf) if i)
                vsum = sum(abs(ci) * abs(xf) ** i for i, ci in enumerate(cf))
                dsum = sum(i * abs(ci) * abs(xf) ** (i - 1) for i, ci in enumerate(cf) if i)
                assert abs(Fraction(v) - val) <= gamma(2 * n) * vsum, (n, x)
                assert abs(Fraction(d) - der) <= gamma(2 * n) * dsum, (n, x)

    @staticmethod
    def bits(v):
        # float.hex per part; every nan reads 'nan', so nan equals nan
        return float(v.real).hex(), float(v.imag).hex()

    def assert_list_matches_array(self, c, x):
        with np.errstate(over="ignore", invalid="ignore"):
            want = _kernels.horner_pair(c, x)
        got = _kernels.horner_pair(c.tolist(), x)
        assert [self.bits(v) for v in got] == [self.bits(v) for v in want], (len(c) - 1, x)
        return got

    def test_pair_list_and_array_agree_bitwise(self):
        # the real path and poly.evaluate pass Python lists, the complex polish
        # ndarrays; overflow must come out the same too, as inf or nan
        rng = np.random.default_rng(4)
        overflows = 0
        for n in range(1, 601):
            c = rng.standard_normal(n + 1) * 2.0 ** rng.integers(-200, 201, n + 1).astype(float)
            x = float(rng.choice([-1.0, 1.0]) * 2.0 ** rng.uniform(-40, 40))
            v, d = self.assert_list_matches_array(c, x)
            assert type(v) is type(d) is float
            overflows += math.isinf(v)
        assert overflows > 100
        # x**39 * (x - 2**40) just below its root: value and x * derivative
        # overflow with opposite signs, so the derivative's next sum is inf - inf
        c = np.zeros(41)
        c[-2:] = [-(2.0**40), 1.0]
        v, d = self.assert_list_matches_array(c, 2.0**40 - 2.0**20)
        assert v == -math.inf and math.isnan(d)

    def test_pair_list_and_array_agree_bitwise_complex(self):
        rng = np.random.default_rng(5)
        for n in range(1, 121):
            scale = 2.0 ** rng.integers(-200, 201, n + 1).astype(float)
            c = (rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)) * scale
            x = complex(*(rng.standard_normal(2) * 2.0 ** rng.uniform(-40, 40, 2)))
            self.assert_list_matches_array(c, x)


def exact_shift(c, z):
    """Exact coefficients of ``p(x + z)`` by repeated synthetic division."""
    a = [cfrac(ci) for ci in c]
    zf = cfrac(z)
    n = len(a) - 1
    for k in range(n):
        for j in range(n - 1, k - 1, -1):
            t = cmul(zf, a[j + 1])
            a[j] = (a[j][0] + t[0], a[j][1] + t[1])
    return a


class TestTaylorShiftParity:
    """``poly.taylor_shift`` against exact synthetic division.

    Coefficient ``k`` of the shift is ``sum_i c_i C(i, k) z**(i-k)``.  Each of
    its ``C(i, k)`` paths through the recurrence takes at most one complex
    multiplication (error at most ``sqrt(2) gamma_2 < gamma_3``, Higham lemma
    3.5) and two additions per step, so ``gamma_5n`` times the sum of the
    absolute terms bounds the error.
    """

    def test_random_complex(self):
        rng = np.random.default_rng(3)
        cases = [
            (rng.standard_normal(15) + 1j * rng.standard_normal(15), complex(0.7, -0.3)),
            (rng.standard_normal(9), complex(-1.25, 0.0)),
            (rng.standard_normal(24) + 1j * rng.standard_normal(24), complex(0.1, 1.9)),
        ]
        for c, z in cases:
            got = np.asarray(rr.taylor_shift(Polynomial(c), z).coeffs, dtype=np.complex128)
            exact = exact_shift(c, z)
            n = len(c) - 1
            assert len(got) == n + 1
            for k in range(n + 1):
                absum = sum(abs(c[i]) * math.comb(i, k) * abs(z) ** (i - k) for i in range(k, n + 1))
                assert cabs_err(got[k], exact[k]) <= float(gamma(5 * n)) * absum, (n, k)


def exact_step(m, e):
    """Exact root squaring of ``c_i = m_i * 2**e_i``, column by column.

    Returns per output ``j`` either None (no nonzero product) or
    ``(S, re, im, absum)``: ``S`` is the largest exponent sum ``e_i + e_k`` of
    a nonzero product, ``re + i*im`` the exact coefficient times ``2**-S`` as
    Fractions, and ``absum`` the sum of the products' absolute values times
    ``2**-S`` in floats.  Products are summed in Python ints, so exponent
    spreads far past the float range stay exact.
    """
    n = len(m) - 1
    parts = []  # m_i = (a + i*b) * 2**-s exactly
    for mi in m:
        (a, da), (b, db) = float(mi.real).as_integer_ratio(), float(mi.imag).as_integer_ratio()
        d = max(da, db)
        parts.append((a * (d // da), b * (d // db), d.bit_length() - 1))
    sgn = -1 if n % 2 else 1
    out = []
    for j in range(n + 1):
        pairs = [(i, 2 * j - i) for i in range(max(0, 2 * j - n), min(2 * j, n) + 1)
                 if m[i] != 0 and m[2 * j - i] != 0]
        if not pairs:
            out.append(None)
            continue
        S = max(int(e[i]) + int(e[k]) for i, k in pairs)
        sh = {(i, k): int(e[i]) + int(e[k]) - parts[i][2] - parts[k][2] for i, k in pairs}
        base = min(sh.values())
        re = im = 0
        absum = 0.0
        for i, k in pairs:
            (a, b, _), (c, d, _) = parts[i], parts[k]
            w = sgn * (-1) ** i
            re += w * (a * c - b * d) << (sh[i, k] - base)
            im += w * (a * d + b * c) << (sh[i, k] - base)
            absum += math.ldexp(abs(m[i]) * abs(m[k]), int(e[i]) + int(e[k]) - S)
        scale = Fraction(2) ** (base - S)
        out.append((S, re * scale, im * scale, absum))
    return out


def exact_graeffe_fractions(c):
    """``exact_graeffe`` for coefficients given as exact (real, imaginary) pairs."""
    n = len(c) - 1
    mag = [math.hypot(float(a), float(b)) for a, b in c]
    sgn = -1 if n % 2 else 1
    exact, absum = [], []
    for j in range(n + 1):
        re, im, s = Fraction(0), Fraction(0), 0.0
        for i in range(max(0, 2 * j - n), min(2 * j, n) + 1):
            k = 2 * j - i
            t = cmul(c[i], c[k])
            w = sgn * (-1) ** k
            re += w * t[0]
            im += w * t[1]
            s += mag[i] * mag[k]
        exact.append((re, im))
        absum.append(s)
    return exact, absum


class TestGraeffeParity:
    """The float root-squaring step against exact root squaring.

    Each output coefficient is a sum of at most ``n + 1`` complex products,
    scaled exactly by powers of two: the product errors (``sqrt(2) gamma_2``)
    plus the summation error stay below ``(n + 2) u`` times the sum of the
    products' absolute values.  Products scaled below ``2**-1022`` of the
    largest one are dropped, which stays far inside that bound.
    """

    def assert_step(self, m, e):
        n = len(m) - 1
        got_m, got_e = _kernels.graeffe_step_me(m, e)
        for j, col in enumerate(exact_step(m, e)):
            assert got_m[j] == 0 or 1.0 <= abs(got_m[j]) < 2.0, (n, j)
            if col is None:
                assert got_m[j] == 0 and got_e[j] == 0, (n, j)
                continue
            S, re, im, absum = col
            got = complex(math.ldexp(got_m[j].real, int(got_e[j]) - S),
                          math.ldexp(got_m[j].imag, int(got_e[j]) - S))
            assert cabs_err(got, (re, im)) <= (n + 2) * float(U) * absum, (n, j)

    def random_case(self, rng, n, real=False, spread=40):
        c = rng.standard_normal(n + 1)
        if not real:
            c = c + 1j * rng.standard_normal(n + 1)
        if n > 3:
            c[rng.integers(1, n)] = 0.0  # a missing term
        m, e = _kernels.mantexp(c)
        return m, np.where(m != 0, e + rng.integers(-spread, spread + 1, n + 1), 0)

    def test_mantissa_exponent_step(self):
        rng = np.random.default_rng(4)
        for n in (1, 2, 3, 5, 10, 17, 24, 31):
            self.assert_step(*self.random_case(rng, n))

    def test_sizes_across_block_edges(self, monkeypatch):
        rng = np.random.default_rng(9)
        for n in (63, 64, 65, 200, 513):
            self.assert_step(*self.random_case(rng, n))
            self.assert_step(*self.random_case(rng, n, real=True))
        # blocks of one to four columns
        monkeypatch.setattr(_kernels, "_BLOCK", 97)
        for n in (4, 31, 63, 64, 65, 100):
            self.assert_step(*self.random_case(rng, n))

    def test_real_mantissas(self):
        rng = np.random.default_rng(10)
        for n in (2, 7, 40, 129):
            m, e = self.random_case(rng, n, real=True)
            assert not m.imag.any()
            self.assert_step(m, e)

    def test_alternating_zero_coefficients(self):
        # Chebyshev polynomials have every other coefficient zero
        self.assert_step(*_kernels.mantexp(chebyshev1(64).coeffs))
        self.assert_step(*_kernels.mantexp(chebyshev1(99).coeffs))
        rng = np.random.default_rng(11)
        for n in (30, 65):
            m, e = self.random_case(rng, n)
            m[1::2] = 0
            self.assert_step(m, np.where(m != 0, e, 0))

    def test_x_to_the_n_plus_one(self):
        # (-1)**n (1 + x**n)(1 + (-x)**n) is y**n - 1 for odd n and
        # y**n + 2 y**(n/2) + 1 for even n, y = x**2; every term is exact
        for n in (1, 2, 5, 64, 65):
            c = np.zeros(n + 1)
            c[0] = c[-1] = 1.0
            want = np.zeros(n + 1)
            want[0], want[-1] = (-1.0) ** n, 1.0
            if n % 2 == 0:
                want[n // 2] = 2.0
            m, e = _kernels.graeffe_step_me(*_kernels.mantexp(c))
            assert np.array_equal(np.ldexp(m.real, e), want) and not m.imag.any()
            self.assert_step(*_kernels.mantexp(c))

    def test_exponent_spreads_past_the_float_range(self):
        # with spreads of +-3000 most products fall below 2**-1022 of their
        # column's largest one
        rng = np.random.default_rng(12)
        for n in (5, 33, 200):
            self.assert_step(*self.random_case(rng, n, spread=3000))
            self.assert_step(*self.random_case(rng, n, real=True, spread=3000))

    def test_memory_stays_blocked(self):
        # the step's temporaries are bounded by its block size, not n**2
        m, e = _kernels.mantexp(np.random.default_rng(13).standard_normal(1025))
        _kernels.graeffe_step_me(m, e)
        tracemalloc.start()
        try:
            _kernels.graeffe_step_me(m, e)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20, peak

    def test_many_steps_agree(self):
        # twelve squarings of the worked example against the exact iterates;
        # every coefficient keeps its log2 magnitude to 1e-8
        c = np.array([4.0, 3.0, -30.0, -23.0, 16.0, 16.0, 16.0, 8.0], dtype=complex)
        m, e = _kernels.mantexp(c)
        exact = [int(ci.real) for ci in c]
        n = len(c) - 1
        for _ in range(12):
            m, e = _kernels.graeffe_step_me(m, e)
            exact = [
                (-1) ** n * sum((-1) ** (2 * j - i) * exact[i] * exact[2 * j - i]
                                for i in range(max(0, 2 * j - n), min(2 * j, n) + 1))
                for j in range(n + 1)
            ]
        want = np.array([ilog2(x) for x in exact])
        assert np.allclose(me_value_log2(m, e), want, rtol=0, atol=1e-8)


class TestRealMantissas:
    """Real coefficients stay float64 through ``mantexp`` and the step.

    The float64 path must give the same bits as the complex one with zero
    imaginary parts, which the step squares in float64 as well.
    """

    def test_mantexp_dtypes(self):
        c = np.array([3.0, 0.0, -0.75, 1e-300])
        m, e = _kernels.mantexp(c)
        assert m.dtype == np.float64 and e.dtype == np.int64
        mc, ec = _kernels.mantexp(c.astype(complex))
        assert mc.dtype == np.complex128
        assert np.array_equal(m, mc) and np.array_equal(e, ec)
        assert np.array_equal(m, [1.5, 0.0, -1.5, 1e-300 * 2.0**997])
        assert np.array_equal(e, [1, 0, -1, -997])

    def assert_steps_match(self, rng, n):
        c = rng.standard_normal(n + 1) * 2.0 ** rng.integers(-40, 41, n + 1)
        c[rng.integers(0, n + 1)] = 0.0
        m, e = _kernels.mantexp(c)
        mc, ec = _kernels.mantexp(c.astype(complex))
        for _ in range(8):
            m, e = _kernels.graeffe_step_me(m, e)
            mc, ec = _kernels.graeffe_step_me(mc, ec)
            assert m.dtype == np.float64, n
            assert np.array_equal(m, mc) and np.array_equal(e, ec), n

    def test_steps_match_complex_typed(self, monkeypatch):
        rng = np.random.default_rng(14)
        sizes = list(range(1, 41)) + [64, 65, 513]
        for n in sizes:
            self.assert_steps_match(rng, n)
        monkeypatch.setattr(_kernels, "_BLOCK", 97)
        for n in sizes:
            self.assert_steps_match(rng, n)

    def test_read_only_inputs(self):
        rng = np.random.default_rng(15)
        for c in (rng.standard_normal(20), rng.standard_normal(20) + 1j * rng.standard_normal(20)):
            m, e = _kernels.mantexp(c)
            want_m, want_e = _kernels.graeffe_step_me(m, e)
            m0, e0 = m.copy(), e.copy()
            m.setflags(write=False)
            e.setflags(write=False)
            got_m, got_e = _kernels.graeffe_step_me(m, e)
            assert np.array_equal(got_m, want_m) and np.array_equal(got_e, want_e)
            assert np.array_equal(m, m0) and np.array_equal(e, e0)


class TestWorkspace:
    """Squarings through one ``Workspace`` give the bits of fresh buffers.

    The radii engine passes one workspace to every squaring of a query.  The
    reused buffers must give the same mantissa and exponent bits, zero signs
    included, and the same dtype as a step that builds its own.
    """

    @staticmethod
    def same_bits(a, b):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    def assert_reuse_matches(self, c, steps=8):
        m, e = _kernels.mantexp(c)
        m0, e0 = m.copy(), e.copy()
        m.setflags(write=False)
        e.setflags(write=False)
        ws = _kernels.Workspace()
        fm, fe = wm, we = m, e
        for _ in range(steps):
            fm, fe = _kernels.graeffe_step_me(fm, fe)
            wm, we = _kernels.graeffe_step_me(wm, we, ws)
            assert self.same_bits(wm, fm) and self.same_bits(we, fe), len(c)
            assert not ws.parts[2].flags.writeable and not ws.parts[3].flags.writeable
        assert np.array_equal(m, m0) and np.array_equal(e, e0)
        return ws

    def cases(self, rng, n):
        c = rng.standard_normal(n + 1) * 2.0 ** rng.integers(-40, 41, n + 1)
        c[rng.integers(0, n + 1)] = 0.0
        return c, c + 1j * rng.standard_normal(n + 1)

    def test_reuse_matches_fresh_buffers(self, monkeypatch):
        rng = np.random.default_rng(16)
        sizes = list(range(1, 41)) + [64, 65, 129, 513]
        for n in sizes:
            for c in self.cases(rng, n):
                self.assert_reuse_matches(c)
        monkeypatch.setattr(_kernels, "_BLOCK", 97)
        for n in sizes:
            for c in self.cases(rng, n):
                self.assert_reuse_matches(c)

    def test_x_to_the_4_minus_1(self):
        # every odd column sums to zero, so zero signs reach the outputs
        self.assert_reuse_matches(np.array([-1.0, 0.0, 0.0, 0.0, 1.0]))
        self.assert_reuse_matches(np.array([-1.0, 0.0, 0.0, 0.0, 1.0], dtype=complex))

    def test_iterate_turning_real_switches_dtype_once(self, monkeypatch):
        # x - i squares to -(x**2 + 1): from then on the step runs in float64
        fits = []
        fit = _kernels.Workspace.fit

        def counted_fit(ws, n, dtype):
            fits.append((ws, dtype))
            fit(ws, n, dtype)

        monkeypatch.setattr(_kernels.Workspace, "fit", counted_fit)
        ws = self.assert_reuse_matches(np.array([-1j, 1.0]))
        assert [dt for w, dt in fits if w is ws] == [np.complex128, np.float64]


class TestDurandKernerParity:
    def test_converged_root_sets_match(self):
        # the oracle's sweep against LAPACK companion-matrix eigenvalues
        rng = np.random.default_rng(5)
        for deg in (3, 6, 9):
            c = (rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)).astype(
                np.complex128
            )
            c = c / c[-1]
            n = deg
            z0 = 1.5 * np.exp(1j * (2 * np.pi * np.arange(n) / n + 0.4))
            z, _, converged = _durand_kerner(c, z0, 1e-12, 500)
            assert converged
            eig = np.roots(c[::-1])
            for r in z:
                assert min(abs(eig - r)) < 1e-8
            for r in eig:
                assert min(abs(z - r)) < 1e-8


def dyadic(m, e):
    return Fraction(m) * Fraction(2) ** int(e)


def ilog2_complex(re, im):
    """log2 |re + i*im| for (arbitrarily large) ints."""
    b = max(abs(re).bit_length(), abs(im).bit_length()) - 1
    return b + 0.5 * math.log2((re / 2**b) ** 2 + (im / 2**b) ** 2)


class TestExactShift:
    """``_dd.taylor_shift_dd`` against ``Fraction`` synthetic division, exactly."""

    def assert_exact(self, c, z):
        re, im, ex = _dd.taylor_shift_dd(c, z)
        exact = exact_shift(c, z)
        assert len(re) == len(im) == len(exact)
        for k, (xr, xi) in enumerate(exact):
            assert (dyadic(re[k], ex), dyadic(im[k], ex)) == (xr, xi), k

    def test_real_far_center(self):
        rng = np.random.default_rng(6)
        self.assert_exact(rng.standard_normal(13), -300.0)

    def test_complex_center(self):
        rng = np.random.default_rng(7)
        c = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        self.assert_exact(c, complex(1.25, -0.3))
        self.assert_exact(rng.standard_normal(6), complex(-3.1e-3, 271.5))

    def test_coefficients_spanning_1e300(self):
        c = np.array([1e-300, -3.5e-150, 2.0, 0.0, 7.25e150 + 1e-30j, -1e300])
        self.assert_exact(c, -300.0)
        self.assert_exact(c, complex(0.1, -0.7))

    def test_root_at_center_is_exact_zero(self):
        # (x - 0.375)(x + 2.5) and (x - i)(x + i)
        re, im, _ = _dd.taylor_shift_dd(np.array([-0.9375, 2.125, 1.0]), 0.375)
        assert (re[0], im[0]) == (0, 0) and re[1] != 0
        re, im, _ = _dd.taylor_shift_dd(np.array([1.0, 0.0, 1.0]), 1j)
        assert (re[0], im[0]) == (0, 0) and im[1] != 0


class TestIntegerGraeffe:
    """``_dd.graeffe_step_me_dd`` on ``P + 1``-bit Gaussian mantissas.

    The kept products are summed exactly and truncated once, so each output
    is within one unit of the ``P + 1``-bit mantissa of the exact coefficient.
    """

    def test_one_step_within_one_unit(self):
        rng = np.random.default_rng(8)
        for n in range(1, 32):
            P = max(64, 16 * n)
            re = [int(v) for v in rng.integers(-(2**62), 2**62, n + 1)]
            im = [int(v) for v in rng.integers(-(2**62), 2**62, n + 1)]
            if n > 3:
                re[n // 2] = im[n // 2] = 0  # a missing term
            re, im, rad, s, e = _dd.mantexp_dd(re, im, P)
            spread = rng.integers(-200, 201, n + 1)
            e = [ei + int(d) if r or i else 0 for ei, r, i, d in zip(e, re, im, spread)]
            got = _dd.graeffe_step_me_dd(re, im, rad, s, e, P)
            c = [(dyadic(r, ei), dyadic(i, ei)) for r, i, ei in zip(re, im, e)]
            exact, _ = exact_graeffe_fractions(c)
            for j, (xr, xi) in enumerate(exact):
                gr, gi, ge = got[0][j], got[1][j], got[4][j]
                if xr == xi == 0:
                    assert gr == gi == 0, (n, j)
                    continue
                assert max(abs(gr), abs(gi)).bit_length() == P + 1, (n, j)
                unit = Fraction(2) ** ge
                assert abs(dyadic(gr, ge) - xr) <= unit and abs(dyadic(gi, ge) - xi) <= unit, (n, j)
                # and the unit is the one of the exact value's P+1-bit mantissa
                assert max(abs(xr), abs(xi)) / unit >= 2**P - 1, (n, j)

    def test_many_steps_agree(self):
        # twelve squarings of the worked example against the exact iterates
        exact = [4, 3, -30, -23, 16, 16, 16, 8]
        n = len(exact) - 1
        P = 16 * n
        re, im, rad, s, e = _dd.mantexp_dd(exact, [0] * (n + 1), P)
        for _ in range(12):
            re, im, rad, s, e = _dd.graeffe_step_me_dd(re, im, rad, s, e, P)
            exact = [
                (-1) ** n * sum((-1) ** i * exact[i] * exact[2 * j - i]
                                for i in range(max(0, 2 * j - n), min(2 * j, n) + 1))
                for j in range(n + 1)
            ]
        got = np.array([ilog2_complex(r, i) + ei for r, i, ei in zip(re, im, e)])
        assert np.allclose(got, [ilog2(x) for x in exact], rtol=0, atol=1e-8)
