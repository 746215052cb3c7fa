"""Exact Taylor shift and P-bit integer root squaring with error radii.

Estimating the distances from a far point to tightly clustered roots needs
the shifted polynomial's coefficients to more bits than a float64 holds: the
coefficient-basis condition number of those roots grows like
``(2*shift)**n / prod(root gaps)``, so the precision needed grows linearly in
the degree.  This module follows Schoenhage's root-radii algorithm and works
in integers at an explicit precision ``P``:

- ``taylor_shift_dd`` is exact.  Every float64 is a dyadic rational, so the
  coefficients of ``p(x + z)`` are Gaussian integers times one power of two;
  nothing rounds and nothing overflows, and a root at the center gives an
  exact zero coefficient.
- ``mantexp_dd`` and ``graeffe_step_me_dd`` carry each coefficient as a
  Gaussian-integer mantissa of ``P + 1`` bits, ``(re + i*im) * 2**e``, with one
  int exponent per coefficient.  A squaring step sums the pair products of an
  output coefficient exactly and truncates once, toward minus infinity, to
  ``P + 1`` bits.
- Each coefficient also carries a relative error radius ``d``: the exact
  coefficient of the squared polynomial lies within ``d * |c|`` of ``c``,
  in the style of ball arithmetic (van der Hoeven 2009; Johansson, *Arb*,
  IEEE TC 2017).  Every nonzero mantissa holds exactly ``P + 1`` bits, so
  ``|M|`` lies in ``[2**P, sqrt(2) * 2**(P+1))`` and a narrowing floor adds
  at most ``sqrt(2) * 2**-P`` relative; widening adds nothing.  The radii
  of one iterate are floats ``rad`` in units of ``2**-s``, ``d = rad *
  2**-s``, with one int ``s <= P`` that each step moves so that the largest
  ``rad`` lies in ``[1/2, 1)``.  So a query can lose any number of bits to
  cancellation, up to the failure of a ``d`` at ``2**20``, whatever ``P``;
  a nonzero ``rad`` rounds up to ``2**-1000``, far below the largest of its
  iterate.  A failed radius is ``inf``.
  ``log2_error`` turns the radii into the hull's ordinate error.

The file and the ``*_dd`` names date from the double-double engine this
replaces; the stage benchmark wraps ``taylor_shift_dd`` and
``graeffe_step_me_dd`` by name and its set-up probe calls ``warmup``, so they
are kept until the benchmark is next changed.  Callers look these names up on
the module at call time, so a wrapper installed on the module (for tracing)
sees every call.
"""

import math

import numpy as np

HULL_BITS = 60  # mantissa bits handed to the float hull
# bounds the log2 error of a hull ordinate read from those mantissas: the
# 60-bit floor (below 2**-58), float conversion and |.| (2**-52 each) and
# math.log2 of a value near 2**61 (an ulp, 2**-47); the rest, over 2**-47,
# covers a d below 2**-1000 that log2_error reads as 0
HULL_LOG2_ERR = 2.0**-45
# outward rounding of the error bookkeeping: _UP covers the float roundings
# of a sum of up to 2**11 products and a d below 2**-1000 lost to underflow;
# _DOWN turns an upper bound from _magnitude into a lower one; _TINY is what
# underflow can lose per pair.  A nonzero rad is at least _RAD_MIN; d fails
# from _D_MAX on.
_UP = 1.0 + 2.0**-40
_DOWN = 1.0 - 2.0**-38
_TINY = 2.0**-1070
_RAD_MIN = 2.0**-1000
_D_MAX = 2.0**20
_SQRT2 = math.sqrt(2.0)  # rounds up
_LOG2E = 1.0 / math.log(2.0)


def _dyadic(x):
    """``(num, k)`` with ``x == num / 2**k`` exactly."""
    num, den = float(x).as_integer_ratio()
    return num, den.bit_length() - 1


def taylor_shift_dd(coeffs, z):
    """Exact coefficients of ``p(x + z)`` for float64 ``coeffs`` (ascending) and ``z``.

    Returns ``(re, im, exp)``: coefficient ``k`` is ``(re[k] + i*im[k]) * 2**exp``
    with int ``re[k]``, ``im[k]``.  With ``C_i = c_i * 2**d`` and ``Z = z * 2**s``
    integral, ``2**(d + s*n) * p((y + Z) / 2**s)`` has the integer coefficients
    ``C_i * 2**(s*(n - i))`` shifted by ``Z``, which synthetic division keeps
    integral; ``y = 2**s * x`` turns them back into powers of ``x``.
    """
    c = np.asarray(coeffs, dtype=np.complex128)
    n = len(c) - 1
    parts = [_dyadic(v) for ci in c for v in (ci.real, ci.imag)]
    d = max(k for _, k in parts)
    (zr, kr), (zi, ki) = _dyadic(complex(z).real), _dyadic(complex(z).imag)
    s = max(kr, ki)
    zr <<= s - kr
    zi <<= s - ki
    re = [num << (d - k + s * (n - i)) for i, (num, k) in enumerate(parts[0::2])]
    im = [num << (d - k + s * (n - i)) for i, (num, k) in enumerate(parts[1::2])]
    for k in range(n):
        for j in range(n - 1, k - 1, -1):
            ar, ai = re[j + 1], im[j + 1]
            re[j] += zr * ar - zi * ai
            im[j] += zr * ai + zi * ar
    re = [r << (s * k) for k, r in enumerate(re)]
    im = [v << (s * k) for k, v in enumerate(im)]
    return re, im, -(d + s * n)


def _truncate(r, i, e, bits):
    """``(r + i*im) * 2**e`` with ``max(|r|, |i|)`` brought to ``P + 1 = bits`` bits.

    Returns ``(r, i, e, narrowed)``.  Widening is exact; narrowing floors each
    part, an error below one unit in each.
    """
    if not (r or i):
        return 0, 0, 0, False
    t = max(abs(r).bit_length(), abs(i).bit_length()) - bits
    if t > 0:
        return r >> t, i >> t, e + t, True
    return r << -t, i << -t, e + t, False


def _magnitude(r, i, P):
    """An upper bound on ``|r + i*im| / 2**P`` from the top 53 bits of each part."""
    t = P - 52
    return math.hypot((abs(r) >> t) + 1, (abs(i) >> t) + 1) * _UP * 2.0**-52


def _radius(err, scale, narrowed, r, i, P, s):
    """The ``rad`` (units of ``2**-s``) of a ``P + 1``-bit mantissa ``r + i*im``
    whose absolute error is ``err * 2**(scale + P - s)`` units, plus a
    floor's if ``narrowed``.

    ``inf`` past the float range.  Underflow in the two ``ldexp`` loses under
    ``2**-1073`` in all, far below ``_UP``'s spare ``2**-41`` relative of any
    ``rad`` above ``_RAD_MIN``; smaller ones round up to ``_RAD_MIN``.
    """
    try:
        scaled = math.ldexp(err, scale) + math.ldexp(_SQRT2 * narrowed, s - P)
    except OverflowError:
        return math.inf
    return max(scaled * _UP / (_magnitude(r, i, P) * _DOWN), _RAD_MIN)


def _rescaled(rad, s, P):
    """``rad`` and ``s`` moved so that the largest finite ``rad`` lies in
    ``[1/2, 1)``, with ``s`` at most ``P``.

    The shift by a power of two is exact down to ``_RAD_MIN``, to which
    smaller nonzero radii round up.  A ``d`` that reaches ``_D_MAX`` fails.
    """
    top = max((r for r in rad if r < math.inf), default=0.0)
    t = max(math.frexp(top)[1], s - P) if top else 0
    s -= t
    cap = math.ldexp(_D_MAX, min(s, -19))  # above every rad unless s < -19
    out = [max(math.ldexp(r, -t), _RAD_MIN) if 0.0 < r < math.inf else r for r in rad]
    return [math.inf if r >= cap else r for r in out], s


def mantexp_dd(re, im, P):
    """Gaussian-integer coefficients as ``P + 1``-bit mantissas with int exponents.

    Returns ``(re, im, rad, s, e)``: ``rad[i] * 2**-s`` is coefficient ``i``'s
    relative error radius, 0 where the mantissa is exact; ``s = P``.
    """
    out = [_truncate(r, i, 0, P + 1) for r, i in zip(re, im)]
    rad = [_radius(0.0, 0, nw, r, i, P, P) if nw else 0.0 for r, i, _, nw in out]
    return [o[0] for o in out], [o[1] for o in out], rad, P, [o[2] for o in out]


def graeffe_step_me_dd(re, im, rad, s, e, P):
    """One step ``q(x**2) = (-1)**n p(x) p(-x)`` on ``P + 1``-bit Gaussian mantissas.

    ``q_j = (-1)**n * ((-1)**j c_j**2 + 2 * sum_{i<j} (-1)**i c_i c_{2j-i})``.
    The kept pair products are aligned to the smallest kept exponent and
    summed exactly; products more than ``3P`` bits below the largest are
    skipped.  The sum is then truncated once to ``P + 1`` bits.

    Error radii: with ``d = rad * 2**-s`` and ``mult`` 2 off the diagonal,
    the result ``q'_j`` is off the exact ``q_j`` by at most the sum of

    - ``mult * |c_i| |c_k| (d_i + d_k + d_i d_k)`` over the kept pairs,
    - ``mult * |c_i| |c_k| (1 + d_i) (1 + d_k)`` over the skipped pairs,
    - ``sqrt(2) * 2**e'_j`` when the final floor narrows,

    divided by ``|q'_j|`` for ``d'_j``, and ``_rescaled`` sets the new ``s``.
    Magnitudes come from the top 53 bits of each part, rounded outward.  An
    output that is exactly 0 while its pairs carry error gets ``inf``; a
    step on a state holding ``inf`` returns None.
    """
    if math.inf in rad:
        return None
    n = len(re) - 1
    nz = [bool(r or i) for r, i in zip(re, im)]
    real = not any(im)
    cut = 3 * P
    # a: |c_i| and b: |c_i| (1 + d_i), upper bounds in units of 2**(e_i + P);
    # p: |c_i| d_i in units of 2**(e_i + P - s)
    a = [_magnitude(r, i, P) if z else 0.0 for r, i, z in zip(re, im, nz)]
    p = [ai * ri * _UP for ai, ri in zip(a, rad)]
    b = [(ai + math.ldexp(pi, -s)) * _UP for ai, pi in zip(a, p)]
    inexact = any(p)
    ldexp = math.ldexp
    ore, oim, orad, oe = [0] * (n + 1), [0] * (n + 1), [0.0] * (n + 1), [0] * (n + 1)
    for j in range(n + 1):
        pairs = range(max(0, 2 * j - n), j + 1)
        terms = [(e[i] + e[2 * j - i], i) for i in pairs if nz[i] and nz[2 * j - i]]
        if not terms:
            continue
        top = max(terms)[0]
        kept = [t for t in terms if t[0] >= top - cut]
        low = min(kept)[0]
        sr = si = 0
        # error sums in units of 2**(top + 2P - s), rounded up at the end
        err = len(terms) * _TINY
        for ei, i in terms:
            k = 2 * j - i
            off = i != j  # off-diagonal pairs count twice
            if ei < low:
                err += ldexp(b[i] * b[k], ei - top + off + s)
                continue
            err += ldexp(p[i] * b[k] + a[i] * p[k], ei - top + off)
            sh = ei - low + off
            if real:
                tr = (re[i] * re[k]) << sh
                sr = sr - tr if i & 1 else sr + tr
                continue
            # three products instead of four (Gauss)
            ar, ai, br, bi = re[i], im[i], re[k], im[k]
            t1, t2, t3 = br * (ar + ai), ar * (bi - br), ai * (br + bi)
            tr = (t1 - t3) << sh
            ti = (t1 + t2) << sh
            if i & 1:
                sr, si = sr - tr, si - ti
            else:
                sr, si = sr + tr, si + ti
        if n & 1:
            sr, si = -sr, -si
        r, i, ex, narrowed = _truncate(sr, si, low, P + 1)
        ore[j], oim[j], oe[j] = r, i, ex
        if r or i:
            orad[j] = _radius(err * _UP, top + P - ex, narrowed, r, i, P, s)
        elif inexact or len(kept) < len(terms):
            orad[j] = math.inf
    return (ore, oim, *_rescaled(orad, s, P), oe)


def log2_error(rad, s, hull):
    """How far, in log2, a true coefficient can lie from its hull ordinate.

    The larger of ``log2(1 + d)`` over every coefficient and
    ``-log2(1 - d)`` over the hull vertices ``hull``, with ``d = rad *
    2**-s``, plus ``HULL_LOG2_ERR``; ``inf`` when a hull vertex has ``d >= 1``
    or a radius is infinite.
    """
    up = math.ldexp(max(rad), -s)
    down = math.ldexp(max(rad[h] for h in hull), -s)
    if down >= 1.0 or up == math.inf:
        return math.inf
    return max(math.log1p(up), -math.log1p(-down)) * _LOG2E * _UP + HULL_LOG2_ERR


def hull_mantissas(re, im, P):
    """The top ``HULL_BITS`` bits of each mantissa as complex floats.

    They all drop the same ``P - HULL_BITS`` bits, a uniform power-of-two
    scale that moves no hull slope; ``float`` of a full mantissa would
    overflow once ``P + 1`` passes 1024 bits.
    """
    t = P - HULL_BITS
    return np.array([complex(r >> t, i >> t) for r, i in zip(re, im)], dtype=np.complex128)


def warmup():
    """Run every kernel once on tiny inputs (imports and first-call set-up)."""
    re, im, _ = taylor_shift_dd(np.array([-1.0, 0.0, 1.0]), 0.5)
    graeffe_step_me_dd(*mantexp_dd(re, im, 64), 64)
