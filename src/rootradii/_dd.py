"""Exact Taylor shift and P-bit integer root squaring for distance queries.

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

The file and the ``*_dd`` names date from the double-double engine this
replaces; the stage benchmark wraps ``taylor_shift_dd`` and
``graeffe_step_me_dd`` by name and its set-up probe calls ``warmup``, so they
are kept until the benchmark is next changed.  Callers look these names up on
the module at call time, so a wrapper installed on the module (for tracing)
sees every call.
"""

import numpy as np

HULL_BITS = 60  # mantissa bits handed to the float hull


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

    Widening is exact; narrowing floors each part, an error below one unit.
    """
    if not (r or i):
        return 0, 0, 0
    t = max(abs(r).bit_length(), abs(i).bit_length()) - bits
    if t > 0:
        return r >> t, i >> t, e + t
    return r << -t, i << -t, e + t


def mantexp_dd(re, im, P):
    """Gaussian-integer coefficients as ``P + 1``-bit mantissas with int exponents."""
    out = [_truncate(r, i, 0, P + 1) for r, i in zip(re, im)]
    return [o[0] for o in out], [o[1] for o in out], [o[2] for o in out]


def graeffe_step_me_dd(re, im, e, P):
    """One step ``q(x**2) = (-1)**n p(x) p(-x)`` on ``P + 1``-bit Gaussian mantissas.

    ``q_j = (-1)**n * ((-1)**j c_j**2 + 2 * sum_{i<j} (-1)**i c_i c_{2j-i})``.
    The kept pair products are aligned to the smallest kept exponent and
    summed exactly; products more than ``3P`` bits below the largest are
    skipped.  The sum is then truncated once to ``P + 1`` bits.
    """
    n = len(re) - 1
    nz = [bool(r or i) for r, i in zip(re, im)]
    real = not any(im)
    cut = 3 * P
    ore, oim, oe = [0] * (n + 1), [0] * (n + 1), [0] * (n + 1)
    for j in range(n + 1):
        pairs = range(max(0, 2 * j - n), j + 1)
        terms = [(e[i] + e[2 * j - i], i) for i in pairs if nz[i] and nz[2 * j - i]]
        if not terms:
            continue
        top = max(terms)[0] - cut
        terms = [t for t in terms if t[0] >= top]
        low = min(terms)[0]
        sr = si = 0
        for ei, i in terms:
            k = 2 * j - i
            sh = ei - low + (i != j)  # off-diagonal pairs count twice
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
        ore[j], oim[j], oe[j] = _truncate(sr, si, low, P + 1)
    return ore, oim, oe


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
