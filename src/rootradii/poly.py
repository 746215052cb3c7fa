"""Dense polynomial representation and elementary transforms.

A polynomial is its ascending coefficient vector, real or complex, and nothing
else.  The only scaled representation in the package is the radii engine's
(mantissa, exponent) format of ``_kernels``, which ``graeffe_step`` runs on;
a result outside the float64 range raises.  All operations are pure functions.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _dd, _kernels

__all__ = [
    "Polynomial",
    "PrecisionLossError",
    "evaluate",
    "derivative",
    "taylor_shift",
    "reverse",
    "negate_arg",
    "graeffe_step",
    "root_radius_upper_bound",
    "read_coefficients",
    "write_coefficients",
    "format_coefficients",
    "parse_coefficients",
]


class PrecisionLossError(ArithmeticError):
    """Floating-point range or cancellation made a result meaningless."""


@dataclass(frozen=True)
class Polynomial:
    """Ascending coefficient vector, the polynomial's only field.

    The leading coefficient is nonzero except for the zero polynomial, which
    is represented as the single coefficient ``[0.0]``.  Trailing zero
    coefficients are trimmed on construction.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs)
        if c.ndim != 1 or len(c) == 0:
            raise ValueError("coefficients must be a non-empty 1-d sequence")
        if np.iscomplexobj(c):
            c = c.astype(np.complex128)
            if not c.imag.any():
                c = c.real
        else:
            c = c.astype(np.float64)
        if not np.isfinite(c).all():
            raise ValueError("coefficients must be finite")
        # trim trailing zeros so the degree is well-defined
        nz = np.nonzero(c)[0]
        c = c[: nz[-1] + 1] if len(nz) else c[:1]
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def is_real(self):
        return not np.iscomplexobj(self.coeffs)

    @property
    def is_zero(self):
        return self.degree == 0 and self.coeffs[0] == 0


def evaluate(p: Polynomial, z) -> complex:
    """Evaluate ``p`` at ``z`` by Horner's rule.

    Raises OverflowError when the value or a Horner partial sum leaves the float64 range.
    """
    out, _ = _kernels.horner_pair(np.asarray(p.coeffs, dtype=np.complex128).tolist(), complex(z))
    if not (math.isfinite(out.real) and math.isfinite(out.imag)):
        raise OverflowError("evaluation overflowed the floating-point range")
    return out


def derivative(p: Polynomial) -> Polynomial:
    """Coefficient-wise derivative; the derivative of a constant is the zero polynomial."""
    if p.degree == 0:
        return Polynomial(np.zeros(1, dtype=p.coeffs.dtype))
    d = p.coeffs[1:] * np.arange(1, len(p.coeffs), dtype=np.float64)
    return Polynomial(d)


def taylor_shift(p: Polynomial, z) -> Polynomial:
    """Return ``q`` with ``q(x) = p(x + z)``: the exact shift of ``_dd``, each coefficient rounded once.

    Raises PrecisionLossError when ``z`` is not finite or a coefficient of the
    shift overflows the float64 range.
    """
    z = complex(z)
    if not np.isfinite(z):
        raise PrecisionLossError(f"shift center {z} is not finite")
    re, im, e = _dd.taylor_shift_dd(p.coeffs, z)
    den = 2**-e
    try:  # int true division rounds correctly
        out = np.array([complex(r / den, i / den) for r, i in zip(re, im)])
    except OverflowError:
        raise PrecisionLossError("taylor shift overflowed double precision") from None
    return Polynomial(out)


def reverse(p: Polynomial) -> Polynomial:
    """Reverse polynomial ``x**n * p(1/x)``; maps every root ``x_j`` to ``1/x_j``."""
    if p.coeffs[0] == 0:
        raise ValueError(
            "constant term is zero: deflate the roots at the origin before reversing"
        )
    return Polynomial(p.coeffs[::-1])


def negate_arg(p: Polynomial) -> Polynomial:
    """Return ``p(-x)``; maps every root ``x_j`` to ``-x_j``."""
    signs = np.where(np.arange(len(p.coeffs)) % 2 == 0, 1.0, -1.0)
    return Polynomial(p.coeffs * signs)


def graeffe_step(p: Polynomial) -> Polynomial:
    """One Dandelin/Graeffe root-squaring step: the output's roots are ``x_j**2``.

    Runs ``_kernels.graeffe_step_me`` on the (mantissa, exponent) split of the
    coefficients and converts its output back exactly; interior coefficients
    below the float64 range flush to 0, as in the radii engine.  Raises
    PrecisionLossError when a coefficient overflows, or when the nonzero
    leading or constant coefficient underflows to 0.
    """
    if p.coeffs[-1] == 0:
        raise ValueError("leading coefficient must be nonzero")
    m, e = _kernels.graeffe_step_me(*_kernels.mantexp(p.coeffs))
    out = np.empty_like(m)
    with np.errstate(over="ignore"):
        out.real = np.ldexp(m.real, e)
        if np.iscomplexobj(out):
            out.imag = np.ldexp(m.imag, e)
    if not np.isfinite(out).all():
        raise PrecisionLossError("root-squaring overflowed double precision")
    if any(m[j] != 0 and out[j] == 0 for j in (0, -1)):
        raise PrecisionLossError("root-squaring underflowed an end coefficient")
    return Polynomial(out)


def _ratio_bound(mags):
    """``2 * max_i (mags[n-i]/mags[n])**(1/i)`` over the nonzero ``mags[n-i]``, or 0.0 if none.

    ``mags`` is a list of ascending coefficient magnitudes with a nonzero last
    entry.  A ratio outside the float range goes through ``log2``, and a term
    that still underflows counts as the smallest subnormal, so the bound is 0.0
    only when every lower magnitude is 0.
    """
    n = len(mags) - 1
    an = mags[n]
    best = 0.0
    for i in range(1, n + 1):
        a = mags[n - i]
        if a != 0.0:
            q = a / an
            if 0.0 < q < math.inf:
                r = q ** (1.0 / i)
            else:  # the ratio left the float range; its i-th root may not have
                t = (math.log2(a) - math.log2(an)) / i
                r = max(2.0**t, math.ulp(0.0)) if t < 1024.0 else math.inf
            best = max(best, r)
    return 2.0 * best


def root_radius_upper_bound(p: Polynomial) -> float:
    """Coefficient-ratio upper bound ``2 * max_i |p_{n-i}/p_n|**(1/i)`` on the largest root radius.

    Satisfies ``0.5 * bound / n <= max_j |x_j| <= bound``.  Scale-invariant and
    range-safe: ratios outside the float range neither warn nor round the
    bound to 0, which it is exactly for ``c * x**n``.
    """
    if p.coeffs[-1] == 0:
        raise ValueError("leading coefficient must be nonzero")
    return _ratio_bound([abs(a) for a in p.coeffs.tolist()])


# ---------------------------------------------------------------------------
# Coefficient text format (shared with the CLI)
# ---------------------------------------------------------------------------
#
# One coefficient per line, ascending degree, decimal scientific notation.
# Complex coefficients are written as two whitespace-separated columns
# (real part, imaginary part).  Lines starting with '#' are ignored.


def parse_coefficients(text: str) -> Polynomial:
    values = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if len(parts) == 1:
                values.append(complex(float(parts[0]), 0.0))
            elif len(parts) == 2:
                values.append(complex(float(parts[0]), float(parts[1])))
            else:
                raise ValueError
        except ValueError:
            raise ValueError(f"line {lineno}: expected one or two numbers, got {raw!r}") from None
    if not values:
        raise ValueError("no coefficients found")
    # Polynomial stores coefficients with no imaginary part as float64
    return Polynomial(np.array(values))


def read_coefficients(path) -> Polynomial:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_coefficients(fh.read())


def format_coefficients(p: Polynomial) -> str:
    """The text form of ``p``: one line per coefficient."""
    lines = []
    for c in p.coeffs:
        c = complex(c)
        if c.imag == 0.0:
            lines.append(f"{c.real:.17e}\n")
        else:
            lines.append(f"{c.real:.17e} {c.imag:.17e}\n")
    return "".join(lines)


def write_coefficients(path, p: Polynomial) -> None:
    text = format_coefficients(p)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
