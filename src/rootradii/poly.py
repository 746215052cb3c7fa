"""Dense polynomial representation and elementary transforms.

A polynomial is stored as an ascending coefficient vector plus a power-of-two
scale: the represented polynomial is ``2**scale_log2 * sum(coeffs[i] * x**i)``.
Root locations and root radii are invariant under the scale, which exists so
that repeated Graeffe squaring can renormalize without changing the object's
meaning.  Coefficients may be real or complex; all operations here are pure
functions returning new objects.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels

__all__ = [
    "Polynomial",
    "PrecisionLossError",
    "evaluate",
    "derivative",
    "taylor_shift",
    "reverse",
    "negate_arg",
    "graeffe_step",
    "normalize",
    "root_radius_upper_bound",
    "read_coefficients",
    "write_coefficients",
    "parse_coefficients",
]


class PrecisionLossError(ArithmeticError):
    """Floating-point range or cancellation made a result meaningless.

    ``iteration`` carries the Graeffe step index at which precision was lost,
    when applicable.
    """

    def __init__(self, message, iteration=None):
        super().__init__(message)
        self.iteration = iteration


@dataclass(frozen=True)
class Polynomial:
    """Ascending coefficient vector with a power-of-two scale exponent.

    The leading coefficient is nonzero except for the zero polynomial, which
    is represented as the single coefficient ``[0.0]``.  Trailing zero
    coefficients are trimmed on construction.
    """

    coeffs: np.ndarray
    scale_log2: float = 0.0

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
        object.__setattr__(self, "scale_log2", float(self.scale_log2))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def is_real(self):
        return not np.iscomplexobj(self.coeffs)

    @property
    def is_zero(self):
        return self.degree == 0 and self.coeffs[0] == 0

    def dense(self):
        """Materialize ``2**scale_log2 * coeffs`` (may overflow for huge scales)."""
        return self.coeffs * 2.0**self.scale_log2


def evaluate(p: Polynomial, z) -> complex:
    """Evaluate ``p`` at ``z`` by Horner's rule, including the scale factor.

    Raises OverflowError when the scaled result is not finite, signaling the
    caller to renormalize.
    """
    v, _ = _kernels.horner_pair(np.asarray(p.coeffs, dtype=np.complex128), complex(z))
    out = complex(v) * 2.0**p.scale_log2
    if not (math.isfinite(out.real) and math.isfinite(out.imag)):
        raise OverflowError("evaluation overflowed the floating-point range")
    return out


def derivative(p: Polynomial) -> Polynomial:
    """Coefficient-wise derivative; the derivative of a constant is the zero polynomial."""
    if p.degree == 0:
        return Polynomial(np.zeros(1, dtype=p.coeffs.dtype), p.scale_log2)
    n = p.degree
    d = p.coeffs[1:] * np.arange(1, n + 1, dtype=np.float64)
    return Polynomial(d, p.scale_log2)


def taylor_shift(p: Polynomial, z) -> Polynomial:
    """Return ``q`` with ``q(x) = p(x + z)``, by Horner's rule over polynomials.

    On overflow the shift is retried once on the normalized input; persistent
    overflow raises PrecisionLossError.
    """
    z = complex(z)
    for attempt in (0, 1):
        src = p if attempt == 0 else normalize(p)
        c = np.asarray(src.coeffs, dtype=np.complex128)
        # out <- out*(x + z) + c_i, two vector ops per step; overflow to inf
        # is deliberate, the finiteness check below catches it
        out = c[-1:].copy()
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(len(c) - 2, -1, -1):
                t = np.zeros(len(out) + 1, dtype=out.dtype)
                t[1:] = out
                t[:-1] += z * out
                t[0] += c[i]
                out = t
        if np.isfinite(out.real).all() and np.isfinite(out.imag).all():
            if src.is_real and z.imag == 0.0:
                out = out.real
            return Polynomial(out, src.scale_log2)
    raise PrecisionLossError("taylor shift overflowed even after renormalization")


def reverse(p: Polynomial) -> Polynomial:
    """Reverse polynomial ``x**n * p(1/x)``; maps every root ``x_j`` to ``1/x_j``."""
    if p.coeffs[0] == 0:
        raise ValueError(
            "constant term is zero: deflate the roots at the origin before reversing"
        )
    return Polynomial(p.coeffs[::-1], p.scale_log2)


def negate_arg(p: Polynomial) -> Polynomial:
    """Return ``p(-x)``; maps every root ``x_j`` to ``-x_j``."""
    signs = np.where(np.arange(len(p.coeffs)) % 2 == 0, 1.0, -1.0)
    return Polynomial(p.coeffs * signs, p.scale_log2)


def graeffe_step(p: Polynomial) -> Polynomial:
    """One Dandelin/Graeffe root-squaring step: the output's roots are ``x_j**2``.

    Splits ``p`` into even and odd parts ``e``, ``o`` and forms
    ``(-1)**n * (e(x)**2 - x*o(x)**2)``, then renormalizes so the largest
    coefficient magnitude lies in ``[1/2, 2]``, absorbing the factor into
    ``scale_log2``.
    """
    if p.coeffs[-1] == 0:
        raise ValueError("leading coefficient must be nonzero")
    n = p.degree
    c = p.coeffs
    ev = c[0::2]
    od = c[1::2]
    sq = np.convolve(ev, ev)
    out = np.zeros(n + 1, dtype=sq.dtype)
    out[: len(sq)] += sq
    if len(od):
        so = np.convolve(od, od)
        out[1 : len(so) + 1] -= so
    if n % 2:
        out = -out
    if not np.isfinite(out).all():
        raise PrecisionLossError("root-squaring overflowed double precision", iteration=1)
    q = Polynomial(out, 2.0 * p.scale_log2)
    return normalize(q)


def normalize(p: Polynomial) -> Polynomial:
    """Rescale so ``max |coeff|`` lies in ``[1/2, 2]``; the represented polynomial is unchanged."""
    m = float(np.abs(p.coeffs).max())
    if m == 0.0:
        raise ValueError("cannot normalize the zero polynomial")
    if 0.5 <= m <= 2.0:
        return p
    _, ex = math.frexp(m)
    return Polynomial(p.coeffs * 2.0 ** float(-ex), p.scale_log2 + ex)


def root_radius_upper_bound(p: Polynomial) -> float:
    """Coefficient-ratio upper bound ``2 * max_i |p_{n-i}/p_n|**(1/i)`` on the largest root radius.

    Satisfies ``0.5 * bound / n <= max_j |x_j| <= bound``.  Scale-invariant.
    """
    if p.coeffs[-1] == 0:
        raise ValueError("leading coefficient must be nonzero")
    n = p.degree
    if n == 0:
        return 0.0
    an = abs(p.coeffs[-1])
    best = 0.0
    for i in range(1, n + 1):
        a = abs(p.coeffs[n - i])
        if a != 0.0:
            r = (a / an) ** (1.0 / i)
            if r > best:
                best = r
    return 2.0 * best


# ---------------------------------------------------------------------------
# Coefficient text format (shared with the CLI)
# ---------------------------------------------------------------------------
#
# One coefficient per line, ascending degree, decimal scientific notation.
# Complex coefficients are written as two whitespace-separated columns
# (real part, imaginary part).  Lines starting with '#' are ignored.


def parse_coefficients(text: str) -> Polynomial:
    values = []
    any_complex = False
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
                any_complex = True
            else:
                raise ValueError
        except ValueError:
            raise ValueError(f"line {lineno}: expected one or two numbers, got {raw!r}") from None
    if not values:
        raise ValueError("no coefficients found")
    arr = np.array(values)
    if not any_complex and np.all(arr.imag == 0.0):
        arr = arr.real
    return Polynomial(arr)


def read_coefficients(path) -> Polynomial:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_coefficients(fh.read())


def write_coefficients(path, p: Polynomial) -> None:
    dense = p.dense()
    if not np.isfinite(dense).all():
        raise OverflowError(
            "scale_log2 too large to materialize in the text format"
        )
    with open(path, "w", encoding="utf-8") as fh:
        for c in dense:
            c = complex(c)
            if c.imag == 0.0:
                fh.write(f"{c.real:.17e}\n")
            else:
                fh.write(f"{c.real:.17e} {c.imag:.17e}\n")
