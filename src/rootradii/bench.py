"""Benchmark harness: generate family polynomials, isolate, compare to the oracle.

Each cell of the (n, r, family type) grid builds a Chebyshev-times-random
polynomial, runs the real-root isolator, and scores the found roots against
the all-roots oracle.  The error column is the maximum over found roots of the
distance to the nearest oracle root; the iteration column is the root-squaring
count the radii stage actually used on its first pass.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .oracle import all_roots_oracle, generate_family
from .poly import Polynomial
from .realiso import isolate_real_roots

__all__ = ["BenchRow", "run_cell", "run_bench", "rows_to_csv", "rows_to_json", "rows_to_text"]


@dataclass(frozen=True)
class BenchRow:
    n: int
    r: int
    family_type: int
    squaring_iters: int
    max_error: float
    oracle_converged: bool = True
    failed: str = ""


def cell_seed(base_seed: int, n: int, r: int, family_type: int) -> int:
    return (base_seed * 1_000_003 + n * 1_009 + r * 101 + family_type) % (2**63)


def run_cell(n: int, r: int, family_type: int, seed: int) -> BenchRow:
    try:
        p = generate_family(family_type, n, r, seed)
        if p.is_real:
            result = isolate_real_roots(p)
            found = [rt.value for rt in result.roots]
        else:
            # complex coefficients: a real root of p is a root of the real
            # part at which the imaginary part vanishes too, so a root x of
            # the real part is kept only when the imaginary part changes sign
            # across x, over the root's width or at least 2**-26 relative.
            # Only signs are multiplied: the values overflow at n = 1024
            result = isolate_real_roots(Polynomial(np.real(p.coeffs)))
            found = []
            for rt in result.roots:
                h = max(rt.width, 2.0**-26 * max(1.0, abs(rt.value)))
                xs = np.array([rt.value - h, rt.value + h])
                with np.errstate(over="ignore", invalid="ignore"):
                    s = np.sign(_kernels.horner_points(np.imag(p.coeffs), xs))
                if s[0] * s[1] <= 0:
                    found.append(rt.value)
        rs = all_roots_oracle(p)
        if found:
            err = max(float(np.abs(rs.roots - v).min()) for v in found)
        else:
            err = math.inf
        return BenchRow(
            n=n,
            r=r,
            family_type=family_type,
            squaring_iters=result.stats.get("squarings", 0),
            max_error=err,
            oracle_converged=rs.converged,
        )
    except Exception as exc:  # record per-cell failure, keep the run going
        return BenchRow(
            n=n,
            r=r,
            family_type=family_type,
            squaring_iters=0,
            max_error=math.inf,
            failed=f"{type(exc).__name__}: {exc}",
        )


def run_bench(sizes, rs, types, seed: int = 0):
    return [run_cell(n, r, t, cell_seed(seed, n, r, t)) for n in sizes for r in rs for t in types]


def rows_to_csv(rows) -> str:
    lines = ["n,r,type,iter,error"]
    for row in rows:
        lines.append(
            f"{row.n},{row.r},{row.family_type},{row.squaring_iters},{row.max_error:.6e}"
        )
    return "\n".join(lines) + "\n"


def rows_to_json(rows) -> str:
    return json.dumps(
        [
            {
                "n": row.n,
                "r": row.r,
                "type": row.family_type,
                "iter": row.squaring_iters,
                "error": row.max_error,
                "oracle_converged": row.oracle_converged,
                "failed": row.failed,
            }
            for row in rows
        ]
    ) + "\n"


def rows_to_text(rows) -> str:
    """Table-style layout: one line per (n, r), iteration/error columns per type."""
    types = sorted({row.family_type for row in rows})
    by_key = {(row.n, row.r, row.family_type): row for row in rows}
    header = ["    n    r"]
    for t in types:
        header.append(f"  type{t}-iter  type{t}-error")
    lines = ["".join(header)]
    for n, r in sorted({(row.n, row.r) for row in rows}):
        parts = [f"{n:5d} {r:4d}"]
        for t in types:
            row = by_key.get((n, r, t))
            if row is None:
                parts.append("           -            -")
            elif row.failed:
                parts.append("        FAIL         FAIL")
            else:
                parts.append(f"  {row.squaring_iters:10d}  {row.max_error:12.3e}")
        lines.append("".join(parts))
    lines.append("")
    lines.append("iter = root-squaring count used by the first radii pass")
    return "\n".join(lines) + "\n"
