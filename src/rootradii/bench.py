"""Benchmark harness: generate family polynomials, isolate, compare to the oracle.

Each cell of the (n, r, family type) grid builds a Chebyshev-times-random
polynomial, runs the real-root isolator, and scores the found roots against
the all-roots oracle.  The error column is the maximum over found roots of the
distance to the nearest oracle root; the iteration column is the root-squaring
count the radii stage actually used on its first pass.
"""

import math
from dataclasses import dataclass

import numpy as np

from .oracle import all_roots_oracle, generate_family
from .poly import Polynomial
from .realiso import IsolatorConfig, isolate_real_roots

__all__ = ["BenchRow", "run_cell", "run_bench", "rows_to_csv", "rows_to_text"]


@dataclass(frozen=True)
class BenchRow:
    n: int
    r: int
    family_type: int
    squaring_iters: int
    max_error: float
    n_roots_found: int = 0
    oracle_converged: bool = True
    failed: str = ""


def _real_part_polynomial(p: Polynomial) -> Polynomial:
    """Real-coefficient polynomial whose real-axis zeros include those of ``p``."""
    return Polynomial(np.real(p.coeffs))


def cell_seed(base_seed: int, n: int, r: int, family_type: int) -> int:
    return (base_seed * 1_000_003 + n * 1_009 + r * 101 + family_type) % (2**63)


def run_cell(n: int, r: int, family_type: int, seed: int, cfg: IsolatorConfig = None) -> BenchRow:
    cfg = cfg or IsolatorConfig()
    try:
        p = generate_family(family_type, n, r, seed)
        if p.is_real:
            result = isolate_real_roots(p, cfg)
            found = [rt.value for rt in result.roots]
        else:
            # complex coefficients: roots on the real axis are zeros of the
            # real-part polynomial; candidates that are not zeros of p itself
            # are discarded by a residual check against |p|
            g = _real_part_polynomial(p)
            result = isolate_real_roots(g, cfg)
            found = []
            with np.errstate(over="ignore", invalid="ignore"):
                for rt in result.roots:
                    pv = abs(np.polyval(p.coeffs[::-1], rt.value))
                    # backward-error scale at the point; for |v| > 1 the raw
                    # residual grows with |v|**n and a fixed cutoff would be wrong
                    scale = float(np.polyval(np.abs(p.coeffs)[::-1], abs(rt.value)))
                    if not math.isfinite(scale) or pv <= 1e-6 * scale:
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
            n_roots_found=len(found),
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


def run_bench(sizes, rs, types, seed: int = 0, cfg: IsolatorConfig = None):
    return [
        run_cell(n, r, t, cell_seed(seed, n, r, t), cfg) for n in sizes for r in rs for t in types
    ]


def rows_to_csv(rows) -> str:
    lines = ["n,r,type,iter,error"]
    for row in rows:
        lines.append(
            f"{row.n},{row.r},{row.family_type},{row.squaring_iters},{row.max_error:.6e}"
        )
    return "\n".join(lines) + "\n"


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
