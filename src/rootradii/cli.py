"""Command-line front end.

Commands: gen, radii, isolate-real, isolate-complex, bench.  Coefficient files
hold one coefficient per line, ascending degree (two columns for complex);
lines starting with '#' are comments.  Exit codes: 0 success, 2 input error,
3 numerical failure.
"""

import argparse
import json
import sys

from . import bench as bench_mod
from .complexiso import isolate_complex_roots
from .oracle import generate_family
from .poly import PrecisionLossError, read_coefficients, write_coefficients
from .radii import refined_radii
from .realiso import IsolatorConfig, isolate_real_roots

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3


def _read_poly(path):
    try:
        return read_coefficients(path)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


def cmd_gen(args):
    p = generate_family(args.type, args.n, args.r, args.seed)
    if args.out:
        write_coefficients(args.out, p)
    else:
        for c in p.dense():
            c = complex(c)
            if c.imag == 0.0:
                print(f"{c.real:.17e}")
            else:
                print(f"{c.real:.17e} {c.imag:.17e}")
    return EXIT_OK


def cmd_radii(args):
    p = _read_poly(args.input)
    try:
        est = refined_radii(p, args.target_rel_error)
    except PrecisionLossError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    print(
        json.dumps(
            {
                "radii": [float(r) for r in est.radii],
                "rel_factor": est.rel_factor,
                "squarings_used": est.squarings_used,
            }
        )
    )
    return EXIT_OK


def cmd_isolate_real(args):
    p = _read_poly(args.input)
    if not p.is_real:
        print("error: isolate-real needs real coefficients", file=sys.stderr)
        return EXIT_INPUT
    cfg = IsolatorConfig(
        precision_bits=args.bits,
        work_budget=args.budget,
        max_retries=args.retries,
    )
    try:
        result = isolate_real_roots(p, cfg)
    except PrecisionLossError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    print(
        json.dumps(
            {
                "roots": [
                    {"value": rt.value, "width": rt.width, "residual": rt.residual}
                    for rt in result.roots
                ],
                "suspects": [{"lo": s.lo, "hi": s.hi} for s in result.suspects],
                "stats": {
                    "squarings": result.stats["squarings"],
                    "sign_evals": result.stats["sign_evals"],
                    "newton_steps": result.stats["newton_steps"],
                },
            }
        )
    )
    return EXIT_OK


def cmd_isolate_complex(args):
    p = _read_poly(args.input)
    try:
        result = isolate_complex_roots(p, args.rho, args.eps, args.seed, eta=args.eta)
    except PrecisionLossError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    print(
        json.dumps(
            {
                "inclusions": [
                    {
                        "re": inc.disc_center.real,
                        "im": inc.disc_center.imag,
                        "radius": inc.disc_radius,
                        "multiplicity": inc.multiplicity,
                    }
                    for inc in result.inclusions
                ],
                "unresolved": [
                    {
                        "re": complex(nd.center).real,
                        "im": complex(nd.center).imag,
                        "radius": nd.disc_radius,
                        "multiplicity": nd.multiplicity,
                    }
                    for nd in result.unresolved
                ],
                "phi": result.phi,
                "separation_bound": result.separation_bound,
                "separation_bound_n4": result.separation_bound_n4,
            }
        )
    )
    return EXIT_OK


def _int_list(text):
    return [int(t) for t in text.split(",") if t.strip()]


def cmd_bench(args):
    sizes = _int_list(args.sizes)
    rs = _int_list(args.rs)
    types = _int_list(args.types)
    if not sizes or not rs or not types or not all(t in (1, 2, 3) for t in types):
        print("error: empty or invalid grid", file=sys.stderr)
        return EXIT_INPUT
    rows = bench_mod.run_bench(sizes, rs, types, seed=args.seed)
    if args.format == "csv":
        sys.stdout.write(bench_mod.rows_to_csv(rows))
    elif args.format == "json":
        print(
            json.dumps(
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
            )
        )
    else:
        sys.stdout.write(bench_mod.rows_to_text(rows))
    return EXIT_OK


def build_parser():
    ap = argparse.ArgumentParser(prog="rootradii", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a benchmark family polynomial")
    g.add_argument("--type", type=int, choices=(1, 2, 3), required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--r", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", default=None, help="write to file instead of stdout")
    g.set_defaults(func=cmd_gen)

    rd = sub.add_parser("radii", help="estimate all root radii")
    rd.add_argument("input")
    rd.add_argument("--target-rel-error", type=float, default=0.001)
    rd.set_defaults(func=cmd_radii)

    ir = sub.add_parser("isolate-real", help="isolate and refine the real roots")
    ir.add_argument("input")
    ir.add_argument("--bits", type=int, default=27)
    ir.add_argument("--budget", type=int, default=4096)
    ir.add_argument("--retries", type=int, default=2)
    ir.set_defaults(func=cmd_isolate_real)

    ic = sub.add_parser("isolate-complex", help="isolate complex roots (randomized)")
    ic.add_argument("input")
    ic.add_argument("--rho", type=float, default=1e-3)
    ic.add_argument("--eps", type=float, default=0.05)
    ic.add_argument("--seed", type=int, default=0)
    ic.add_argument("--eta", type=float, default=100.0)
    ic.set_defaults(func=cmd_isolate_complex)

    b = sub.add_parser("bench", help="run the (n, r, type) benchmark grid")
    b.add_argument("--sizes", default="64,128,256")
    b.add_argument("--rs", default="4,8,12")
    b.add_argument("--types", default="1,2,3")
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--format", choices=("text", "csv", "json"), default="text")
    b.set_defaults(func=cmd_bench)

    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage already; normalize other codes
        return EXIT_INPUT if exc.code not in (0,) else 0
    try:
        return args.func(args)
    except SystemExit as exc:
        return exc.code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (PrecisionLossError, OverflowError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
