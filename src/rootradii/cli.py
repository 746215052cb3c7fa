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
from .poly import format_coefficients, read_coefficients, write_coefficients
from .radii import refined_radii
from .realiso import IsolatorConfig, isolate_real_roots

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3


def cmd_gen(args):
    p = generate_family(args.type, args.n, args.r, args.seed)
    if args.out:
        write_coefficients(args.out, p)
    else:
        sys.stdout.write(format_coefficients(p))
    return EXIT_OK


def cmd_radii(args):
    p = read_coefficients(args.input)
    est = refined_radii(p, args.target_rel_error)
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
    p = read_coefficients(args.input)
    cfg = IsolatorConfig(precision_bits=args.bits)
    result = isolate_real_roots(p, cfg)
    print(
        json.dumps(
            {
                "roots": [
                    {"value": rt.value, "width": rt.width, "residual": rt.residual}
                    for rt in result.roots
                ],
                "suspects": [{"lo": s.lo, "hi": s.hi} for s in result.suspects],
                "stats": {k: result.stats[k] for k in ("squarings", "sign_evals", "newton_steps")},
            }
        )
    )
    return EXIT_OK


def cmd_isolate_complex(args):
    p = read_coefficients(args.input)
    result = isolate_complex_roots(p, args.rho, args.eps, args.seed, eta=args.eta)
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
                "stats": result.stats,
            }
        )
    )
    return EXIT_OK


def _int_list(text):
    return [int(t) for t in text.split(",") if t.strip()]


_BENCH_FORMATS = {
    "text": bench_mod.rows_to_text,
    "csv": bench_mod.rows_to_csv,
    "json": bench_mod.rows_to_json,
}


def cmd_bench(args):
    sizes = _int_list(args.sizes)
    rs = _int_list(args.rs)
    types = _int_list(args.types)
    if not sizes or not rs or not types or not all(t in (1, 2, 3) for t in types):
        print("error: empty or invalid grid", file=sys.stderr)
        return EXIT_INPUT
    if not all(1 <= r < n for n in sizes for r in rs):
        print("error: every grid pair needs 1 <= r < n", file=sys.stderr)
        return EXIT_INPUT
    rows = bench_mod.run_bench(sizes, rs, types, seed=args.seed)
    sys.stdout.write(_BENCH_FORMATS[args.format](rows))
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
    ir.set_defaults(func=cmd_isolate_real)

    ic = sub.add_parser("isolate-complex", help="isolate all complex roots in certified discs")
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
    b.add_argument("--format", choices=tuple(_BENCH_FORMATS), default="text")
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
    except (OSError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC if isinstance(exc, ArithmeticError) else EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
