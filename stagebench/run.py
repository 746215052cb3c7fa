#!/usr/bin/env python3
"""Stage benchmark for rootradii: end-to-end and per-layer numbers with correctness.

One client, one call at a time, in one process, with BLAS/OpenMP pinned to
one thread.  It times the public entry points ``realiso.isolate_real_roots``
and ``complexiso.isolate_complex_roots`` on a named workload and scores every
result against a reference that shares no code with the pipeline.

    python3 stagebench/run.py --workload real-family --seed 0 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced passes with passes that have every layer wrapped, and prints the
per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md in
this directory for the definitions.
"""

import os
import sys

# thread pinning must precede the first numpy import
PIN_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
PRESET = {v: os.environ[v] for v in PIN_VARS if v in os.environ}
for _v in PIN_VARS:
    os.environ[_v] = "1"

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
if not (SRC / "rootradii" / "__init__.py").is_file():
    sys.exit(f"stagebench: no rootradii sources under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from speed import Speed  # noqa: E402
from rootradii import complexiso, realiso  # noqa: E402

SETUP_REPEATS = 7
SETUP_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import rootradii\n"
    "from rootradii import _dd, _kernels\n"
    "_kernels.warmup()\n"
    "_dd.warmup()\n"
    "print(time.perf_counter() - t0)\n"
)
# with at least 100 samples, at least ten lie beyond p90
MIN_CALLS = 100

# end-to-end metrics on the result line.  Wrong answers enter as precision,
# 1 - wrong_frac: wrong_frac itself is 0 on real-small, and a metric that can
# be 0 has no relative bound.  failed_frac and suspect_frac are printed only:
# they are 0 on real-small and move by more than half their median between
# seeds on complex-small
RESULT_METRICS = (
    "setup_s", "polys_per_s", "latency_p50_ms", "latency_p90_ms", "recall", "precision", "peak_rss_mb",
)


def measure_setup():
    """Median over fresh interpreters of import plus kernel warm-up, in
    seconds, each scaled by the machine speed around it."""
    speed = Speed()
    times = []
    for _ in range(SETUP_REPEATS):
        k = speed.sample()
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC)],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        times.append((float(out.stdout.strip().splitlines()[-1]), k))
    speed.sample()
    return statistics.median(t * speed.scale(k) for t, k in times)


def environment():
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "thread_pinning": {v: os.environ[v] for v in PIN_VARS},
        "pinning_preset_by_caller": PRESET,
    }


# ---------------------------------------------------------------------------
# one call, its output in comparable form, its score
# ---------------------------------------------------------------------------


def call_entry(case, real_entry, complex_entry):
    if case.is_complex:
        return complex_entry(
            case.arg, workloads.COMPLEX_RHO, workloads.COMPLEX_EPS, case.direction_seed,
            eta=workloads.COMPLEX_ETA,
        )
    return real_entry(case.arg)


def fingerprint(case, out):
    """Exact text form of a result, to check that every pass returns the same."""
    if case.is_complex:
        return repr((
            [(i.disc_center, i.disc_radius, i.multiplicity) for i in out.inclusions],
            [(u.center, u.half_width) for u in out.unresolved],
        ))
    return repr(([r.value for r in out.roots], [(s.lo, s.hi) for s in out.suspects]))


def score(case, out):
    if case.is_complex:
        return workloads.score_complex(case, out.inclusions, len(out.unresolved))
    return workloads.score_real(case, [r.value for r in out.roots], len(out.suspects))


class Run:
    """Latencies and per-call scores of complete passes over a workload's cases.

    ``wall`` holds each call's wall time; ``latencies`` the same times scaled
    by the machine speed measured around each call (see speed.py).
    """

    def __init__(self, cases):
        self.cases = cases
        self.wall = []
        self.cpu_s = 0.0  # per-thread CPU time of the calls, for comparison
        self.latencies = []
        self.speed = Speed()
        self._sample_of = []  # per call: index of the calibration sample before it
        self.passes = 0
        self.deterministic = True
        self.first = [None] * len(cases)  # (fingerprint or exception type, score, output)
        self.errors = {}

    def go(self, seconds, min_calls, real_entry, complex_entry):
        """Complete passes until ``min_calls`` calls are made and the pass count
        is the one whose total time comes closest to ``seconds``."""
        t_start = time.perf_counter()
        passes_before = self.passes
        while True:
            elapsed = time.perf_counter() - t_start
            done = self.passes - passes_before
            if done and len(self.wall) >= min_calls and elapsed + 0.5 * elapsed / done >= seconds:
                break
            for i, case in enumerate(self.cases):
                self._sample_of.append(self.speed.tick())
                c0, t0 = time.thread_time(), time.perf_counter()
                try:
                    out, error = call_entry(case, real_entry, complex_entry), None
                except Exception as exc:  # a failed call is counted, the run goes on
                    out, error = None, f"{type(exc).__name__}: {exc}"
                self.wall.append(time.perf_counter() - t0)
                self.cpu_s += time.thread_time() - c0
                key = error or fingerprint(case, out)
                if self.first[i] is None:
                    sc = workloads.raised_score(case) if out is None else score(case, out)
                    self.first[i] = (key, sc, out)
                    if out is None:
                        self.errors[case.label] = key
                elif self.first[i][0] != key:
                    self.deterministic = False
            self.passes += 1
        self.speed.sample()  # closes the last calls' interval
        self.latencies = [dt * self.speed.scale(k) for dt, k in zip(self.wall, self._sample_of)]
        return self

    @property
    def scores(self):
        return [f[1] for f in self.first]

    @property
    def outputs(self):
        return [f[2] for f in self.first]

    @property
    def attempted(self):
        return len(self.latencies)

    @property
    def failed(self):
        return self.passes * sum(s.failed for s in self.scores)

    def polys_per_s(self):
        return len(self.latencies) / sum(self.latencies)

    def timing(self):
        """Unscaled figures and the calibration, for the details line."""
        return {"wall_polys_per_s": len(self.wall) / sum(self.wall), "cpu_over_wall": self.cpu_s / sum(self.wall),
                "calibration": self.speed.summary()}


def _frac(num, den):
    return num / den if den else 0.0


def end_to_end(run, setup_s):
    lat = np.asarray(run.latencies) * 1e3
    deciles = statistics.quantiles(lat, n=10)
    sc = run.scores
    reported = sum(s.reported for s in sc)
    suspects = sum(s.suspects for s in sc)
    wrong = _frac(sum(s.contradicted for s in sc), reported)
    metrics = {
        "setup_s": (setup_s, "s"),
        "polys_per_s": (run.polys_per_s(), "1/s"),
        "latency_p50_ms": (float(np.median(lat)), "ms"),
        "latency_p90_ms": (deciles[8], "ms"),
        "recall": (_frac(sum(s.ref_found for s in sc), sum(s.ref_roots for s in sc)), "ratio"),
        "wrong_frac": (wrong, "ratio"),
        "precision": (1.0 - wrong, "ratio"),
        "failed_frac": (_frac(sum(s.failed for s in sc), len(sc)), "ratio"),
        "suspect_frac": (_frac(suspects, reported + suspects), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    samples = {"latency_samples": len(lat), "beyond_p90": int((lat > deciles[8]).sum())}
    return metrics, samples


def per_layer(run, tracer, harness):
    """Per-pass layer metrics from a traced run."""
    P = run.passes
    tot, own, calls, cnt = tracer.total, tracer.self_time, tracer.calls, tracer.counts
    real_out = [o for c, o in zip(run.cases, run.outputs) if o is not None and not c.is_complex]
    sign_evals = sum(o.stats.get("sign_evals", 0) for o in real_out)
    roots = sum(len(o.roots) for o in real_out)
    pair_calls = calls["_kernels.horner_pair"] / P
    metrics = {
        "kernels.graeffe_step_me_s": (tot["_kernels.graeffe_step_me"] / P, "s"),
        "kernels.graeffe_step_me_calls": (calls["_kernels.graeffe_step_me"] / P, "count"),
        "kernels.horner_points_s": (tot["_kernels.horner_points"] / P, "s"),
        "kernels.horner_pair_s": (tot["_kernels.horner_pair"] / P, "s"),
        "kernels.horner_pair_calls": (pair_calls, "count"),
        "radii.refined_radii_self_s": (own["realiso.refined_radii"] / P, "s"),
        "radii.distances_self_s": (own["complexiso.distances_from_point"] / P, "s"),
        "radii.squarings_planned": (cnt["squarings_planned"] / P, "count"),
        "radii.squarings_done": (cnt["squarings_done"] / P, "count"),
        "dd.taylor_shift_s": (tot["_dd.taylor_shift_dd"] / P, "s"),
        "dd.graeffe_step_s": (tot["_dd.graeffe_step_me_dd"] / P, "s"),
        "dd.graeffe_step_calls": (calls["_dd.graeffe_step_me_dd"] / P, "count"),
        "realiso.self_s": (own["realiso.isolate_real_roots"] / P, "s"),
        "realiso.sign_evals": (sign_evals, "count"),
        "realiso.newton_steps": (sum(o.stats.get("newton_steps", 0) for o in real_out), "count"),
        "realiso.evals_per_root": (_frac(sign_evals + pair_calls, roots), "evals/root"),
        "complexiso.shifted_families_self_s": (own["complexiso.shifted_families"] / P, "s"),
        "complexiso.grid_s": (tot["complexiso.grid_from_two_families"] / P, "s"),
        "complexiso.confirm_s": (tot["complexiso.disambiguate_with_third"] / P, "s"),
        "complexiso.nodes": (cnt["nodes"] / P, "count"),
        "complexiso.confirm_yield": (_frac(cnt["confirmed"], cnt["nodes"]), "ratio"),
        "oracle.all_roots_s": (harness.get("oracle_s", 0.0), "s"),
        "oracle.sweeps": (harness.get("oracle_sweeps", 0), "count"),
    }
    return metrics


# self-time metrics; on the real path they partition the traced call time, on
# the complex path the entry point's own self time is the rest
SELF_TIME_METRICS = (
    "kernels.graeffe_step_me_s",
    "kernels.horner_points_s",
    "kernels.horner_pair_s",
    "radii.refined_radii_self_s",
    "radii.distances_self_s",
    "dd.taylor_shift_s",
    "dd.graeffe_step_s",
    "realiso.self_s",
    "complexiso.shifted_families_self_s",
    "complexiso.grid_s",
    "complexiso.confirm_s",
)


def traced_run(cases, seconds):
    """Alternate untraced and traced passes over ``cases`` for about ``seconds``.

    Alternating keeps drifts in machine speed out of the tracing overhead.
    Returns (untraced run, traced run, tracer).
    """
    tracer = tracing.Tracer()
    real_entry = tracer.wrap("realiso.isolate_real_roots", realiso.isolate_real_roots)
    complex_entry = tracer.wrap("complexiso.isolate_complex_roots", complexiso.isolate_complex_roots)
    plain, traced = Run(cases), Run(cases)
    t_start = time.perf_counter()
    while True:
        plain.go(0.0, 0, realiso.isolate_real_roots, complexiso.isolate_complex_roots)
        with tracing.traced(tracer):
            traced.go(0.0, 0, real_entry, complex_entry)
        elapsed = time.perf_counter() - t_start
        if elapsed + 0.5 * elapsed / traced.passes >= seconds:
            return plain, traced, tracer


def traced_call_s(tracer):
    return tracer.total["realiso.isolate_real_roots"] + tracer.total["complexiso.isolate_complex_roots"]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=tuple(workloads.GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    t0 = time.perf_counter()
    try:
        cases, harness = workloads.GENERATORS[args.workload](args.seed)
    except workloads.ReferenceUnavailable as exc:
        print(f"stagebench: reference check cannot run: {exc}", file=sys.stderr)
        return 3
    harness["inputs_and_references_s"] = time.perf_counter() - t0
    combined, per_input = workloads.input_digests(cases)
    # untimed warm-up on the cheapest input
    call_entry(min(cases, key=lambda c: c.poly.degree), realiso.isolate_real_roots,
               complexiso.isolate_complex_roots)

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "environment": environment(),
        "inputs": {"calls_per_pass": len(cases), "distinct": len(per_input), "sha256": combined,
                   "digests": per_input},
        "harness_cost": harness,
    }
    if args.trace == 0:
        setup_s = measure_setup()
        run = Run(cases).go(args.seconds, MIN_CALLS, realiso.isolate_real_roots,
                            complexiso.isolate_complex_roots)
        table, samples = end_to_end(run, setup_s)
        metrics = {k: table[k] for k in RESULT_METRICS}
        details["samples"] = samples
        details["timing"] = run.timing()
    else:
        plain, run, tracer = traced_run(cases, args.seconds)
        metrics = table = per_layer(run, tracer, harness)
        call_s = traced_call_s(tracer) / run.passes
        shares = {k: metrics[k][0] / call_s for k in SELF_TIME_METRICS}
        details["trace"] = {
            "overhead": run.polys_per_s() / plain.polys_per_s(),
            "traced_call_s_per_pass": call_s,
            "layer_self_sum_s_per_pass": sum(metrics[k][0] for k in SELF_TIME_METRICS),
            "largest_self_share": max(shares, key=shares.get),
            "self_shares": shares,
        }
    details["passes"] = run.passes
    details["errors"] = run.errors
    details["deterministic"] = run.deterministic

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {run.passes}  calls {run.attempted}  inputs sha256 {combined[:16]}")
    for name, (value, unit) in table.items():
        print(f"  {name:38s} {value:14.6g} {unit}")
    print("details " + json.dumps(details, sort_keys=True))
    result = {
        "correct": run.deterministic,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
