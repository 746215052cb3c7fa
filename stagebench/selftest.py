#!/usr/bin/env python3
"""Self-tests of the benchmark harness (not of rootradii).

    python3 stagebench/selftest.py

They check that planted wrong answers are counted, that a traced run puts
every wrapped name back, and that layer self times fit inside the traced
call time.
"""

import json
import math
import unittest
from pathlib import Path

import numpy as np

import run
import speed
import tracing
import workloads
from rootradii import oracle, realiso
from rootradii.complexiso import ComplexInclusion, ComplexIsolationResult
from rootradii.poly import Polynomial
from rootradii.realiso import IsolationInterval, RealIsolationResult, RealRoot


def real_case(roots):
    p = Polynomial(np.poly(roots)[::-1])
    return workloads.Case("planted", p, p, workloads.eigen_reference(p))


def fake_real(values):
    iv = IsolationInterval(-10.0, 10.0)
    return RealIsolationResult(tuple(RealRoot(v, 0.0, 0.0, iv) for v in values), (), {})


def fake_complex(centers, radius=1e-3):
    incs = tuple(ComplexInclusion(complex(c), radius, 1, 0.05) for c in centers)
    return ComplexIsolationResult(incs, (), 0.5, 1.0, 1.0, {})


def scored(cases, real_entry=None, complex_entry=None):
    # two calls at least: percentiles need two samples
    r = run.Run(cases).go(0.0, 2, real_entry, complex_entry)
    return r, run.end_to_end(r, 1.0)[0]


class PlantedErrors(unittest.TestCase):
    def test_real_root_off_by_1e_3_is_wrong_and_failed(self):
        case = real_case([-3.0, 1.0, 2.0])
        r, m = scored([case], real_entry=lambda p: fake_real([-3.0, 1.0, 2.0 + 1e-3]))
        self.assertEqual(r.scores[0].contradicted, 1)
        self.assertAlmostEqual(m["wrong_frac"][0], 1 / 3)
        self.assertAlmostEqual(m["precision"][0], 2 / 3)
        self.assertEqual(m["failed_frac"][0], 1.0)
        self.assertAlmostEqual(m["recall"][0], 2 / 3)
        self.assertEqual(r.failed, r.attempted)

    def test_exact_real_roots_pass(self):
        case = real_case([-3.0, 1.0, 2.0])
        r, m = scored([case], real_entry=lambda p: fake_real([-3.0, 1.0, 2.0]))
        self.assertEqual((m["wrong_frac"][0], m["failed_frac"][0], m["recall"][0]), (0.0, 0.0, 1.0))
        self.assertEqual(r.failed, 0)

    def test_rootless_disc_is_wrong_and_failed(self):
        p = Polynomial([-1.0, 0.0, 0.0, 0.0, 1.0])
        case = workloads.Case("x4-1", p, p, workloads.eigen_reference(p), direction_seed=0)
        good = [1, -1, 1j, -1j]
        r, m = scored([case], complex_entry=lambda *a, **k: fake_complex(good + [0.5 + 0.5j]))
        self.assertEqual(r.scores[0].contradicted, 1)
        self.assertAlmostEqual(m["wrong_frac"][0], 1 / 5)
        self.assertAlmostEqual(m["precision"][0], 4 / 5)
        self.assertEqual(m["failed_frac"][0], 1.0)
        self.assertEqual(m["recall"][0], 1.0)

    def test_raising_call_counts_as_failed(self):
        case = real_case([1.0, 2.0])

        def boom(p):
            raise ArithmeticError("planted")

        r, m = scored([case], real_entry=boom)
        self.assertEqual(m["failed_frac"][0], 1.0)
        self.assertEqual(m["recall"][0], 0.0)
        self.assertIn("planted", r.errors["planted"])

    def test_nan_root_is_wrong(self):
        case = real_case([1.0, 2.0])
        r, _ = scored([case], real_entry=lambda p: fake_real([1.0, math.nan]))
        self.assertEqual(r.scores[0].contradicted, 1)


class MachineSpeed(unittest.TestCase):
    def test_calls_are_scaled_by_the_calibrations_around_them(self):
        s = speed.Speed()
        s.samples = [speed.REFERENCE_S, 3 * speed.REFERENCE_S]
        self.assertAlmostEqual(s.scale(0), 0.5)  # between the two samples
        self.assertAlmostEqual(s.scale(1), 1 / 3)  # after the last one

    def test_run_reports_scaled_and_wall_times(self):
        case = real_case([1.0, 2.0])
        r = run.Run([case]).go(0.0, 3, realiso.isolate_real_roots, None)
        self.assertEqual(len(r.latencies), len(r.wall))
        self.assertGreaterEqual(len(r.speed.samples), 2)
        for lat, wall, k in zip(r.latencies, r.wall, r._sample_of):
            self.assertAlmostEqual(lat, wall * r.speed.scale(k))


class Tracing(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        real, _ = workloads.real_small(7)
        fam = []
        for t in workloads.FAMILY_TYPES:
            p = oracle.generate_family(t, 64, 4, t)
            arg = p if p.is_real else Polynomial(np.real(p.coeffs))
            fam.append(workloads.Case(f"t{t}", p, arg, workloads.eigen_reference(p)))
        cplx = [c for c in workloads.complex_small(0)[0] if c.poly.degree <= 7][:3]
        cls.cases = real[:20] + fam + cplx
        cls.before = {k: getattr(*k) for k in tracing.LAYERS}
        cls.plain, cls.traced, cls.tracer = run.traced_run(cls.cases, 0.0)

    def test_every_wrapped_name_is_restored(self):
        for (module, attr), fn in self.before.items():
            self.assertIs(getattr(module, attr), fn, f"{module.__name__}.{attr}")

    def test_names_restored_when_the_block_raises(self):
        with self.assertRaises(KeyError):
            with tracing.traced(tracing.Tracer()):
                self.assertIsNot(realiso.refined_radii, self.before[(realiso, "refined_radii")])
                raise KeyError("planted")
        for (module, attr), fn in self.before.items():
            self.assertIs(getattr(module, attr), fn)

    def test_every_layer_was_seen(self):
        for module, attr in tracing.LAYERS:
            self.assertGreater(self.tracer.calls[tracing.span_name(module, attr)], 0, attr)

    def test_self_times_fit_inside_the_traced_call_time(self):
        m = run.per_layer(self.traced, self.tracer, {})
        parts = [m[k][0] for k in run.SELF_TIME_METRICS]
        self.assertTrue(all(x >= 0.0 for x in parts))
        # on the real path the parts partition the call time, up to rounding
        total = run.traced_call_s(self.tracer) / self.traced.passes
        self.assertLessEqual(sum(parts), total * (1.0 + 1e-9))

    def test_traced_results_match_untraced(self):
        self.assertEqual([f[0] for f in self.plain.first], [f[0] for f in self.traced.first])


class ResultNames(unittest.TestCase):
    def test_result_metrics_match_benchmark_json(self):
        spec = json.loads((Path(run.__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
        e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
        case = real_case([1.0, 2.0])
        r = run.Run([case]).go(0.0, 2, realiso.isolate_real_roots, None)
        table = run.end_to_end(r, 1.0)[0]
        self.assertEqual(e2e, {k: table[k][1] for k in run.RESULT_METRICS})
        self.assertEqual(layers, {k: u for k, (_, u) in run.per_layer(r, tracing.Tracer(), {}).items()})
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(workloads.GENERATORS))


class References(unittest.TestCase):
    def test_unavailable_reference_exits_nonzero_without_result(self):
        def unavailable(seed):
            raise workloads.ReferenceUnavailable("planted")

        saved = workloads.GENERATORS["real-small"]
        workloads.GENERATORS["real-small"] = unavailable
        try:
            code = run.main(["--workload", "real-small", "--seed", "0", "--seconds", "1"])
        finally:
            workloads.GENERATORS["real-small"] = saved
        self.assertNotEqual(code, 0)

    def test_same_seed_same_inputs(self):
        a = workloads.input_digests(workloads.real_small(3)[0])[0]
        b = workloads.input_digests(workloads.real_small(3)[0])[0]
        c = workloads.input_digests(workloads.real_small(4)[0])[0]
        self.assertEqual(a, b)
        self.assertNotEqual(a, c)


if __name__ == "__main__":
    unittest.main()
