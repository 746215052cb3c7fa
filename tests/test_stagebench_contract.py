"""The names the stage benchmark reaches into must stay called.

``stagebench/tracing.py`` times layers by wrapping module attributes by name,
and ``stagebench/run.py`` times a set-up probe that calls ``warmup``.  A
renamed or bypassed layer would not fail the benchmark: its span would just
read zero.  These tests run the benchmark's own code and check that it sees
the layers of both paths.  The harness's self-tests also build result
records by position, so they run here too.
"""

import os

import ast
import subprocess
import sys
from pathlib import Path

import rootradii as rr
from rootradii import complexiso, realiso

STAGEBENCH = Path(__file__).resolve().parent.parent / "stagebench"
SRC = Path(rr.__file__).resolve().parent.parent


def test_traced_complex_isolation_calls_every_complex_layer(monkeypatch, sect5):
    # isolate_complex_roots squares on the float engine; the exact layers are
    # reached through the paper's shifted families
    monkeypatch.syspath_prepend(str(STAGEBENCH))
    import tracing

    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        res = complexiso.isolate_complex_roots(sect5, rho=1e-3, eps=0.05, seed=0)
    assert res.inclusions
    assert tracer.calls["_kernels.graeffe_step_me"] > 0

    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        fams = complexiso.shifted_families(sect5, 1e-3, phi=0.5)
    assert all(f.annuli for f in fams)
    for name in (
        "_dd.taylor_shift_dd",
        "_dd.graeffe_step_me_dd",
        "complexiso.distances_from_point",
    ):
        assert tracer.calls[name] > 0, name
    assert tracer.counts["squarings_done"] > 0


def test_traced_real_isolation_calls_every_real_layer(monkeypatch, sect5):
    monkeypatch.syspath_prepend(str(STAGEBENCH))
    import tracing

    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        res = realiso.isolate_real_roots(sect5)
    assert res.roots
    for name in (
        "realiso.refined_radii",
        "_kernels.graeffe_step_me",
        "_kernels.horner_points",
        "_kernels.horner_pair",
    ):
        assert tracer.calls[name] > 0, name
    assert tracer.counts["squarings_done"] > 0


def test_setup_probe_runs():
    tree = ast.parse((STAGEBENCH / "run.py").read_text())
    code = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["SETUP_CODE"]
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(SRC)],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert float(out.stdout.strip().splitlines()[-1]) > 0


def test_stagebench_selftest_passes():
    path = [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    out = subprocess.run(
        [sys.executable, str(STAGEBENCH / "selftest.py")],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=STAGEBENCH.parent,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
    )
    assert out.returncode == 0, out.stderr[-2000:]
