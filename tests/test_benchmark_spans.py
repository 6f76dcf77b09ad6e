"""The traced benchmark's layer wrappers still find what they wrap.

``perfbench/spans.py`` patches functions of ``ohara`` by name.  A rename in
the package would otherwise only show as a crash of ``perfbench/run.py
--trace 1``; here it fails the test suite.  Its tracer also assumes that
every wrapped call runs on the calling thread, which the cos/sin table's
pool (``spectral``) must keep true.
"""

import importlib.util
import json
import threading
from pathlib import Path

import numpy as np

from ohara import _pairs, cli, flow
from ohara.curve import random_curve
from ohara.kernels import EnergyParams
from ohara.quadrature import GridOperator, energy

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_span_install_targets_resolve():
    spans = _load_spans()
    tracer = spans.Tracer()
    try:
        # install looks every target up by name and raises on a missing one
        spans.install(tracer)
        patched = list(tracer._patches)
    finally:
        tracer.uninstall()
    names = {(owner, attr) for owner, attr, _ in patched}
    for target in [(GridOperator, "__init__"), (GridOperator, "energy"),
                   (GridOperator, "g_values"), (GridOperator, "h_values"),
                   (GridOperator, "first_variation"),
                   (GridOperator, "second_variation"),
                   (flow, "energy"), (flow, "l2_gradient")]:
        assert target in names
    # uninstall puts every original back
    for owner, attr, orig in patched:
        assert getattr(owner, attr) is orig


def test_traced_calls_stay_on_the_calling_thread(pool, monkeypatch, tmp_path, capsys):
    # the tracer keeps one span stack per process, so no task of the table's
    # pool may call a function that it wraps; every table goes on the pool here
    spans = _load_spans()
    threads = set()

    class ThreadRecordingTracer(spans.Tracer):
        def span(self, name, mem=False):
            threads.add(threading.get_ident())
            return super().span(name, mem=mem)

    M = 64
    monkeypatch.setattr(_pairs, "CHUNK_CELLS", 7 * M)
    theta = 2.0 * np.pi * np.arange(M) / M
    pts = np.stack([np.cos(theta), np.sin(theta), 0.1 * np.cos(2.0 * theta)], axis=1)
    path = tmp_path / "curve.json"
    path.write_text(json.dumps({"dimension": 3, "points": pts.tolist(), "closed": True}))
    tracer = ThreadRecordingTracer()
    spans.install(tracer)
    try:
        for job in ("energy", "gradient", "hessian-form", "norms"):
            assert cli.main([job, "--curve", str(path), "--alpha", "2.5", "--p", "1.5"]) == 0
        state = flow.FlowState(curve=random_curve(0, M=M, n=3), dt=0.05)
        state.energies.append(energy(state.curve, EnergyParams(2.0, 1.0)))
        flow.flow_step(state, EnergyParams(2.0, 1.0), K=2, fixed_length=True)
    finally:
        tracer.uninstall()
    capsys.readouterr()
    names = {rec["name"] for rec in tracer.spans}
    assert {"curve.from_samples", "spectral.interpolant", "quadrature.grid_operator",
            "quadrature.second_variation", "flow.l2_gradient"} <= names
    assert pool.tasks > 0
    assert threads == {threading.get_ident()}
