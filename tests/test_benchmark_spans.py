"""The traced benchmark's layer wrappers still find what they wrap.

``perfbench/spans.py`` patches functions of ``ohara`` by name.  A rename in
the package would otherwise only show as a crash of ``perfbench/run.py
--trace 1``; here it fails the test suite.
"""

import importlib.util
from pathlib import Path

from ohara import flow
from ohara.quadrature import GridOperator

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
