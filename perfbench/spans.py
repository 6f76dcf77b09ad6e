"""Layer spans recorded from outside the program.

The traced run installs timing wrappers around the public functions at each
layer boundary of ``ohara``, patched where the caller looks them up, and
records one span per call: name, start, end, parent span and the id of the
timed benchmark operation it belongs to.  Spans stay in memory until the run
ends.  The untraced run installs nothing and uses :class:`NullTracer`.

Per-layer metrics are computed from the spans afterwards: inclusive time
(``.s``), self time (``.self_s``: duration minus the time covered by direct
child spans), call counts, computed work counts and ``tracemalloc`` peaks.
"""

import contextlib
import functools
import json
import tracemalloc
from time import perf_counter

import numpy as np

MIB = float(2**20)


class NullTracer:
    """Stand-in for the untraced run: records nothing."""

    def begin_op(self):
        pass

    def span(self, name):
        return contextlib.nullcontext()


class Tracer:
    """In-memory span recorder for one single-threaded benchmark process."""

    def __init__(self):
        self.spans = []
        self.op = 0
        self._stack = []
        self._patches = []

    def begin_op(self):
        """Start a new benchmark operation; later spans carry its id."""
        self.op += 1

    @contextlib.contextmanager
    def span(self, name, mem=False):
        rec = {
            "op": self.op,
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "error": None,
            "work": 0,
            "peak": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        # the outermost memory span owns tracemalloc; nested ones record no peak
        own_mem = mem and not tracemalloc.is_tracing()
        if own_mem:
            tracemalloc.start()
        rec["start"] = perf_counter()
        try:
            yield rec
        except BaseException as exc:
            rec["error"] = type(exc).__name__
            raise
        finally:
            rec["end"] = perf_counter()
            if own_mem:
                rec["peak"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            self._stack.pop()

    def wrap(self, owner, attr, name, work=None, mem=False):
        """Replace ``owner.attr`` by a wrapper that records a span per call.

        ``work(*args, **kwargs)`` returns the computed work count of a call.
        """
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            with self.span(name, mem=mem) as rec:
                if work is not None:
                    rec["work"] = work(*args, **kwargs)
                return orig(*args, **kwargs)

        self._patches.append((owner, attr, orig))
        setattr(owner, attr, traced)

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def write(self, path):
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _grid_cells(op, *args, **kwargs):
    return op.curve.M ** 2


def _interp_modes(interp, s, *args, **kwargs):
    return (interp.M // 2 + 1) * int(np.size(s))


def install(tracer):
    """Wrap every layer boundary of ``ohara`` that the benchmark reports."""
    from ohara import cli, curve, flow, quadrature
    from ohara.quadrature import GridOperator
    from ohara.spectral import Interpolant

    w = tracer.wrap
    w(cli, "load_curve", "curve.load_curve")
    for mod in (curve, flow):
        w(mod, "from_samples", "curve.from_samples")
    w(curve.ClosedCurve, "__init__", "curve.closed_curve")
    w(Interpolant, "__call__", "spectral.interpolant", work=_interp_modes)
    w(Interpolant, "prefix", "spectral.interpolant", work=_interp_modes)
    w(
        GridOperator, "__init__", "quadrature.grid_operator", mem=True,
        work=lambda op, crv, *a, **k: crv.M ** 2,
    )
    w(GridOperator, "energy", "quadrature.energy", work=_grid_cells)
    w(GridOperator, "first_variation", "quadrature.first_variation", work=_grid_cells)
    w(GridOperator, "g_values", "variations.g_values")
    w(
        GridOperator, "second_variation", "quadrature.second_variation", mem=True,
        work=_grid_cells,
    )
    w(GridOperator, "h_values", "variations.h_values")
    w(quadrature, "antipodal_motion_term", "quadrature.antipodal_motion_term")
    for fn in ("density_limit", "g_limit", "h_limit"):
        w(quadrature, fn, "diagonal.limits")
    for fn in ("gagliardo_seminorm", "holder_seminorm", "sobolev_linf_norm",
               "product_seminorm_check"):
        w(cli, fn, "norms." + fn)
    w(flow, "l2_gradient", "flow.l2_gradient")
    w(flow, "energy", "flow.energy")


# -- metrics from spans -------------------------------------------------------

#: (metric, unit) in the order they are reported; every workload reports all
#: of them, with 0 where the layer does not run on that workload
LAYER_METRICS = [
    ("cli.main.self_s", "s"),
    ("curve.load_curve.s", "s"),
    ("curve.from_samples.s", "s"),
    ("curve.from_samples.calls", "count"),
    ("curve.from_samples.rejects", "count"),
    ("curve.closed_curve.s", "s"),
    ("curve.closed_curve.calls", "count"),
    ("spectral.interpolant.s", "s"),
    ("spectral.interpolant.calls", "count"),
    ("spectral.interpolant.mode_evals", "count"),
    ("quadrature.grid_operator.s", "s"),
    ("quadrature.grid_operator.calls", "count"),
    ("quadrature.grid_operator.peak_mb", "MiB"),
    ("quadrature.energy.self_s", "s"),
    ("quadrature.first_variation.self_s", "s"),
    ("quadrature.first_variation.calls", "count"),
    ("variations.g_values.s", "s"),
    ("quadrature.second_variation.self_s", "s"),
    ("quadrature.second_variation.calls", "count"),
    ("quadrature.second_variation.peak_mb", "MiB"),
    ("variations.h_values.s", "s"),
    ("quadrature.antipodal_motion_term.s", "s"),
    ("quadrature.cells", "count"),
    ("diagonal.limits.s", "s"),
    ("diagonal.limits.calls", "count"),
    ("norms.gagliardo_seminorm.s", "s"),
    ("norms.holder_seminorm.s", "s"),
    ("norms.sobolev_linf_norm.s", "s"),
    ("norms.product_seminorm_check.s", "s"),
    ("flow.l2_gradient.s", "s"),
    ("flow.backtrack.s", "s"),
    ("flow.first_variation_calls_per_step", "count"),
    ("flow.grid_builds_per_step", "count"),
    ("flow.trials_per_step", "count"),
    ("flow.accept_ratio", "ratio"),
    ("flow.rejects.validation", "count"),
    ("flow.rejects.numerical", "count"),
    ("flow.rejects.increase", "count"),
]

#: spans of the flow backtracking loop: direct children of a flow step
_TRIAL_SPANS = ("curve.from_samples", "curve.closed_curve", "flow.energy")
_REJECT_REASONS = {"ValidationError": "validation", "NumericalError": "numerical"}


def _flow_trials(spans, children, accepted):
    """Backtracking trials of each flow step, split by outcome."""
    out = {"time": 0.0, "trials": 0, "validation": 0, "numerical": 0}
    for rec in spans:
        if rec["name"] != "flow.flow_step":
            continue
        for cid in children.get(rec["id"], ()):
            child = spans[cid]
            if child["name"] not in _TRIAL_SPANS:
                continue
            out["time"] += child["end"] - child["start"]
            out["trials"] += child["name"] == "curve.from_samples"
            # an exception ends its trial, so a trial has at most one
            reason = _REJECT_REASONS.get(child["error"])
            if reason is not None:
                out[reason] += 1
    out["increase"] = out["trials"] - accepted - out["validation"] - out["numerical"]
    return out


def layer_metrics(spans, iterations, flow_steps=0):
    """Per-iteration layer metrics from the recorded spans.

    Times and counts are totals divided by ``iterations``; peaks are maxima
    over calls.  ``flow.*_per_step`` and ``flow.accept_ratio`` are per
    accepted step (``flow_steps``).
    """
    children = {}
    for rec in spans:
        if rec["parent"] is not None:
            children.setdefault(rec["parent"], []).append(rec["id"])
    agg = {}
    for rec in spans:
        dur = rec["end"] - rec["start"]
        child = sum(spans[c]["end"] - spans[c]["start"] for c in children.get(rec["id"], ()))
        a = agg.setdefault(rec["name"], {"s": 0.0, "self_s": 0.0, "calls": 0,
                                         "errors": 0, "work": 0, "peak": 0})
        a["s"] += dur
        a["self_s"] += dur - child
        a["calls"] += 1
        a["errors"] += rec["error"] is not None
        a["work"] += rec["work"]
        a["peak"] = max(a["peak"], rec["peak"] or 0)

    def total(name, key):
        return agg.get(name, {}).get(key, 0)

    per = float(max(iterations, 1))
    out = {}
    for metric, _ in LAYER_METRICS:
        name, _, key = metric.rpartition(".")
        if key in ("s", "self_s", "calls"):
            out[metric] = total(name, key) / per
    out["curve.from_samples.rejects"] = total("curve.from_samples", "errors") / per
    out["spectral.interpolant.mode_evals"] = total("spectral.interpolant", "work") / per
    for name in ("quadrature.grid_operator", "quadrature.second_variation"):
        out[name + ".peak_mb"] = total(name, "peak") / MIB
    out["quadrature.cells"] = sum(
        total(n, "work") for n in ("quadrature.grid_operator", "quadrature.energy",
                                   "quadrature.first_variation",
                                   "quadrature.second_variation")
    ) / per

    steps = float(max(flow_steps, 1))
    trials = _flow_trials(spans, children, flow_steps)
    out["flow.backtrack.s"] = trials["time"] / per
    for reason in ("validation", "numerical", "increase"):
        out["flow.rejects." + reason] = trials[reason] / per
    out["flow.first_variation_calls_per_step"] = (
        total("quadrature.first_variation", "calls") / steps if flow_steps else 0.0
    )
    out["flow.grid_builds_per_step"] = (
        total("quadrature.grid_operator", "calls") / steps if flow_steps else 0.0
    )
    out["flow.trials_per_step"] = trials["trials"] / steps
    out["flow.accept_ratio"] = flow_steps / trials["trials"] if trials["trials"] else 0.0
    return {m: {"value": out[m], "unit": u} for m, u in LAYER_METRICS}
