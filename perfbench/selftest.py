"""Self-test of the benchmark harness at tiny sizes (a few seconds).

    python3 perfbench/selftest.py

Runs all three workloads in-process with small grids and asserts:

* the result schema, and that every metric named in ``BENCHMARK.json`` and
  every end-to-end timing of the detail document is present;
* exact counts: one ``GridOperator`` per energy/gradient/hessian-form CLI
  job, ``(2K+1) n`` first variations per flow step, and identical counts on
  a second traced run;
* that a deliberately wrong reference value counts as a failed operation.

Exits non-zero on the first failed assertion.
"""

import copy
import json
import os
import sys
import tempfile

import run
import spans

#: end-to-end timings each workload reports in its detail document
DETAIL_OPS = {
    "cli-m1024": ["energy_s", "gradient_s", "hessian_s", "norms_s"],
    "flow-m256": ["flow_step_s"],
    "sweep-m512": ["first_variation_s", "second_variation_s"],
}
#: sizes at which one iteration covers every distinct operation once
TINY = {"cli-m1024": {"M": 128}, "flow-m256": {"M": 64, "steps": 2},
        "sweep-m512": {"M": 64, "pairs": 1}}


def check(cond, msg):
    if not cond:
        raise AssertionError(msg)


def run_tiny(name, workdir, trace=False, reference=None):
    from workloads import WORKLOADS

    tracer = spans.Tracer() if trace else None
    wl = WORKLOADS[name](0, workdir=workdir, reference=reference, tracer=tracer,
                         **TINY[name])
    doc, result = run.run_workload(wl, 0.0, tracer)
    return wl, tracer, doc, result


def check_schema(name, doc, result, declared):
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          "%s: result keys %s" % (name, sorted(result)))
    check(result["attempted"] >= 1 and result["failed"] == 0,
          "%s: %d of %d operations failed: %s"
          % (name, result["failed"], result["attempted"], doc["failures"]))
    check(set(result["metrics"]) == set(declared),
          "%s: metrics %s, declared %s" % (name, sorted(result["metrics"]), sorted(declared)))
    for metric, m in result["metrics"].items():
        check(set(m) == {"value", "unit"} and isinstance(m["value"], float),
              "%s: metric %s is %r" % (name, metric, m))


def main():
    sys.path.insert(0, run.SRC)
    # tiny set-ups: the minimum repeat count is enough, no minimum duration
    run.SETUP_MIN_S = 0.0
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    check([w["name"] for w in bench["workloads"]] == list(DETAIL_OPS),
          "workload list differs from BENCHMARK.json")

    with tempfile.TemporaryDirectory() as workdir:
        for name in DETAIL_OPS:
            wl, _, doc, result = run_tiny(name, workdir)
            check_schema(name, doc, result, e2e)
            check(sorted(doc["ops"]) == sorted(DETAIL_OPS[name]),
                  "%s: detail timings %s" % (name, sorted(doc["ops"])))
            check(doc["error_rate"]["value"] == 0.0, "%s: nonzero error rate" % name)

            # a deliberately wrong reference value is a failed operation
            bad = copy.deepcopy(wl.reference_values())
            key = next(iter(bad))
            if isinstance(bad[key], dict):
                field = next(iter(bad[key]))
                bad[key][field] *= 1.0 + 1.0e-9
            else:
                bad[key][0] *= 1.0 + 1.0e-9
            _, _, good_doc, good = run_tiny(name, workdir, reference=wl.reference_values())
            check(good["failed"] == 0, "%s: right reference rejected: %s"
                  % (name, good_doc["failures"]))
            _, _, bad_doc, wrong = run_tiny(name, workdir, reference=bad)
            check(wrong["failed"] >= 1 and bad_doc["error_rate"]["value"] > 0.0,
                  "%s: wrong reference value not counted as a failure" % name)

            runs = [run_tiny(name, workdir, trace=True) for _ in range(2)]
            _, tracer, doc, result = runs[0]
            check_schema(name, doc, result, layer)
            counts = [
                {k: m["value"] for k, m in r[3]["metrics"].items() if m["unit"] == "count"
                 and k != "trace.spans"} for r in runs
            ]
            check(counts[0] == counts[1], "%s: counts differ between runs" % name)
            if name == "cli-m1024":
                builds = {}
                for rec in tracer.spans:
                    if rec["name"] == "quadrature.grid_operator":
                        builds[rec["op"]] = builds.get(rec["op"], 0) + 1
                # ops 1-3 are the energy, gradient and hessian-form jobs
                check([builds.get(op, 0) for op in (1, 2, 3, 4)] == [1, 1, 1, 0],
                      "cli: grid builds per job %s" % builds)
            if name == "flow-m256":
                per_step = result["metrics"]["flow.first_variation_calls_per_step"]["value"]
                check(per_step == (2 * runs[0][0].K + 1) * 3,
                      "flow: %r first variations per step" % per_step)
            print("selftest %s ok" % name, flush=True)
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
