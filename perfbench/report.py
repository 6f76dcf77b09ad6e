"""Run every workload, untraced and traced, and print all metrics.

    python3 perfbench/report.py [--out FILE]

Each run is a fresh ``run.py`` process with seed ``SEED``, measuring for
``run_seconds`` of ``BENCHMARK.json``.  Prints, per workload, every
end-to-end metric with its unit and sample count (with tracing off), the
error rate with its counts, the tracing overhead (traced minus untraced
iteration time) and every per-layer metric of the traced run.  ``--out``
also writes the collected documents as JSON.
"""

import argparse
import json
import os
import subprocess
import sys

import run

#: the default seed, whose outputs are checked against the reference
SEED = 0


def _run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit("%s failed (exit %d):\n%s" % (" ".join(cmd), proc.returncode,
                                                       proc.stderr))
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def _row(workload, metric, value, unit, note=""):
    print("%-11s %-38s %14.6g %-6s %s" % (workload, metric, value, unit, note))


def main(argv=None):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    collected = {}
    for wl in (w["name"] for w in bench["workloads"]):
        plain, plain_result = _run(wl, SEED, bench["run_seconds"], 0)
        traced, traced_result = _run(wl, SEED, bench["run_seconds"], 1)
        overhead = traced["iteration_s"]["median"] - plain["iteration_s"]["median"]
        collected[wl] = {"untraced": plain, "traced": traced,
                         "per_layer": traced_result["metrics"],
                         "trace_overhead_s": overhead}
        for metric, op in sorted(plain["ops"].items()):
            tails = ", ".join("%s=%.6g" % (k, v) for k, v in op.items() if k[0] == "p")
            _row(wl, metric, op["median"], op["unit"], "n=%d %s" % (op["n"], tails))
        for metric in ("iteration_s", "setup_s"):
            _row(wl, metric, plain[metric]["median"], "s", "n=%d" % plain[metric]["n"])
        _row(wl, "peak_rss_mb", plain["peak_rss_mb"]["value"], "MiB", "n=1")
        err = plain["error_rate"]
        _row(wl, "error_rate", err["value"], "ratio",
             "failed=%d attempted=%d" % (err["failed"], err["attempted"]))
        _row(wl, "trace_overhead_s", overhead, "s",
             "traced %.6g - untraced %.6g per iteration"
             % (traced["iteration_s"]["median"], plain["iteration_s"]["median"]))
        for metric, m in traced_result["metrics"].items():
            _row(wl, metric, m["value"], m["unit"], "traced")
        if not (plain_result["correct"] and traced_result["correct"]):
            print("%s: FAILED operations: %s" % (wl, plain["failures"] + traced["failures"]))
    env = collected[next(iter(collected))]["untraced"]["env"]
    print("env: %s" % json.dumps(env, sort_keys=True))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(collected, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
