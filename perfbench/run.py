"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cli-m1024 --seed 0 --seconds 25 --trace 0

Builds the workload's inputs from ``--seed``, measures complete iterations
until ``--seconds`` have passed, checks every operation's output, and prints
two JSON lines on stdout: a ``detail`` document (every end-to-end timing
with its sample count and tail percentile, the error rate, the environment)
and, last, the result ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
timing wrappers are installed at each layer boundary of ``ohara`` after
set-up, the metrics are the per-layer ones, and the spans are written to
``perfbench/results/``.  Run each workload in its own process: peak memory
and set-up time belong to that process.
"""

import argparse
import gc
import os
import sys

#: BLAS/OpenMP threads; at most the core count.  On a 2-core machine default
#: OpenBLAS threading made the M = 1024 CLI energy job slower and noisier.
THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS

import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from importlib import metadata  # noqa: E402
from time import perf_counter  # noqa: E402

import spans  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

#: set-up is repeated at least ``SETUP_REPS`` times and for at least
#: ``SETUP_MIN_S`` seconds (at most ``SETUP_MAX_REPS`` times); ``setup_s`` is
#: the median, so the shorter set-ups give more samples
SETUP_REPS = 3
SETUP_MIN_S = 5.0
SETUP_MAX_REPS = 100


def tail_percentile(values):
    """``(q, value)`` for the highest multiple-of-5 percentile with at least
    ten samples beyond it, or None below 20 samples."""
    n = len(values)
    q = int(100.0 * (1.0 - 10.0 / n)) // 5 * 5 if n >= 20 else 0
    if q <= 50:
        return None
    return q, statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def environment(seed):
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": versions["numpy"],
        "scipy": versions["scipy"],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_pins": {v: os.environ[v] for v in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": platform.machine(),
    }


def measure(wl, seconds, tracer=None):
    """Set up repeatedly, then iterate for ``seconds``."""
    setup = []
    while len(setup) < SETUP_REPS or (
        sum(setup) < SETUP_MIN_S and len(setup) < SETUP_MAX_REPS
    ):
        t0 = perf_counter()
        wl.setup()
        setup.append(perf_counter() - t0)
        # the replaced state of the previous set-up is cyclic garbage (curves
        # and their fields reference each other): free it, outside the timing,
        # so that peak memory does not grow with the number of set-ups
        gc.collect()
    if tracer is not None:
        spans.install(tracer)
    iters = []
    start = perf_counter()
    try:
        while True:
            wl.busy = 0.0
            wl.iterate()
            iters.append(wl.busy)
            if perf_counter() - start >= seconds:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    return setup, iters


def detail(wl, setup, iters, peak_rss_mb):
    ops = {}
    for metric, values in sorted(wl.samples.items()):
        ops[metric] = {"median": statistics.median(values), "n": len(values), "unit": "s"}
        tail = tail_percentile(values)
        if tail is not None:
            ops[metric]["p%d" % tail[0]] = tail[1]
    failed = len(wl.failures)
    return {
        "workload": wl.name,
        "ops": ops,
        "iteration_s": {"median": statistics.median(iters), "n": len(iters), "unit": "s"},
        "setup_s": {"median": statistics.median(setup), "n": len(setup), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        "error_rate": {"value": failed / wl.attempted, "failed": failed,
                       "attempted": wl.attempted},
        "failures": wl.failures[:5],
    }


def run_workload(wl, seconds, tracer=None):
    """Measure ``wl``; returns the detail document and the result object.

    The result's metrics are the end-to-end ones, or with a ``tracer`` the
    per-layer ones.
    """
    setup, iters = measure(wl, seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    doc = detail(wl, setup, iters, peak_rss_mb)
    doc["trace"] = int(tracer is not None)
    if tracer is not None:
        metrics = spans.layer_metrics(tracer.spans, len(iters), wl.flow_steps)
        metrics["trace.iteration_s"] = {"value": statistics.median(iters), "unit": "s"}
        metrics["trace.spans"] = {"value": len(tracer.spans) / len(iters), "unit": "count"}
    else:
        metrics = {
            "iteration_s": {"value": doc["iteration_s"]["median"], "unit": "s"},
            "setup_s": {"value": doc["setup_s"]["median"], "unit": "s"},
            "peak_rss_mb": doc["peak_rss_mb"],
        }
    result = {
        "correct": not wl.failures,
        "attempted": wl.attempted,
        "failed": len(wl.failures),
        "metrics": metrics,
    }
    return doc, result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not os.path.isdir(os.path.join(SRC, "ohara")):
        sys.stderr.write("error: no ohara sources under %s\n" % SRC)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error("unknown workload %r (choose from %s)" % (args.workload, ", ".join(WORKLOADS)))
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)["seeds"].get(str(args.seed), {}).get(args.workload)
    os.makedirs(RESULTS, exist_ok=True)
    tracer = spans.Tracer() if args.trace else None
    wl = WORKLOADS[args.workload](
        args.seed, workdir=RESULTS, reference=reference, tracer=tracer
    )
    doc, result = run_workload(wl, args.seconds, tracer)
    doc.update(env=environment(args.seed), seconds=args.seconds,
               reference_checked=reference is not None)
    if tracer is not None:
        path = os.path.join(RESULTS, "spans-%s-%d.jsonl" % (wl.name, args.seed))
        tracer.write(path)
        doc["spans_file"] = os.path.relpath(path, ROOT)
    print(json.dumps({"detail": doc}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
