"""Compare the CLI JSON of the working tree with that of a git revision.

Usage: python3 tools/same_bits.py [--rev REV]

Writes a 3-D curve file of M = 256 samples taken uniformly in the curve's
angle parameter, not in arclength, so every job runs the full arclength
reparametrization.  Runs the ``energy``, ``gradient``, ``hessian-form``,
``norms``, ``limits``, ``density --out grid.csv``, ``density --which g
--out grid.csv``, ``density --which h --out grid.csv`` and ``verify
--suite fd`` jobs on it at (alpha, p) = (2, 1) and (2.5, 1.5), and
``flow --out trace.csv`` at (2, 1), whose trace records the energies and
gradient norms of the flow's steps and, through its time steps, each
accept/reject decision (about 3 s per side); and it runs ``energy``,
``gradient`` and ``hessian-form`` at (2.5, 1.5) on an 8-D curve written
the same way: from n = 8 on, a squared chord summed component
by component and one summed by ``einsum`` differ in the last bits.  Each
job runs once with the working tree's ``src`` and once with the ``src`` of
``REV`` (``HEAD`` by default), unpacked with ``git archive`` into a
temporary directory.  The child processes run with one BLAS thread, since
threaded BLAS can change the bits of large matrix products.

Prints, per curve, ``identical`` when every job succeeds and prints, and
writes to its ``--out`` file, the same bytes on both sides, and otherwise
each failed job, each JSON key whose value differs, with its relative gap,
and the number of ``--out`` file lines that differ.  The exit code stays 0
whatever differs, and when ``REV`` names no commit: changes that alter
output bits on purpose are reported, not failed.
"""

import argparse
import io
import itertools
import json
import os
import pathlib
import subprocess
import sys
import tarfile
import tempfile

import numpy as np

M = 256
PARAMS = [("2", "1"), ("2.5", "1.5")]
JOBS = [["energy"], ["gradient"], ["hessian-form"], ["norms"], ["limits"],
        ["density", "--out", "grid.csv"], ["density", "--which", "g", "--out", "grid.csv"],
        ["density", "--which", "h", "--out", "grid.csv"], ["verify", "--suite", "fd"]]
#: ``{dimension: [(job, alpha, p)]}`` of the jobs run on each curve
CURVES = {
    3: [(job, alpha, p) for job in JOBS for alpha, p in PARAMS]
       + [(["flow", "--out", "trace.csv"], "2", "1")],
    8: [(job, "2.5", "1.5") for job in (["energy"], ["gradient"], ["hessian-form"])],
}


def curve_points(M, n=3):
    """``(M, n)`` samples of ``e^{it} + 0.2 e^{-2it}`` lifted by ``0.3 sin 3t``
    and, in the coordinates past the third, by ``0.05 cos ct``, uniform in
    ``t``.  The planar part is injective (0.2 < 1/4), so the curve is
    embedded; its speed is not constant."""
    t = 2.0 * np.pi * np.arange(M) / M
    return np.stack([np.cos(t) + 0.2 * np.cos(2.0 * t), np.sin(t) - 0.2 * np.sin(2.0 * t),
                     0.3 * np.sin(3.0 * t)] + [0.05 * np.cos(c * t) for c in range(3, n)],
                    axis=1)


def run_jobs(src, curve, jobs, workdir):
    """``{(job, alpha, p): (exit code, stdout, stderr, file)}`` of the CLI of
    ``src``; ``file`` is the bytes a job wrote to its ``--out`` path, or None."""
    env = dict(os.environ, PYTHONPATH=str(src), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = {}
    for job, alpha, p in jobs:
        path = pathlib.Path(workdir, job[job.index("--out") + 1]) if "--out" in job else None
        if path is not None:
            path.unlink(missing_ok=True)
        proc = subprocess.run(
            [sys.executable, "-m", "ohara.cli", *job, "--curve", str(curve),
             "--alpha", alpha, "--p", p],
            capture_output=True, text=True, env=env, cwd=workdir)
        written = path.read_bytes() if path is not None and path.exists() else None
        out[(" ".join(job), alpha, p)] = (proc.returncode, proc.stdout, proc.stderr, written)
    return out


def differences(a, b, path=""):
    """``[(key, a value, b value)]`` of the leaves where the JSON values differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        return [d for k in sorted(set(a) | set(b))
                for d in differences(a.get(k), b.get(k), "%s.%s" % (path, k) if path else k)]
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [d for i, (x, y) in enumerate(zip(a, b))
                for d in differences(x, y, "%s[%d]" % (path, i))]
    return [] if a == b else [(path, a, b)]


def describe(key, a, b):
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        gap = abs(a - b) / max(abs(a), abs(b), 1.0e-300)
        return "  %s: %r vs %r, relative gap %.3g" % (key, a, b, gap)
    return "  %s: %.60r vs %.60r" % (key, a, b)


def report(here, there):
    """Lines describing how the job outputs ``here`` and ``there`` differ."""
    lines = []
    for name, (code, out, err, written) in here.items():
        rcode, rout, rerr, rwritten = there[name]
        if code == rcode == 0 and out == rout and written == rwritten:
            continue
        lines.append("%s at (alpha, p) = (%s, %s):" % name)
        if code or rcode:
            # a job that fails on both sides compares nothing
            lines.append("  exit code %d vs %d: %s" % (
                code, rcode, (err or rerr).strip().splitlines()[-1:]))
            continue
        try:
            diffs = differences(json.loads(out), json.loads(rout))
        except ValueError:
            diffs = [("output", out, rout)]
        lines.extend(describe(*d) for d in diffs)
        if written != rwritten:
            a, b = (written or b"").splitlines(), (rwritten or b"").splitlines()
            lines.append("  --out file: %d of %d lines differ" % (
                sum(x != y for x, y in itertools.zip_longest(a, b)), max(len(a), len(b))))
    return lines


def git(*args, **kwargs):
    return subprocess.run(("git",) + args, capture_output=True, **kwargs)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", default="HEAD", help="git revision to compare with")
    args = parser.parse_args()
    root = pathlib.Path(git("rev-parse", "--show-toplevel", text=True).stdout.strip())
    if git("rev-parse", "--verify", "--quiet", args.rev + "^{commit}").returncode:
        print("revision %s does not exist: nothing compared" % args.rev)
        return
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        archive = git("archive", "--format=tar", args.rev, "src", cwd=root).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp / "rev", filter="data")
        reports = []
        for n, jobs in CURVES.items():
            curve = tmp / ("curve%d.json" % n)
            curve.write_text(json.dumps(
                {"dimension": n, "points": curve_points(M, n).tolist(), "closed": True}))
            here = run_jobs(root / "src", curve, jobs, tmp)
            there = run_jobs(tmp / "rev" / "src", curve, jobs, tmp)
            lines = report(here, there)
            reports.append("n = %d, %d jobs: %s" % (
                n, len(jobs), "\n".join(["differ"] + lines) if lines else "identical"))
    print("working tree against %s at M = %d" % (args.rev, M))
    print("\n".join(reports))


if __name__ == "__main__":
    main()
