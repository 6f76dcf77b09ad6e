"""The benchmark workloads: seeded inputs, timed operations and their checks.

Every workload is a closed loop with one caller: the next operation starts
when the previous one has returned.  ``setup()`` builds the inputs from the
seed, ``iterate()`` runs one iteration of timed operations, and every
operation's output is checked; a failed check counts as a failed operation.

Why each workload exists:

* ``cli-m1024`` -- the four CLI jobs users run (``energy``, ``gradient``,
  ``hessian-form``, ``norms``) at ``(alpha, p) = (2, 1)`` on a 3-D curve file
  with M = 1024 written as *non-arclength* samples (uniform in angle, the
  way ``random_curve`` draws them before reparametrizing).  Every job pays
  ``load_curve`` -> ``from_samples`` with the full reparametrization, as it
  does on user data, and builds one ``GridOperator`` on 8 MiB blocks;
  ``hessian-form`` holds the most live blocks and sets the peak memory.
  Arclength reparametrization and one-shot grid builds show here.
* ``flow-m256`` -- episodes of ``flow_step`` calls (K = 8,
  ``fixed_length=True``) from ``random_curve(seed, M=256, n=3)``: many
  small cache-resident grids, (2K+1)n = 51 first variations per step, one
  grid build per admissible candidate and one reparametrization per
  backtracking trial.  The only workload of the gradient assembly and of
  operator reuse inside ``flow_step``.
* ``sweep-m512`` -- one curve and one ``GridOperator`` built in set-up,
  then ``first_variation`` and ``second_variation`` over a cycle of seeded
  ``(phi, psi)`` pairs at M = 512, ``(alpha, p) = (2.5, 1.5)``.  Build is
  amortized and reparametrization bypassed, so all time goes to the
  variation integrands and the quadrature; non-integer p keeps the power
  paths that p = 1 simplifies.  A change that helps reuse but hurts
  one-shot builds, or the reverse, splits this workload from ``cli-m1024``.
"""

import contextlib
import copy
import gc
import io
import json
import math
import os
from time import perf_counter

import numpy as np

from ohara import cli
from ohara.curve import Field, random_curve, random_field
from ohara.errors import NumericalError, ValidationError
from ohara.flow import FlowState, flow_step
from ohara.kernels import EnergyParams
from ohara.quadrature import GridOperator, energy

from spans import NullTracer

#: relative bound on drift from the reference values (energies, variations)
REL_BOUND = 1.0e-12

#: the Moebius energy (alpha, p) = (2, 1) is minimized by the round circle
CIRCLE_MINIMUM = 4.0


def _rel_gap(value, ref):
    return abs(value - ref) / max(abs(ref), 1.0e-300)


def _numbers(doc):
    if isinstance(doc, dict):
        for v in doc.values():
            yield from _numbers(v)
    elif isinstance(doc, list):
        for v in doc:
            yield from _numbers(v)
    elif isinstance(doc, (int, float)):
        yield doc


def _lookup(doc, dotted):
    for key in dotted.split("."):
        doc = doc[key]
    return doc


class Workload:
    """Shared bookkeeping: per-operation timings, attempts and failures."""

    name = ""

    def __init__(self, seed, workdir=".", reference=None, tracer=None):
        self.seed = seed
        self.workdir = workdir
        self.reference = reference or {}
        self.tracer = tracer or NullTracer()
        self.samples = {}
        self.attempted = 0
        self.failures = []
        self.busy = 0.0

    def record(self, metric, seconds, problems):
        """Count one timed operation; only successful ones give a sample.

        Then collect cyclic garbage (curves and their fields reference each
        other), outside the timing, so that peak memory is the operations'
        live data and not a matter of when the collector last ran.
        """
        self.attempted += 1
        self.busy += seconds
        if problems:
            self.failures.append({"op": metric, "problems": problems})
        else:
            self.samples.setdefault(metric, []).append(seconds)
        gc.collect()

    def _check_close(self, problems, what, value, ref):
        if ref is not None and not _rel_gap(value, ref) <= REL_BOUND:
            problems.append("%s = %r differs from reference %r" % (what, value, ref))

    @property
    def flow_steps(self):
        return 0


# -- cli-m1024 -----------------------------------------------------------------

#: (subcommand, end-to-end metric, JSON fields compared with the reference)
CLI_JOBS = (
    ("energy", "energy_s", ("E", "L")),
    ("gradient", "gradient_s", ("delta_E",)),
    ("hessian-form", "hessian_s", ("delta2_E",)),
    ("norms", "norms_s", tuple(
        "%s.%s" % (f, n)
        for f in ("tau", "phi_deriv")
        for n in ("gagliardo", "holder", "sobolev_linf")
    )),
)


def angle_samples(seed, M, n=3, modes=5, amplitude=0.1):
    """The samples ``random_curve`` draws, before it reparametrizes them.

    Uniform in angle, hence not uniform in arclength.
    """
    rng = np.random.default_rng(seed)
    theta = 2.0 * np.pi * np.arange(M) / M
    pts = np.zeros((M, n))
    pts[:, 0] = np.cos(theta)
    pts[:, 1] = np.sin(theta)
    for c in range(n):
        for m in range(1, modes + 1):
            a, b = rng.normal(size=2) * amplitude * 0.5 ** (m - 1)
            if m == 1 and c < 2:
                continue
            pts[:, c] += a * np.cos(m * theta) + b * np.sin(m * theta)
    return pts


class CliJobs(Workload):
    name = "cli-m1024"

    def __init__(self, seed, M=1024, **kw):
        super().__init__(seed, **kw)
        self.M = M
        self.path = os.path.join(self.workdir, "cli-curve-%d.json" % seed)
        self.first_output = {}
        self.outputs = {}

    def setup(self):
        """Write the curve file, then run one ``energy`` job on it.

        The job makes set-up time program work, not only a file write, and
        the first timed round then pays no first-call costs that later
        rounds do not.
        """
        pts = angle_samples(self.seed, self.M)
        with open(self.path, "w") as fh:
            json.dump({"dimension": 3, "points": pts.tolist(), "closed": True}, fh)
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(self._argv("energy"))
        if rc != 0:
            raise RuntimeError("set-up energy job exited with code %d" % rc)

    def _argv(self, job):
        return [job, "--curve", self.path, "--alpha", "2", "--p", "1",
                "--seed", str(self.seed)]

    def iterate(self):
        for job, metric, fields in CLI_JOBS:
            self.tracer.begin_op()
            buf = io.StringIO()
            t0 = perf_counter()
            with contextlib.redirect_stdout(buf), self.tracer.span("cli.main"):
                rc = cli.main(self._argv(job))
            seconds = perf_counter() - t0
            self.record(metric, seconds, self._check(job, fields, rc, buf.getvalue()))

    def _check(self, job, fields, rc, text):
        if rc != 0:
            return ["exit code %d" % rc]
        try:
            doc = json.loads(text)
            values = {f: float(_lookup(doc, f)) for f in fields}
            floor = CIRCLE_MINIMUM - float(doc["estimate"]) if job == "energy" else None
        except (ValueError, KeyError, TypeError) as exc:
            return ["unusable JSON output: %s" % exc]
        problems = []
        if not all(math.isfinite(x) for x in _numbers(doc)):
            problems.append("non-finite number in JSON output")
        if floor is not None and not values["E"] >= floor:
            problems.append("E = %r below the round-circle minimum" % values["E"])
        if self.first_output.setdefault(job, text) != text:
            problems.append("output differs from the first run of the job")
        ref = self.reference.get(job, {})
        for f in fields:
            self._check_close(problems, "%s %s" % (job, f), values[f], ref.get(f))
        self.outputs.setdefault(job, values)
        return problems

    def reference_values(self):
        return self.outputs


# -- flow-m256 -----------------------------------------------------------------

FLOW_PARAMS = EnergyParams(2.0, 1.0)
#: initial step size, as in ``run_flow``
FLOW_DT0 = 0.05


class FlowSteps(Workload):
    name = "flow-m256"

    def __init__(self, seed, M=256, steps=5, K=8, **kw):
        super().__init__(seed, **kw)
        self.M, self.steps, self.K = M, steps, K
        self.accepted = 0
        self.first_energies = None

    def setup(self):
        self.curve = random_curve(self.seed, M=self.M, n=3)
        self.e0 = energy(self.curve, FLOW_PARAMS)

    def iterate(self):
        """One episode of ``steps`` flow steps from the set-up curve.

        Each episode starts from a copy of the curve as ``run_flow`` holds
        it after its initial energy, so every episode does the same work.
        """
        state = FlowState(curve=copy.deepcopy(self.curve), dt=FLOW_DT0)
        state.energies.append(self.e0)
        ref = self.reference.get("energies")
        energies = []
        for i in range(self.steps):
            self.tracer.begin_op()
            before = state.energies[-1]
            problems = []
            t0 = perf_counter()
            try:
                with self.tracer.span("flow.flow_step"):
                    flow_step(state, FLOW_PARAMS, K=self.K, fixed_length=True)
            except (ValidationError, NumericalError) as exc:
                problems.append("flow_step raised %r" % exc)
            seconds = perf_counter() - t0
            if not problems and state.halted:
                problems.append("halted: " + state.diagnostic)
            if problems:
                self.record("flow_step_s", seconds, problems)
                break
            e1 = state.energies[-1]
            energies.append(e1)
            if not (math.isfinite(e1) and e1 < before):
                problems.append("energy %r did not decrease from %r" % (e1, before))
            if ref is not None:
                if i >= len(ref):
                    problems.append("more accepted steps than the reference")
                else:
                    self._check_close(problems, "step %d energy" % (i + 1), e1, ref[i])
            first = self.first_energies
            if first is not None and (i >= len(first) or e1 != first[i]):
                problems.append("step %d differs from the first episode" % (i + 1))
            self.record("flow_step_s", seconds, problems)
            self.accepted += 1
        if self.first_energies is None:
            self.first_energies = energies

    @property
    def flow_steps(self):
        return self.accepted

    def reference_values(self):
        return {"energies": self.first_energies}


# -- sweep-m512 ----------------------------------------------------------------

SWEEP_PARAMS = EnergyParams(2.5, 1.5)


class VariationSweep(Workload):
    name = "sweep-m512"

    def __init__(self, seed, M=512, pairs=16, **kw):
        super().__init__(seed, **kw)
        self.M, self.pairs = M, pairs
        self.index = 0
        self.first = {}

    def setup(self):
        self.curve = random_curve(self.seed, M=self.M, n=3)
        self.op = GridOperator(self.curve, SWEEP_PARAMS)
        self.fields = [
            tuple(random_field(self.curve, seed=[self.seed, i, k]).values for k in (0, 1))
            for i in range(self.pairs)
        ]

    def iterate(self):
        i = self.index % self.pairs
        self.index += 1
        phi, psi = (Field(self.curve, v) for v in self.fields[i])
        for metric, fn in (
            ("first_variation_s", lambda: self.op.first_variation(phi)),
            ("second_variation_s", lambda: self.op.second_variation(phi, psi)),
        ):
            self.tracer.begin_op()
            problems = []
            t0 = perf_counter()
            try:
                value = fn()
            except (ValidationError, NumericalError) as exc:
                value = math.nan
                problems.append("raised %r" % exc)
            seconds = perf_counter() - t0
            key = metric[: -len("_s")]
            if not problems:
                if not math.isfinite(value):
                    problems.append("non-finite %s" % key)
                ref = self.reference.get(key)
                self._check_close(problems, "%s[%d]" % (key, i), value,
                                  ref[i] if ref else None)
                if self.first.setdefault((key, i), value) != value:
                    problems.append("%s[%d] differs from the first cycle" % (key, i))
            self.record(metric, seconds, problems)

    def reference_values(self):
        return {
            key: [self.first[(key, i)] for i in range(self.pairs)]
            for key in ("first_variation", "second_variation")
        }


WORKLOADS = {cls.name: cls for cls in (CliJobs, FlowSteps, VariationSweep)}
