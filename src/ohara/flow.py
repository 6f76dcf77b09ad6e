"""L2-projected gradient descent of the energy over closed curves.

The descent direction is the energy gradient projected onto a finite
trigonometric basis (2K+1 modes per coordinate, orthonormal in L2 of
arclength).  Its coefficients are the first variations against the basis
fields, all read off one pass over the pair grid: the first variation is a
linear form in the field's derivative, and the grid pass gives its dual
vectors (:meth:`GridOperator.first_variation_dual`).  Steps
are plain explicit Euler with backtracking on the energy; every candidate
curve passes through the full arclength reparametrization and bi-Lipschitz
validation, so a step that destroys embeddedness is rejected the same way as
one that increases energy.

With ``fixed_length=True`` (the default of :func:`flow_step`, and always
so in :func:`run_flow`) the dilation component of the gradient is projected
out and each accepted curve is rescaled to the initial length, which pins
down the scaling degree of freedom for parameter ranges where the energy is
not scale-invariant.
"""

import csv
import os
from dataclasses import dataclass, field as dc_field

import numpy as np

from .curve import ClosedCurve, Field, from_samples, save_curve
from .errors import NumericalError, ValidationError
from .quadrature import GridOperator, energy
from .spectral import spectral_derivative

__all__ = [
    "FlowState",
    "circle_distance",
    "flow_step",
    "l2_gradient",
    "run_flow",
]

#: initial step size of :func:`run_flow`
DT0 = 0.05
DT_MIN = 1.0e-12
DT_MAX = 1.0

#: growth factor applied to dt after an accepted step
_DT_GROW = 1.3


@dataclass
class FlowState:
    """Mutable record of a gradient-descent run."""

    curve: object
    dt: float
    step: int = 0
    energies: list = dc_field(default_factory=list)
    grad_norms: list = dc_field(default_factory=list)
    halted: bool = False
    diagnostic: str = ""
    #: the grid operator of the last curve whose energy a step computed
    _op: object = dc_field(default=None, repr=False)


def _basis_matrix(curve, K):
    """Orthonormal L2 trig basis values, shape (2K+1, M).

    Needs ``2K < M``: at ``K = M/2`` the sine row vanishes on the grid and
    the top cosine row has twice the unit norm.
    """
    if K < 0 or 2 * K >= curve.M:
        raise ValidationError("need 0 <= 2K < M")
    L, s = curve.L, curve.s
    rows = [np.full(curve.M, 1.0 / np.sqrt(L))]
    for m in range(1, K + 1):
        w = 2.0 * np.pi * m * s / L
        rows.append(np.sqrt(2.0 / L) * np.cos(w))
        rows.append(np.sqrt(2.0 / L) * np.sin(w))
    return np.stack(rows)


def l2_gradient(curve, params, K=8, op=None, with_coefficients=False):
    """L2 gradient of the energy projected on 2K+1 trig modes per coordinate.

    Coefficient ``c[k, m]`` is the first variation of E along basis field
    ``b_k e_m``; since the basis is orthonormal the projected gradient is
    ``sum_k c[k, m] b_k`` in each coordinate ``m``.  All coefficients come
    from one grid pass, :meth:`GridOperator.first_variation_dual`, as dot
    products with the derivatives of the basis rows.  The mode-0 row is
    constant, its derivative is exactly 0, and so are its coefficients.
    """
    B = _basis_matrix(curve, K)
    if op is None:
        op = GridOperator(curve, params)
    dual = op.first_variation_dual()
    d1 = spectral_derivative(B[1:].T, curve.L)
    d2 = spectral_derivative(d1, curve.L)
    coeffs = np.zeros((B.shape[0], curve.n))
    for m in range(curve.n):
        coeffs[1:, m] = dual.along(m, d1, d2)
    grad = Field(curve, B.T @ coeffs)
    if with_coefficients:
        return grad, coeffs
    return grad


def _l2_inner(curve, a, b):
    return curve.h * float(np.sum(a * b))


def _project_out_dilation(curve, gvals):
    """Remove the component along the dilation field (centered positions)."""
    d = curve.positions - curve.positions.mean(axis=0)
    dd = _l2_inner(curve, d, d)
    if dd <= 0.0:
        return gvals
    return gvals - (_l2_inner(curve, gvals, d) / dd) * d


def flow_step(state, params, K=8, fixed_length=True):
    """One backtracking descent step; mutates and returns ``state``.

    Halves dt until the candidate curve is admissible (embedded,
    bi-Lipschitz) and strictly decreases the energy; below ``DT_MIN`` the
    state is marked halted with a diagnostic instead.  dt = 0 leaves the
    curve unchanged.  The accepted candidate's grid operator is kept for the
    next step's gradient.
    """
    cv = state.curve
    if not state.energies:
        state._op = GridOperator(cv, params)
        state.energies.append(state._op.energy()[0])
    e0 = state.energies[-1]
    L0 = cv.L

    op = state._op if state._op is not None and state._op.curve is cv else None
    state._op = None
    grad = l2_gradient(cv, params, K=K, op=op)
    del op  # from here on, at most one grid operator is alive at a time
    gvals = grad.values
    if fixed_length:
        gvals = _project_out_dilation(cv, gvals)
    gnorm = np.sqrt(_l2_inner(cv, gvals, gvals))
    state.grad_norms.append(gnorm)

    if state.dt == 0.0:
        state.step += 1
        state.energies.append(e0)
        return state

    dt = state.dt
    while dt >= DT_MIN:
        try:
            cand = from_samples(cv.positions - dt * gvals)
            if fixed_length and cand.L != L0:
                # uniform scaling preserves the arclength parametrization
                cand = ClosedCurve(cand.positions * (L0 / cand.L), L0)
            op = GridOperator(cand, params)
            e1 = op.energy()[0]
        except (ValidationError, NumericalError):
            dt *= 0.5
            continue
        if e1 < e0:
            state.curve = cand
            state._op = op
            state.dt = min(dt * _DT_GROW, DT_MAX)
            state.step += 1
            state.energies.append(e1)
            return state
        del op
        dt *= 0.5

    state.halted = True
    state.diagnostic = (
        "no descent direction at dt >= %g (gradient norm %.3g)" % (DT_MIN, gnorm)
    )
    return state


def run_flow(curve, params, steps=60, trace_path=None, snapshot_dir=None):
    """Run up to ``steps`` accepted descent steps; returns the FlowState.

    Each step is :func:`flow_step` at its defaults (K = 8 modes, fixed
    length), starting from dt = ``DT0``.  Stops early when backtracking
    bottoms out.  ``trace_path`` writes a CSV with one row per accepted step
    (step, energy, grad_norm, dt); ``snapshot_dir`` saves each accepted curve in the standard JSON format.
    Both destinations are created before the first step, so a path that
    cannot be written raises ``OSError`` before any descent work.
    """
    if snapshot_dir is not None:
        os.makedirs(snapshot_dir, exist_ok=True)
    if trace_path is not None:
        with open(trace_path, "w"):
            pass
    state = FlowState(curve=curve, dt=DT0)
    state.energies.append(energy(curve, params))
    rows = [(0, state.energies[0], float("nan"), DT0)]
    if snapshot_dir is not None:
        save_curve(curve, os.path.join(snapshot_dir, "step_0000.json"))
    for _ in range(steps):
        flow_step(state, params)
        if state.halted:
            break
        rows.append((state.step, state.energies[-1], state.grad_norms[-1], state.dt))
        if snapshot_dir is not None:
            save_curve(
                state.curve,
                os.path.join(snapshot_dir, "step_%04d.json" % state.step),
            )
    if trace_path is not None:
        with open(trace_path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["step", "energy", "grad_norm", "dt"])
            w.writerows(rows)
    return state


def circle_distance(curve):
    """L2 distance to the round circle of the same length, rigidly aligned.

    Both curves are centered; the reference circle lives in the plane of the
    first two coordinates.  The alignment is the best proper rotation
    (Kabsch, one SVD).  A cyclic phase shift of the sampled reference is a
    rotation in its plane, so that search covers every shift as well.
    """
    M, n = curve.M, curve.n
    r = curve.L / (2.0 * np.pi)
    th = 2.0 * np.pi * np.arange(M) / M
    q = np.zeros((M, n))
    q[:, 0] = r * np.cos(th)
    q[:, 1] = r * np.sin(th)
    f = curve.positions - curve.positions.mean(axis=0)

    U, _, Vt = np.linalg.svd(q.T @ f)
    sign = np.ones(n)
    sign[-1] = np.sign(np.linalg.det(U @ Vt))
    R = (U * sign) @ Vt
    return float(np.sqrt(curve.h * np.sum((f - q @ R) ** 2)))
