"""Projected gradient descent: gradient assembly, stepping, circle distance."""

import csv

import numpy as np
import pytest

from ohara import flow
from ohara.curve import (
    ClosedCurve, Field, circle, from_samples, load_curve, random_curve, random_field,
)
from ohara.errors import NumericalError, ValidationError
from ohara.flow import (
    DT_MAX,
    DT_MIN,
    FlowState,
    _basis_matrix,
    _l2_inner,
    _project_out_dilation,
    circle_distance,
    flow_step,
    l2_gradient,
    run_flow,
)
from ohara._pairs import PairSet, map_chunks
from ohara.diagonal import g_limit_weights
from ohara.kernels import EnergyParams
from ohara.quadrature import (
    FirstVariationDual, GridOperator, _band_pieces, _row_totals, energy,
)
from ohara.variations import Blocks
from ohara.verify import fd_energy_gradient

from conftest import perturbed_circle, rel, whole_rows


def test_gradient_near_zero_on_circle(circle128, params21):
    # the round circle is the minimizer: the projected gradient is numerical
    # noise relative to the energy scale
    grad = l2_gradient(circle128, params21)
    sup = float(np.abs(grad.values).max())
    assert sup < 1.0e-10


def test_gradient_translation_components_vanish(params21, bumpy256):
    # mode-0 basis function is constant: translation invariance forces those
    # coefficients to zero exactly
    _, coeffs = l2_gradient(bumpy256, params21, with_coefficients=True)
    assert coeffs.shape == (17, 2)
    assert np.all(coeffs[0] == 0.0)


def test_gradient_coefficients_are_directional_derivatives(params21, bumpy256):
    # each coefficient is delta E against the orthonormal basis field; check
    # one mode per coordinate against the FD oracle
    from ohara.curve import Field
    from ohara.flow import _basis_matrix

    cv = bumpy256
    B = _basis_matrix(cv, 8)
    _, coeffs = l2_gradient(cv, params21, with_coefficients=True)
    for k, m in [(1, 0), (4, 1), (9, 0)]:
        vals = np.zeros((cv.M, 2))
        vals[:, m] = B[k]
        _, ref = fd_energy_gradient(cv, Field(cv, vals), params21)
        assert abs(coeffs[k, m] - ref) <= 1.0e-6 * max(abs(ref), 1.0)


def _per_field_coefficients(curve, params, K):
    """The gradient coefficients by one first variation per basis field."""
    B = _basis_matrix(curve, K)
    op = GridOperator(curve, params)
    coeffs = np.empty((B.shape[0], curve.n))
    for k in range(B.shape[0]):
        for m in range(curve.n):
            vals = np.zeros((curve.M, curve.n))
            vals[:, m] = B[k]
            coeffs[k, m] = op.first_variation(Field(curve, vals))
    return coeffs


@pytest.mark.parametrize("K", [0, 3, 8])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("alpha,p", [(2.0, 1.0), (2.5, 1.5), (2.0, 2.0)])
def test_gradient_coefficients_match_per_field_first_variations(alpha, p, n, K):
    cv = random_curve(1, M=64, n=n)
    pr = EnergyParams(alpha, p)
    ref = _per_field_coefficients(cv, pr, K)
    _, coeffs = l2_gradient(cv, pr, K=K, with_coefficients=True)
    assert coeffs.shape == ref.shape
    assert np.abs(coeffs - ref).max() <= 1.0e-12 * np.abs(ref).max()


@pytest.mark.parametrize("alpha,p", [(2.0, 1.0), (2.5, 1.5), (2.0, 2.0)])
def test_first_variation_dual_matches_first_variation(alpha, p):
    # random_field has no Nyquist content, where the dual form is exact
    cv = random_curve(2, M=96, n=3)
    op = GridOperator(cv, EnergyParams(alpha, p))
    dual = op.first_variation_dual()
    fields = [random_field(cv, seed) for seed in range(6)]
    ref = np.array([op.first_variation(f) for f in fields])
    got = np.array([dual(f) for f in fields])
    assert np.abs(got - ref).max() <= 1.0e-12 * np.abs(ref).max()
    const = Field(cv, np.tile([0.7, -1.3, 2.1], (cv.M, 1)))
    assert dual(const) == 0.0


def _whole_grid_dual(op):
    """The dual on whole (M, M) grids: row l gathers the pair at row l - k,
    column k of every coefficient grid, the pair whose first point is s_l."""
    cv, pr = op.curve, op.params
    M, h, p = cv.M, cv.h, pr.p

    def totals(F, W0):
        rows = whole_rows(F, op.band)
        pieces = _band_pieces(rows.cols, cv, op.band, op.gamma, W0)
        return _row_totals(rows, cv, op.band, pieces)[0]

    w, w0 = totals(np.eye(M), np.zeros(M)), totals(np.zeros((M, M)), np.ones(M))[0]
    k = slice(op.band + 1, M - op.band)
    j = np.arange(M)[:, None]
    ps = PairSet(cv, slice(None), k)
    back = (j - np.arange(M)[k]) % M

    def at_i(a):
        return np.take_along_axis(a, back, axis=0)

    def dual(a):
        return (at_i(a) - a).sum(axis=1)

    # the geometry blocks evaluated on the whole grid, apart from the operator
    with np.errstate(divide="ignore", invalid="ignore"):
        g = Blocks(PairSet(cv, slice(None), slice(None)), params=pr).geometry()
    m = g["malpha"][:, k]
    hmp1 = h * w[k] * np.power(m, p - 1.0)
    p1_ca = g["dphis"][0][:, k] / g["calpha"][:, k]
    cK = -p * hmp1 * (2.0 * p1_ca * g["ntt"][:, k] + pr.alpha * m)
    cN = 2.0 * p * hmp1 * p1_ca
    cT = hmp1 * m
    b = cN * ps.ds / ps.chord2
    Ptau, Ttau = cv.tau_field.prefix()
    prefix, total = np.empty((M, cv.n)), np.empty(cv.n)
    for c in range(cv.n):
        dvec = cv.positions[ps.i, c] - cv.positions[:, c, None]
        itau = Ptau[ps.i, c] - Ptau[:, c, None] + ps.wrap * Ttau[c]
        a = (cK * dvec - cN * itau) / ps.chord2
        prefix[:, c] = dual(a)
        total[c] = np.sum(a * ps.wrap)
    wt, wk = g_limit_weights(cv, pr)
    return FirstVariationDual(
        cv, prefix, total, dual(b), float(np.sum(b * ps.wrap)),
        (at_i(cT) + cT).sum(axis=1) + (h * w0) * wt, (h * w0) * wk,
    )


@pytest.mark.parametrize("alpha,p", [(2.0, 1.0), (2.5, 1.5), (2.0, 2.0)])
def test_row_chunk_dual_matches_the_whole_grid_dual(alpha, p):
    cv = random_curve(0, M=256, n=3)
    op = GridOperator(cv, EnergyParams(alpha, p))
    _, got = l2_gradient(cv, op.params, K=8, op=op, with_coefficients=True)
    whole = _whole_grid_dual(op)
    op.first_variation_dual = lambda: whole
    _, ref = l2_gradient(cv, op.params, K=8, op=op, with_coefficients=True)
    assert np.abs(got - ref).max() <= 5.0e-13 * np.abs(ref).max()


@pytest.mark.parametrize("band", [1, 2, 3])
@pytest.mark.parametrize("alpha,p", [(2.0, 1.0), (2.5, 1.5)])
def test_row_weights_are_the_identity_rows_bits(uneven_chunks, band, alpha, p):
    # the weights read off unit rows built directly, against the whole-row
    # reduction of row chunks of the identity
    cv = uneven_chunks
    op = GridOperator(cv, EnergyParams(alpha, p), band)

    def totals(F, W0):
        rows = whole_rows(F, band)
        pieces = _band_pieces(rows.cols, cv, band, op.gamma, W0)
        return _row_totals(rows, cv, band, pieces)[0]

    M = cv.M
    w = map_chunks(lambda j0, j1: totals(np.eye(j1 - j0, M, j0), np.zeros(j1 - j0)), M)
    w0 = totals(np.zeros((1, M)), np.ones(1))[0]
    got_w, got_w0 = op._row_weights()
    assert np.array_equal(got_w, np.concatenate(w))
    assert got_w0 == w0


def test_basis_matrix_needs_fewer_modes_than_half_the_grid():
    # at K = M/2 the sine row vanishes on the grid and the basis is not
    # orthonormal, so it is rejected; K = M/2 - 1 is orthonormal
    from ohara.errors import ValidationError
    from ohara.flow import _basis_matrix

    cv = circle(32)
    with pytest.raises(ValidationError):
        _basis_matrix(cv, cv.M // 2)
    B = _basis_matrix(cv, cv.M // 2 - 1)
    gram = cv.h * B @ B.T
    assert np.abs(gram - np.eye(B.shape[0])).max() <= 1.0e-12


def test_flow_step_dt_zero_is_identity(params21, bumpy256):
    state = FlowState(curve=bumpy256, dt=0.0)
    out = flow_step(state, params21)
    assert out is state
    assert state.step == 1
    assert state.curve is bumpy256
    assert state.energies[0] == state.energies[1]


def test_flow_descends_and_fixes_length(params21):
    cv = perturbed_circle(128, amp=0.04)
    L0 = cv.L
    state = FlowState(curve=cv, dt=0.05)
    for _ in range(5):
        flow_step(state, params21)
    assert not state.halted
    assert state.step == 5
    e = state.energies
    assert all(b < a for a, b in zip(e, e[1:]))
    assert rel(state.curve.L, L0) < 1.0e-12
    assert state.dt <= DT_MAX


def test_flow_halts_on_minimizer(params21):
    # at the round circle any "decrease" is rounding noise; dt collapses
    # within a few steps and the run halts with the documented diagnostic
    state = FlowState(curve=circle(128), dt=0.05)
    for _ in range(30):
        flow_step(state, params21)
        if state.halted:
            break
    assert state.halted
    assert "no descent direction" in state.diagnostic
    # the curve barely moved while trying
    assert circle_distance(state.curve) < 1.0e-6 * state.curve.L


def test_run_flow_trace_and_snapshots(tmp_path, params21):
    cv = perturbed_circle(128, amp=0.03)
    trace = tmp_path / "trace.csv"
    snaps = tmp_path / "steps"
    state = run_flow(
        cv, params21, steps=3,
        trace_path=str(trace), snapshot_dir=str(snaps),
    )
    assert state.step == 3
    with open(trace) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["step", "energy", "grad_norm", "dt"]
    assert len(rows) == 1 + 1 + 3  # header, seed row, accepted steps
    energies = [float(r[1]) for r in rows[1:]]
    assert all(b < a for a, b in zip(energies, energies[1:]))
    back = load_curve(str(snaps / "step_0003.json"))
    assert rel(back.L, state.curve.L) < 1.0e-12
    assert np.allclose(back.positions, state.curve.positions, atol=1.0e-12)


def test_circle_distance_zero_for_rigid_circle():
    cv = circle(128)
    assert circle_distance(cv) < 1.0e-12
    # translated + rotated copy in 3D: still a round circle
    pts3 = np.zeros((128, 3))
    pts3[:, :2] = cv.positions
    ax = np.array([1.0, 0.0, 0.0])
    K = np.array([[0, -ax[2], ax[1]], [ax[2], 0, -ax[0]], [-ax[1], ax[0], 0]])
    R = np.eye(3) + np.sin(0.9) * K + (1 - np.cos(0.9)) * (K @ K)
    moved = ClosedCurve(pts3 @ R.T + np.array([5.0, -2.0, 1.0]), cv.L)
    assert circle_distance(moved) < 1.0e-12


def test_circle_distance_scales_with_perturbation():
    d_small = circle_distance(perturbed_circle(128, amp=0.02))
    d_large = circle_distance(perturbed_circle(128, amp=0.06))
    assert 0.0 < d_small < d_large
    assert d_large < 0.5  # still recognizably a circle


def _flow_step_building_every_operator(state, params, K=8, dt_min=DT_MIN):
    """``flow_step`` with ``fixed_length``, a fresh grid for every energy and gradient."""
    cv = state.curve
    if not state.energies:
        state.energies.append(energy(cv, params))
    e0, L0 = state.energies[-1], cv.L
    gvals = _project_out_dilation(cv, l2_gradient(cv, params, K=K).values)
    state.grad_norms.append(np.sqrt(_l2_inner(cv, gvals, gvals)))
    dt = state.dt
    while dt >= dt_min:
        try:
            cand = from_samples(cv.positions - dt * gvals)
            if cand.L != L0:
                cand = ClosedCurve(cand.positions * (L0 / cand.L), L0)
            e1 = energy(cand, params)
        except (ValidationError, NumericalError):
            dt *= 0.5
            continue
        if e1 < e0:
            state.curve, state.dt = cand, min(dt * 1.3, DT_MAX)
            state.step += 1
            state.energies.append(e1)
            return state
        dt *= 0.5
    state.halted = True
    return state


def test_flow_step_reuses_the_accepted_operator(params21, monkeypatch):
    counts = {"builds": 0, "trials": 0}

    def counted_operator(*args, **kwargs):
        counts["builds"] += 1
        return GridOperator(*args, **kwargs)

    def counted_from_samples(points):
        cand = from_samples(points)
        counts["trials"] += 1  # only trials whose candidate gets an energy
        return cand

    cv = perturbed_circle(128, amp=0.04)
    ref = FlowState(curve=cv, dt=0.05)
    for _ in range(5):
        _flow_step_building_every_operator(ref, params21)
    monkeypatch.setattr(flow, "GridOperator", counted_operator)
    monkeypatch.setattr(flow, "from_samples", counted_from_samples)
    state = FlowState(curve=cv, dt=0.05)
    for _ in range(5):
        flow_step(state, params21)
    assert not state.halted and state.step == 5
    # one build for the first energy, then one per trial: the gradient of
    # each accepted curve runs on the operator its energy was taken from
    assert counts["builds"] == 1 + counts["trials"]
    assert counts["trials"] >= 5
    assert state.energies == ref.energies
    assert state.grad_norms == ref.grad_norms
    assert state.dt == ref.dt


def _circle_distance_by_shift(curve):
    """``circle_distance`` with one SVD per cyclic shift."""
    M, n = curve.M, curve.n
    r = curve.L / (2.0 * np.pi)
    th = 2.0 * np.pi * np.arange(M) / M
    q = np.zeros((M, n))
    q[:, 0], q[:, 1] = r * np.cos(th), r * np.sin(th)
    f = curve.positions - curve.positions.mean(axis=0)
    best = np.inf
    for shift in range(M):
        qs = np.roll(q, shift, axis=0)
        U, _, Vt = np.linalg.svd(qs.T @ f)
        S = np.eye(n)
        S[-1, -1] = np.sign(np.linalg.det(U @ Vt))
        best = min(best, curve.h * float(np.sum((f - qs @ (U @ S @ Vt)) ** 2)))
    return float(np.sqrt(best))


def _clockwise(cv):
    """The mirror image: no proper rotation aligns it with the reference."""
    return ClosedCurve(cv.positions * [1.0, -1.0], cv.L)


@pytest.mark.parametrize("M", [64, 128])
@pytest.mark.parametrize("make", [
    lambda M: perturbed_circle(M, amp=0.02, mode=3),
    lambda M: perturbed_circle(M, amp=0.06, mode=2),
    lambda M: perturbed_circle(M, amp=0.03, mode=4),
    lambda M: random_curve(1, M=M, n=3),
    lambda M: random_curve(2, M=M, n=3),
    lambda M: _clockwise(perturbed_circle(M, amp=0.02)),
], ids=["planar-3", "planar-2", "planar-4", "spatial-1", "spatial-2", "clockwise"])
def test_circle_distance_matches_the_shift_loop(M, make):
    cv = make(M)
    ref = _circle_distance_by_shift(cv)
    assert ref > 0.0
    assert abs(circle_distance(cv) - ref) <= 1.0e-12 * ref
