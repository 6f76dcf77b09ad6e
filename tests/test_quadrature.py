"""Assembled double integrals: values, error estimates, and invariances."""

import json
import tracemalloc
import warnings

import numpy as np
import pytest

from ohara.curve import (
    ClosedCurve, Field, circle, from_samples, random_curve, random_field,
)
from ohara.errors import ValidationError
from ohara.kernels import EnergyParams
from ohara.quadrature import (
    GridOperator,
    antipodal_motion_term,
    density_grid,
    energy,
    first_variation,
    holder_chain_check,
    save_grid_csv,
    save_grid_json,
    second_variation,
)
from ohara import variations
from ohara.diagonal import g_limit, h_limit
from ohara.quadrature import _band_pieces, _grid_pairs, _integrate, _Rows
from ohara.variations import Blocks
from ohara.verify import fd_energy_gradient, fd_energy_hessian

from conftest import perturbed_circle, rel


# -------------------------------------------------------------------- energy


def test_circle_energy_exact(params21):
    # round unit circle, (2, 1): the energy is 4
    value, est = energy(circle(256), params21, with_estimate=True)
    assert abs(value - 4.0) <= max(est, 1.0e-9)
    assert abs(value - 4.0) < 1.0e-9
    assert est < 1.0e-7


def test_circle_energy_estimate_honest(params21):
    # the reported estimate bounds the true error at several resolutions
    for M in (128, 256, 512):
        value, est = energy(circle(M), params21, with_estimate=True)
        assert abs(value - 4.0) <= est
    v512, e512 = energy(circle(512), params21, with_estimate=True)
    v128, e128 = energy(circle(128), params21, with_estimate=True)
    assert e512 < e128  # refinement tightens the estimate


def test_energy_positive_and_above_circle(params21, bumpy256):
    # the round circle minimizes among same-length loops
    e_bump = energy(bumpy256, params21)
    scaled = ClosedCurve(
        circle(256).positions * (bumpy256.L / (2.0 * np.pi)),
        bumpy256.L,
    )
    assert e_bump > energy(scaled, params21) > 0.0


def test_energy_resolution_stability(params21):
    e1, est1 = energy(perturbed_circle(128), params21, with_estimate=True)
    e2, est2 = energy(perturbed_circle(256), params21, with_estimate=True)
    assert abs(e1 - e2) <= est1 + est2
    assert est2 < est1


def test_energy_scaling_law(bumpy256):
    # E(lambda f) = lambda^(2 - alpha p) E(f)
    cv = bumpy256
    big = ClosedCurve(2.0 * cv.positions, 2.0 * cv.L)
    for a, p in [(2.0, 1.0), (2.4, 1.0), (2.0, 2.0)]:
        pr = EnergyParams(a, p)
        e1, e2 = energy(cv, pr), energy(big, pr)
        assert rel(e2, 2.0 ** (2.0 - a * p) * e1) < 1.0e-8


def test_energy_rigid_invariance(params21):
    cv = random_curve(1, M=128, n=3)
    e0 = energy(cv, params21)
    shifted = ClosedCurve(cv.positions + np.array([0.4, -1.1, 2.2]), cv.L)
    assert rel(energy(shifted, params21), e0) < 1.0e-12
    ax = np.array([0.0, 0.6, 0.8])
    K = np.array([[0, -ax[2], ax[1]], [ax[2], 0, -ax[0]], [-ax[1], ax[0], 0]])
    R = np.eye(3) + np.sin(1.1) * K + (1 - np.cos(1.1)) * (K @ K)
    rotated = ClosedCurve(cv.positions @ R.T, cv.L)
    assert rel(energy(rotated, params21), e0) < 1.0e-7


def test_energy_band_choice_consistent(params21):
    cv = circle(256)
    e2 = energy(cv, params21, band=2)
    e4 = energy(cv, params21, band=4)
    assert rel(e2, e4) < 1.0e-9
    # a band too wide for the grid is rejected before the band model reads
    # its columns, also when passed to an existing operator
    with pytest.raises(ValidationError):
        GridOperator(cv, params21).energy(band=cv.M)


# -------------------------------------------------------------- variations


def test_first_variation_constant_field_zero(params21, bumpy256):
    cv = bumpy256
    const = Field(cv, np.tile([1.0, -2.0], (cv.M, 1)))
    assert abs(first_variation(cv, const, params21)) < 1.0e-12


def test_first_variation_matches_energy_fd(params21):
    cv = perturbed_circle(128)
    phi = random_field(cv, 20)
    got = first_variation(cv, phi, params21)
    _, ref = fd_energy_gradient(cv, phi, params21)
    assert rel(got, ref) < 1.0e-6


def test_first_variation_scale_invariant_critical(params21, bumpy256):
    # alpha p = 2: dilation is a null direction, delta E[f] = 0
    cv = bumpy256
    f = Field(cv, cv.positions - cv.positions.mean(axis=0))
    e0 = energy(cv, params21)
    assert abs(first_variation(cv, f, params21)) < 1.0e-6 * e0


def test_second_variation_matches_energy_fd(params21):
    cv = perturbed_circle(128)
    phi = random_field(cv, 21)
    got = second_variation(cv, phi, phi, params21)
    ref = fd_energy_hessian(cv, phi, phi, params21)
    assert rel(got, ref) < 1.0e-4


def test_second_variation_symmetric(params21):
    cv = perturbed_circle(128)
    phi, psi = random_field(cv, 22), random_field(cv, 23)
    a = second_variation(cv, phi, psi, params21)
    b = second_variation(cv, psi, phi, params21)
    assert rel(a, b) < 1.0e-9


def test_antipodal_motion_term_properties(params21, bumpy256):
    cv = bumpy256
    phi, psi = random_field(cv, 24), random_field(cv, 25)
    const = Field(cv, np.tile([0.0, 1.0], (cv.M, 1)))
    # translations move nothing intrinsically: the line term vanishes
    assert abs(antipodal_motion_term(cv, const, const, params21)) < 1.0e-13
    a = antipodal_motion_term(cv, phi, psi, params21)
    b = antipodal_motion_term(cv, psi, phi, params21)
    assert abs(a - b) <= 1.0e-10 * max(abs(a), 1.0)


def test_second_variation_needs_antipodal_term(params21):
    # without the line term the quadrature misses the FD hessian by percent
    # scale; with it the match is ~1e-7 (checked above); here pin that the
    # term is genuinely nonzero for a generic perturbation
    cv = perturbed_circle(128)
    phi = random_field(cv, 21)
    term = antipodal_motion_term(cv, phi, phi, params21)
    full = second_variation(cv, phi, phi, params21)
    assert abs(term) > 1.0e-4 * abs(full)


@pytest.mark.parametrize("alpha, p", [(2.0, 1.0), (2.0, 2.0), (2.5, 1.5)])
def test_circle_hessian_of_tangential_modes(alpha, p):
    # a tangential field reparametrizes the circle to first order, and the
    # circle's first variation is pure dilation, so for every mode k >= 1
    # delta^2 E(cos(k s) T, cos(k s) T) = (2 - alpha p) E(circle) / 2
    # (0 for the Moebius energy); measured gaps at M = 256 are <= 1.3e-6 E
    cv = circle(256)
    op = GridOperator(cv, EnergyParams(alpha, p))
    E = op.energy()[0]
    exact = (2.0 - alpha * p) * E / 2.0
    for k in (1, 2, 5):
        phi = Field(cv, np.cos(k * cv.s)[:, None] * cv.tau)
        assert abs(op.second_variation(phi, phi) - exact) <= 1.0e-5 * E


def test_moebius_circle_hessian_of_normal_modes(params21):
    # on the unit circle the Moebius energy has
    # delta^2 E(cos(k s) N, cos(k s) N) = (2 pi^2 / 3) k (k^2 - 1), modes
    # k != l are orthogonal, and k = 0 (dilation) and k = 1 (translation plus
    # a tangential field) are null; measured gaps at M = 256 are 1.1e-11 and
    # 1.2e-10 relative for k = 2 and 4 and below 3e-11 for the null values
    cv = circle(256)
    op = GridOperator(cv, params21)

    def mode(k):
        return Field(cv, np.cos(k * cv.s)[:, None] * cv.positions)

    def exact(k):
        return 2.0 * np.pi ** 2 / 3.0 * k * (k * k - 1)

    for k in (2, 4):
        assert rel(op.second_variation(mode(k), mode(k)), exact(k)) <= 1.0e-9
    for k in (0, 1):
        assert abs(op.second_variation(mode(k), mode(k))) <= 1.0e-10
    assert abs(op.second_variation(mode(3), mode(5))) <= 1.0e-10

    # the closed form, independently: a Richardson-extrapolated second
    # difference of the energy along circle + eps cos(2 s) N (gap 2e-9)
    def bent(eps):
        pts = cv.positions + eps * mode(2).values
        return energy(from_samples(pts), params21)

    def second_difference(eps):
        return (bent(eps) - 2.0 * bent(0.0) + bent(-eps)) / eps ** 2

    fd = (4.0 * second_difference(2.0e-3) - second_difference(4.0e-3)) / 3.0
    assert rel(fd, exact(2)) <= 1.0e-6


# ------------------------------------------------------------------- grids


def test_density_grid_shapes_and_summary(params21, bumpy256):
    g = density_grid(bumpy256, params21)
    M = bumpy256.M
    assert g.values.shape == (M, M)
    assert g.label == "M_alpha^p"
    assert g.sup > 0.0 and g.l1 > 0.0
    assert g.l1_offband <= g.l1
    s = g.summary()
    assert set(s) == {"label", "sup", "l1", "flagged_pairs"}
    assert s["flagged_pairs"] == []
    mask = g.band_mask()
    assert mask.shape == (M, M)
    assert mask[0, 0] and mask[0, 2] and not mask[0, 3]


def test_density_grid_resolution_stability(params21):
    g1 = density_grid(perturbed_circle(128), params21)
    g2 = density_grid(perturbed_circle(256), params21)
    assert rel(g1.sup, g2.sup) < 0.02
    assert rel(g1.l1, g2.l1) < 0.02


def test_density_grid_weighted_label_and_boundedness():
    pr = EnergyParams(2.4, 1.0)
    cv = circle(128)
    g = density_grid(cv, pr, beta=1.0)
    assert g.label == "D^0.4 * M_alpha^p"
    # the weighted density extends continuously to the diagonal: its sup is
    # attained at moderate separation, not blowing up near the band
    assert g.sup < 10.0 * (pr.alpha / 24.0) ** pr.p * 40.0


def test_density_grid_g_and_h(params21, bumpy256):
    phi = random_field(bumpy256, 26)
    psi = random_field(bumpy256, 27)
    with pytest.raises(ValidationError):
        density_grid(bumpy256, params21, which="g")
    with pytest.raises(ValidationError):
        density_grid(bumpy256, params21, which="h", phi=phi)
    with pytest.raises(ValidationError):
        density_grid(bumpy256, params21, which="nope")
    gg = density_grid(bumpy256, params21, which="g", phi=phi)
    hh = density_grid(bumpy256, params21, which="h", phi=phi, psi=psi)
    assert gg.label == "G" and hh.label == "H"
    assert gg.sup > 0.0 and hh.sup > 0.0


def test_grid_export_roundtrip(tmp_path, params21):
    cv = circle(64)
    g = density_grid(cv, params21)
    csv_path = tmp_path / "grid.csv"
    json_path = tmp_path / "grid.json"
    save_grid_csv(g, csv_path)
    save_grid_json(g, json_path)

    lines = csv_path.read_text().strip().split("\n")
    assert lines[0].startswith("# M=64")
    assert "label=M_alpha^p" in lines[0]
    assert len(lines) == 1 + 64
    row0 = lines[1].split(",")
    assert len(row0) == 64
    assert row0[0] == "nan"  # diagonal cell masked
    back = np.array([float(x) for x in lines[1 + 32].split(",")])
    keep = np.isfinite(back)
    assert np.allclose(back[keep], np.where(g.band_mask(), np.nan, g.values)[32][keep])

    doc = json.loads(json_path.read_text())
    assert doc["label"] == "M_alpha^p"
    assert doc["sup"] == pytest.approx(g.sup)


# ------------------------------------------------------------ chain bounds


def test_holder_chain_bounds_hold(params22):
    cv = random_curve(5, M=128, n=3)
    phi = random_field(cv, 28)
    psi = random_field(cv, 29)
    rep = holder_chain_check(cv, phi, psi, params22)
    assert set(rep) == {"G1", "G2", "H1", "H2", "H3", "H4", "H5", "H6"}
    for name, row in rep.items():
        assert row["lhs"] <= row["rhs"], name
        assert row["margin"] >= 0.0, name


def test_holder_chain_requires_p_above_one(params21, bumpy256):
    phi = random_field(bumpy256, 1)
    with pytest.raises(ValidationError):
        holder_chain_check(bumpy256, phi, phi, params21)


def test_operator_reuses_blocks(params21, bumpy256):
    # one operator, several evaluations: results agree with the one-shot API
    op = GridOperator(bumpy256, params21)
    phi = random_field(bumpy256, 30)
    assert rel(op.energy()[0], energy(bumpy256, params21)) < 1.0e-14
    assert rel(
        op.first_variation(phi), first_variation(bumpy256, phi, params21)
    ) < 1.0e-12


# ------------------------------------------------ row-streamed integrands

STREAM_PARAMS = [(2.0, 1.0), (2.5, 1.5), (2.0, 2.0)]


def _full_grid_blocks(op, phi, psi=None):
    """Blocks on the whole offset grid, built apart from the operator."""
    return Blocks(_grid_pairs(op.curve), op.curve, params=op.params, phi=phi, psi=psi)


def _full_grid_h(op, phi, psi):
    with np.errstate(divide="ignore", invalid="ignore"):
        terms, flagged = _full_grid_blocks(op, phi, psi).h_terms()
        # column 0 is the diagonal
        return sum(terms.values()), flagged & (np.arange(op.curve.M) != 0)[None, :]


def _full_grid_integral(op, F, W0):
    """The assembler on a whole grid: row sums and columns read off ``F``."""
    cv, band = op.curve, op.band
    k = np.arange(cv.M)
    keep = np.minimum(k, cv.M - k) > band
    cols = {c: F[:, c] for c in range(cv.M)}
    rows = _Rows(np.where(keep[None, :], F, 0.0).sum(axis=1), cols)
    pieces = _band_pieces(cols, cv, band, op.gamma, W0)
    return _integrate(rows, cv, band, pieces)[0]


@pytest.mark.parametrize("alpha,p", STREAM_PARAMS)
def test_streamed_variations_equal_the_full_grid(uneven_chunks, alpha, p):
    cv = uneven_chunks
    pr = EnergyParams(alpha, p)
    op = GridOperator(cv, pr)
    phi, psi = random_field(cv, 40), random_field(cv, 41)

    with np.errstate(divide="ignore", invalid="ignore"):
        t = _full_grid_blocks(op, phi).g_terms("phi")
    G = t["G1"] + t["G2"]
    H, flagged = _full_grid_h(op, phi, psi)
    assert np.array_equal(op.g_values(phi), G, equal_nan=True)
    h_vals, h_flagged = op.h_values(phi, psi)
    assert np.array_equal(h_vals, H, equal_nan=True)
    assert np.array_equal(h_flagged, flagged)

    assert op.first_variation(phi) == _full_grid_integral(op, G, g_limit(cv, pr, phi))
    ref = _full_grid_integral(op, H, h_limit(cv, pr, phi, psi))
    ref += antipodal_motion_term(cv, phi, psi, pr)
    assert op.second_variation(phi, psi) == ref

    grid = density_grid(cv, pr, which="h", phi=phi, psi=psi)
    pair_major = np.full((cv.M, cv.M), np.nan)
    ps = _grid_pairs(cv)
    pair_major[ps.i, ps.j] = H
    assert np.array_equal(grid.values, pair_major, equal_nan=True)


def test_streamed_h2_warning_counts_the_full_grid(uneven_chunks, monkeypatch):
    cv = uneven_chunks
    pr = EnergyParams(2.5, 1.5)
    op = GridOperator(cv, pr)
    phi, psi = random_field(cv, 42), random_field(cv, 43)
    monkeypatch.setattr(variations, "H2_SINGULAR_THRESHOLD", 0.1)
    count = int(np.count_nonzero(_full_grid_h(op, phi, psi)[1]))
    assert count > 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        op.second_variation(phi, psi)
    assert [str(w.message) for w in caught] == [
        "H2 singular policy fired at %d grid pairs; excluded from quadrature" % count
    ]


@pytest.mark.parametrize("M", [64, 96])
@pytest.mark.parametrize("alpha,p", STREAM_PARAMS)
def test_whole_grids_are_pair_swap_symmetric(monkeypatch, M, alpha, p):
    # the operator evaluates the offsets k = 0..M/2 and reads the others off
    # the swapped pair, V[j, k] = V[(j + k) % M, M - k]; that must hold bit for
    # bit on every whole grid, away from the diagonal and the antipodal column
    cv = random_curve(3, M=M, n=3)
    op = GridOperator(cv, EnergyParams(alpha, p))
    phi, psi = random_field(cv, 40), random_field(cv, 41)
    # a high threshold makes the H2 flags fire at p = 1.5
    monkeypatch.setattr(variations, "H2_SINGULAR_THRESHOLD", 0.1)
    with np.errstate(divide="ignore", invalid="ignore"):
        b = _full_grid_blocks(op, phi, psi)
        t = b.g_terms("phi")
        h_terms, flagged = b.h_terms()
        grids = dict(b.geometry(), G=t["G1"] + t["G2"], H=sum(h_terms.values()),
                     flagged=flagged)
    assert np.any(flagged) == (1.0 < p < 2.0)
    j = np.arange(M)[:, None]
    k = np.array([c for c in range(1, M) if c != M // 2])
    for name, V in grids.items():
        V = np.asarray(V)  # phis is a tuple of three grids
        assert np.array_equal(V[..., j, k], V[..., (j + k) % M, M - k]), name


def test_second_variation_memory_is_row_chunked():
    # the whole H grid with its ~45 blocks peaked at 91 MiB at this size
    cv = random_curve(0, M=512, n=3)
    op = GridOperator(cv, EnergyParams(2.5, 1.5))
    phi, psi = random_field(cv, 1), random_field(cv, 2)
    tracemalloc.start()
    try:
        op.second_variation(phi, psi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20


def test_grid_operator_build_memory_is_row_chunked():
    # the whole-grid build with its PairSet and Blocks peaked at 24.1 MiB;
    # the six kept (M, M) blocks take 12 MiB at this size
    cv = random_curve(0, M=512, n=3)
    tracemalloc.start()
    try:
        GridOperator(cv, EnergyParams(2.5, 1.5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20
