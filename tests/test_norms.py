"""Seminorm machinery: Gagliardo integrals, Hölder moduli, product bounds."""

import numpy as np
import pytest
from scipy.integrate import quad

from ohara import _pairs, cli, norms
from ohara._pairs import PairSet
from ohara.curve import Field, circle, random_curve, random_field, save_curve
from ohara.errors import ValidationError
from ohara.norms import (
    _GAGLIARDO_BAND,
    _bound_band_pieces,
    gagliardo_seminorm,
    holder_seminorm,
    local_modulus,
    lq_norm,
    product_seminorm_check,
    seminorms,
    sobolev_linf_norm,
    sup_norm,
)
from ohara.quadrature import _integrate
from ohara.spectral import short_arc_offsets

from conftest import offset_sq_diffs, rel, whole_rows


def scalar_cos_field(cv, k=1):
    s = cv.h * np.arange(cv.M)
    return Field(cv, np.cos(2.0 * np.pi * k * s / cv.L))


# ----------------------------------------------------------------- gagliardo


def test_gagliardo_circle_tangent_reference():
    # tau on the unit circle: |Δtau| = 2 sin(|Δs|/2); the q-th power of the
    # seminorm reduces to a 1D integral computed here with adaptive
    # quadrature
    sigma, q = 0.25, 4.0
    ref_1d, _ = quad(
        lambda x: (2.0 * np.sin(x / 2.0)) ** q / x ** (1.0 + sigma * q),
        0.0,
        np.pi,
    )
    ref = (2.0 * 2.0 * np.pi * ref_1d) ** (1.0 / q)
    for M, tol in [(128, 1.0e-6), (256, 1.0e-8)]:
        got = gagliardo_seminorm(circle(M).tau_field, sigma, q)
        assert rel(got, ref) < tol


def test_gagliardo_resolution_convergence():
    sigma, q = 0.5, 2.0
    vals = [
        gagliardo_seminorm(circle(M).tau_field, sigma, q)
        for M in (64, 128, 256)
    ]
    # refinement settles the value; successive gaps shrink
    assert rel(vals[0], vals[2]) < 1.0e-4
    assert abs(vals[1] - vals[2]) < abs(vals[0] - vals[1])


def test_gagliardo_homogeneity(bumpy256):
    u = random_field(bumpy256, 40)
    v = Field(bumpy256, 3.0 * u.values)
    a = gagliardo_seminorm(u, 0.5, 2.0)
    assert rel(gagliardo_seminorm(v, 0.5, 2.0), 3.0 * a) < 1.0e-12


def test_gagliardo_constant_is_zero(bumpy256):
    const = Field(bumpy256, np.tile([2.0, -1.0], (bumpy256.M, 1)))
    assert gagliardo_seminorm(const, 0.5, 2.0) == 0.0


def test_gagliardo_validation(bumpy256):
    u = random_field(bumpy256, 41)
    with pytest.raises(ValidationError):
        gagliardo_seminorm(u, 0.0, 2.0)
    with pytest.raises(ValidationError):
        gagliardo_seminorm(u, 1.0, 2.0)
    with pytest.raises(ValidationError):
        gagliardo_seminorm(u, 0.5, 0.5)


# ----------------------------------------------------------- Hölder moduli


def test_holder_beta_one_of_tangent_is_one():
    # |Δtau| / |Δs| peaks at the curvature (=1) on the unit circle, reached
    # in the diagonal limit supplied by the derivative bound
    got = holder_seminorm(circle(256).tau_field, 1.0)
    assert rel(got, 1.0) < 1.0e-9


def test_holder_scalar_closed_form():
    # cos(s) on the unit circle, β = 1: sup |Δcos| / |Δs| = 1 = sup |sin|
    cv = circle(256)
    got = holder_seminorm(scalar_cos_field(cv), 1.0)
    assert rel(got, 1.0) < 1.0e-9


def test_local_modulus_monotone_in_R(bumpy256):
    u = random_field(bumpy256, 43)
    L = bumpy256.L
    rs = [L / 64, L / 16, L / 4, L / 2]
    vals = [local_modulus(u, 0.5, r) for r in rs]
    assert all(a <= b * (1.0 + 1.0e-12) for a, b in zip(vals, vals[1:]))
    assert vals[-1] == holder_seminorm(u, 0.5)


def test_local_modulus_validation(bumpy256):
    u = random_field(bumpy256, 44)
    with pytest.raises(ValidationError):
        local_modulus(u, 0.5, 0.0)
    with pytest.raises(ValidationError):
        local_modulus(u, 0.5, bumpy256.L)
    with pytest.raises(ValidationError):
        local_modulus(u, 1.5, 1.0)


# ------------------------------------------------------------ combined norm


def test_sobolev_linf_dominates_parts(bumpy256):
    u = random_field(bumpy256, 46)
    sigma, q = 0.5, 2.0
    v = sobolev_linf_norm(u, sigma, q)
    assert v >= sup_norm(u) - 1.0e-15
    assert v >= lq_norm(u, q) - 1.0e-15
    assert v >= gagliardo_seminorm(u, sigma, q) - 1.0e-15


def test_lq_norm_circle_constant():
    cv = circle(128)
    one = Field(cv, np.ones(cv.M))
    assert rel(lq_norm(one, 2.0), np.sqrt(2.0 * np.pi)) < 1.0e-12
    with pytest.raises(ValidationError):
        lq_norm(one, 0.3)


# ---------------------------------------------------------------- products


def test_product_bound_constant_one(bumpy256):
    out = product_seminorm_check(bumpy256, random_field(bumpy256, 47))
    assert out["margin"] >= -1.0e-10
    assert out["holder_lhs"] <= out["holder_rhs"] * (1.0 + 1.0e-10)
    assert 0.0 < out["fitted_constant"] <= 1.0 + 1.0e-10


def test_product_bound_many_seeds():
    cv = random_curve(9, M=128, n=3)
    for seed in range(20):
        out = product_seminorm_check(cv, random_field(cv, seed))
        assert out["margin"] >= -1.0e-10, seed


# ------------------------------------------------------------- row chunks


def _whole_grid_norms(u, sigma, q, beta, R):
    """The Gagliardo seminorm and the local modulus from the whole |du| grid."""
    cv = u.curve
    offs = np.abs(short_arc_offsets(cv.M, cv.L))
    diffs = np.sqrt(offset_sq_diffs(u.values))
    F = diffs**q / np.where(offs > 0.0, offs, 1.0) ** (1.0 + sigma * q)
    F[:, 0] = 0.0
    rows = whole_rows(F, _GAGLIARDO_BAND)
    bound = float(u.deriv.sup_norm()) ** q
    pieces = _bound_band_pieces(rows.cols, cv, _GAGLIARDO_BAND, bound, q - 1.0 - sigma * q)
    total, _ = _integrate(rows, cv, _GAGLIARDO_BAND, pieces)
    sel = (offs > 0.0) & (offs <= R)
    modulus = float(np.max(diffs[:, sel] / offs[sel] ** beta))
    near = float(u.deriv.sup_norm()) * min(R, cv.h) ** (1.0 - beta)
    return float(max(total, 0.0) ** (1.0 / q)), max(modulus, near)


def test_norms_by_row_chunks_give_the_whole_grid_bits(uneven_chunks, monkeypatch):
    # the chunked half-grid pass gives the one-chunk bits; against the whole
    # |du| grid the moduli are the same bits and the Gagliardo seminorm,
    # summed per row in another order, moves by rounding only
    cv = uneven_chunks
    phi = random_field(cv, 5)
    cases = [(u, *c) for u in (cv.tau_field, phi.deriv, cv.tau_field.dot(phi.deriv))
             for c in ((0.5, 2.0, 0.5, cv.L / 2.0), (0.3, 3.0, 1.0, 5.0 * cv.h))]

    def run():
        return [(gagliardo_seminorm(u, sigma, q), local_modulus(u, beta, R),
                 seminorms(u, sigma, q, beta)) for u, sigma, q, beta, R in cases]

    chunked = run()
    for (u, sigma, q, beta, R), (gag, modulus, one_pass) in zip(cases, chunked):
        ref, ref_modulus = _whole_grid_norms(u, sigma, q, beta, R)
        assert rel(gag, ref) <= 1.0e-14
        assert modulus == ref_modulus
        _, holder = _whole_grid_norms(u, sigma, q, beta, cv.L / 2.0)
        assert one_pass["gagliardo"] == gag
        assert one_pass["holder"] == holder
    monkeypatch.setattr(_pairs, "CHUNK_CELLS", cv.M ** 2)
    assert run() == chunked


def test_each_field_is_one_pass_over_its_grid(monkeypatch, tmp_path, capsys):
    # a pass over the |du| grid reads the pairs of its row 0 once, whatever
    # the chunking
    passes = []

    def counted(curve, rows, cols):
        if rows.start == 0:
            passes.append(rows.stop)
        return PairSet(curve, rows, cols)

    monkeypatch.setattr(norms, "PairSet", counted)
    cv = random_curve(2, M=64, n=3)
    path = tmp_path / "curve.json"
    save_curve(cv, str(path))
    # tau and phi', then tau . phi' for the product check, which reuses the
    # reports of tau and phi' at the default (2, 1): there the job's
    # (sigma, q, beta) is the check's own; at (2.5, 1.5) it is not
    for argv, count in ((["norms"], 3), (["norms", "--alpha", "2.5", "--p", "1.5"], 5)):
        assert cli.main(argv + ["--curve", str(path)]) == 0
        capsys.readouterr()
        assert len(passes) == count
        passes.clear()
    product_seminorm_check(cv, random_field(cv, 6))
    assert len(passes) == 3
