"""Cross-checks between the oracle module and the production evaluators."""

import numpy as np
import pytest

from ohara._pairs import OffGridPair
from ohara.curve import Field, circle, ellipse, random_curve, random_field
from ohara.diagonal import density_limit, g_limit, h_limit, term_limits
from ohara.errors import ValidationError
from ohara.kernels import EnergyParams
from ohara.quadrature import first_variation, second_variation
from ohara.variations import Blocks
from ohara.verify import (
    LIMIT_KINDS,
    LimitReport,
    circle_reference,
    cusp_field,
    diagonal_limit,
    fd_energy_gradient,
    fd_energy_hessian,
    neville_h2,
)

from conftest import rel

ALL_KINDS = (
    "m_alpha", "density", "n_tau", "chord_ratio", "k_ratio", "r1", "r2",
    "delta_n", "s1", "s2", "s3", "s4", "s5", "delta2_n", "delta_m",
    "delta2_m", "g", "h",
)


def test_limit_kind_registry():
    assert set(LIMIT_KINDS) == set(ALL_KINDS)
    assert LIMIT_KINDS["m_alpha"] == "m"
    assert LIMIT_KINDS["density"] == "gh"
    assert LIMIT_KINDS["chord_ratio"] == "plain"
    assert LIMIT_KINDS["s3"] == "n"


# the kinds that need a phi field, and those that need phi and psi
NEEDS_PHI = {"chord_ratio", "r1", "r2", "delta_n", "delta_m", "g"}
NEEDS_PSI = {
    "k_ratio", "s1", "s2", "s3", "s4", "s5", "delta2_n", "delta2_m", "h",
}


@pytest.mark.parametrize("which", ALL_KINDS)
def test_missing_fields_rejected_by_kind(circle128, params21, which):
    phi = random_field(circle128, 61)
    for given_phi, needed in ((None, NEEDS_PHI | NEEDS_PSI), (phi, NEEDS_PSI)):
        if which in needed:
            with pytest.raises(ValidationError):
                diagonal_limit(circle128, given_phi, None, params21, 0.0, which)
        else:
            diagonal_limit(circle128, given_phi, None, params21, 0.0, which)


def test_term_limits_cover_every_kind():
    cv = random_curve(3, M=128)
    phi, psi = random_field(cv, 62), random_field(cv, 63)
    for a, p in [(2.0, 1.0), (2.5, 1.5), (2.0, 2.0)]:
        pr = EnergyParams(a, p)
        table = term_limits(cv, pr, phi=phi, psi=psi)
        assert set(table) == set(LIMIT_KINDS)
        # the limit functions of the quadrature are lookups into the table
        assert np.array_equal(density_limit(cv, pr), table["density"])
        assert np.array_equal(g_limit(cv, pr, phi), table["g"])
        assert np.array_equal(h_limit(cv, pr, phi, psi), table["h"])


# ----------------------------------------------------- diagonal extrapolation


def test_all_kinds_extrapolate_on_circle(circle128):
    pr = EnergyParams(2.4, 1.0)
    phi = random_field(circle128, 50)
    psi = random_field(circle128, 51)
    for which in ALL_KINDS:
        rep = diagonal_limit(circle128, phi, psi, pr, 0.0, which)
        if rep.reference != 0.0:
            assert rep.gap_rel < 1.0e-6, which
        else:
            scale = max(abs(v) for _, v in rep.samples)
            assert rep.gap_abs <= 1.0e-6 * max(scale, 1.0), which


def test_selected_kinds_multiple_parameters(circle128, ellipse128):
    # the spread of parameter pairs the package advertises, on two shapes
    kinds = ("m_alpha", "n_tau", "delta_m", "g", "h", "density")
    for cv in (circle128, ellipse128):
        phi = random_field(cv, 52)
        psi = random_field(cv, 53)
        for a, p in [(2.0, 1.0), (2.4, 1.0), (2.0, 2.0)]:
            pr = EnergyParams(a, p)
            for which in kinds:
                rep = diagonal_limit(cv, phi, psi, pr, 2.0 * cv.h, which)
                if rep.reference != 0.0:
                    assert rep.gap_rel < 1.0e-4, (which, a, p)
                else:
                    scale = max(abs(v) for _, v in rep.samples)
                    assert rep.gap_abs <= 1.0e-4 * max(scale, 1.0), (which, a, p)


def test_limit_report_shape(circle128, params21):
    phi = random_field(circle128, 54)
    rep = diagonal_limit(circle128, phi, None, params21, 0.0, "m_alpha")
    assert isinstance(rep, LimitReport)
    assert len(rep.samples) == 6
    ds = [d for d, _ in rep.samples]
    assert all(a > b for a, b in zip(ds, ds[1:]))  # geometric decrease
    d = rep.as_dict()
    assert set(d) == {"which", "s", "samples", "extrapolated", "reference", "gap"}
    assert set(d["gap"]) == {"abs", "rel"}
    assert d["which"] == "m_alpha"


def test_limit_validation(circle128, params21):
    phi = random_field(circle128, 55)
    with pytest.raises(ValidationError):
        diagonal_limit(circle128, phi, None, params21, 0.0, "nope")
    with pytest.raises(ValidationError):
        diagonal_limit(circle128, None, None, params21, 0.0, "delta_m")
    with pytest.raises(ValidationError):
        diagonal_limit(circle128, phi, None, params21, 0.0, "delta2_m")
    with pytest.raises(ValidationError):
        # not a grid point
        diagonal_limit(circle128, phi, None, params21, 0.4321, "m_alpha")


def test_small_beta_weighted_decay(circle128):
    # explicit beta below alpha/2: the weighted kernel quantities vanish on
    # the diagonal, so the path samples decay and the reference is zero
    pr = EnergyParams(1.6, 1.5, beta=0.5)
    rep = diagonal_limit(circle128, None, None, pr, 0.0, "m_alpha")
    assert rep.reference == 0.0
    assert rep.gap_rel is None
    vals = [abs(v) for _, v in rep.samples]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 0.1 * vals[0]


@pytest.mark.parametrize("which, raw", [
    ("density", lambda b: b.malpha() ** b.params.p),
    ("g", lambda b: sum(b.g_terms("phi").values())),
    ("h", lambda b: sum(b.h_terms()[0].values())),
], ids=["density", "g", "h"])
def test_density_and_variation_samples_carry_the_weight_exponent(ellipse128, which, raw):
    # beta below alpha/2 and p > 1, so the weight is neither 1 nor that of the
    # m kinds: each path sample is D^weight_exponent times the raw Blocks
    # value on the same off-grid pairs, bit for bit
    cv = ellipse128
    pr = EnergyParams(2.5, 1.5, beta=0.9)
    phi, psi = random_field(cv, 3), random_field(cv, 4)
    s = 2.0 * cv.h
    rep = diagonal_limit(cv, phi, psi, pr, s, which)
    hs = np.array([h for h, _ in rep.samples])
    ev = OffGridPair(cv, s + hs / 2.0, s - hs / 2.0)
    want = ev.D ** pr.weight_exponent * raw(Blocks(ev, params=pr, phi=phi, psi=psi))
    assert [v for _, v in rep.samples] == want.tolist()


# ------------------------------------------------------------ FD derivatives


def test_fd_gradient_agrees_with_quadrature(params21, bumpy256):
    phi = random_field(bumpy256, 56)
    central, rich = fd_energy_gradient(bumpy256, phi, params21)
    exact = first_variation(bumpy256, phi, params21)
    assert rel(rich, exact) < 1.0e-6
    # the uncorrected central difference is close but strictly worse
    assert rel(central, exact) < 1.0e-4


def test_fd_gradient_second_order(params21, bumpy256):
    # halving eps shrinks the central-difference error by about 4
    phi = random_field(bumpy256, 57)
    exact = first_variation(bumpy256, phi, params21)
    e1, _ = fd_energy_gradient(bumpy256, phi, params21, eps=2.0e-4)
    e2, _ = fd_energy_gradient(bumpy256, phi, params21, eps=1.0e-4)
    r = abs(e1 - exact) / max(abs(e2 - exact), 1.0e-300)
    assert 2.5 < r < 6.0


def test_fd_hessian_agrees_with_quadrature(params21):
    from conftest import perturbed_circle

    cv = perturbed_circle(128)
    phi = random_field(cv, 58)
    psi = random_field(cv, 59)
    got = fd_energy_hessian(cv, phi, psi, params21)
    exact = second_variation(cv, phi, psi, params21)
    assert rel(got, exact) < 1.0e-4


def test_fd_requires_vector_fields(circle128, params21):
    scalar = Field(circle128, np.cos(np.arange(circle128.M) * circle128.h))
    with pytest.raises(ValidationError):
        fd_energy_gradient(circle128, scalar, params21)
    with pytest.raises(ValidationError):
        fd_energy_hessian(circle128, scalar, scalar, params21)


def test_fd_rejects_destructive_eps(circle128, params21):
    # a perturbation violently exceeding the geometry must surface as a
    # validation error that names the offending eps
    phi = random_field(circle128, 60)
    with pytest.raises(ValidationError) as exc:
        fd_energy_gradient(circle128, phi, params21, eps=80.0)
    assert "eps" in str(exc.value)


def test_fd_constant_field_zero(params21, circle128):
    const = Field(circle128, np.tile([0.5, 0.5], (circle128.M, 1)))
    central, rich = fd_energy_gradient(circle128, const, params21)
    assert abs(rich) < 1.0e-9
    assert abs(fd_energy_hessian(circle128, const, const, params21)) < 1.0e-6


# ------------------------------------------------------------ circle formula


def test_circle_reference_antipodal():
    doc = circle_reference(2.0, 1.0, [np.pi])
    assert doc["alpha"] == 2.0 and doc["p"] == 1.0
    assert doc["limit"] == pytest.approx(1.0 / 12.0)
    row = doc["rows"][0]
    assert row["ds"] == pytest.approx(np.pi)
    assert row["chord"] == pytest.approx(2.0)
    assert row["density"] == pytest.approx(0.25 - 1.0 / np.pi**2, rel=1e-14)
    assert row["weighted"] == pytest.approx(row["density"], rel=1e-14)


def test_circle_reference_small_ds_to_limit():
    # weighted density approaches (alpha/24)^p as ds -> 0, smoothly across
    # the series/log switching point near 0.15: the jump across the switch
    # must match the local slope, not exceed it
    for a, p in [(2.0, 1.0), (2.4, 1.0), (3.0, 2.0)]:
        pts = [0.14799, 0.14999, 0.15001, 0.15201, 1.0e-3, 1.0e-7]
        doc = circle_reference(a, p, pts)
        w = [r["weighted"] for r in doc["rows"]]
        slope = 0.5 * ((w[1] - w[0]) / 0.002 + (w[3] - w[2]) / 0.002)
        jump = w[2] - w[1]
        assert abs(jump - slope * 2.0e-5) < 1.0e-10 * max(abs(w[1]), 1.0)
        assert rel(w[-1], doc["limit"]) < 1.0e-9


def test_circle_reference_validation():
    with pytest.raises(ValidationError):
        circle_reference(2.0, 1.0, [0.0])
    with pytest.raises(ValidationError):
        circle_reference(2.0, 1.0, [3.2])


# ------------------------------------------------------------- extrapolation


def test_neville_exact_on_even_polynomial():
    hs = np.array([0.8, 0.4, 0.2, 0.1, 0.05])
    vals = 3.0 - 2.0 * hs**2 + 0.7 * hs**4
    assert abs(neville_h2(hs, vals) - 3.0) < 1.0e-12


def test_neville_needs_four_points():
    with pytest.raises(ValidationError):
        neville_h2([0.4, 0.2, 0.1], [1.0, 1.0, 1.0])


# --------------------------------------------------------------- cusp field


def test_cusp_field_is_closed_and_c1(circle128):
    u = cusp_field(circle128, 0.5)
    assert u.values.shape == (circle128.M, 2) or u.values.ndim == 2
    # periodic primitive: the derivative has zero mean along the curve
    dmean = u.deriv.values.mean(axis=0)
    assert np.abs(dmean).max() < 1.0e-10


def test_cusp_field_roughness_located_at_s0(circle128):
    u = cusp_field(circle128, 0.5, s0=np.pi)
    d2 = np.abs(np.diff(u.deriv.values[:, 0], n=2))
    peak = np.argmax(d2) + 1
    s_peak = peak * circle128.h
    assert abs(s_peak - np.pi) < 4.0 * circle128.h
