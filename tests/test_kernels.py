import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ohara._pairs import k_raw, n_raw
from ohara.curve import circle, pair_frame, random_field
from ohara.errors import NumericalError, ValidationError
from ohara.kernels import EnergyParams, phi_alpha
from ohara.variations import pair_terms

from conftest import GeneralParamCurve, density_general_param, rel


# ---------------------------------------------------------------- parameters


def test_params_accepts_standing_range():
    for a, p in [(2.0, 1.0), (2.0, 2.0), (2.4, 1.0), (1.0, 2.4), (2.9, 1.0)]:
        EnergyParams(a, p)


def test_params_constraint_message():
    with pytest.raises(ValidationError) as exc:
        EnergyParams(1.0, 1.0)  # alpha*p = 1 < 2
    assert str(exc.value) == "constraint 2 <= alpha*p < 2p+1 violated"
    with pytest.raises(ValidationError):
        EnergyParams(3.0, 1.5)  # alpha*p = 4.5 >= 2p+1 = 4
    with pytest.raises(ValidationError):
        EnergyParams(3.0, 0.5)  # window check fires before p >= 1
    with pytest.raises(ValidationError):
        EnergyParams(-2.0, 1.0)
    with pytest.raises(ValidationError):
        EnergyParams(2.5, 0.9)


def test_params_derived_quantities():
    pr = EnergyParams(2.0, 1.0)
    assert pr.sigma == pytest.approx(0.5)
    assert pr.beta == 1.0
    assert pr.weight_exponent == pytest.approx(0.0)
    pr = EnergyParams(2.4, 1.0)
    assert pr.sigma == pytest.approx(0.7)
    assert pr.beta == 1.0
    assert pr.weight_exponent == pytest.approx(0.4)
    pr = EnergyParams(1.0, 2.0, beta=0.5)
    assert pr.beta == 0.5
    assert pr.sigma == pytest.approx(0.25)
    assert pr.weight_exponent == pytest.approx(0.0)


def test_params_beta_default_below_two():
    # default beta = min(alpha/2, 1)
    assert EnergyParams(1.0, 2.0).beta == pytest.approx(0.5)
    with pytest.raises(ValidationError):
        EnergyParams(2.0, 1.0, beta=1.5)
    with pytest.raises(ValidationError):
        EnergyParams(2.0, 1.0, beta=0.0)


def test_params_frozen():
    pr = EnergyParams(2.0, 1.0)
    with pytest.raises(Exception):
        pr.alpha = 3.0


# ------------------------------------------------------------------ phi_alpha


@given(
    t=st.floats(min_value=1.0e-14, max_value=1.0e4),
    alpha=st.floats(min_value=0.5, max_value=3.0),
)
@settings(max_examples=200, deadline=None)
def test_phi_alpha_range_and_derivatives(t, alpha):
    v, d1, d2 = phi_alpha(t, alpha)
    assert 0.0 < v < 1.0
    assert d1 > 0.0
    assert d2 < 0.0
    # matches the direct formula where it is well conditioned
    if t > 1.0e-3:
        assert rel(float(v), 1.0 - (1.0 + t) ** (-alpha / 2.0)) < 1.0e-12


@given(alpha=st.floats(min_value=0.5, max_value=3.0))
@settings(max_examples=50, deadline=None)
def test_phi_alpha_at_zero(alpha):
    v, d1, d2 = phi_alpha(0.0, alpha)
    a2 = alpha / 2.0
    assert float(v) == 0.0
    assert float(d1) == pytest.approx(a2, rel=1.0e-14)
    assert float(d2) == pytest.approx(-a2 * (a2 + 1.0), rel=1.0e-14)


def test_phi_alpha_small_argument_precision():
    # value = a2*t - a2(a2+1)/2 t^2 + O(t^3); naive 1-(1+t)^(-a2) loses
    # ~10 digits here, the expm1 form does not
    t = 1.0e-13
    v, _, _ = phi_alpha(t, 2.0)
    assert rel(float(v), t - 1.5 * t * t) < 1.0e-12


def test_phi_alpha_rejects_pole():
    with pytest.raises(ValidationError):
        phi_alpha(-1.0, 2.0)
    with pytest.raises(ValidationError):
        phi_alpha(-2.0, 2.0)


def test_phi_alpha_vectorized():
    t = np.array([0.0, 0.5, 2.0])
    v, d1, d2 = phi_alpha(t, 2.0)
    assert v.shape == (3,)
    assert np.all(np.diff(v) > 0)


# ------------------------------------------------------------ bilinear forms


def _n(pair, u, v):
    """N(u, v) on ``pair``, from its short-arc integrals of u, v and u.v."""
    return n_raw(pair, pair.integral(u), pair.integral(v), pair.integral(u.dot(v)))


def _k(pair, u, v):
    """K(u, v) on ``pair``, from its endpoint differences of u and v."""
    return k_raw(pair, pair.value1(u) - pair.value2(u), pair.value1(v) - pair.value2(v))


def test_n_identity_on_circle(circle128, params21):
    # 1 + N(tau, tau) = D^2 / |df|^2 exactly (both sides closed-form here)
    cv = circle128
    for j in [1, 5, 17, 40, 64]:
        pair = pair_frame(cv, j, 0)
        ntt = pair_terms(pair, params21)["n_tau"]
        expect = pair.D**2 / pair.chord**2 - 1.0
        assert rel(ntt, expect) < 1.0e-10


def test_n_bilinear_symmetry_and_constants(circle128, params21):
    cv = circle128
    rng_u = random_field(cv, 3)
    rng_v = random_field(cv, 4)
    pair = pair_frame(cv, 31, 7)
    assert rel(
        _n(pair, rng_u, rng_v),
        _n(pair, rng_v, rng_u),
    ) < 1.0e-12
    # constant fields are annihilated
    const = random_field(cv, 5, modes=0)
    assert abs(_n(pair, const, rng_u)) < 1.0e-13


def test_k_bilinear_matches_chord_quotient(circle128):
    cv = circle128
    u = random_field(cv, 8)
    pair = pair_frame(cv, 50, 12)
    du = u.values[pair.i] - u.values[pair.j]
    expect = float(np.dot(du, du)) / pair.chord**2
    assert rel(_k(pair, u, u), expect) < 1.0e-12
    assert _k(pair, cv.tau_field, cv.tau_field) >= 0.0


def test_k_of_position_field_is_one(circle128):
    # K(f, f) = 1 by definition of the chord
    from ohara.curve import Field

    cv = circle128
    f = Field(cv, cv.positions.copy())
    pair = pair_frame(cv, 33, 90)
    assert rel(_k(pair, f, f), 1.0) < 1.0e-12


# -------------------------------------------------------------------- kernel


def test_m_alpha_circle_closed_form(circle128, params21):
    # unit circle: |df| = 2 sin(D/2), so M = 1/(2 sin(D/2))^a - 1/D^a
    cv = circle128
    for j in [2, 9, 30, 64]:
        pair = pair_frame(cv, j, 0)
        naive = 1.0 / pair.chord**2 - 1.0 / pair.D**2
        assert rel(pair_terms(pair, params21)["m_alpha"], naive) < 1.0e-9


def test_m_alpha_antipodal_value(circle128, params21):
    # D = pi, chord = 2: M = 1/4 - 1/pi^2
    pair = pair_frame(cv := circle128, 64, 0)
    assert pair.D == pytest.approx(np.pi, rel=1e-14)
    assert rel(pair_terms(pair, params21)["m_alpha"], 0.25 - 1.0 / np.pi**2) < 1.0e-12


def test_m_alpha_near_diagonal_no_cancellation(params21):
    # adjacent samples on a fine circle: the subtraction form loses most
    # digits, the reformulation stays at the curvature limit scale
    cv = circle(1024)
    pair = pair_frame(cv, 1, 0)
    got = pair_terms(pair, params21)["m_alpha"]
    # limit alpha/24 |kappa|^2 = 1/12; one grid step off by O(h^2)
    assert rel(got, 1.0 / 12.0) < 1.0e-4
    assert got > 0.0


def test_density_is_m_power(circle128, params22):
    t = pair_terms(pair_frame(circle128, 40, 3), params22)
    assert rel(t["density"], t["m_alpha"] ** 2) < 1.0e-14


def test_density_positive_on_noncircular(bumpy256, params21):
    cv = bumpy256
    vals = [pair_terms(pair_frame(cv, i, 0), params21)["density"] for i in (1, 16, 128)]
    assert all(v > 0.0 for v in vals)


def test_weighted_density_weight(circle128):
    pr = EnergyParams(2.4, 1.0)  # weight exponent 0.4
    pair = pair_frame(circle128, 25, 0)
    d = pair_terms(pair, pr)["density"]
    w = pair.D ** pr.weight_exponent * d
    assert rel(w, pair.D**0.4 * d) < 1.0e-13
    # beta = alpha/2 makes the weight trivial
    pr2 = EnergyParams(2.0, 1.0, beta=1.0)
    d2 = pair_terms(pair, pr2)["density"]
    assert rel(pair.D ** pr2.weight_exponent * d2, d2) < 1.0e-13


def test_weighted_density_diagonal_limit():
    # on a fine circle the weighted density at one grid step approaches
    # (alpha/24 |kappa|^2)^p
    cv = circle(2048)
    pr = EnergyParams(2.0, 2.0)
    pair = pair_frame(cv, 1, 0)
    weighted = pair.D ** pr.weight_exponent * pair_terms(pair, pr)["density"]
    assert rel(weighted, (1.0 / 12.0) ** 2) < 1.0e-4


def test_pair_frame_rejects_diagonal(circle128):
    with pytest.raises(ValidationError):
        pair_frame(circle128, 5, 5)


# ------------------------------------------------- general-parameter variant


def test_general_param_reduces_at_zero(circle128, params21):
    cv = circle128
    phi = random_field(cv, 11)
    g = GeneralParamCurve(cv, phi, 0.0)
    assert np.allclose(g.speed, 1.0, atol=1.0e-12)
    assert rel(g.length, cv.L) < 1.0e-12
    for i, j in [(1, 0), (17, 3), (64, 0), (100, 30)]:
        pair = pair_frame(cv, i, j)
        assert rel(
            density_general_param(g, i, j, params21),
            pair_terms(pair, params21)["density"],
        ) < 1.0e-9


def test_general_param_chord_and_intrinsic(circle128):
    cv = circle128
    phi = random_field(cv, 2)
    g = GeneralParamCurve(cv, phi, 1.0e-3)
    i, j = 40, 10
    assert g.chord(i, j) <= g.intrinsic(i, j) * (1.0 + 1.0e-9)
    # intrinsic distance is symmetric and bounded by half the length
    assert rel(g.intrinsic(i, j), g.intrinsic(j, i)) < 1.0e-12
    assert g.intrinsic(i, j) <= 0.5 * g.length + 1.0e-12


def test_general_param_diagonal_rejected(circle128, params21):
    g = GeneralParamCurve(circle128, random_field(circle128, 0), 0.0)
    with pytest.raises(ValidationError):
        density_general_param(g, 4, 4, params21)


def test_general_param_guards_quiet_at_moderate_eps(circle128, params21):
    # the chord <= intrinsic guard must not fire spuriously for a healthy
    # variation; sweep a few magnitudes and a spread of pairs
    cv = circle128
    phi = random_field(cv, 13)
    for eps in (1.0e-6, 1.0e-4, 1.0e-2):
        g = GeneralParamCurve(cv, phi, eps)
        for i, j in [(1, 0), (9, 120), (64, 0), (97, 33)]:
            assert density_general_param(g, i, j, params21) > 0.0
