"""Pointwise variation formulas checked against independent finite differences.

The general-parameter density (Jacobian-weighted, intrinsic-distance aware)
serves as the oracle: its eps-derivatives at eps = 0 must equal the assembled
first- and second-variation integrands pair by pair.
"""

import re

import numpy as np
import pytest

from ohara import variations
from ohara.curve import ClosedCurve, Field, pair_frame, random_curve, random_field
from ohara.errors import NumericalError
from ohara.kernels import EnergyParams, GeneralParamCurve, density_general_param
from ohara.quadrature import GridOperator, _unfold
from ohara.variations import pair_terms
from ohara.verify import diagonal_limit

from conftest import rel

PAIRS = [(1, 0), (40, 10), (127, 0), (200, 70)]
FD_EPS = 1.0e-5


def fd1(fun, eps=FD_EPS):
    """Richardson-extrapolated central first derivative at 0."""

    def central(e):
        return (fun(e) - fun(-e)) / (2.0 * e)

    return (4.0 * central(eps / 2.0) - central(eps)) / 3.0


def fd2(fun, eps=1.0e-3):
    """Richardson-extrapolated central second derivative at 0."""
    f0 = fun(0.0)

    def second(e):
        return (fun(e) - 2.0 * f0 + fun(-e)) / (e * e)

    return (4.0 * second(eps / 2.0) - second(eps)) / 3.0


# ------------------------------------------------------------- direct algebra


def test_delta_chord_ratio_formula(bumpy256, params21):
    cv = bumpy256
    phi = random_field(cv, 1)
    for i, j in PAIRS:
        pair = pair_frame(cv, i, j)
        dphi = phi.values[pair.i] - phi.values[pair.j]
        expect = 2.0 * float(np.dot(pair.dvec, dphi)) / pair.chord**2
        assert rel(pair_terms(pair, params21, phi)["chord_ratio"], expect) < 1.0e-12


def test_delta2_chord_ratio_formula(bumpy256, params21):
    cv = bumpy256
    phi, psi = random_field(cv, 1), random_field(cv, 2)
    pair = pair_frame(cv, 77, 20)
    dphi = phi.values[pair.i] - phi.values[pair.j]
    dpsi = psi.values[pair.i] - psi.values[pair.j]
    expect = 2.0 * float(np.dot(dphi, dpsi)) / pair.chord**2
    assert rel(pair_terms(pair, params21, phi, psi)["k_ratio"], expect) < 1.0e-12


def test_delta_k_is_derivative_of_chord_ratio(bumpy256, params21):
    # K(f, phi) varied along psi: compare against an explicit FD in the
    # chord quotient (pure vector algebra, no arclength subtleties)
    cv = bumpy256
    phi, psi = random_field(cv, 3), random_field(cv, 4)
    for i, j in [(40, 10), (150, 60)]:
        pair = pair_frame(cv, i, j)
        df = pair.dvec
        dphi = phi.values[pair.i] - phi.values[pair.j]
        dpsi = psi.values[pair.i] - psi.values[pair.j]

        def kq(e):
            d = df + e * dpsi
            return float(np.dot(d, dphi) / np.dot(d, d))

        assert rel(pair_terms(pair, params21, phi, psi)["delta_k"], fd1(kq)) < 1.0e-9


# ------------------------------------------------ structural identities


@pytest.mark.parametrize("alpha,p", [(2.0, 1.0), (2.5, 1.5), (2.0, 2.0)])
def test_pair_terms_match_the_grid(alpha, p):
    # pair_terms and the GridOperator run the same Blocks formulas, one on a
    # single pair, the other on row chunks of the half grid unfolded by the
    # pair swap: the sums of G and H must agree bit for bit, band pair and
    # antipodal pairs included
    cv = random_curve(0, M=256, n=3)
    pr = EnergyParams(alpha, p)
    op = GridOperator(cv, pr)
    phi, psi = random_field(cv, 5), random_field(cv, 6)
    G = op.g_values(phi)
    H = op.h_values(phi, psi)[0]
    for i, j in PAIRS + [(cv.M // 2, 0), (0, cv.M // 2), (5, 250)]:
        t = pair_terms(pair_frame(cv, i, j), pr, phi, psi)
        k = (i - j) % cv.M
        assert sum(t["G"].values()) == G[j, k], (i, j)
        assert sum(t["H"].values()) == H[j, k], (i, j)


@pytest.mark.parametrize("seed,M,n", [(5, 96, 8), (0, 96, 3)])
def test_one_pair_equals_the_grid_in_every_dimension(seed, M, n):
    # a pair reads its squared chord off the curve's grid, so pair_terms gives
    # the grid's values also where n >= 8, where a dot of the chord vector sums
    # its components in another order than the grid does
    cv = random_curve(seed, M=M, n=n)
    pr = EnergyParams(2.5, 1.5)
    op = GridOperator(cv, pr)
    phi, psi = random_field(cv, 5), random_field(cv, 6)
    m = _unfold(op.malpha)
    G = op.g_values(phi)
    H = op.h_values(phi, psi)[0]
    c2 = cv.chord2_grid()
    for j in (0, 17, 50, 95):
        for k in list(range(3, M - 2, 4)) + [M // 2]:
            i = (j + k) % M
            pair = pair_frame(cv, i, j)
            assert pair.chord2 == c2[j, k], (i, j)
            t = pair_terms(pair, pr, phi, psi)
            assert t["m_alpha"] == m[j, k], (i, j)
            assert sum(t["G"].values()) == G[j, k], (i, j)
            assert sum(t["H"].values()) == H[j, k], (i, j)


def test_term_labels(bumpy256, params21):
    cv = bumpy256
    phi, psi = random_field(cv, 5), random_field(cv, 6)
    t = pair_terms(pair_frame(cv, 90, 33), params21, phi, psi)
    assert set(t["R"]) == {"R1", "R2"}
    assert set(t["S"]) == {"S1", "S2", "S3", "S4", "S5"}
    assert set(t["P"]) == {"P1", "P2"}
    assert set(t["Q"]) == {"Q1", "Q2", "Q3", "Q4", "Q5", "Q6"}
    assert set(t["G"]) == {"G1", "G2"}
    assert set(t["H"]) == {"H1", "H2", "H3", "H4", "H5", "H6"}


def test_swap_symmetry(bumpy256, params21):
    # the second variation is a symmetric bilinear form, term sums included
    cv = bumpy256
    phi, psi = random_field(cv, 7), random_field(cv, 8)
    for i, j in PAIRS:
        pair = pair_frame(cv, i, j)
        ta = pair_terms(pair, params21, phi, psi)
        tb = pair_terms(pair, params21, psi, phi)
        a, b = sum(ta["H"].values()), sum(tb["H"].values())
        assert abs(a - b) <= 1.0e-10 * max(abs(a), 1.0)
        a, b = sum(ta["S"].values()), sum(tb["S"].values())
        assert abs(a - b) <= 1.0e-10 * max(abs(a), 1.0)


def test_translation_invariance(bumpy256, params21):
    # constant phi: no chord change, no tangent change, zero everywhere
    cv = bumpy256
    const = Field(cv, np.tile([0.3, -0.7], (cv.M, 1)))
    t = pair_terms(pair_frame(cv, 66, 9), params21, const)
    assert abs(t["chord_ratio"]) < 1.0e-13
    assert abs(sum(t["R"].values())) < 1.0e-13
    assert abs(sum(t["P"].values())) < 1.0e-12
    assert abs(sum(t["G"].values())) < 1.0e-12


def test_rotation_equivariance(params21):
    cv = random_curve(0, M=128, n=3)
    phi = random_field(cv, 9)
    # Rodrigues rotation about (1,1,1)/sqrt(3) by 0.7 rad
    ax = np.ones(3) / np.sqrt(3.0)
    K = np.array([[0, -ax[2], ax[1]], [ax[2], 0, -ax[0]], [-ax[1], ax[0], 0]])
    R = np.eye(3) + np.sin(0.7) * K + (1 - np.cos(0.7)) * (K @ K)
    cv_r = ClosedCurve(cv.positions @ R.T, cv.L)
    phi_r = Field(cv_r, phi.values @ R.T)
    # the recovered tangent rotates along (to interpolation accuracy), and
    # away from the diagonal the pair quantities follow at that level
    assert np.abs(cv_r.tau - cv.tau @ R.T).max() < 1.0e-8
    for i, j in [(30, 90), (64, 5)]:
        t = pair_terms(pair_frame(cv, i, j), params21, phi)
        t_r = pair_terms(pair_frame(cv_r, i, j), params21, phi_r)
        assert rel(t["density"], t_r["density"]) < 1.0e-9
        a, b = sum(t["G"].values()), sum(t_r["G"].values())
        assert abs(a - b) <= 1.0e-8 * max(abs(a), 1.0)


def test_dilation_identities(bumpy256):
    # phi = f: N is scale invariant, so delta N = 0; the assembled first
    # variation collapses to (2 - alpha p) M^p pointwise
    cv = bumpy256
    f = Field(cv, cv.positions.copy())
    for pr in (EnergyParams(2.0, 1.0), EnergyParams(2.4, 1.0), EnergyParams(2.0, 2.0)):
        for i, j in PAIRS:
            t = pair_terms(pair_frame(cv, i, j), pr, f)
            assert abs(t["chord_ratio"] - 2.0) < 1.0e-10
            dn = sum(t["R"].values())
            assert abs(dn) < 1.0e-10
            g = sum(t["G"].values())
            expect = (2.0 - pr.alpha * pr.p) * t["density"]
            assert abs(g - expect) < 1.0e-9 * max(abs(expect), 1.0)


# ----------------------------------------------------- finite-difference FD


def test_first_variation_matches_general_param_fd(bumpy256):
    # pairs stay off the antipodal set: there the intrinsic distance takes
    # the min of two arcs and its eps-derivative has a kink, so the smooth
    # per-pair identity holds only for k != M/2
    cv = bumpy256
    phi = random_field(cv, 10)
    for pr in (EnergyParams(2.0, 1.0), EnergyParams(2.4, 1.0)):
        for i, j in PAIRS:
            t = pair_terms(pair_frame(cv, i, j), pr, phi)
            got = sum(t["G"].values())

            def dens(e):
                if e == 0.0:
                    return t["density"]
                return density_general_param(
                    GeneralParamCurve(cv, phi, e), i, j, pr
                )

            ref = fd1(dens)
            assert abs(got - ref) <= 1.0e-7 * max(abs(ref), 1.0)


def test_second_variation_matches_general_param_fd(bumpy256, params21):
    cv = bumpy256
    phi = random_field(cv, 12)
    for i, j in PAIRS:
        t = pair_terms(pair_frame(cv, i, j), params21, phi, phi)
        got = sum(t["H"].values())

        def dens(e):
            if e == 0.0:
                return t["density"]
            return density_general_param(
                GeneralParamCurve(cv, phi, e), i, j, params21
            )

        ref = fd2(dens)
        assert abs(got - ref) <= 1.0e-5 * max(abs(ref), 1.0)


def test_delta_m_matches_unit_speed_fd():
    # vary, reparametrize to unit speed, and read M at the *materially
    # transported* pair: this is the intrinsic derivative delta M without
    # the Jacobian term, so compare against P1 + P2 alone
    from ohara.curve import from_samples

    cv = random_curve(4, M=192, n=3)
    phi = random_field(cv, 13)
    pr = EnergyParams(2.0, 1.0)
    i, j = 50, 10
    got = sum(pair_terms(pair_frame(cv, i, j), pr, phi)["P"].values())

    def m_of(e):
        g = GeneralParamCurve(cv, phi, e)
        c = g.chord(i, j)
        D = g.intrinsic(i, j)
        bracket = -np.expm1(pr.alpha * np.log(min(c / D, 1.0)))
        return float(bracket / c**pr.alpha)

    assert rel(got, fd1(m_of)) < 1.0e-7


def test_p_between_one_and_two_regular_pairs(bumpy256):
    # 1 < p < 2: H2 carries M^(p-2); on pairs where M is healthy nothing
    # should flag
    pr = EnergyParams(1.8, 1.5)
    cv = bumpy256
    phi, psi = random_field(cv, 14), random_field(cv, 15)
    for i, j in PAIRS:
        h = pair_terms(pair_frame(cv, i, j), pr, phi, psi)["H"]
        assert np.isfinite(sum(h.values()))


_H2_RAISES = {
    "pair": (
        lambda cv, pr, phi, psi: pair_terms(pair_frame(cv, 40, 10), pr, phi, psi),
        "H2 is singular at pair (40, 10)",
    ),
    "diagonal": (
        lambda cv, pr, phi, psi: diagonal_limit(cv, phi, psi, pr, 0.0, "h"),
        "H2 singular along the diagonal path",
    ),
}


@pytest.mark.parametrize("where", sorted(_H2_RAISES))
def test_h2_singular_pairs_raise(bumpy256, monkeypatch, where):
    # 1 < p < 2 with every M_alpha below the threshold: each pair is flagged
    # and, away from the grid quadrature, the flag raises
    call, message = _H2_RAISES[where]
    cv = bumpy256
    monkeypatch.setattr(variations, "H2_SINGULAR_THRESHOLD", 1.0e300)
    with pytest.raises(NumericalError, match=re.escape(message)):
        call(cv, EnergyParams(2.5, 1.5), random_field(cv, 14), random_field(cv, 15))
