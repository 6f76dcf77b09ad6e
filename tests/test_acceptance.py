"""End-to-end behavioral gate for the package, one test per guarantee.

Each test pins the quantitative promise the package makes about one facet:
kernel reformulation, variation correctness, diagonal asymptotics, inequality
chains, invariances, the circle oracle, flow descent, and norm-ratio
boundedness.  Tolerances are fixed here and nowhere else; these tests are the
contract.
"""

import time

import numpy as np
from scipy.integrate import quad

from ohara._pairs import PairSet
from ohara.curve import (
    ClosedCurve,
    Field,
    circle,
    ellipse,
    pair_frame,
    random_curve,
    random_field,
)
from ohara.flow import circle_distance, run_flow
from ohara.kernels import EnergyParams, n_tau_checked, phi_alpha
from ohara.norms import product_seminorm_check, sobolev_linf_norm
from ohara.quadrature import (
    _offband_cols,
    density_grid,
    energy,
    first_variation,
    holder_chain_check,
    second_variation,
)
from ohara.variations import Blocks, pair_terms
from ohara.verify import (
    circle_reference,
    diagonal_limit,
    fd_energy_gradient,
    fd_energy_hessian,
    neville_h2,
)

from conftest import GeneralParamCurve, density_general_param, perturbed_circle, rel

#: the advertised admissible parameter pairs exercised throughout
PARAMS = [(2.0, 1.0), (2.4, 1.0), (2.0, 2.0), (1.2, 2.0)]


def _seeded_pairs(M, count, band=2, seed=2024):
    """Reproducible random off-band sample pairs, never exactly antipodal."""
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < count:
        i, j = map(int, rng.integers(0, M, 2))
        k = (i - j) % M
        if min(k, M - k) > band and k != M // 2:
            pairs.append((i, j))
    return pairs


def _fd1(fun, eps=1.0e-5):
    def central(e):
        return (fun(e) - fun(-e)) / (2.0 * e)

    return (4.0 * central(eps / 2.0) - central(eps)) / 3.0


def test_reformulated_density_matches_subtraction_off_band():
    # the bilinear reformulation must reproduce the defining subtraction
    # 1/|df|^a - 1/D^a at every off-band pair, to 1e-11 of the kernel scale
    # 1/|df|^a (the term whose cancellation it eliminates), on five random
    # smooth bi-Lipschitz curves -- and do so in seconds, not minutes
    t0 = time.time()
    worst = 0.0
    for seed in range(5):
        cv = random_curve(seed, M=256, n=3)
        ps = PairSet(cv, slice(None), slice(None))
        cols = _offband_cols(cv.M, 2)
        b = Blocks(ps)
        with np.errstate(divide="ignore", invalid="ignore"):
            ntt = n_tau_checked(b.ntt_raw(), np.broadcast_to(cols, ps.chord2.shape))
        c = np.sqrt(ps.chord2)
        for a, p in PARAMS:
            with np.errstate(divide="ignore", invalid="ignore"):
                val, _, _ = phi_alpha(ntt, a)
                reform = val / c**a
                naive = 1.0 / c**a - 1.0 / ps.D**a
            scale = 1.0 / c[:, cols] ** a
            gap = np.abs(reform[:, cols] - naive[:, cols]) / scale
            worst = max(worst, float(gap.max()))
    assert worst <= 1.0e-11
    assert time.time() - t0 < 30.0


def test_first_variation_matches_finite_differences():
    cv = random_curve(0, M=256, n=3)
    phi = random_field(cv, 100)
    # assembled double integral of G against Richardson FD of the energy
    for a, p in PARAMS:
        pr = EnergyParams(a, p)
        got = first_variation(cv, phi, pr)
        _, ref = fd_energy_gradient(cv, phi, pr)
        assert rel(got, ref) < 1.0e-6, (a, p)
    # pointwise G against FD of the Jacobian-weighted general-parameter
    # density at 20 reproducible random pairs
    for a, p in PARAMS:
        pr = EnergyParams(a, p)
        for i, j in _seeded_pairs(cv.M, 20):
            got = sum(pair_terms(pair_frame(cv, i, j), pr, phi)["G"].values())

            def dens(e):
                return density_general_param(GeneralParamCurve(cv, phi, e), i, j, pr)

            ref = _fd1(dens)
            assert abs(got - ref) <= 1.0e-6 * abs(ref), (a, p, i, j)


def test_second_variation_matches_finite_differences_and_is_symmetric():
    cv = random_curve(0, M=192, n=3)
    phi = random_field(cv, 100)
    psi = random_field(cv, 101)
    for a, p in PARAMS:
        pr = EnergyParams(a, p)
        got = second_variation(cv, phi, psi, pr)
        ref = fd_energy_hessian(cv, phi, psi, pr)
        assert rel(got, ref) < 1.0e-4, (a, p)
        for i, j in _seeded_pairs(cv.M, 6, seed=77):
            pf = pair_frame(cv, i, j)
            hab = sum(pair_terms(pf, pr, phi, psi)["H"].values())
            hba = sum(pair_terms(pf, pr, psi, phi)["H"].values())
            assert abs(hab - hba) <= 1.0e-10 * max(abs(hab), 1.0), (a, p, i, j)


def test_circle_weighted_density_asymptotics():
    # (a) on the unit circle the canonically weighted density extrapolates
    # to (alpha/24)^p, including parameter pairs outside the energy window
    for a in (2.0, 2.4, 3.0):
        for p in (1.0, 2.0):
            hs = 0.4 / 2.0 ** np.arange(6)
            doc = circle_reference(a, p, list(hs))
            ext = neville_h2(hs, [r["weighted"] for r in doc["rows"]])
            assert rel(ext, doc["limit"]) < 1.0e-5, (a, p)
    # (b) under-weighting by 0.1 in the exponent leaves a divergent quantity:
    # for (3, 1) the closed form is 0.125 * ds^(-0.1) * (1 + O(ds^2)), so the
    # values grow without bound as the separation shrinks, at rate -0.1.
    # Growth that slow passes 1e3 only below ds = 8000^(-10) ~ 9.3e-40, so
    # the threshold is checked at ds = 1e-40 (value 1250), which the closed
    # form evaluates without overflow.
    gamma = (3.0 - 2.0) * 1.0 - 0.1
    ds = np.array([1.0e-1, 1.0e-2, 1.0e-3, 1.0e-4, 1.0e-40])
    vals = np.array([
        d**gamma * r["density"]
        for d, r in zip(ds, circle_reference(3.0, 1.0, ds)["rows"])
    ])
    assert all(b > a for a, b in zip(vals, vals[1:]))  # genuinely divergent
    assert vals[-1] > 1.0e3
    # the divergence rate and its constant, where the O(ds^2) term is small
    small = ds <= 1.0e-2
    lead = 0.125 * ds[small] ** -0.1
    assert np.all(np.abs(vals[small] / lead - 1.0) < 1.0e-5)
    slopes = np.diff(np.log(vals[small])) / np.diff(np.log(ds[small]))
    assert np.all(np.abs(slopes + 0.1) < 1.0e-4), slopes


def test_diagonal_limits_match_closed_forms():
    kinds = ("m_alpha", "r1", "r2", "s1", "s2", "s3", "s4", "s5")
    shapes = [circle(128), ellipse(2.0, 1.0, 128)]
    for cv in shapes:
        phi = random_field(cv, 52)
        psi = random_field(cv, 53)
        points = [k * (cv.M // 8) * cv.h for k in range(8)]
        for a, p in [(2.0, 1.0), (2.4, 1.0)]:
            pr = EnergyParams(a, p)
            for s in points:
                for which in kinds:
                    rep = diagonal_limit(cv, phi, psi, pr, s, which)
                    if rep.reference != 0.0:
                        assert rep.gap_rel < 1.0e-4, (which, a, s)
                    else:
                        scale = max(abs(v) for _, v in rep.samples)
                        assert rep.gap_abs <= 1.0e-4 * max(scale, 1.0), (
                            which, a, s,
                        )


def test_variation_term_bounds_hold():
    # all eight integral bounds, five random instances at p = 2
    for seed in range(5):
        cv = random_curve(10 + seed, M=128, n=3)
        phi = random_field(cv, 2 * seed)
        psi = random_field(cv, 2 * seed + 1)
        rep = holder_chain_check(cv, phi, psi, EnergyParams(2.0, 2.0))
        assert len(rep) == 8
        for name, row in rep.items():
            assert row["margin"] >= -1.0e-10, (seed, name)


def test_product_seminorm_constant_one():
    # the two-factor product bound with constant exactly 1, twenty instances
    count = 0
    for cseed in range(4):
        cv = random_curve(20 + cseed, M=128, n=3)
        for fseed in range(5):
            out = product_seminorm_check(cv, random_field(cv, fseed))
            assert out["margin"] >= -1.0e-10, (cseed, fseed)
            count += 1
    assert count == 20


def test_energy_invariances():
    pr = EnergyParams(2.0, 1.0)
    cv = random_curve(0, M=192, n=3)
    phi = random_field(cv, 70)
    psi = random_field(cv, 71)
    e0 = energy(cv, pr)
    g0 = first_variation(cv, phi, pr)
    h0 = second_variation(cv, phi, psi, pr)

    # rigid motion: rotation about a skew axis plus a shift
    ax = np.ones(3) / np.sqrt(3.0)
    K = np.array([[0, -ax[2], ax[1]], [ax[2], 0, -ax[0]], [-ax[1], ax[0], 0]])
    R = np.eye(3) + np.sin(0.7) * K + (1 - np.cos(0.7)) * (K @ K)
    cvr = ClosedCurve(cv.positions @ R.T + np.array([3.0, -1.0, 0.5]), cv.L)
    phir = Field(cvr, phi.values @ R.T)
    psir = Field(cvr, psi.values @ R.T)
    assert rel(energy(cvr, pr), e0) < 1.0e-12
    assert rel(first_variation(cvr, phir, pr), g0) < 1.0e-12
    assert rel(second_variation(cvr, phir, psir, pr), h0) < 1.0e-12

    # parameter shift (cyclic re-origin)
    k = 57
    cvs = ClosedCurve(np.roll(cv.positions, -k, axis=0), cv.L)
    phis = Field(cvs, np.roll(phi.values, -k, axis=0))
    psis = Field(cvs, np.roll(psi.values, -k, axis=0))
    assert rel(energy(cvs, pr), e0) < 1.0e-12
    assert rel(first_variation(cvs, phis, pr), g0) < 1.0e-12
    assert rel(second_variation(cvs, phis, psis, pr), h0) < 1.0e-12

    # scaling law E(2f) = 2^(2 - alpha p) E(f) across the parameter set
    big = ClosedCurve(2.0 * cv.positions, 2.0 * cv.L)
    for a, p in PARAMS:
        pra = EnergyParams(a, p)
        assert rel(
            energy(big, pra), 2.0 ** (2.0 - a * p) * energy(cv, pra)
        ) < 1.0e-8, (a, p)

    # scale-invariant case: dilation is a null direction through second order
    f = Field(cv, cv.positions - cv.positions.mean(axis=0))
    assert abs(first_variation(cv, f, pr)) < 1.0e-6 * e0
    assert abs(second_variation(cv, f, f, pr)) < 1.0e-6 * e0


def test_circle_energy_matches_independent_quadrature():
    # 1D adaptive quadrature of the closed-form circle density, no curve
    # object involved, against the full double-sum pipeline at M = 512
    def dens(u):
        return circle_reference(2.0, 1.0, [u])["rows"][0]["density"]

    val, quad_err = quad(dens, 0.0, np.pi, limit=200)
    oracle = 2.0 * np.pi * 2.0 * val
    assert quad_err < 1.0e-10
    pr = EnergyParams(2.0, 1.0)
    e512 = energy(circle(512), pr)
    assert rel(e512, oracle) < 1.0e-8
    assert rel(e512, energy(circle(1024), pr)) < 1.0e-6


def test_gradient_flow_descends_to_rounder_curve():
    t0 = time.time()
    cv = perturbed_circle(256, amp=0.05, mode=3)
    d_init = circle_distance(cv)
    state = run_flow(cv, EnergyParams(2.0, 1.0), steps=52)
    assert not state.halted
    assert state.step >= 50
    e = state.energies
    assert all(b < a for a, b in zip(e, e[1:]))  # strictly monotone
    assert circle_distance(state.curve) < d_init
    assert time.time() - t0 < 300.0


def test_first_variation_norm_ratio_bounded():
    # |G|_L1 over the perturbation's combined smoothness norm: across twenty
    # random fields on one curve the ratio spreads by well under 10x
    pr = EnergyParams(2.0, 2.0)
    cv = random_curve(3, M=128, n=3)
    ratios = []
    for seed in range(20):
        phi = random_field(cv, seed)
        g = density_grid(cv, pr, which="g", phi=phi)
        denom = sobolev_linf_norm(phi.deriv, pr.sigma, 2.0 * pr.p)
        ratios.append(g.l1 / denom)
    assert max(ratios) <= 10.0 * min(ratios)
