"""Pointwise variation formulas checked against independent finite differences.

The general-parameter density (Jacobian-weighted, intrinsic-distance aware)
serves as the oracle: its eps-derivatives at eps = 0 must equal the assembled
first- and second-variation integrands pair by pair.
"""

import re
import warnings

import numpy as np
import pytest

from ohara import variations
from ohara._pairs import PairSet, k_raw, n_raw
from ohara.curve import ClosedCurve, Field, pair_frame, random_curve, random_field
from ohara.errors import NumericalError
from ohara.kernels import EnergyParams, phi_alpha
from ohara.quadrature import GridOperator, _g_grid, holder_chain_check
from ohara.variations import Blocks, pair_terms
from ohara.verify import diagonal_limit

from conftest import GeneralParamCurve, density_general_param, rel

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
    # a pair and the operator's rows both take the squared chord as the dot of
    # the pair's own chord vector, so pair_terms gives the grid's values also
    # where n >= 8, where that dot sums its components in another order than
    # einsum does
    cv = random_curve(seed, M=M, n=n)
    pr = EnergyParams(2.5, 1.5)
    op = GridOperator(cv, pr)
    phi, psi = random_field(cv, 5), random_field(cv, 6)
    with np.errstate(divide="ignore", invalid="ignore"):
        whole = Blocks(PairSet(cv, slice(None), slice(None)), params=pr)
        m = whole.malpha()
    G = op.g_values(phi)
    H = op.h_values(phi, psi)[0]
    c2 = whole.ev.chord2
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


# ------------------------------------------- the parent's blocks, bit for bit


class _ParentPairs(PairSet):
    """:class:`PairSet` reading its pairs as the parent commit did: a doubled
    table and a sliding window built on every read."""

    def _first_of(self, samples):
        table = np.ascontiguousarray(samples.T)
        doubled = np.concatenate([table, table], axis=-1)
        win = np.lib.stride_tricks.sliding_window_view(doubled, self.curve.M, axis=-1)
        return win[..., :self.curve.M, :][..., self._rows, self._cols]

    def _second_of(self, samples):
        return np.ascontiguousarray(samples.T)[..., self.j]

    @property
    def dvec(self):
        pos = self.curve.positions
        return self._first_of(pos) - self._second_of(pos)

    def integral(self, field):
        P, T = field.prefix()
        out = self._first_of(P) - self._second_of(P)
        out += self.wrap * np.reshape(T, np.shape(T) + (1,) * self.wrap.ndim)
        return out

    def value1(self, field):
        return self._first_of(field.values)

    def value2(self, field):
        return self._second_of(field.values)


class _ParentBlocks:
    """The parent commit's ``variations.Blocks``, unseeded: every product
    field, its prefix and every power of M_alpha are built per instance, and
    every block and term dict is memoized."""

    def __init__(self, ev, params=None, phi=None, psi=None):
        self.ev = ev
        self.params = params
        self.phi = phi
        self.psi = psi
        self._memo = {}

    @property
    def tau(self):
        return self.ev.curve.tau_field

    def _n(self, u, v, uv):
        # every integral read again on each call
        ev = self.ev
        return n_raw(ev, ev.integral(u), ev.integral(v), ev.integral(uv))

    def _k(self, u, v):
        ev = self.ev
        return k_raw(ev, ev.value1(u) - ev.value2(u), ev.value1(v) - ev.value2(v))

    @variations._memo
    def ntt_raw(self):
        return self._n(self.tau, self.tau, self.tau.dot(self.tau))

    @variations._memo
    def ntt(self):
        return np.where(self.ntt_raw() < 0.0, 0.0, self.ntt_raw())

    @variations._memo
    def calpha(self):
        return np.power(self.ev.chord2, self.params.alpha / 2.0)

    @variations._memo
    def phis(self):
        return phi_alpha(self.ntt(), self.params.alpha)

    @variations._memo
    def malpha(self):
        return self.phis()[0] / self.calpha()

    def _field(self, which):
        return self.phi if which == "phi" else self.psi

    def _dfield(self, which):
        return self._field(which).deriv

    @variations._memo
    def _t_dot(self, which):
        return self.tau.dot(self._dfield(which))

    @variations._memo
    def kf(self, which):
        return self._k(self.ev.curve.position_field, self._field(which))

    @variations._memo
    def nt(self, which):
        return self._n(self.tau, self._dfield(which), self._t_dot(which))

    @variations._memo
    def t1(self, which):
        return self.ev.value1(self._t_dot(which))

    @variations._memo
    def t2(self, which):
        return self.ev.value2(self._t_dot(which))

    @variations._memo
    def kpq(self):
        return self._k(self.phi, self.psi)

    @variations._memo
    def npq(self):
        dp, dq = self.phi.deriv, self.psi.deriv
        return self._n(dp, dq, dp.dot(dq))

    @variations._memo
    def nscal(self):
        u, v = self._t_dot("phi"), self._t_dot("psi")
        ev = self.ev  # the parent's N for scalar fields
        return (ev.ds * ev.integral(u.dot(v)) - ev.integral(u) * ev.integral(v)) / ev.chord2

    @variations._memo
    def pp_split(self):
        pq = self._dfield("phi").dot(self._dfield("psi"))
        return self.ev.value1(pq), self.ev.value2(pq)

    @variations._memo
    def dn_terms(self, which):
        return {"R1": -2.0 * self.kf(which) * self.ntt(), "R2": 2.0 * self.nt(which)}

    @variations._memo
    def dn(self, which):
        t = self.dn_terms(which)
        return t["R1"] + t["R2"]

    @variations._memo
    def d2n_terms(self):
        ntt = self.ntt()
        kfp, kfq = self.kf("phi"), self.kf("psi")
        return {
            "S1": -2.0 * (self.kpq() - 2.0 * kfp * kfq) * ntt,
            "S2": -kfp * self.dn("psi") - kfq * self.dn("phi"),
            "S3": -2.0 * kfq * self.nt("phi") - 2.0 * kfp * self.nt("psi"),
            "S4": 2.0 * self.npq(),
            "S5": -2.0 * self.nscal(),
        }

    @variations._memo
    def dm_terms(self, which):
        _, p1, _ = self.phis()
        alpha = self.params.alpha
        return {
            "P1": p1 * self.dn(which) / self.calpha(),
            "P2": -(alpha / 2.0) * self.malpha() * 2.0 * self.kf(which),
        }

    @variations._memo
    def dm(self, which):
        t = self.dm_terms(which)
        return t["P1"] + t["P2"]

    @variations._memo
    def d2m_terms(self):
        _, p1, p2 = self.phis()
        alpha = self.params.alpha
        ca = self.calpha()
        d2n = sum(self.d2n_terms().values())
        dnp, dnq = self.dn("phi"), self.dn("psi")
        kfp, kfq = self.kf("phi"), self.kf("psi")
        return {
            "Q1": p1 * d2n / ca,
            "Q2": -(alpha / 2.0) * p1 * (dnp / ca) * (2.0 * kfq),
            "Q3": p2 * dnp * dnq / ca,
            "Q4": -(alpha / 2.0) * self.dm("psi") * (2.0 * kfp),
            "Q5": -(alpha / 2.0) * self.malpha() * (2.0 * self.kpq()),
            "Q6": (alpha / 2.0) * self.malpha() * (2.0 * kfp) * (2.0 * kfq),
        }

    @variations._memo
    def d2m(self):
        return sum(self.d2m_terms().values())

    @variations._memo
    def g_terms(self, which):
        p = self.params.p
        m = self.malpha()
        mp1 = np.power(m, p - 1.0) if p != 1.0 else np.ones_like(np.asarray(m))
        g1 = p * mp1 * self.dm(which)
        g2 = m * mp1 * (self.t1(which) + self.t2(which))
        return {"G1": g1, "G2": g2}

    @variations._memo
    def h_terms(self):
        p = self.params.p
        m = np.asarray(self.malpha())
        mp = np.power(m, p)
        mp1 = np.power(m, p - 1.0) if p != 1.0 else np.ones_like(m)
        dmp, dmq = np.asarray(self.dm("phi")), np.asarray(self.dm("psi"))
        if p == 1.0:
            h2 = np.zeros_like(m)
            flagged = np.zeros_like(m, dtype=bool)
        elif p >= 2.0:
            h2 = p * (p - 1.0) * np.power(m, p - 2.0) * dmp * dmq
            flagged = np.zeros_like(m, dtype=bool)
        else:
            sing = m < variations.H2_SINGULAR_THRESHOLD
            safe_m = np.where(sing, 1.0, m)
            h2 = p * (p - 1.0) * np.power(safe_m, p - 2.0) * dmp * dmq
            vanish = (np.abs(dmp) <= variations.H2_DELTA_TOLERANCE) & (
                np.abs(dmq) <= variations.H2_DELTA_TOLERANCE
            )
            h2 = np.where(sing, 0.0, h2)
            flagged = sing & ~vanish
        tp = self.t1("phi") + self.t2("phi")
        tq = self.t1("psi") + self.t2("psi")
        pp1, pp2 = self.pp_split()
        g1p = self.g_terms("phi")["G1"]
        g1q = self.g_terms("psi")["G1"]
        terms = {
            "H1": p * mp1 * self.d2m(),
            "H2": h2,
            "H3": g1p * tq,
            "H4": g1q * tp,
            "H5": mp * ((pp1 + pp2) - 2.0 * (
                self.t1("phi") * self.t1("psi") + self.t2("phi") * self.t2("psi")
            )),
            "H6": mp * tp * tq,
        }
        return terms, flagged


def _outputs(cv, pr, phi, psi):
    """Every output of the row-chunk variation passes on ``cv``, with
    ``holder_chain_check`` where it is defined (p > 1)."""
    op = GridOperator(cv, pr)
    (G,) = op._half(_g_grid, phi)
    H, flagged = op._half(op._h_grid, phi, psi)
    out = {"G": G, "H": H, "flagged": flagged, "first_variation": op.first_variation(phi)}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the flagged case warns on both sides
        out["second_variation"] = op.second_variation(phi, psi)
    if pr.p > 1.0:
        out["holder_chain_check"] = holder_chain_check(cv, phi, psi, pr)
    return out


def _parent_rows(op, j0, j1, phi=None, psi=None, fields=None):
    # unseeded, so the parent's geometry blocks are computed on the same
    # rows; the parent built its product fields per chunk, so fields is unused
    return _ParentBlocks(_ParentPairs(op.curve, slice(j0, j1), slice(op.curve.M // 2 + 1)),
                         params=op.params, phi=phi, psi=psi)


def _assert_parent_bits(monkeypatch, cv, pr):
    phi, psi = random_field(cv, 40), random_field(cv, 41)
    got = _outputs(cv, pr, phi, psi)
    with monkeypatch.context() as m:
        m.setattr(GridOperator, "_rows", _parent_rows)
        ref = _outputs(cv, pr, phi, psi)
    assert got.keys() == ref.keys()
    for name in ("G", "H", "flagged"):
        assert np.array_equal(got[name], ref[name], equal_nan=True), name
    for name in ("first_variation", "second_variation", "holder_chain_check"):
        assert got.get(name) == ref.get(name), name
    # the operator's geometry blocks against the parent's, on the whole half
    op = GridOperator(cv, pr)
    with np.errstate(divide="ignore", invalid="ignore"):
        pb = _parent_rows(op, 0, cv.M)
        parent = {"ntt": pb.ntt(), "calpha": pb.calpha(), "malpha": pb.malpha(),
                  "dphis": pb.phis()[1:]}
    for name, block in parent.items():
        assert np.array_equal(getattr(op, name), block, equal_nan=True), name
    return got


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("alpha,p", [(2.0, 1.0), (2.5, 1.5), (2.0, 2.0), (2.2, 3.0)])
def test_blocks_keep_the_parent_bits(uneven_chunks, monkeypatch, alpha, p, n):
    # per-pass product fields, cached field windows, one M_alpha^(p-1) per
    # chunk, term dicts built on demand and the unmasked H2 product where no
    # pair is singular change no bit
    cv = random_curve(3, M=uneven_chunks.M, n=n)
    _assert_parent_bits(monkeypatch, cv, EnergyParams(alpha, p))


def test_blocks_keep_the_parent_bits_where_h2_flags(monkeypatch):
    # a high threshold makes the H2 flags fire at p = 1.5
    monkeypatch.setattr(variations, "H2_SINGULAR_THRESHOLD", 0.1)
    got = _assert_parent_bits(monkeypatch, random_curve(3, M=96, n=3), EnergyParams(2.5, 1.5))
    assert got["flagged"].any()
