"""First and second variations of the (alpha, p) kernels, term by term.

:class:`Blocks` computes each variation as its labeled constituent terms,
mirroring the decompositions used throughout the analysis:

* ``delta N = R1 + R2``, ``delta^2 N = S1 + ... + S5``
* ``delta M_alpha = P1 + P2``, ``delta^2 M_alpha = Q1 + ... + Q6``
* integrand of the first variation ``G = G1 + G2``
* integrand of the second variation ``H = H1 + ... + H6``

with the chord-ratio building blocks

    delta |df|^2 / |df|^2   = 2 K(f, phi)
    delta^2 |df|^2 / |df|^2 = 2 K(phi, psi)
    delta K(f, phi)[psi]    = K(phi, psi) - 2 K(f, phi) K(f, psi).

All formulas are evaluated on a pair evaluator (one grid pair, rows or
columns of the offset grid, or off-grid probes -- see ``_pairs``), so
:func:`pair_terms`, which reads the terms of one sample pair, and the
quadrature module share one implementation.
"""

import functools

import numpy as np

from ._pairs import k_raw, n_raw, n_raw_scalar
from .errors import NumericalError
from .kernels import phi_alpha, n_tau_checked

__all__ = [
    "pair_terms",
    "H2_SINGULAR_THRESHOLD",
    "H2_DELTA_TOLERANCE",
]

#: below this value of M_alpha^(p-2)-relevant M_alpha, H2 is singular for p < 2
H2_SINGULAR_THRESHOLD = 1.0e-300
#: |delta M_alpha| below this counts as vanishing at a singular H2 pair
H2_DELTA_TOLERANCE = 1.0e-14


def _memo(fn):
    """Cache ``fn(self, *args)`` in the instance's memo, keyed by name and args."""
    name = fn.__name__

    @functools.wraps(fn)
    def cached(self, *args):
        key = (name,) + args
        if key not in self._memo:
            self._memo[key] = fn(self, *args)
        return self._memo[key]

    return cached


class Blocks:
    """Memoized pair-level building blocks for one (pairs, phi, psi) setup.

    Product fields (tau.phi', phi'.psi', ...) are built once per instance;
    each block is computed lazily on the evaluator's shape: one pair, a few,
    a row chunk of the offset grid or all of it.  ``params`` may be None for
    the parameter-free chord/N operations.

    ``geometry`` seeds the field-independent blocks N(tau, tau), |df|^alpha,
    phi_alpha and M_alpha, as returned by :meth:`geometry` of an instance on
    the same pairs (or views of them), so they are not recomputed.
    """

    GEOMETRY = ("ntt", "calpha", "phis", "malpha")

    def __init__(self, ev, params=None, phi=None, psi=None, geometry=None):
        self.ev = ev
        self.params = params
        self.phi = phi
        self.psi = psi
        self._memo = {(k,): v for k, v in (geometry or {}).items()}

    def geometry(self):
        """``{name: block}`` of the field-independent blocks."""
        return {k: getattr(self, k)() for k in self.GEOMETRY}

    # -- geometry ------------------------------------------------------------

    @property
    def tau(self):
        return self.ev.curve.tau_field

    @_memo
    def ntt_raw(self):
        # the product field tau . tau has samples 1 + O(eps)
        return n_raw(self.ev, self.tau, self.tau, self.tau.dot(self.tau))

    @_memo
    def ntt(self):
        """N(tau, tau), clamp applied; validity is checked by the caller."""
        return np.where(self.ntt_raw() < 0.0, 0.0, self.ntt_raw())

    @_memo
    def calpha(self):
        return np.power(self.ev.chord2, self.params.alpha / 2.0)

    @_memo
    def phis(self):
        return phi_alpha(self.ntt(), self.params.alpha)

    @_memo
    def malpha(self):
        return self.phis()[0] / self.calpha()

    # -- phi / psi dependent blocks -----------------------------------------

    def _field(self, which):
        return self.phi if which == "phi" else self.psi

    def _dfield(self, which):
        return self._field(which).deriv

    @_memo
    def _t_dot(self, which):
        # pointwise tau . phi' as a scalar field
        return self.tau.dot(self._dfield(which))

    @_memo
    def kf(self, which):
        return k_raw(self.ev, self.ev.curve.position_field, self._field(which))

    @_memo
    def nt(self, which):
        """N(tau, phi') -- the mixed bilinear block of delta N."""
        return n_raw(self.ev, self.tau, self._dfield(which), self._t_dot(which))

    @_memo
    def t1(self, which):
        return self.ev.value1(self._t_dot(which))

    @_memo
    def t2(self, which):
        return self.ev.value2(self._t_dot(which))

    @_memo
    def kpq(self):
        return k_raw(self.ev, self.phi, self.psi)

    @_memo
    def npq(self):
        dp, dq = self.phi.deriv, self.psi.deriv
        return n_raw(self.ev, dp, dq, dp.dot(dq))

    @_memo
    def nscal(self):
        # N((tau.phi'), (tau.psi')) with d = 1 scalar fields
        u, v = self._t_dot("phi"), self._t_dot("psi")
        return n_raw_scalar(self.ev, u, v, u.dot(v))

    @_memo
    def pp_split(self):
        # phi'.psi' at s1 and at s2
        pq = self._dfield("phi").dot(self._dfield("psi"))
        return self.ev.value1(pq), self.ev.value2(pq)

    # -- assembled variation pieces -----------------------------------------

    @_memo
    def dn_terms(self, which):
        return {"R1": -2.0 * self.kf(which) * self.ntt(), "R2": 2.0 * self.nt(which)}

    @_memo
    def dn(self, which):
        t = self.dn_terms(which)
        return t["R1"] + t["R2"]

    @_memo
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

    @_memo
    def dm_terms(self, which):
        _, p1, _ = self.phis()
        alpha = self.params.alpha
        return {
            "P1": p1 * self.dn(which) / self.calpha(),
            "P2": -(alpha / 2.0) * self.malpha() * 2.0 * self.kf(which),
        }

    @_memo
    def dm(self, which):
        t = self.dm_terms(which)
        return t["P1"] + t["P2"]

    @_memo
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

    @_memo
    def d2m(self):
        return sum(self.d2m_terms().values())

    @_memo
    def g_terms(self, which):
        p = self.params.p
        m = self.malpha()
        mp1 = np.power(m, p - 1.0) if p != 1.0 else np.ones_like(np.asarray(m))
        g1 = p * mp1 * self.dm(which)
        g2 = m * mp1 * (self.t1(which) + self.t2(which))
        return {"G1": g1, "G2": g2}

    @_memo
    def h_terms(self):
        """H1..H6 plus a mask of pairs where the H2 singular policy fired."""
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
            sing = m < H2_SINGULAR_THRESHOLD
            safe_m = np.where(sing, 1.0, m)
            h2 = p * (p - 1.0) * np.power(safe_m, p - 2.0) * dmp * dmq
            vanish = (np.abs(dmp) <= H2_DELTA_TOLERANCE) & (
                np.abs(dmq) <= H2_DELTA_TOLERANCE
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
            # grouped so that swapping s1 and s2 swaps operands of + only:
            # the pair-swap symmetry then holds bit for bit
            "H5": mp * ((pp1 + pp2) - 2.0 * (
                self.t1("phi") * self.t1("psi") + self.t2("phi") * self.t2("psi")
            )),
            "H6": mp * tp * tq,
        }
        return terms, flagged


def pair_terms(pair, params, phi=None, psi=None):
    """The pointwise quantities of one sample pair, read off one ``Blocks``.

    ``pair`` is the one-pair :class:`~ohara._pairs.PairSet` that
    ``curve.pair_frame`` returns.  The keys are:

    * always ``n_tau`` (validity policy applied), ``m_alpha`` and ``density``;
    * with ``phi``: ``chord_ratio`` (``2 K(f, phi)``), ``R`` (``delta N``),
      ``P`` (``delta M_alpha``) and ``G`` (first-variation integrand);
    * with ``phi`` and ``psi``: ``k_ratio`` (``2 K(phi, psi)``), ``delta_k``,
      ``S`` (``delta^2 N``), ``Q`` (``delta^2 M_alpha``) and ``H``
      (second-variation integrand).

    Values are floats; a sum is that of its terms, ``sum(t["G"].values())``.
    For 1 < p < 2 the H2 factor ``M_alpha^(p-2)`` is singular where the kernel
    vanishes: such a pair evaluates to the limit 0 when both first variations
    vanish there too, and raises :class:`NumericalError` otherwise.
    """
    b = Blocks(pair, params=params, phi=phi, psi=psi)
    ntt = n_tau_checked(b.ntt_raw())
    m = float(b.malpha())
    out = {"n_tau": ntt, "m_alpha": m, "density": m ** params.p}
    if phi is not None:
        out.update(chord_ratio=2.0 * b.kf("phi"), R=b.dn_terms("phi"),
                   P=b.dm_terms("phi"), G=b.g_terms("phi"))
    if phi is not None and psi is not None:
        terms, flagged = b.h_terms()
        if bool(np.any(flagged)):
            raise NumericalError(
                "H2 is singular at pair (%d, %d): M_alpha ~ 0 with nonvanishing "
                "delta M_alpha" % (pair.i, pair.j)
            )
        out.update(k_ratio=2.0 * b.kpq(), delta_k=b.kpq() - 2.0 * b.kf("phi") * b.kf("psi"),
                   S=b.d2n_terms(), Q=b.d2m_terms(), H=terms)
    return {k: {t: float(x) for t, x in v.items()} if isinstance(v, dict) else float(v)
            for k, v in out.items()}
