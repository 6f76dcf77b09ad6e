"""First and second variations of the (alpha, p) kernels, term by term.

Every operation returns its labeled constituent terms together with their
sum, mirroring the decompositions used throughout the analysis:

* ``delta N = R1 + R2``, ``delta^2 N = S1 + ... + S5``
* ``delta M_alpha = P1 + P2``, ``delta^2 M_alpha = Q1 + ... + Q6``
* integrand of the first variation ``G = G1 + G2``
* integrand of the second variation ``H = H1 + ... + H6``

with the chord-ratio building blocks

    delta |df|^2 / |df|^2   = 2 K(f, phi)
    delta^2 |df|^2 / |df|^2 = 2 K(phi, psi)
    delta K(f, phi)[psi]    = K(phi, psi) - 2 K(f, phi) K(f, psi).

All formulas are evaluated on a pair evaluator (single pair, list of pairs,
or rows of the offset grid -- see ``_pairs``), so the pointwise operations
here and the quadrature module share one implementation.
"""

import functools

import numpy as np

from ._pairs import PairSet, k_raw, n_raw, n_raw_scalar
from .errors import NumericalError
from .kernels import phi_alpha, n_tau_checked

__all__ = [
    "VariationTerms",
    "delta_chord_ratio",
    "delta2_chord_ratio",
    "delta_k",
    "delta_n_tau",
    "delta2_n_tau",
    "delta_m_alpha",
    "delta2_m_alpha",
    "first_variation_density",
    "second_variation_density",
    "H2_SINGULAR_THRESHOLD",
    "H2_DELTA_TOLERANCE",
]

#: below this value of M_alpha^(p-2)-relevant M_alpha, H2 is singular for p < 2
H2_SINGULAR_THRESHOLD = 1.0e-300
#: |delta M_alpha| below this counts as vanishing at a singular H2 pair
H2_DELTA_TOLERANCE = 1.0e-14

_SUM_CONSISTENCY = 1.0e-12


class VariationTerms:
    """Labeled variation terms and their sum.

    The sum is assembled once at construction and checked against the naive
    re-summation of the parts (relative tolerance 1e-12), so downstream code
    can rely on ``total`` and the term table never drifting apart.
    """

    def __init__(self, terms):
        self.terms = dict(terms)
        vals = list(self.terms.values())
        total = vals[0]
        for v in vals[1:]:
            total = total + v
        self.total = float(total)
        scale = max((abs(float(v)) for v in vals), default=0.0)
        resum = float(sum(float(v) for v in vals))
        if abs(self.total - resum) > _SUM_CONSISTENCY * max(scale, 1.0):
            raise NumericalError("variation terms do not re-sum consistently")

    def __getitem__(self, key):
        return float(self.terms[key])

    def __iter__(self):
        return iter(self.terms)

    def as_dict(self):
        out = {k: float(v) for k, v in self.terms.items()}
        out["total"] = self.total
        return out

    def __repr__(self):
        inner = ", ".join("%s=%.6g" % (k, float(v)) for k, v in self.terms.items())
        return "VariationTerms(%s, total=%.6g)" % (inner, self.total)


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
    """Memoized pair-level building blocks for one (curve, phi, psi) setup.

    Product fields (tau.phi', phi'.psi', ...) are built once per instance;
    each block is computed lazily on the evaluator's shape: one pair, a few,
    a row chunk of the offset grid or all of it.  ``params`` may be None for
    the parameter-free chord/N operations.

    ``geometry`` seeds the field-independent blocks N(tau, tau), |df|^alpha,
    phi_alpha and M_alpha, as returned by :meth:`geometry` of an instance on
    the same pairs (or views of them), so they are not recomputed.
    """

    GEOMETRY = ("ntt", "calpha", "phis", "malpha")

    def __init__(self, ev, curve, params=None, phi=None, psi=None, geometry=None):
        self.ev = ev
        self.curve = curve
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
        return self.curve.tau_field

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
        return k_raw(self.ev, self.curve.position_field, self._field(which))

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


def _single(curve, pair, params=None, phi=None, psi=None):
    ev = PairSet(curve, pair.i, pair.j)
    b = Blocks(ev, curve, params=params, phi=phi, psi=psi)
    n_tau_checked(b.ntt_raw())
    return b


# -- chord-ratio building blocks --------------------------------------------


def delta_chord_ratio(curve, phi, pair):
    """delta |df|^2 / |df|^2 = 2 K(f, phi)."""
    b = _single(curve, pair, phi=phi)
    return float(2.0 * b.kf("phi"))


def delta2_chord_ratio(curve, phi, psi, pair):
    """delta^2 |df|^2 / |df|^2 = 2 K(phi, psi)."""
    b = _single(curve, pair, phi=phi, psi=psi)
    return float(2.0 * b.kpq())


def delta_k(curve, phi, psi, pair):
    """delta K(f, phi)[psi] = K(phi, psi) - 2 K(f, phi) K(f, psi)."""
    b = _single(curve, pair, phi=phi, psi=psi)
    return float(b.kpq() - 2.0 * b.kf("phi") * b.kf("psi"))


# -- N and M_alpha variations ------------------------------------------------


def delta_n_tau(curve, phi, pair):
    """delta N(tau)[phi] = R1 + R2."""
    b = _single(curve, pair, phi=phi)
    return VariationTerms(b.dn_terms("phi"))


def delta2_n_tau(curve, phi, psi, pair):
    """delta^2 N(tau)[phi, psi] = S1 + ... + S5 (symmetric in phi, psi)."""
    b = _single(curve, pair, phi=phi, psi=psi)
    return VariationTerms(b.d2n_terms())


def delta_m_alpha(curve, phi, pair, params):
    """delta M_alpha[phi] = P1 + P2."""
    b = _single(curve, pair, params=params, phi=phi)
    return VariationTerms(b.dm_terms("phi"))


def delta2_m_alpha(curve, phi, psi, pair, params):
    """delta^2 M_alpha[phi, psi] = Q1 + ... + Q6."""
    b = _single(curve, pair, params=params, phi=phi, psi=psi)
    return VariationTerms(b.d2m_terms())


# -- energy integrands -------------------------------------------------------


def first_variation_density(curve, phi, pair, params):
    """Integrand of the first variation: G = G1 + G2.

    G1 = p M_alpha^(p-1) delta M_alpha[phi];
    G2 = M_alpha^p (tau.phi'(s1) + tau.phi'(s2))  (the Jacobian term).
    """
    b = _single(curve, pair, params=params, phi=phi)
    return VariationTerms(b.g_terms("phi"))


def second_variation_density(curve, phi, psi, pair, params):
    """Integrand of the second variation: H = H1 + ... + H6.

    For 1 < p < 2 the H2 factor ``M_alpha^(p-2)`` is singular where the
    kernel vanishes; such pairs evaluate to the limit 0 when both first
    variations vanish there too, and raise otherwise.
    """
    b = _single(curve, pair, params=params, phi=phi, psi=psi)
    terms, flagged = b.h_terms()
    if bool(np.any(flagged)):
        raise NumericalError(
            "H2 is singular at pair (%d, %d): M_alpha ~ 0 with nonvanishing "
            "delta M_alpha" % (pair.i, pair.j)
        )
    return VariationTerms(terms)
