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

A pass over the grid runs one :class:`Blocks` per row chunk, and builds
only the chunk's blocks there.  What does not depend on the rows is built
once: the doubled tables and window views that the pairs are read from are
kept on each field (``Field.tables``), and the pass hands one ``fields``
dict to all its chunks, so the product fields (tau.tau, tau.phi',
tau.psi', phi'.psi' and (tau.phi')(tau.psi')) and their prefix tables are
built on the first chunk only.  Within a chunk, each pair quantity is read
once: every field's short-arc integral and endpoint difference is kept
(:meth:`Blocks.integral`, :meth:`Blocks.diff`, keyed by the field), so
N(tau, tau) reads I(tau) once, and the second variation reads 13
component blocks of integrals and 9 of endpoint differences where its
terms use 24 and 18.  ``M_alpha^(p-1)`` is one block that G1, G2 and H1
share, ``tau.phi'(s1) + tau.phi'(s2)`` one that G2 and H3-H6 share and
``2 K(f, phi)`` one that delta^2 N and delta^2 M_alpha share; H reads G1
without G2, and for 1 < p < 2 the H2 mask is built only where some pair is
singular.  No chunk block outlives its chunk, and besides the pair reads a
chunk keeps only the blocks that are read more than once: the labeled
terms of delta N, delta^2 N, delta M_alpha and delta^2 M_alpha, which only
their sums and :func:`pair_terms` read, and the blocks read once are built
on demand and dropped after use.  The kept pair reads are paid for by
chunks of half the cells (``_pairs.CHUNK_CELLS``): on a built operator at
(2.5, 1.5) with fresh fields after a warm-up call, the ``tracemalloc``
peak of the second variation is 6.4 and 6.6 MiB at M = 512 and 1024 (8.3
and 8.6 MiB when each term read its own on chunks twice as large, 13.0
MiB at M = 512 when a chunk kept every labeled term), and that of the
first variation 3.1 and 3.3 MiB (3.6 and 3.8 MiB).
"""

import functools

import numpy as np

from ._pairs import k_raw, n_raw
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

    Each block is computed lazily on the evaluator's shape: one pair, a few,
    a row chunk of the offset grid or all of it; the pair reads and the
    blocks that other blocks read more than once are memoized, and the term
    dicts and blocks read once are not (see the module docstring).
    ``params`` may be None for the parameter-free chord/N operations.

    ``geometry`` seeds the field-independent blocks N(tau, tau), |df|^alpha,
    the two derivatives of phi_alpha and M_alpha, as returned by
    :meth:`geometry` of an instance on the same pairs (or views of them), so
    they are not recomputed.  ``fields`` holds the product fields (tau.phi',
    phi'.psi', ...) by name; the Blocks of one pass share one dict, so each
    product field is built once per pass.  A Blocks given none builds its
    own.
    """

    GEOMETRY = ("ntt", "calpha", "dphis", "malpha")

    def __init__(self, ev, params=None, phi=None, psi=None, geometry=None, fields=None):
        self.ev = ev
        self.params = params
        self.phi = phi
        self.psi = psi
        self._memo = {(k,): v for k, v in (geometry or {}).items()}
        self._fields = {} if fields is None else fields

    def geometry(self):
        """``{name: block}`` of the field-independent blocks."""
        return {k: getattr(self, k)() for k in self.GEOMETRY}

    # -- geometry ------------------------------------------------------------

    @property
    def tau(self):
        return self.ev.curve.tau_field

    def _product(self, name, u, v):
        """The product field ``u.v``, kept in ``fields`` under ``name``."""
        if name not in self._fields:
            self._fields[name] = u.dot(v)
        return self._fields[name]

    @_memo
    def integral(self, field):
        """The short-arc integral of ``field`` on the pairs."""
        return self.ev.integral(field)

    @_memo
    def diff(self, field):
        """The endpoint difference ``field(s1) - field(s2)`` on the pairs."""
        return self.ev.value1(field) - self.ev.value2(field)

    def _n(self, u, v, uv):
        """N(u, v) given the product field uv, from the kept integrals."""
        return n_raw(self.ev, self.integral(u), self.integral(v), self.integral(uv))

    def _k(self, u, v):
        """K(u, v) from the kept endpoint differences."""
        return k_raw(self.ev, self.diff(u), self.diff(v))

    @_memo
    def ntt_raw(self):
        # the product field tau . tau has samples 1 + O(eps)
        return self._n(self.tau, self.tau, self._product("tau", self.tau, self.tau))

    @_memo
    def ntt(self):
        """N(tau, tau), clamp applied; validity is checked by the caller."""
        return np.where(self.ntt_raw() < 0.0, 0.0, self.ntt_raw())

    @_memo
    def calpha(self):
        return np.power(self.ev.chord2, self.params.alpha / 2.0)

    @_memo
    def _phis(self):
        return phi_alpha(self.ntt(), self.params.alpha)

    @_memo
    def dphis(self):
        """The first two derivatives of phi_alpha at N(tau, tau)."""
        return self._phis()[1:]

    @_memo
    def malpha(self):
        return self._phis()[0] / self.calpha()

    @_memo
    def mp1(self):
        """``M_alpha^(p-1)``, shared by G1, G2 and H1."""
        p = self.params.p
        return np.power(self.malpha(), p - 1.0) if p != 1.0 else 1.0

    # -- phi / psi dependent blocks -----------------------------------------

    def _field(self, which):
        return self.phi if which == "phi" else self.psi

    def _dfield(self, which):
        return self._field(which).deriv

    def _t_dot(self, which):
        # pointwise tau . phi' as a scalar field
        return self._product(which, self.tau, self._dfield(which))

    @_memo
    def kf(self, which):
        return self._k(self.ev.curve.position_field, self._field(which))

    @_memo
    def kf2(self, which):
        """``2 K(f, phi)``, the chord ratio ``delta |df|^2 / |df|^2``."""
        return 2.0 * self.kf(which)

    @_memo
    def nt(self, which):
        """N(tau, phi') -- the mixed bilinear block of delta N."""
        return self._n(self.tau, self._dfield(which), self._t_dot(which))

    @_memo
    def t1(self, which):
        return self.ev.value1(self._t_dot(which))

    @_memo
    def t2(self, which):
        return self.ev.value2(self._t_dot(which))

    @_memo
    def tsum(self, which):
        """``tau.phi'(s1) + tau.phi'(s2)``, shared by G2 and H3-H6."""
        return self.t1(which) + self.t2(which)

    @_memo
    def kpq(self):
        return self._k(self.phi, self.psi)

    def _pq(self):
        # pointwise phi'.psi' as a scalar field
        return self._product("pq", self.phi.deriv, self.psi.deriv)

    def npq(self):
        return self._n(self.phi.deriv, self.psi.deriv, self._pq())

    def nscal(self):
        # N((tau.phi'), (tau.psi')) with d = 1 scalar fields
        u, v = self._t_dot("phi"), self._t_dot("psi")
        return self._n(u, v, self._product("nscal", u, v))

    def pp_split(self):
        # phi'.psi' at s1 and at s2
        return self.ev.value1(self._pq()), self.ev.value2(self._pq())

    # -- assembled variation pieces -----------------------------------------

    def dn_terms(self, which):
        return {"R1": -2.0 * self.kf(which) * self.ntt(), "R2": 2.0 * self.nt(which)}

    @_memo
    def dn(self, which):
        t = self.dn_terms(which)
        return t["R1"] + t["R2"]

    def d2n_terms(self):
        ntt = self.ntt()
        kfp, kfq = self.kf("phi"), self.kf("psi")
        kf2p, kf2q = self.kf2("phi"), self.kf2("psi")
        # -kf2q * x is -2.0 * kfq * x bit for bit: a negation is exact
        return {
            "S1": -2.0 * (self.kpq() - kf2p * kfq) * ntt,
            "S2": -kfp * self.dn("psi") - kfq * self.dn("phi"),
            "S3": -kf2q * self.nt("phi") - kf2p * self.nt("psi"),
            "S4": 2.0 * self.npq(),
            "S5": -2.0 * self.nscal(),
        }

    def dm_terms(self, which):
        p1, _ = self.dphis()
        alpha = self.params.alpha
        return {
            "P1": p1 * self.dn(which) / self.calpha(),
            "P2": -(alpha / 2.0) * self.malpha() * 2.0 * self.kf(which),
        }

    @_memo
    def dm(self, which):
        t = self.dm_terms(which)
        return t["P1"] + t["P2"]

    def d2m_terms(self):
        p1, p2 = self.dphis()
        alpha = self.params.alpha
        ca = self.calpha()
        d2n = sum(self.d2n_terms().values())
        dnp, dnq = self.dn("phi"), self.dn("psi")
        kf2p, kf2q = self.kf2("phi"), self.kf2("psi")
        return {
            "Q1": p1 * d2n / ca,
            "Q2": -(alpha / 2.0) * p1 * (dnp / ca) * kf2q,
            "Q3": p2 * dnp * dnq / ca,
            "Q4": -(alpha / 2.0) * self.dm("psi") * kf2p,
            "Q5": -(alpha / 2.0) * self.malpha() * (2.0 * self.kpq()),
            "Q6": (alpha / 2.0) * self.malpha() * kf2p * kf2q,
        }

    @_memo
    def d2m(self):
        return sum(self.d2m_terms().values())

    @_memo
    def g1(self, which):
        """G1, the one term of G that H reads."""
        return self.params.p * self.mp1() * self.dm(which)

    def g_terms(self, which):
        return {"G1": self.g1(which), "G2": self.malpha() * self.mp1() * self.tsum(which)}

    @_memo
    def h_terms(self):
        """H1..H6 plus a mask of pairs where the H2 singular policy fired."""
        p = self.params.p
        m = np.asarray(self.malpha())
        mp = np.power(m, p)
        dmp, dmq = np.asarray(self.dm("phi")), np.asarray(self.dm("psi"))
        flagged = np.zeros_like(m, dtype=bool)
        if p == 1.0:
            h2 = np.zeros_like(m)
        elif p >= 2.0 or not (sing := m < H2_SINGULAR_THRESHOLD).any():
            # where no pair is singular, the mask below would keep every bit
            h2 = p * (p - 1.0) * np.power(m, p - 2.0) * dmp * dmq
        else:
            safe_m = np.where(sing, 1.0, m)
            h2 = p * (p - 1.0) * np.power(safe_m, p - 2.0) * dmp * dmq
            vanish = (np.abs(dmp) <= H2_DELTA_TOLERANCE) & (
                np.abs(dmq) <= H2_DELTA_TOLERANCE
            )
            h2 = np.where(sing, 0.0, h2)
            flagged = sing & ~vanish
        tp, tq = self.tsum("phi"), self.tsum("psi")
        pp1, pp2 = self.pp_split()
        terms = {
            "H1": p * self.mp1() * self.d2m(),
            "H2": h2,
            "H3": self.g1("phi") * tq,
            "H4": self.g1("psi") * tp,
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
        out.update(chord_ratio=b.kf2("phi"), R=b.dn_terms("phi"),
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
