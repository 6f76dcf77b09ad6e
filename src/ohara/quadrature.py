"""Assembled double integrals of the kernel quantities over the pair grid.

The off-diagonal integrand lives on the M x M offset grid (``V[j, k]`` =
value at ``s1 = s_{j+k}, s2 = s_j``; the separation depends only on the
offset ``k``).  Each row is integrated in u = s1 - s2 over one period by a
composite midpoint rule with three refinements:

* **band model** -- cells with ``|u| <= band * h`` are excluded; there the
  weighted integrand ``W(u) = D^gamma * F`` (gamma chosen so W extends
  continuously to the diagonal) is replaced by the quartic through its
  closed-form diagonal value and the four nearest off-band samples, and
  ``W(u) |u|^-gamma`` is integrated in closed form;
* **corner patch** -- the intrinsic distance has a kink at the antipodal
  offset, so the cell straddling u = L/2 is integrated by one-sided
  cubics instead of its midpoint value;
* **Euler-Maclaurin edge corrections** -- the midpoint sums over the two
  smooth pieces acquire h^2 and h^4 boundary terms from the cut and the
  corner; they are corrected using one-sided derivative estimates (from the
  band model at the cut, from samples at the corner).

The reported error estimate combines the band-halving difference with the
magnitudes of the h^4 corrections and a rounding floor.

Every integrand is symmetric under swapping the two points of a pair, so
only the columns ``k = 0..M/2`` of the grid are evaluated and stored; a
column past ``M/2`` is read off its mirror, ``V[j, k] = V[(j + k) % M,
M - k]`` (:func:`_unfold`).  The swap changes the sign of the separation,
of the prefix differences and of the chord vector exactly and leaves the
squared chord as it is, so every block obeys the mirror bit for bit (the
H5 term of H is grouped so that the swap only reorders the operands of
additions).  The antipodal column ``k = M/2`` is the exception: both pairs
of a swap there take the forward short arc, so the signs do not flip.  It
lies in the evaluated half and is computed directly.

The rule reads each row only through its off-band sum and a few columns
(:class:`_Rows`).  So the energy density and the variation integrands G and
H are evaluated on row chunks of the half grid, and the whole grid is
unfolded and reduced by row chunks: besides the half grid of the
integrand, their memory is O(rows x M) per live block, not O(M^2).  The
geometry blocks that :class:`GridOperator` keeps are half grids built on
the same row chunks.  Rows reduce independently, and the unfolded rows are
those of the whole grid, so the result depends neither on the chunking nor
on the folding, bit for bit.  The transpose of the first variation
(:meth:`GridOperator.first_variation_dual`) runs on row chunks of the whole
grid too: the pair at ``(j - k, k)`` that row ``j`` needs is the swap of
the pair at ``(j, M - k)`` in its own row.

The assembled second variation additionally carries a line term along the
antipodal set: the kink of D = min(arc, L - arc) moves with the curve, and
differentiating the energy twice produces a Leibniz boundary contribution
there that the pointwise H density (a two-sided classical derivative away
from the antipode) cannot see.  See :func:`antipodal_motion_term`.
"""

import warnings
from dataclasses import dataclass, field as dc_field

import numpy as np

from ._pairs import PairSet, map_chunks
from .curve import bilipschitz_constant
from .diagonal import density_limit, g_limit, g_limit_weights, h_limit
from .errors import NumericalError, ValidationError
from .kernels import n_tau_checked
from .spectral import prefix_integral, short_arc_offsets
from .variations import Blocks

__all__ = [
    "FirstVariationDual",
    "PairGrid",
    "antipodal_motion_term",
    "energy",
    "first_variation",
    "second_variation",
    "density_grid",
    "holder_chain_check",
    "GridOperator",
    "save_grid_csv",
]

DEFAULT_BAND = 2


def _check_band(M, band):
    if band < 1:
        raise ValidationError("band must be at least 1")
    # cut stencils read offsets band+1..band+3 and the corner patch reads
    # offsets M/2 -+ 3; both ranges must stay inside the off-band region
    if band + 3 > M // 2 - 1 or band + 1 > M // 2 - 3:
        raise ValidationError("band %d too wide for M = %d" % (band, M))


def _offband_cols(M, band):
    k = np.arange(M)
    cyc = np.minimum(k, M - k)
    return cyc > band


def _assembler_cols(M, band):
    """The columns the assembler reads one by one: the three cut columns on
    each side of the band and the corner columns ``M/2 -+ 3``."""
    kc = M // 2
    cut = {band + d for d in (1, 2, 3)} | {M - band - d for d in (1, 2, 3)}
    return sorted(cut | {(kc + d) % M for d in range(-3, 4)})


class _Rows:
    """What the assembler reads of the rows of an offset grid ``F``.

    ``offband[j]`` is the sum of row ``j`` over the columns outside the band
    and ``cols[k]`` is column ``k`` for each of :func:`_assembler_cols`.  Each
    row reduces on its own, so reducing row chunks and concatenating them
    gives the same arrays bit for bit.
    """

    def __init__(self, offband, cols):
        self.offband = offband
        self.cols = cols

    @classmethod
    def of(cls, F, band):
        M = F.shape[1]
        _check_band(M, band)
        keys = _assembler_cols(M, band)
        offband = np.where(_offband_cols(M, band)[None, :], F, 0.0).sum(axis=1)
        # F[:, keys] is a copy, so a chunk's grid is not kept alive
        return cls(offband, dict(zip(keys, F[:, keys].T)))

    @classmethod
    def concat(cls, parts):
        return cls(
            np.concatenate([r.offband for r in parts]),
            {k: np.concatenate([r.cols[k] for r in parts]) for k in parts[0].cols},
        )


def _grid_pairs(curve, j0=0, j1=None, cols=slice(None)):
    """Rows ``j0:j1`` of the offset grid, all of them by default, on its
    columns ``cols`` (a slice, all ``M`` by default): row ``j``, column ``k``
    is the pair ``(s_{j+k}, s_j)``, read through windows (``_pairs``)."""
    j1 = curve.M if j1 is None else j1
    return PairSet(curve, None, np.arange(j0, j1)[:, None],
                   chord2=curve.chord2_grid()[j0:j1, cols], window=(j0, j1, cols))


def _half_width(M):
    """Columns ``0..M/2`` of the offset grid: the half that :class:`GridOperator`
    evaluates."""
    return M // 2 + 1


def _unfold(V, j0=0, j1=None):
    """Rows ``j0:j1`` (all by default) of a whole offset grid from its half.

    ``V`` holds columns ``0..M/2`` of the grid in its last two axes.  Every
    grid here is pair-swap symmetric, and the swap of the pair at ``(j, k)``
    sits at ``((j + k) % M, M - k)``; so each column past ``M/2`` is read off
    its mirror, ``V[j, k] = V[(j + k) % M, M - k]``.
    """
    M, w = V.shape[-2:]
    j1 = M if j1 is None else j1
    out = np.empty(V.shape[:-2] + (j1 - j0, M), V.dtype)
    out[..., :w] = V[..., j0:j1, :]
    k = np.arange(w, M)
    out[..., w:] = V[..., (np.arange(j0, j1)[:, None] + k) % M, M - k]
    return out


def _quartic_coeffs(W_m2, W_m1, W0, W_p1, W_p2, band):
    """Coefficients a_0..a_4 of the band quartic in xi = u/h units."""
    x1, x2 = float(band + 1), float(band + 2)
    nodes = np.array([-x2, -x1, 0.0, x1, x2])
    V = np.vander(nodes, 5, increasing=True)  # rows: powers of node
    Vinv = np.linalg.inv(V)
    Wstack = np.stack([W_m2, W_m1, W0, W_p1, W_p2])  # (5, M)
    return Vinv @ Wstack  # (5, M) coefficients


def _band_pieces(cols, curve, band, gamma, W0):
    """Band closed form plus model-based cut corrections, per row.

    ``cols`` maps a column index to that column of the grid (``_Rows.cols``).
    Returns ``(band_int, cut_em2, cut_em4)`` arrays of shape (M,).
    """
    M, h = curve.M, curve.h
    _check_band(M, band)
    Dk = np.abs(short_arc_offsets(M, curve.L))
    Wm2, Wm1, Wp1, Wp2 = (
        cols[k] * Dk[k] ** gamma
        for k in (M - (band + 2), M - (band + 1), band + 1, band + 2)
    )
    A = _quartic_coeffs(Wm2, Wm1, np.asarray(W0, dtype=float), Wp1, Wp2, band)

    half = band + 0.5
    m = np.arange(5)
    # integral of xi^m |xi|^-gamma over |xi| <= band + 1/2 (odd m cancel)
    w_even = np.where(m % 2 == 0, 2.0 * half ** (m + 1 - gamma) / (m + 1 - gamma), 0.0)
    band_int = h ** (1.0 - gamma) * (w_even @ A)

    # cut corrections from the model F(u) = sum_m a_m u^(m-gamma), a_m = A_m h^-m
    c1 = half * h
    am = A / h ** m[:, None]
    e = m - gamma
    # one-sided derivative factors of sum_m a_m |u|^(m-gamma) at u = +-c1
    f1 = e * c1 ** (e - 1.0)
    f3 = e * (e - 1.0) * (e - 2.0) * c1 ** (e - 3.0)
    sgn = (-1.0) ** m
    d1p = np.einsum("m,mj->j", f1, am)
    d3p = np.einsum("m,mj->j", f3, am)
    d1m = -np.einsum("m,mj->j", f1 * sgn, am)
    d3m = -np.einsum("m,mj->j", f3 * sgn, am)
    cut_em2 = (h ** 2 / 24.0) * (d1m - d1p)
    cut_em4 = -(7.0 * h ** 4 / 5760.0) * (d3m - d3p)
    return band_int, cut_em2, cut_em4


def _corner_pieces(cols, curve):
    """Antipodal-corner treatment of a row integrand, per row.

    The cell straddling u = L/2 is integrated by one-sided cubics through
    the four nearest samples on each side, and the adjacent midpoint pieces
    get their h^2 and h^4 Euler-Maclaurin edge terms from one-sided
    difference estimates of F' and F''' at u = L/2 -+ h/2.

    ``cols`` maps a column index to that column of the grid.  Returns
    ``(patch_delta, em2, em4)``: the replacement for the corner cell's
    midpoint contribution and the two edge corrections.
    """
    M, h = curve.M, curve.h
    kc = M // 2
    f0 = cols[kc]
    fm1, fm2, fm3 = cols[kc - 1], cols[kc - 2], cols[kc - 3]
    fp1, fp2, fp3 = cols[(kc + 1) % M], cols[(kc + 2) % M], cols[(kc + 3) % M]
    left = h * (119.0 * f0 + 107.0 * fm1 - 43.0 * fm2 + 9.0 * fm3) / 384.0
    right = h * (119.0 * f0 + 107.0 * fp1 - 43.0 * fp2 + 9.0 * fp3) / 384.0
    patch_delta = left + right - h * f0
    em2 = (h / 24.0) * ((f0 - fm1) - (fp1 - f0))
    d3_left = (f0 - 3.0 * fm1 + 3.0 * fm2 - fm3) / h ** 3
    d3_right = (fp3 - 3.0 * fp2 + 3.0 * fp1 - f0) / h ** 3
    # -7/5760 is the h^4 edge term proper; -10/5760 cancels the O(h^2 F''')
    # bias of the one-sided first differences used in em2
    em4 = -(17.0 * h ** 4 / 5760.0) * (d3_left - d3_right)
    return patch_delta, em2, em4


def _integrate(rows, curve, band, band_pieces):
    """Full double integral of the row extension of an offset grid.

    ``rows`` is the grid's :class:`_Rows` for this ``band``.  ``band_pieces``
    is the per-row ``(band_int, cut_em2, cut_em4)`` of a band model: the
    closed-form integral over ``|u| <= (band + 1/2) h`` and the h^2 and h^4
    edge corrections at the cut (see :func:`_band_pieces`).
    """
    row_totals, parts = _row_totals(rows, curve, band, band_pieces)
    return curve.h * float(row_totals.sum()), parts


def _row_totals(rows, curve, band, band_pieces):
    """Per-row integrals of :func:`_integrate` and the labelled parts of their sum.

    Every row gets the same weights, so row ``j`` is
    ``sum_k w[k] F[j, k] + w0 W0[j]`` with ``W0`` the band model's diagonal
    value.
    """
    M, h = curve.M, curve.h
    _check_band(M, band)
    offband = h * rows.offband

    patch_delta, corner_em, corner_em4 = _corner_pieces(rows.cols, curve)
    band_int, cut_em2, cut_em4 = band_pieces
    row_totals = (
        offband + patch_delta + corner_em + corner_em4 + band_int + cut_em2 + cut_em4
    )
    parts = {
        "offband": h * float(offband.sum()),
        "corner": h * float((patch_delta + corner_em).sum()),
        "corner_em4": h * float(corner_em4.sum()),
        "band": h * float(band_int.sum()),
        "cut_em2": h * float(cut_em2.sum()),
        "cut_em4": h * float(cut_em4.sum()),
    }
    return row_totals, parts


@dataclass(frozen=True)
class FirstVariationDual:
    """``delta E[phi]`` as dot products of per-sample vectors with ``phi'``.

    With ``P_m, T_m`` the grid prefix and full-period integrals of
    ``phi'_m`` and ``Q, U`` those of ``tau . phi'``::

        delta E[phi] = sum_m (prefix[:, m] . P_m + total[m] T_m)
                       + tp_prefix . Q + tp_total U
                       + tp . (tau . phi') + kpp . (kappa . phi'')

    This is the transpose of the quadrature in
    :meth:`GridOperator.first_variation`.  It writes ``phi(s1) - phi(s2)`` as
    the short-arc integral of ``phi'``, which holds only for fields whose
    spectrum stops below the Nyquist mode (the spectral derivative drops the
    Nyquist term); for those it matches that method to rounding.  A
    constant field has ``phi' = 0`` and gives exactly 0.

    :meth:`GridOperator.first_variation_dual` builds the vectors in one pass
    over row chunks of the offset grid, O(rows x M) memory beyond the
    operator's kept grids; they are the same bits whatever the chunking.
    """

    curve: object
    prefix: np.ndarray
    total: np.ndarray
    tp_prefix: np.ndarray
    tp_total: float
    tp: np.ndarray
    kpp: np.ndarray

    def along(self, m, d1, d2):
        """``delta E`` of fields that vary in coordinate ``m`` only.

        ``d1`` and ``d2`` hold ``phi'_m`` and ``phi''_m``, one field per
        column; returns one value per column.
        """
        L = self.curve.L
        P, T = prefix_integral(d1, L)
        tp = self.curve.tau[:, m, None] * d1
        Q, U = prefix_integral(tp, L)
        kpp = self.curve.kappa[:, m, None] * d2
        return (
            self.prefix[:, m] @ P + self.total[m] * T + self.tp_prefix @ Q
            + self.tp_total * U + self.tp @ tp + self.kpp @ kpp
        )

    def __call__(self, phi):
        """``delta E[phi]`` for a vector field ``phi``."""
        d1, d2 = phi.deriv.values, phi.deriv.deriv.values
        return float(sum(
            self.along(m, d1[:, m, None], d2[:, m, None])[0]
            for m in range(self.curve.n)
        ))


def _g_grid(b):
    """``[G]``, G = G1 + G2 on the pairs of ``b``."""
    t = b.g_terms("phi")
    return [t["G1"] + t["G2"]]


class GridOperator:
    """Shared grid geometry for repeated quadrature on one curve.

    Keeps the geometry-only blocks on the evaluated half of the offset grid
    (columns ``0..M/2``, see the module docstring) as ``(M, M/2 + 1)``
    arrays: ``ntt`` = N(tau, tau), ``calpha`` = |df|^alpha, ``malpha`` =
    M_alpha and the three ``phis`` of phi_alpha (one ``(3, M, M/2 + 1)``
    array).  The antipodal column ``M/2`` is kept as computed, since the
    mirror does not hold on it.  One evaluator, :meth:`_rows`, works on row
    chunks of the half grid, handed out by ``_pairs.map_chunks``: the build
    writes each chunk's geometry blocks into those arrays, and the energy
    and the variations start each chunk from row views of them
    (:meth:`_half`), then unfold the integrand and reduce it by row chunks
    of the whole grid (:meth:`_reduce`).  So N(tau,tau),
    M_alpha etc. are computed once, on half the pairs, and whole grids exist
    only where a caller asks for one.
    """

    def __init__(self, curve, params, band=DEFAULT_BAND):
        _check_band(curve.M, band)
        bilipschitz_constant(curve)
        self.curve = curve
        self.params = params
        self.band = band
        self.gamma = (params.alpha - 2.0) * params.p
        M, w = curve.M, _half_width(curve.M)
        self.ntt, self.calpha, self.malpha = (np.empty((M, w)) for _ in range(3))
        self.phis = np.empty((3, M, w))
        offdiag = _offband_cols(M, 0)[None, :w]

        def build(j0, j1):
            b = Blocks(_grid_pairs(curve, j0, j1, slice(w)), curve, params=params)
            n_tau_checked(b.ntt_raw(), where=offdiag)
            rows = self._geometry(j0, j1)
            for name, block in b.geometry().items():
                rows[name][...] = block

        with np.errstate(divide="ignore", invalid="ignore"):
            map_chunks(build, M, w)

    def _geometry(self, j0, j1):
        """Rows ``j0:j1`` of the geometry blocks, keyed as :meth:`Blocks.geometry`."""
        return {k: getattr(self, k)[..., j0:j1, :] for k in Blocks.GEOMETRY}

    def _rows(self, j0, j1, phi=None, psi=None):
        """``Blocks`` on rows ``j0:j1`` of the half grid, its geometry blocks
        row views of the operator's."""
        return Blocks(_grid_pairs(self.curve, j0, j1, slice(_half_width(self.curve.M))),
                      self.curve, params=self.params, phi=phi, psi=psi,
                      geometry=self._geometry(j0, j1))

    def _half(self, integrand, phi, psi=None):
        """The blocks that ``integrand(b)`` lists, each on the whole half grid,
        evaluated on ``Blocks`` of one row chunk each."""
        M = self.curve.M

        def blocks(j0, j1):
            return integrand(self._rows(j0, j1, phi, psi))

        with np.errstate(divide="ignore", invalid="ignore"):
            parts = map_chunks(blocks, M, _half_width(M))
        return [np.concatenate(B) for B in zip(*parts)]

    def _reduce(self, half, band=None):
        """The :class:`_Rows` of the whole grid whose half is ``half``,
        unfolded and reduced by row chunks."""
        band = self.band if band is None else band

        def rows(j0, j1):
            return _Rows.of(_unfold(half, j0, j1), band)

        with np.errstate(divide="ignore", invalid="ignore"):
            return _Rows.concat(map_chunks(rows, self.curve.M))

    def _h_grid(self, b):
        """``[H, flags]``: H = H1 + ... + H6 on the pairs of ``b`` and its
        off-diagonal H2 flags."""
        terms, flagged = b.h_terms()
        offdiag = _offband_cols(self.curve.M, 0)[None, :flagged.shape[1]]
        return [sum(terms.values()), flagged & offdiag]

    def _density_half(self):
        with np.errstate(divide="ignore", invalid="ignore"):
            return self.malpha ** self.params.p

    def density_values(self):
        """The whole M_alpha^p grid."""
        return _unfold(self._density_half())

    def energy(self, band=None):
        band = self.band if band is None else band
        rows = self._reduce(self._density_half(), band)
        W0 = density_limit(self.curve, self.params)
        return self._assemble(rows, band, W0)

    def energy_with_estimate(self):
        value, parts = self.energy()
        half, _ = self.energy(band=max(1, self.band // 2))
        # band-model sensitivity plus the magnitudes of the highest-order
        # corrections actually applied (the usual proxy for what remains),
        # with a safety factor and a roundoff floor
        est = 2.0 * (
            abs(value - half) + abs(parts["cut_em4"]) + abs(parts["corner_em4"])
        ) + 64.0 * np.finfo(float).eps * abs(value)
        return value, est

    def _assemble(self, rows, band, W0):
        pieces = _band_pieces(rows.cols, self.curve, band, self.gamma, W0)
        return _integrate(rows, self.curve, band, pieces)

    def g_values(self, phi):
        """The whole G grid."""
        return _unfold(self._half(_g_grid, phi)[0])

    def first_variation(self, phi):
        rows = self._reduce(self._half(_g_grid, phi)[0])
        W0 = g_limit(self.curve, self.params, phi)
        value, _ = self._assemble(rows, self.band, W0)
        return value

    def _row_weights(self):
        """``(w, w0)``: row ``j`` of the assembled integral is
        ``sum_k w[k] F[j, k] + w0 W0[j]``, read off the assembler by row
        chunks of the identity."""

        def totals(F, W0):
            rows = _Rows.of(F, self.band)
            pieces = _band_pieces(rows.cols, self.curve, self.band, self.gamma, W0)
            return _row_totals(rows, self.curve, self.band, pieces)[0]

        M = self.curve.M
        w = map_chunks(lambda j0, j1: totals(np.eye(j1 - j0, M, j0), np.zeros(j1 - j0)), M)
        return np.concatenate(w), totals(np.zeros((1, M)), np.ones(1))[0]

    def first_variation_dual(self):
        """The first variation as a linear form: see :class:`FirstVariationDual`.

        Applies the transpose of the quadrature to the geometry-only
        coefficient grids of ``G = cK K(f, phi) + cN N(tau, phi') +
        cT (tau.phi'(s1) + tau.phi'(s2))``, in one pass over row chunks of
        the whole offset grid.
        """
        cv, pr = self.curve, self.params
        M, n, h, p = cv.M, cv.n, cv.h, pr.p
        w, w0 = self._row_weights()
        # the band columns have weight 0, and there the blocks are singular
        k = slice(self.band + 1, M - self.band)
        kc = M // 2 - self.band - 1  # the antipodal column of the slice

        def rows(j0, j1):
            ps = _grid_pairs(cv, j0, j1, k)
            m = _unfold(self.malpha, j0, j1)[:, k]
            hmp1 = h * w[k] * np.power(m, p - 1.0)
            p1_ca = _unfold(self.phis[1], j0, j1)[:, k] / _unfold(self.calpha, j0, j1)[:, k]
            cK = -p * hmp1 * (2.0 * p1_ca * _unfold(self.ntt, j0, j1)[:, k] + pr.alpha * m)
            cN = 2.0 * p * hmp1 * p1_ca
            # N(tau, phi') = (ds I(tau.phi') - I(tau) . I(phi')) / |df|^2 and
            # K(f, phi) = (f(s1) - f(s2)) . I(phi') / |df|^2, so the grid x[c]
            # multiplies I(phi'_c), x[n] I(tau.phi') and x[n + 1], which is
            # cT, tau.phi'(s1) + tau.phi'(s2)
            x = np.empty((n + 2,) + m.shape)
            x[:n] = (cK * ps.dvec - cN * ps.integral(cv.tau_field)) / ps.chord2
            x[n] = cN * ps.ds / ps.chord2
            x[n + 1] = hmp1 * m
            # Row l of the transpose pairs x[l, k] with x[l - k, k], the pair
            # whose first point is s_l.  That pair is the swap of the pair at
            # (l, M - k), so it is read off the row backwards: x[:n + 1]
            # changes sign under the swap and x[n + 1] does not.  Near the
            # diagonal the two terms almost cancel; adding x[l, k] and
            # x[l, M - k] before the row sum keeps that cancellation exact.
            # The antipodal column is its own mirror: its partner
            # x[l - M/2, M/2] lies in another row and is added after the
            # pass, from a copy that keeps no chunk grid alive
            both = x + x[..., ::-1]
            both[..., kc] = x[..., kc]
            return both.sum(axis=-1), (x[:n + 1] * ps.wrap).sum(axis=-1), x[..., kc].copy()

        both, total, anti = (np.concatenate(v, axis=-1) for v in zip(*map_chunks(rows, M)))
        # sum_{j,k} x[c, j, k] (y[j + k] -+ y[j]) = y . dual[c], with - for
        # c <= n and + for c = n + 1
        sign = np.append(-np.ones(n + 1), 1.0)[:, None]
        dual = sign * both + np.roll(anti, M // 2, axis=-1)
        wt, wk = g_limit_weights(cv, pr)
        return FirstVariationDual(
            cv, dual[:n].T, total[:n].sum(axis=-1), dual[n], float(total[n].sum()),
            dual[n + 1] + (h * w0) * wt, (h * w0) * wk,
        )

    def h_values(self, phi, psi):
        """The whole H grid and the mask of its flagged H2 pairs."""
        return tuple(_unfold(V) for V in self._half(self._h_grid, phi, psi))

    def second_variation(self, phi, psi):
        H, flagged = self._half(self._h_grid, phi, psi)
        if flagged.any():
            warnings.warn(
                "H2 singular policy fired at %d grid pairs; excluded from "
                "quadrature" % np.count_nonzero(_unfold(flagged))
            )
        rows = self._reduce(H)
        W0 = h_limit(self.curve, self.params, phi, psi)
        value, _ = self._assemble(rows, self.band, W0)
        return value + antipodal_motion_term(self.curve, phi, psi, self.params)


def energy(curve, params, band=DEFAULT_BAND, with_estimate=False):
    """The (alpha, p) energy of a closed curve.

    Double integral of ``M_alpha^p`` over the pair grid with band model,
    corner patch and edge corrections as described in the module docstring.
    With ``with_estimate=True`` returns ``(value, error_estimate)`` where the
    estimate is dominated by the band-halving difference.
    """
    op = GridOperator(curve, params, band)
    if with_estimate:
        return op.energy_with_estimate()
    return op.energy()[0]


def first_variation(curve, phi, params, band=DEFAULT_BAND):
    """Assembled first variation ``delta E[phi]`` (double integral of G)."""
    return GridOperator(curve, params, band).first_variation(phi)


def second_variation(curve, phi, psi, params, band=DEFAULT_BAND):
    """Assembled second variation ``delta^2 E[phi, psi]``.

    Integral of the H density plus the antipodal line term; matches a mixed
    finite difference of the energy.
    """
    return GridOperator(curve, params, band).second_variation(phi, psi)


def _half_arc_totals(curve, phi):
    """``A[j] = integral of tau . phi' from s_j to s_j + L/2`` and the total.

    The integrand is the arclength derivative of the perturbation's
    tangential arc speed; its prefix integral jumps by the full-period total
    when the forward half-arc wraps past the parameter origin.
    """
    tp = np.einsum("ij,ij->i", curve.tau, phi.deriv.values)
    P, T = prefix_integral(tp, curve.L)
    M = curve.M
    j = np.arange(M)
    i = (j + M // 2) % M
    A = P[i] - P[j] + np.where(i < j, T, 0.0)
    return A, float(T)


def antipodal_motion_term(curve, phi, psi, params):
    """Line term of the second variation along the antipodal set.

    The intrinsic distance D = min(A, L - A) is only piecewise smooth in the
    perturbation parameter: the minimizing arc switches sides exactly where
    A = L/2.  Differentiating the energy twice therefore leaves, besides the
    integral of the pointwise H density, a Leibniz term from the motion of
    that switching set:

        -1/2 * integral over the antipodal pairs of
            W_D(x) (2 dA[phi](x) - dL[phi]) (2 dA[psi](x) - dL[psi]) dx

    with W_D = p alpha (c^-alpha - D^-alpha)^(p-1) D^(-alpha-1) at D = L/2
    and dA, dL the half-arc / full-length first variations.  The factor
    vanishes identically for phi = f (dA = L/2, dL = L) and for constant
    fields, so dilation and translation identities are unaffected.
    """
    M = curve.M
    j = np.arange(M)
    ps = PairSet(curve, (j + M // 2) % M, j)
    c = np.sqrt(ps.chord2)
    D = 0.5 * curve.L
    alpha, p = params.alpha, params.p
    base = c ** (-alpha) - D ** (-alpha)
    wd = p * alpha * base ** (p - 1.0) * D ** (-alpha - 1.0)
    Ap, Tp = _half_arc_totals(curve, phi)
    Aq, Tq = _half_arc_totals(curve, psi)
    prod = (2.0 * Ap - Tp) * (2.0 * Aq - Tq)
    return -0.5 * curve.h * float(np.sum(wd * prod))


@dataclass
class PairGrid:
    """Pair-major grid of a kernel quantity with band bookkeeping.

    ``values[i, j]`` is the quantity at ``(s_i, s_j)``; diagonal and band
    cells are present in ``values`` where computable but are excluded from
    the reported norms, which cover the off-band region; the band carries a
    separate closed-form L1 estimate.  ``flagged`` lists (i, j) pairs where
    a singular policy fired.
    """

    values: np.ndarray
    band: int
    label: str
    M: int
    L: float
    alpha: float
    p: float
    beta: float = None
    sup: float = 0.0
    l1_offband: float = 0.0
    band_l1_estimate: float = 0.0
    flagged: list = dc_field(default_factory=list)

    @property
    def l1(self):
        return self.l1_offband + self.band_l1_estimate

    def band_mask(self):
        k = np.arange(self.M)
        cyc = np.abs(np.subtract.outer(k, k))
        cyc = np.minimum(cyc, self.M - cyc)
        return cyc <= self.band

    def summary(self):
        return {
            "label": self.label,
            "sup": self.sup,
            "l1": self.l1,
            "flagged_pairs": [[int(i), int(j)] for i, j in self.flagged],
        }


def _to_pair_major(V):
    """``out[i, j]`` = the offset-grid value of the pair ``(s_i, s_j)``."""
    M = V.shape[0]
    j = np.arange(M)[:, None]
    out = np.full((M, M), np.nan)
    out[(j + np.arange(M)) % M, j] = V
    return out


def density_grid(curve, params, which="density", beta=None, phi=None, psi=None,
                 band=DEFAULT_BAND):
    """Grid of the density, G, or H, optionally beta-weighted.

    ``which`` is one of ``"density"``, ``"g"``, ``"h"``; G needs ``phi``, H
    needs ``phi`` and ``psi``.  When ``beta`` is given, values carry the
    weight ``D^((alpha - 2 beta) p)`` that renders them bounded (for beta at
    the Hoelder regularity of the curve).  Returns a :class:`PairGrid`.
    ``which``, the fields it needs and ``beta`` are checked before any grid
    work.
    """
    if which not in ("density", "g", "h"):
        raise ValidationError("unknown grid quantity %r" % (which,))
    if which == "g" and phi is None:
        raise ValidationError("which='g' requires phi")
    if which == "h" and (phi is None or psi is None):
        raise ValidationError("which='h' requires phi and psi")
    if beta is not None and not (0.0 < beta <= 1.0):
        raise ValidationError("beta must lie in (0, 1]")

    op = GridOperator(curve, params, band)
    flagged = []
    if which == "density":
        V, label, W0 = op.density_values(), "M_alpha^p", density_limit(curve, params)
    elif which == "g":
        V, label, W0 = op.g_values(phi), "G", g_limit(curve, params, phi)
    else:
        V, fmask = op.h_values(phi, psi)
        # row j, column k is the pair (s_{j+k}, s_j)
        flagged = [(int((j + k) % curve.M), int(j)) for j, k in zip(*np.nonzero(fmask))]
        label, W0 = "H", h_limit(curve, params, phi, psi)

    gamma_w = 0.0
    if beta is not None:
        gamma_w = (params.alpha - 2.0 * beta) * params.p
        Dk = np.abs(short_arc_offsets(curve.M, curve.L))
        with np.errstate(divide="ignore", invalid="ignore"):
            V = V * np.where(Dk > 0, Dk, np.nan)[None, :] ** gamma_w
        label = "D^%g * %s" % (gamma_w, label)

    cols = _offband_cols(curve.M, band)
    off_vals = V[:, cols]
    sup = float(np.max(np.abs(off_vals)))
    l1_off = float(np.sum(np.abs(off_vals))) * curve.h ** 2

    # band L1 estimate from the quartic model of |values| (weighted form)
    gamma_model = op.gamma - gamma_w
    band_int, _, _ = _band_pieces(_Rows.of(np.abs(V), band).cols, curve, band,
                                  gamma_model, np.abs(np.asarray(W0, dtype=float)))
    band_l1 = float(curve.h * np.sum(np.abs(band_int)))

    return PairGrid(
        values=_to_pair_major(V), band=band, label=label, M=curve.M,
        L=curve.L, alpha=params.alpha, p=params.p, beta=beta, sup=sup,
        l1_offband=l1_off, band_l1_estimate=band_l1, flagged=flagged,
    )


def holder_chain_check(curve, phi, psi, params):
    """The eight term-by-term integral bounds behind the variation estimates.

    All norms are taken over the discrete pair measure (cell area h^2) off
    the ``DEFAULT_BAND`` band, so each bound is an exact discrete Hoelder/sup
    inequality and the margins are nonnegative up to rounding.  Requires p > 1 (the H2 bound
    involves ``p - 1``).  Returns ``{name: {lhs, rhs, margin}}`` where
    ``margin = (rhs - lhs) / max(rhs, tiny)``.
    """
    if not (params.p > 1):
        raise ValidationError("holder_chain_check requires p > 1")
    op = GridOperator(curve, params)
    p = params.p
    h2cell = curve.h ** 2
    cols = _offband_cols(curve.M, DEFAULT_BAND)

    with np.errstate(divide="ignore", invalid="ignore"):
        geometry = {k: _unfold(V) for k, V in op._geometry(0, curve.M).items()}
        b = Blocks(_grid_pairs(curve), curve, params=params, phi=phi, psi=psi,
                   geometry=geometry)
        m = b.malpha()[:, cols]
        dmp = b.dm("phi")[:, cols]
        dmq = b.dm("psi")[:, cols]
        d2m = b.d2m()[:, cols]
        gp = b.g_terms("phi")
        gq = b.g_terms("psi")
        g1p = gp["G1"][:, cols]
        g1q = gq["G1"][:, cols]
        g2p = gp["G2"][:, cols]
        hterms, _ = b.h_terms()
        hvals = {k: v[:, cols] for k, v in hterms.items()}

    def lp(v, q):
        return float(np.sum(np.abs(v) ** q) * h2cell) ** (1.0 / q)

    def l1(v):
        return float(np.sum(np.abs(v)) * h2cell)

    m_p = lp(m, p)
    dmp_p, dmq_p = lp(dmp, p), lp(dmq, p)
    d2m_p = lp(d2m, p)
    sup_dp = phi.deriv.sup_norm()
    sup_dq = psi.deriv.sup_norm()

    bounds = {
        "G1": (l1(g1p), p * m_p ** (p - 1.0) * dmp_p),
        "G2": (l1(g2p), 2.0 * m_p ** p * sup_dp),
        "H1": (l1(hvals["H1"]), p * m_p ** (p - 1.0) * d2m_p),
        "H2": (l1(hvals["H2"]), p * (p - 1.0) * m_p ** (p - 2.0) * dmp_p * dmq_p),
        "H3": (l1(hvals["H3"]), 2.0 * l1(g1p) * sup_dq),
        "H4": (l1(hvals["H4"]), 2.0 * l1(g1q) * sup_dp),
        "H5": (l1(hvals["H5"]), 6.0 * m_p ** p * sup_dp * sup_dq),
        "H6": (l1(hvals["H6"]), 4.0 * m_p ** p * sup_dp * sup_dq),
    }
    report = {}
    for name, (lhs, rhs) in bounds.items():
        margin = (rhs - lhs) / max(abs(rhs), 1.0e-300)
        report[name] = {"lhs": lhs, "rhs": rhs, "margin": margin}
    return report


# -- persistence -------------------------------------------------------------


def save_grid_csv(grid, path):
    """Row-major CSV of the grid values; band cells written as nan."""
    vals = grid.values.copy()
    vals[grid.band_mask()] = np.nan
    header = "# M=%d L=%r alpha=%r p=%r beta=%r band=%d label=%s" % (
        grid.M, grid.L, grid.alpha, grid.p, grid.beta, grid.band, grid.label,
    )
    with open(str(path), "w") as fh:
        fh.write(header + "\n")
        for row in vals:
            fh.write(",".join("nan" if not np.isfinite(x) else repr(float(x)) for x in row))
            fh.write("\n")
