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
M - k]``.  The swap changes the sign of the separation, of the prefix
differences and of the chord vector exactly and leaves the squared chord
as it is, so every block obeys the mirror bit for bit (the H5 term of H is
grouped so that the swap only reorders the operands of additions).  The
antipodal column ``k = M/2`` is the exception: both pairs of a swap there
take the forward short arc, so the signs do not flip.  It lies in the
evaluated half and is computed directly.  One index map, :func:`_cells`,
gives the cell of the half grid that holds the pair ``(s_i, s_j)``; every
read of a whole-grid cell goes through it, in offset-major rows (the
first variation's transpose, ``g_values``, ``h_values``, the flagged H2
pairs) and in pair-major rows (:class:`PairGrid`) alike.

The rule reads the grid only through the sum of its rows' off-band sums
and a few columns (:class:`_Rows`).  So the energy density and the
variation integrands G and H are evaluated on row chunks of the half grid,
and each chunk is reduced as soon as it is built: its off-band sum weights
each half column by the whole-grid columns it stands for (2, and 1 for the
antipodal column), and a column past ``M/2`` that the rule reads is its
mirror, rolled.  A :class:`GridOperator` that its caller builds keeps the
geometry blocks for the passes it runs later; the one-shot functions
:func:`energy`, :func:`first_variation`, :func:`second_variation`,
:func:`density_grid` and :func:`holder_chain_check` run one pass that keeps
none, each chunk computing the geometry it reads.  Beyond such kept grids
and the half grids that :func:`density_grid` returns, a pass holds
O(rows x M) per live block, not O(M^2).  Rows reduce independently, so the
result does not depend on the chunking, bit for bit; against a reduction
of whole rows only the order of the off-band sum differs.  The transpose of the first
variation (:meth:`GridOperator.first_variation_dual`) runs on row chunks
of the whole grid, each read off the kept half grids through
:func:`_cells`: the pair at ``(j - k, k)`` that row ``j`` needs is the swap
of the pair at ``(j, M - k)`` in its own row.

The assembled second variation additionally carries a line term along the
antipodal set: the kink of D = min(arc, L - arc) moves with the curve, and
differentiating the energy twice produces a Leibniz boundary contribution
there that the pointwise H density (a two-sided classical derivative away
from the antipode) cannot see.  See :func:`antipodal_motion_term`.
"""

import functools
import warnings
from dataclasses import dataclass, field as dc_field

import numpy as np

from ._pairs import PairSet, _dot, map_chunks
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


@functools.lru_cache(maxsize=None)
def _assembler_cols(M, band):
    """The columns the assembler reads one by one: the three cut columns on
    each side of the band and the corner columns ``M/2 -+ 3``."""
    kc = M // 2
    cut = {band + d for d in (1, 2, 3)} | {M - band - d for d in (1, 2, 3)}
    return tuple(sorted(cut | {(kc + d) % M for d in range(-3, 4)}))


class _Rows:
    """What the assembler reads of a swap-symmetric offset grid ``F``.

    ``offband`` holds one sum per row whose total over all rows is the sum
    of ``F`` over the columns outside the band, and ``cols[k]`` is column
    ``k`` of ``F`` for each of :func:`_assembler_cols`.  :meth:`of` reduces
    rows of the half grid, :meth:`concat` joins the row chunks and reads the
    columns past ``M/2`` off their mirrors; rows reduce on their own, so the
    arrays are the same bits whatever the chunking.
    """

    def __init__(self, offband, cols):
        self.offband = offband
        self.cols = cols

    @classmethod
    def of(cls, V, band):
        """Rows ``V`` of the half grid (columns ``0..M/2``): ``offband[j]`` sums
        the off-band half columns of row ``j``, each weighted by the
        whole-grid columns it stands for (:func:`_mirror_weights`)."""
        M = 2 * (V.shape[1] - 1)
        _check_band(M, band)
        offband = (V[:, band + 1:] * _mirror_weights(M, band)).sum(axis=1)
        # one gather of the columns, a copy that keeps no chunk grid alive
        ks = [k for k in _assembler_cols(M, band) if k <= M // 2]
        return cls(offband, dict(zip(ks, V[:, ks].T)))

    @classmethod
    def concat(cls, parts):
        offband = np.concatenate([r.offband for r in parts])
        cols = {k: np.concatenate([r.cols[k] for r in parts]) for k in parts[0].cols}
        # row j of column M - k is row j - k of column k
        M = len(offband)
        cols.update({M - k: np.roll(c, k) for k, c in list(cols.items()) if k < M // 2})
        return cls(offband, cols)


def _half_width(M):
    """Columns ``0..M/2`` of the offset grid: the half that :class:`GridOperator`
    evaluates."""
    return M // 2 + 1


def _cells(M, i, j):
    """Flat indices into a half grid (columns ``0..M/2``) of the pairs
    ``(s_i, s_j)``, for index arrays ``i`` and ``j`` that broadcast.

    Every grid here is pair-swap symmetric, and the swap of the pair at
    ``(j, k)``, ``k = (i - j) % M``, sits at ``(i, M - k)``; so a pair whose
    offset ``k`` is past ``M/2`` is read at ``(i, M - k)`` and any other at
    ``(j, k)``, the antipodal pair ``k = M/2`` included.  Offset-major rows
    ``j`` pass ``i = (j + k) % M``, pair-major rows ``i`` pass ``j`` as the
    columns.
    """
    w, k = _half_width(M), (i - j) % M
    return np.where(k > M // 2, i * w + (M - k), j * w + k)


@functools.lru_cache(maxsize=None)
def _mirror_weights(M, band):
    """Weights of the half-grid columns ``band + 1..M/2``: how many columns of
    the whole grid each stands for in a sum over all rows, 2 (itself and its
    mirror ``M - k``) and 1 for the antipodal column ``M/2``, its own mirror.
    Kept per ``(M, band)`` and read only."""
    w = np.full(_half_width(M) - band - 1, 2.0)
    w[-1] = 1.0
    w.flags.writeable = False
    return w


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

    Built by its caller, it keeps the geometry-only blocks on the evaluated
    half of the offset grid (columns ``0..M/2``, see the module docstring)
    as ``(M, M/2 + 1)`` arrays: ``chord2`` = |df|^2, ``ntt`` = N(tau, tau),
    ``calpha`` = |df|^alpha, ``malpha`` = M_alpha and ``dphis``, the first
    two derivatives of phi_alpha (one ``(2, M, M/2 + 1)`` array); phi_alpha
    itself is read only to form M_alpha, so it is not kept.  The antipodal
    column ``M/2`` is kept as computed, since the mirror does not hold on
    it.  The passes work on row chunks of the half grid, handed out by
    ``_pairs.map_chunks``: the build writes the geometry blocks that each
    chunk computes (:meth:`_computed`) into those arrays, and every later
    pass runs :meth:`_chunks`, which starts each chunk from row views of
    them (the squared chords seeded into the chunk's ``PairSet``, the other
    blocks into its ``Blocks``) and hands all chunks of the pass one dict of
    product fields.  The energy and the variations reduce each chunk's
    integrand to its :class:`_Rows` at once.  So N(tau,tau), M_alpha etc.
    are computed once, on half the pairs, and a whole half grid of an
    integrand exists only where a caller asks for one (:meth:`_half`).

    The one-shot module functions (:func:`energy`, :func:`first_variation`,
    :func:`second_variation`, :func:`density_grid`,
    :func:`holder_chain_check`) pass ``_one_shot=True``: such an operator
    builds and keeps no grid, and its single pass computes each chunk's
    geometry blocks with the build's expressions and N(tau, tau) check
    (:meth:`_computed`), so it gives the same bits.
    :meth:`first_variation_dual` needs the kept grids.
    """

    def __init__(self, curve, params, band=DEFAULT_BAND, _one_shot=False):
        _check_band(curve.M, band)
        bilipschitz_constant(curve)
        self.curve = curve
        self.params = params
        self.band = band
        self.gamma = (params.alpha - 2.0) * params.p
        self._one_shot = _one_shot
        if _one_shot:
            return
        M, w = curve.M, _half_width(curve.M)
        self.chord2, self.ntt, self.calpha, self.malpha = (np.empty((M, w)) for _ in range(4))
        self.dphis = np.empty((2, M, w))
        fields = {}

        def build(j0, j1):
            b = self._computed(j0, j1, fields=fields)
            self.chord2[j0:j1] = b.ev.chord2
            rows = self._geometry(j0, j1)
            for name, block in b.geometry().items():
                rows[name][...] = block

        with np.errstate(divide="ignore", invalid="ignore"):
            map_chunks(build, M, w)

    def _geometry(self, j0, j1):
        """Rows ``j0:j1`` of the geometry blocks, keyed as :meth:`Blocks.geometry`."""
        return {k: getattr(self, k)[..., j0:j1, :] for k in Blocks.GEOMETRY}

    def _computed(self, j0, j1, phi=None, psi=None, fields=None):
        """``Blocks`` on rows ``j0:j1`` of the half grid with product fields
        ``fields`` that computes its own geometry blocks, N(tau, tau) checked
        off the diagonal."""
        M, w = self.curve.M, _half_width(self.curve.M)
        b = Blocks(PairSet(self.curve, slice(j0, j1), slice(w)), params=self.params,
                   phi=phi, psi=psi, fields=fields)
        n_tau_checked(b.ntt_raw(), where=_offband_cols(M, 0)[None, :w])
        return b

    def _rows(self, j0, j1, phi=None, psi=None, fields=None):
        """``Blocks`` on rows ``j0:j1`` of the half grid with product fields
        ``fields``: its squared chords and geometry blocks are row views of the
        operator's kept grids, or, on a one-shot operator, :meth:`_computed`."""
        if self._one_shot:
            return self._computed(j0, j1, phi, psi, fields)
        ps = PairSet(self.curve, slice(j0, j1), slice(_half_width(self.curve.M)))
        ps.chord2 = self.chord2[j0:j1]
        return Blocks(ps, params=self.params, phi=phi, psi=psi,
                      geometry=self._geometry(j0, j1), fields=fields)

    def _chunks(self, fn, phi=None, psi=None):
        """``[fn(b)]`` over the row chunks of the half grid, ``b`` the chunk's
        ``Blocks``; the chunks of a pass share one dict of product fields."""
        M = self.curve.M
        fields = {}

        def chunk(j0, j1):
            return fn(self._rows(j0, j1, phi, psi, fields))

        with np.errstate(divide="ignore", invalid="ignore"):
            return map_chunks(chunk, M, _half_width(M))

    def _half(self, integrand, phi=None, psi=None):
        """The blocks that ``integrand(b)`` lists, each on the whole half grid,
        written chunk by chunk into arrays that the first chunk allocates."""
        halves = []

        def fill(b):
            blocks = integrand(b)
            if not halves:
                halves.extend(np.empty((self.curve.M,) + B.shape[1:], B.dtype) for B in blocks)
            for V, B in zip(halves, blocks):
                V[b.ev._rows] = B

        self._chunks(fill, phi, psi)
        return halves

    def _h_grid(self, b):
        """``[H, flags]``: H = H1 + ... + H6 on the pairs of ``b`` and its
        off-diagonal H2 flags."""
        terms, flagged = b.h_terms()
        if flagged.any():
            flagged = flagged & _offband_cols(self.curve.M, 0)[None, :flagged.shape[1]]
        return [sum(terms.values()), flagged]

    def energy(self, band=None):
        return self._energies([self.band if band is None else band])[0]

    def _energies(self, bands):
        """``[self.energy(band) for band in bands]`` in one pass: each chunk's
        ``M_alpha^p`` is raised once and reduced with every band."""
        p = self.params.p

        def reduce(b):
            mp = b.malpha() ** p
            return [_Rows.of(mp, band) for band in bands]

        chunks = self._chunks(reduce)
        W0 = density_limit(self.curve, self.params)
        return [self._assemble(_Rows.concat(rows), band, W0)
                for rows, band in zip(zip(*chunks), bands)]

    def energy_with_estimate(self):
        (value, parts), (half, _) = self._energies([self.band, max(1, self.band // 2)])
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

    def _whole(self, halves):
        """The whole offset grids of the half grids ``halves``."""
        ps = PairSet(self.curve, slice(None), slice(None))
        cells = _cells(self.curve.M, ps.i, ps.j)
        return [V.take(cells) for V in halves]

    def g_values(self, phi):
        """The whole G grid."""
        return self._whole(self._half(_g_grid, phi))[0]

    def first_variation(self, phi):
        rows = _Rows.concat(self._chunks(lambda b: _Rows.of(_g_grid(b)[0], self.band), phi))
        W0 = g_limit(self.curve, self.params, phi)
        value, _ = self._assemble(rows, self.band, W0)
        return value

    def _row_weights(self):
        """``(w, w0)``: row ``j`` of the assembled integral of a whole grid
        ``F`` is ``sum_k w[k] F[j, k] + w0 W0[j]``, read off the assembler by
        row chunks of unit rows: the row of ``e_j`` sums to 1 off the band,
        and its column ``k`` is 1 at ``k = j``."""
        M, band = self.curve.M, self.band
        # j = M stands for the zero row, which is 1 nowhere
        offband = np.append(_offband_cols(M, band), False).astype(float)

        def totals(j, W0):
            rows = _Rows(offband[j], {k: (j == k).astype(float) for k in _assembler_cols(M, band)})
            pieces = _band_pieces(rows.cols, self.curve, band, self.gamma, W0)
            return _row_totals(rows, self.curve, band, pieces)[0]

        w = map_chunks(lambda j0, j1: totals(np.arange(j0, j1), np.zeros(j1 - j0)), M)
        return np.concatenate(w), totals(np.array([M]), np.ones(1))[0]

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
            ps = PairSet(cv, slice(j0, j1), k)
            cell = _cells(M, ps.i, ps.j)
            m = self.malpha.take(cell)
            hmp1 = h * w[k] * np.power(m, p - 1.0)
            p1_ca = self.dphis[0].take(cell) / self.calpha.take(cell)
            cK = -p * hmp1 * (2.0 * p1_ca * self.ntt.take(cell) + pr.alpha * m)
            cN = 2.0 * p * hmp1 * p1_ca
            # N(tau, phi') = (ds I(tau.phi') - I(tau) . I(phi')) / |df|^2 and
            # K(f, phi) = (f(s1) - f(s2)) . I(phi') / |df|^2, so the grid x[c]
            # multiplies I(phi'_c), x[n] I(tau.phi') and x[n + 1], which is
            # cT, tau.phi'(s1) + tau.phi'(s2)
            x = np.empty((n + 2,) + m.shape)
            dvec = ps.dvec
            chord2 = _dot(dvec, dvec)
            x[:n] = (cK * dvec - cN * ps.integral(cv.tau_field)) / chord2
            x[n] = cN * ps.ds / chord2
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
        return tuple(self._whole(self._half(self._h_grid, phi, psi)))

    def second_variation(self, phi, psi):
        def reduce(b):
            H, flagged = self._h_grid(b)
            # each flagged half column stands for its mirror too
            count = ((flagged[:, 1:] * _mirror_weights(self.curve.M, 0)).sum()
                     if flagged.any() else 0)
            return _Rows.of(H, self.band), count

        chunks, counts = zip(*self._chunks(reduce, phi, psi))
        if sum(counts):
            warnings.warn("H2 singular policy fired at %d grid pairs; excluded from "
                          "quadrature" % sum(counts))
        rows = _Rows.concat(chunks)
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
    op = GridOperator(curve, params, band, _one_shot=True)
    if with_estimate:
        return op.energy_with_estimate()
    return op.energy()[0]


def first_variation(curve, phi, params, band=DEFAULT_BAND):
    """Assembled first variation ``delta E[phi]`` (double integral of G)."""
    return GridOperator(curve, params, band, _one_shot=True).first_variation(phi)


def second_variation(curve, phi, psi, params, band=DEFAULT_BAND):
    """Assembled second variation ``delta^2 E[phi, psi]``.

    Integral of the H density plus the antipodal line term; matches a mixed
    finite difference of the energy.
    """
    return GridOperator(curve, params, band, _one_shot=True).second_variation(phi, psi)


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
    ps = PairSet(curve, slice(None), curve.M // 2)
    c = ps.chord
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

    Keeps ``half``, columns ``0..M/2`` of the offset grid (see the module
    docstring), beta-weighted if ``beta`` is given.  ``rows(i0, i1)``
    returns rows ``i0:i1`` of the pair-major grid, cell ``[i, j]`` the
    quantity at ``(s_i, s_j)``, in one gather off ``half`` through
    :func:`_cells`, the antipodal cells included.  Diagonal and band cells,
    those within cyclic distance ``band`` of the diagonal (rows ``i0:i1`` of
    their mask are ``_band_rows(i0, i1)``), are present where
    computable but are excluded from the reported norms, which cover the
    off-band region; the band carries a separate closed-form L1 estimate.
    ``flagged`` lists (i, j) pairs where a singular policy fired.
    """

    half: np.ndarray
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

    def rows(self, i0, i1):
        """Rows ``i0:i1`` of the pair-major grid, read off ``half``."""
        return self.half.take(_cells(self.M, np.arange(i0, i1)[:, None], np.arange(self.M)))

    def _band_rows(self, i0, i1):
        k = (np.arange(i0, i1)[:, None] - np.arange(self.M)) % self.M
        return ~_offband_cols(self.M, self.band)[k]

    def summary(self):
        return {
            "label": self.label,
            "sup": self.sup,
            "l1": self.l1,
            "flagged_pairs": [[int(i), int(j)] for i, j in self.flagged],
        }


def density_grid(curve, params, which="density", beta=None, phi=None, psi=None,
                 band=DEFAULT_BAND):
    """Grid of the density, G, or H, optionally beta-weighted.

    ``which`` is one of ``"density"``, ``"g"``, ``"h"``; G needs ``phi``, H
    needs ``phi`` and ``psi``.  When ``beta`` is given, values carry the
    weight ``D^((alpha - 2 beta) p)`` that renders them bounded (for beta at
    the Hoelder regularity of the curve).  Returns a :class:`PairGrid` that
    keeps the half grid of the quantity, built in one pass that keeps no
    geometry grid; ``sup``, the off-band L1 and the flagged pairs are
    reduced over row chunks of it, each column weighted by the whole-grid
    columns it stands for, so no whole grid is built.  ``which``, the fields it needs and ``beta`` are checked before
    any grid work.
    """
    if which not in ("density", "g", "h"):
        raise ValidationError("unknown grid quantity %r" % (which,))
    if which == "g" and phi is None:
        raise ValidationError("which='g' requires phi")
    if which == "h" and (phi is None or psi is None):
        raise ValidationError("which='h' requires phi and psi")
    if beta is not None and not (0.0 < beta <= 1.0):
        raise ValidationError("beta must lie in (0, 1]")

    op = GridOperator(curve, params, band, _one_shot=True)
    M = curve.M
    flagged = []
    if which == "density":
        (half,), label = op._half(lambda b: [b.malpha() ** params.p]), "M_alpha^p"
        W0 = density_limit(curve, params)
    elif which == "g":
        (half,), label, W0 = op._half(_g_grid, phi), "G", g_limit(curve, params, phi)
    else:
        half, fmask = op._half(op._h_grid, phi, psi)
        label, W0 = "H", h_limit(curve, params, phi, psi)

        def pairs(j0, j1):
            # row j, column k is the pair (s_{j+k}, s_j)
            ps = PairSet(curve, slice(j0, j1), slice(None))
            j, k = np.nonzero(fmask.take(_cells(M, ps.i, ps.j)))
            return zip(ps.i[j, k].tolist(), (j0 + j).tolist())

        flagged = [ij for chunk in map_chunks(pairs, M) for ij in chunk]

    gamma_w = 0.0
    if beta is not None:
        gamma_w = (params.alpha - 2.0 * beta) * params.p
        # |D| is symmetric, D[k] == D[M - k], so the half carries the weight
        # of the unfolded grid bit for bit
        Dk = np.abs(short_arc_offsets(M, curve.L))[:_half_width(M)]
        with np.errstate(divide="ignore", invalid="ignore"):
            half *= np.where(Dk > 0, Dk, np.nan) ** gamma_w
        label = "D^%g * %s" % (gamma_w, label)

    def offband(j0, j1):
        a = np.abs(half[j0:j1])
        return a[:, band + 1:].max(), _Rows.of(a, band)

    sups, chunks = zip(*map_chunks(offband, M, _half_width(M)))
    rows = _Rows.concat(chunks)
    sup, l1_off = float(np.max(sups)), float(rows.offband.sum()) * curve.h ** 2

    # band L1 estimate from the quartic model of |values| (weighted form)
    band_int, _, _ = _band_pieces(rows.cols, curve, band, op.gamma - gamma_w,
                                  np.abs(np.asarray(W0, dtype=float)))
    band_l1 = float(curve.h * np.sum(np.abs(band_int)))

    return PairGrid(half=half, band=band, label=label, M=M, L=curve.L, alpha=params.alpha,
                    p=params.p, beta=beta, sup=sup, l1_offband=l1_off,
                    band_l1_estimate=band_l1, flagged=flagged)


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
    op = GridOperator(curve, params, _one_shot=True)
    p = params.p
    h2cell = curve.h ** 2

    def row_sums(b):
        # per row, sums whose total is the off-band sum of |v|^q on the whole
        # grid, q = p for the first four blocks and 1 for the others
        g_phi, g_psi = b.g_terms("phi"), b.g_terms("psi")
        powers = [b.malpha(), b.dm("phi"), b.dm("psi"), b.d2m()]
        plain = [g_phi["G1"], g_psi["G1"], g_phi["G2"], *b.h_terms()[0].values()]
        return ([_Rows.of(np.abs(v) ** p, DEFAULT_BAND).offband for v in powers]
                + [_Rows.of(np.abs(v), DEFAULT_BAND).offband for v in plain])

    m, dmp, dmq, d2m, g1p, g1q, g2p, *h = op._half(row_sums, phi, psi)
    hvals = dict(zip(["H%d" % t for t in range(1, 7)], h))

    def l1(s):
        """The integral over the pair measure of a block with row sums ``s``."""
        return float(s.sum() * h2cell)

    m_p, dmp_p, dmq_p, d2m_p = (l1(s) ** (1.0 / p) for s in (m, dmp, dmq, d2m))
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
    """Row-major CSV of the grid values, written by row chunks; band and
    non-finite cells written as nan."""
    with open(str(path), "w") as fh:
        fh.write("# M=%d L=%r alpha=%r p=%r beta=%r band=%d label=%s\n" % (
            grid.M, grid.L, grid.alpha, grid.p, grid.beta, grid.band, grid.label))

        def write(i0, i1):
            vals = grid.rows(i0, i1)
            vals[grid._band_rows(i0, i1) | ~np.isfinite(vals)] = np.nan
            fh.writelines(",".join(map(repr, row)) + "\n" for row in vals.tolist())

        map_chunks(write, grid.M)
