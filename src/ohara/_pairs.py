"""Pair evaluators: shared building blocks for the kernel formulas.

Internal module.  Every kernel and variation formula in this package is an
algebraic expression in a handful of pair-level quantities: the short-arc
separation, the chord vector, signed short-arc integrals of fields, and field
values at the two endpoints.  Two evaluators provide those with a common
interface so the formulas are written exactly once:

* :class:`PairSet` -- pairs of grid samples, from a single pair up to the full
  M x M offset grid (vectorized; ``curve.pair_frame`` returns one pair and
  the quadrature module builds the grid and row chunks of it, see
  :func:`row_chunks`);
* :class:`OffGridPair` -- pairs of arbitrary parameter values, evaluated
  through the trigonometric interpolants (used by the diagonal-limit probes).

Short-arc integrals are prefix-table differences.  For grid pairs
``(i, j)`` with cyclic forward offset ``k = (i - j) mod M`` the signed
integral over the shorter arc is::

    I = P[i] - P[j] + T * ([i < j] - [k > M/2])

where ``P`` is the grid prefix of the field and ``T`` its full-period
integral: the first correction unwraps the forward arc across s = 0, the
second switches to the (negatively oriented) complementary arc when the
backward arc is shorter.  Off the grid the prefix formula ``mean*s +
periodic(s)`` is globally valid, so a plain difference suffices.
"""

import numpy as np

#: cell budget of one row chunk: passes over the M x M offset grid hold about
#: this many cells per live block instead of the whole grid
CHUNK_CELLS = 1 << 15


def row_chunks(M, width=None):
    """``(j0, j1)`` row ranges covering ``0:M``, about ``CHUNK_CELLS / width``
    rows each for rows ``width`` cells wide (``M`` by default)."""
    rows = max(1, CHUNK_CELLS // (width or M))
    return [(j0, min(j0 + rows, M)) for j0 in range(0, M, rows)]


class PairSet:
    """Vectorized bundle of grid-sample pairs ``(s1, s2) = (s_i, s_j)``.

    ``i`` and ``j`` broadcast against each other, so one pair, a list of
    pairs and rows of the offset grid (``j`` a column) share this class.
    ``chord2`` may be passed in when the caller already holds the squared
    chords; ``D``, ``dvec`` and ``chord`` are computed on demand.
    """

    def __init__(self, curve, i_idx, j_idx, chord2=None):
        M = curve.M
        i = np.asarray(i_idx, dtype=np.intp) % M
        j = np.asarray(j_idx, dtype=np.intp) % M
        self.curve = curve
        self.i = i
        self.j = j
        k = (i - j) % M
        # signed short-arc separation s_i - s_j in (-L/2, L/2]
        self.ds = np.where(k <= M // 2, k, k - M) * curve.h
        self.wrap = (i < j).astype(float) - (k > M // 2)
        if chord2 is None:
            dvec = self.dvec
            chord2 = np.einsum("...i,...i->...", dvec, dvec)
        self.chord2 = chord2

    @property
    def D(self):
        """Intrinsic distance ``|ds|``."""
        return np.abs(self.ds)

    @property
    def dvec(self):
        """Chord vector ``f(s_i) - f(s_j)``."""
        return self.curve.positions[self.i] - self.curve.positions[self.j]

    @property
    def chord(self):
        """Euclidean chord length."""
        return np.sqrt(self.chord2)

    def integral(self, field):
        """Signed short-arc integral of a field between the pair endpoints."""
        P, T = field.prefix()
        out = P[self.i] - P[self.j]
        if P.ndim == 2:
            out = out + self.wrap[..., None] * T
        else:
            out = out + self.wrap * T
        return out

    def value1(self, field):
        return field.values[self.i]

    def value2(self, field):
        return field.values[self.j]


class OffGridPair:
    """Pairs of arbitrary parameter values ``(s1, s2)`` with ``|s1-s2| < L/2``.

    The chord is taken as the short-arc integral of the tangent rather than a
    difference of interpolated positions; the two agree to machine precision
    and the former keeps the kernel cancellations exact.
    """

    def __init__(self, curve, s1, s2):
        self.curve = curve
        self.s1 = np.asarray(s1, dtype=float)
        self.s2 = np.asarray(s2, dtype=float)
        self.ds = self.s1 - self.s2
        if np.any(np.abs(self.ds) > curve.L / 2):
            raise ValueError("off-grid pairs must be given in short-arc form")
        self.D = np.abs(self.ds)
        self.dvec = self.integral(curve.tau_field)
        self.chord2 = np.einsum("...i,...i->...", self.dvec, self.dvec)

    def integral(self, field):
        interp = field.interpolant()
        return interp.prefix(self.s1) - interp.prefix(self.s2)

    def value1(self, field):
        return field.at(self.s1)

    def value2(self, field):
        return field.at(self.s2)


def offset_sq_diffs(values):
    """``out[j, k] = |v(s_{j+k}) - v(s_j)|^2`` over all cyclic offsets ``k``.

    ``values`` holds the ``(M,)`` or ``(M, n)`` samples of ``v``.
    """
    vals = values if values.ndim == 2 else values[:, None]
    M = vals.shape[0]
    out = np.empty((M, M))
    # row j of the windows is v(s_{j+k}) over k, as an (n, M) view
    win = np.lib.stride_tricks.sliding_window_view(np.concatenate([vals, vals]), M, axis=0)
    for j0, j1 in row_chunks(M):
        d = win[j0:j1] - vals[j0:j1, :, None]
        out[j0:j1] = np.einsum("jik,jik->jk", d, d)
    return out


def n_raw(ev, u, v, uv):
    """Bilinear kernel N(u, v) on an evaluator, given the product field uv."""
    Iu = ev.integral(u)
    Iv = ev.integral(v)
    return (ev.ds * ev.integral(uv) - np.einsum("...i,...i->...", Iu, Iv)) / ev.chord2


def n_raw_scalar(ev, u, v, uv):
    """N(u, v) for scalar fields u, v (d = 1)."""
    return (ev.ds * ev.integral(uv) - ev.integral(u) * ev.integral(v)) / ev.chord2


def k_raw(ev, u, v):
    """Chord-difference kernel K(u, v) = <du, dv> / |df|^2."""
    du = ev.value1(u) - ev.value2(u)
    dv = ev.value1(v) - ev.value2(v)
    return np.einsum("...i,...i->...", du, dv) / ev.chord2
