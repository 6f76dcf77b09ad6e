"""Pair evaluators: shared building blocks for the kernel formulas.

Internal module.  Every kernel and variation formula in this package is an
algebraic expression in a handful of pair-level quantities: the short-arc
separation, the chord vector, signed short-arc integrals of fields, and field
values at the two endpoints.  Two evaluators provide those with a common
interface so the formulas are written exactly once:

* :class:`PairSet` -- pairs of grid samples, from a single pair up to the full
  M x M offset grid (vectorized; ``curve.pair_frame`` returns one pair and
  the quadrature module builds the grid and row chunks of it, see
  :func:`map_chunks`);
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

Layout.  Vector pair quantities (integrals and endpoint values of vector
fields, the chord vector) are component major, shaped ``(n,) + pairs``, so
every ufunc on them runs over whole rows of pairs, not over a length-n
inner axis; :func:`_dot` contracts the leading axis in the order that
``einsum`` sums a component-last one, so the kernels keep their bits.  On
the offset grid row ``j``, column ``k`` is the pair ``(s_{j+k}, s_j)``, so a
:class:`PairSet` built with a ``window`` (``quadrature._grid_pairs``) reads
the first points of its pairs, ``table[j + k]``, through a sliding-window
view of the doubled sample or prefix table instead of an index gather; the
second points are one column per row.

Row-chunk passes.  Every pass over the rows of the offset grid (the
``GridOperator`` build, its ``_half`` and ``_reduce`` passes and its
``first_variation_dual`` with the row weights it reads off the assembler,
``curve.chord2_grid`` from rows of :func:`offset_sq_diffs`,
``curve.bilipschitz_constant``, and the one pass per field of ``norms``)
calls :func:`map_chunks`, which calls ``fn(j0, j1)`` once per row chunk of
about ``CHUNK_CELLS`` cells, in row order, on the calling thread.  Each row
is computed on its own, so the result is the same, bit for bit, whatever
the chunking.

These passes run serially.  Since the window reads, each ufunc on a chunk
is a short contiguous pass and the Python work between them holds the GIL,
so a pool of threads made them slower.  On a 2-vCPU box at M = 1024, one
worker against two took 52-55 ms against 63-87 ms for the ``GridOperator``
build, 200-242 ms against 307-340 ms for ``second_variation`` and 154-163 ms
against 194-307 ms for ``flow.l2_gradient``; and such a box caps any pool
gain at 2x.  The one pool left builds the elementwise cos/sin table of
``spectral.Interpolant``.
"""

import numpy as np

#: cell budget of a row chunk: passes over the M x M offset grid hold about
#: this many cells per live block instead of the whole grid
CHUNK_CELLS = 1 << 15


def map_chunks(fn, M, width=None):
    """``[fn(j0, j1) for j0, j1 in chunks]`` over row chunks ``j0:j1`` of
    ``0:M`` of about ``CHUNK_CELLS`` cells, for rows ``width`` cells wide
    (``M`` by default)."""
    rows = max(1, CHUNK_CELLS // (width or M))
    return [fn(j0, min(j0 + rows, M)) for j0 in range(0, M, rows)]


class PairSet:
    """Vectorized bundle of grid-sample pairs ``(s1, s2) = (s_i, s_j)``.

    ``i`` and ``j`` broadcast against each other, so one pair, a list of
    pairs and rows of the offset grid (``j`` a column) share this class.
    ``chord2`` may be passed in when the caller already holds the squared
    chords; ``D``, ``dvec`` and ``chord`` are computed on demand.

    ``window = (j0, j1, cols)`` states that the pairs are rows ``j0:j1`` and
    columns ``cols`` (a slice) of the offset grid, ``i = j + k``: the first
    points are then read through a window view of the doubled sample table
    instead of gathered through ``i``, ``i_idx`` is not read (it may be
    ``None``), and the separation ``ds`` is one row over the columns.  ``i``
    is computed only when asked for.  Vector quantities are component major,
    ``(n,) + shape``; see the module docstring.
    """

    def __init__(self, curve, i_idx, j_idx, chord2=None, window=None):
        M = curve.M
        self.curve = curve
        self.j = np.asarray(j_idx, dtype=np.intp) % M
        self.window = window
        # cyclic forward offset k = (i - j) mod M: on a window, its columns
        if window is None:
            k = (np.asarray(i_idx, dtype=np.intp) - self.j) % M
        else:
            k = np.arange(M)[window[2]]
        self._k = k
        # signed short-arc separation s_i - s_j in (-L/2, L/2]
        self.ds = np.where(k <= M // 2, k, k - M) * curve.h
        # i < j exactly when j + k >= M
        self.wrap = (self.j + k >= M).astype(float) - (k > M // 2)
        if chord2 is None:
            dvec = self.dvec
            chord2 = _dot(dvec, dvec)
        self.chord2 = chord2

    @property
    def i(self):
        """Sample index of the first points, ``(j + k) mod M``."""
        return (self.j + self._k) % self.curve.M

    def _first(self, samples):
        """``(M,)`` or ``(M, n)`` samples at the first points, component major."""
        table = np.ascontiguousarray(samples.T)
        if self.window is None:
            return table[..., self.i]
        j0, j1, cols = self.window
        doubled = np.concatenate([table, table], axis=-1)
        win = np.lib.stride_tricks.sliding_window_view(doubled, self.curve.M, axis=-1)
        return win[..., j0:j1, cols]

    def _second(self, samples):
        """``(M,)`` or ``(M, n)`` samples at the second points, component major."""
        return np.ascontiguousarray(samples.T)[..., self.j]

    @property
    def D(self):
        """Intrinsic distance ``|ds|``."""
        return np.abs(self.ds)

    @property
    def dvec(self):
        """Chord vector ``f(s_i) - f(s_j)``."""
        pos = self.curve.positions
        return self._first(pos) - self._second(pos)

    @property
    def chord(self):
        """Euclidean chord length."""
        return np.sqrt(self.chord2)

    def integral(self, field):
        """Signed short-arc integral of a field between the pair endpoints."""
        P, T = field.prefix()
        out = self._first(P) - self._second(P)
        out += self.wrap * np.reshape(T, np.shape(T) + (1,) * self.wrap.ndim)
        return out

    def value1(self, field):
        return self._first(field.values)

    def value2(self, field):
        return self._second(field.values)


class OffGridPair:
    """Pairs of arbitrary parameter values ``(s1, s2)`` with ``|s1-s2| < L/2``.

    The chord is taken as the short-arc integral of the tangent rather than a
    difference of interpolated positions; the two agree to machine precision
    and the former keeps the kernel cancellations exact.  Vector quantities
    are component major, as on :class:`PairSet`.
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
        self.chord2 = _dot(self.dvec, self.dvec)

    def _vector(self, field, out):
        return np.moveaxis(out, -1, 0) if field.values.ndim == 2 else out

    def integral(self, field):
        interp = field.interpolant()
        return self._vector(field, interp.prefix(self.s1) - interp.prefix(self.s2))

    def value1(self, field):
        return self._vector(field, field.at(self.s1))

    def value2(self, field):
        return self._vector(field, field.at(self.s2))


def offset_sq_diffs(values, j0=0, j1=None):
    """Rows ``j0:j1`` (all by default) of ``out[j, k] = |v(s_{j+k}) - v(s_j)|^2``
    over all cyclic offsets ``k``.

    ``values`` holds the ``(M,)`` or ``(M, n)`` samples of ``v``.  Each row is
    computed on its own, so row chunks give the rows of the whole grid.
    """
    vals = values if values.ndim == 2 else values[:, None]
    M = vals.shape[0]
    j1 = M if j1 is None else j1
    # row j of the windows is v(s_{j+k}) over k, as an (n, M) view
    win = np.lib.stride_tricks.sliding_window_view(np.concatenate([vals, vals]), M, axis=0)
    d = win[j0:j1] - vals[j0:j1, :, None]
    return np.einsum("jik,jik->jk", d, d)


def _dot(a, b):
    """``sum_c a[c] * b[c]`` over the leading (component) axis.

    Summed in the order of numpy's ``einsum("...i,...i->...")`` over a
    contiguous component axis of length n < 8: two partial sums of
    alternate components, ``(a0 b0 + a2 b2) + a1 b1`` for n = 3, so the bits
    are those of the component-last contraction.  Adding ``+0.0`` at the
    end gives an all-zero product the sign einsum gives it.
    """
    even = a[0] * b[0]
    for c in range(2, len(a), 2):
        even += a[c] * b[c]
    if len(a) > 1:
        odd = a[1] * b[1]
        for c in range(3, len(a), 2):
            odd += a[c] * b[c]
        even += odd
    even += 0.0
    return even


def n_raw(ev, u, v, uv):
    """Bilinear kernel N(u, v) on an evaluator, given the product field uv."""
    Iu = ev.integral(u)
    Iv = ev.integral(v)
    return (ev.ds * ev.integral(uv) - _dot(Iu, Iv)) / ev.chord2


def n_raw_scalar(ev, u, v, uv):
    """N(u, v) for scalar fields u, v (d = 1)."""
    return (ev.ds * ev.integral(uv) - ev.integral(u) * ev.integral(v)) / ev.chord2


def k_raw(ev, u, v):
    """Chord-difference kernel K(u, v) = <du, dv> / |df|^2."""
    du = ev.value1(u) - ev.value2(u)
    dv = ev.value1(v) - ev.value2(v)
    return _dot(du, dv) / ev.chord2
