"""Pair evaluators: shared building blocks for the kernel formulas.

Internal module.  Every kernel and variation formula in this package is an
algebraic expression in a handful of pair-level quantities: the short-arc
separation, the chord vector, signed short-arc integrals of fields, and field
values at the two endpoints.  Two evaluators provide those with a common
interface so the formulas are written exactly once:

* :class:`PairSet` -- the pairs of grid samples at ``rows, cols`` of the
  M x M offset grid, from a single pair up to the whole grid (vectorized;
  ``curve.pair_frame`` returns one pair and the quadrature module reads row
  chunks of the grid, see :func:`map_chunks`, and its antipodal column);
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
the offset grid row ``j``, column ``k`` is the pair ``(s_{j+k}, s_j)``, so
:class:`PairSet` reads the first points of its pairs, ``table[j + k]``,
through a window view of a doubled, component-major sample or prefix table
instead of an index gather; the second points are one column per row.  The
table and its window view are built once per field and kept on it
(:func:`doubled_table`, ``Field.tables``), so a row chunk reads its pairs
without building anything.  A squared chord is a pair quantity like any
other, ``_dot(dvec, dvec)`` of the pair's own chord vector, on the grid as
off it; since ``_dot`` is elementwise over the pairs, one pair and a row
chunk of the grid read the same numbers, bit for bit, in every dimension.
Swapping the two points of a pair negates its chord vector, so the squared
chords obey the mirror ``chord2[j, k] == chord2[(j + k) % M, M - k]`` bit
for bit, and half the grid (``k = 0..M/2``) holds every distinct value.

Row-chunk passes.  Every pass over the rows of the offset grid (the
``GridOperator`` build, its ``_chunks`` passes and its
``first_variation_dual`` with the row weights it reads off the assembler,
the chord pass of ``ClosedCurve`` construction, the reductions of
``density_grid`` and the rows that ``save_grid_csv`` writes, and the one
pass per field of ``norms``) calls :func:`map_chunks`, which calls
``fn(j0, j1)`` once per row chunk of about ``CHUNK_CELLS`` cells, in row
order, on the calling thread.  Only a ``GridOperator`` that its caller
builds keeps grids across passes, for the passes it runs later and for
``first_variation_dual``; the one-shot ``quadrature`` functions
(``energy``, ``first_variation``, ``second_variation``, ``density_grid``,
``holder_chain_check``) run one ``_chunks`` pass whose chunks compute the
geometry they read.  Each row is computed on its own, so the result is
the same, bit for bit, whatever the chunking.

``CHUNK_CELLS`` is 2^14, so a float block of a chunk takes 128 KiB.  A
variation chunk keeps each field's short-arc integral and endpoint
difference (``variations.Blocks``), 22 component blocks in the second
variation besides its terms; on chunks of 2^15 cells those blocks made the
``tracemalloc`` peaks of the second and first variations 12.6 and 6.1 MiB
at M = 1024 and (2.5, 1.5), against 6.6 and 3.3 MiB at 2^14, and the
second variation took 98 ms against 89 ms (2-vCPU box, one BLAS thread).
The cos/sin table of ``spectral.Interpolant`` is filled in chunks of its
own budget, ``spectral.TABLE_CELLS``.

These passes run serially.  Since the window reads, each ufunc on a chunk
is a short contiguous pass and the Python work between them holds the GIL,
so a pool of threads made them slower.  On a 2-vCPU box at M = 1024, one
worker against two took 52-55 ms against 63-87 ms for the ``GridOperator``
build, 200-242 ms against 307-340 ms for ``second_variation`` and 154-163 ms
against 194-307 ms for ``flow.l2_gradient``; and such a box caps any pool
gain at 2x.  The one pool left builds the elementwise cos/sin table of
``spectral.Interpolant``.
"""

import functools

import numpy as np

#: cell budget of a row chunk: passes over the M x M offset grid hold about
#: this many cells per live block instead of the whole grid (see the module
#: docstring for the size)
CHUNK_CELLS = 1 << 14


def map_chunks(fn, M, width=None):
    """``[fn(j0, j1) for j0, j1 in chunks]`` over row chunks ``j0:j1`` of
    ``0:M`` of about ``CHUNK_CELLS`` cells, for rows ``width`` cells wide
    (``M`` by default)."""
    rows = max(1, CHUNK_CELLS // (width or M))
    return [fn(j0, min(j0 + rows, M)) for j0 in range(0, M, rows)]


def doubled_table(samples):
    """``(table, win)`` of ``(M,)`` or ``(M, n)`` samples: the component-major
    doubled table, ``table[..., m] = samples[m % M]`` for ``m < 2M``, and its
    ``(M, M)`` window view ``win[..., j, k] = table[..., j + k]``.

    :class:`PairSet` reads first points off ``win`` and second points off
    ``table``; ``Field.tables`` keeps both, one ``(n, 2M)`` table per field.
    """
    half = np.ascontiguousarray(samples.T)
    table = np.concatenate([half, half], axis=-1)
    M, step = half.shape[-1], table.strides[-1]
    win = np.lib.stride_tricks.as_strided(
        table, table.shape[:-1] + (M, M), table.strides[:-1] + (step, step), writeable=False)
    return table, win


class PairSet:
    """The grid-sample pairs at ``[rows, cols]`` of the M x M offset grid,
    vectorized.

    ``rows`` and ``cols`` are each an int or a slice of ``0..M-1``, with numpy
    indexing rules: row ``j``, column ``k`` of the offset grid is the pair
    ``(s_i, s_j) = (s_{j+k}, s_j)``, and every block has the shape of
    ``grid[rows, cols]``, from one pair (``curve.pair_frame``) up to row
    chunks of the grid.  ``D``, ``dvec``, ``chord2`` and ``chord`` are
    computed on demand; ``chord2`` is computed once and kept, unless a
    caller that keeps the squared chords of these pairs assigns them first.
    The first points are read through the window view of a field's doubled
    table (``Field.tables``), the second points are one index per row, and
    the separation ``ds`` is one value per column, computed once when first
    read.  ``i`` is computed only when asked for.  Vector quantities are component major, ``(n,) + shape``; see
    the module docstring.
    """

    def __init__(self, curve, rows, cols):
        M = curve.M
        self.curve = curve
        self._rows, self._cols = rows, cols
        # cyclic forward offset k = (i - j) mod M
        self._k = k = np.arange(M)[cols]
        # the second points as a column, when there are columns
        self.j = np.arange(M)[(rows, None) if np.ndim(k) else rows]

    @functools.cached_property
    def ds(self):
        """Signed short-arc separation ``s_i - s_j`` in ``(-L/2, L/2]``, one
        value per column."""
        M, k = self.curve.M, self._k
        return np.where(k <= M // 2, k, k - M) * self.curve.h

    @functools.cached_property
    def wrap(self):
        """The full-period multiple in :meth:`integral`, ``[i < j] - [k > M/2]``
        (``i < j`` exactly when ``j + k >= M``), built only for the pair sets
        that take integrals."""
        return (self.j + self._k >= self.curve.M).astype(float) - (self._k > self.curve.M // 2)

    @property
    def i(self):
        """Sample index of the first points, ``(j + k) mod M``."""
        return (self.j + self._k) % self.curve.M

    def _first(self, tables):
        """The first points' entries of a field's ``tables``, component major."""
        return tables[1][..., self._rows, self._cols]

    def _second(self, tables):
        """The second points' entries of a field's ``tables``, component major."""
        return tables[0][..., self.j]

    @property
    def D(self):
        """Intrinsic distance ``|ds|``."""
        return np.abs(self.ds)

    @property
    def dvec(self):
        """Chord vector ``f(s_i) - f(s_j)``."""
        pos = self.curve.position_field.tables()
        return self._first(pos) - self._second(pos)

    @functools.cached_property
    def chord2(self):
        """Squared chord ``|f(s_i) - f(s_j)|^2``, ``_dot(dvec, dvec)``."""
        return self.sq_diff(self.curve.position_field)

    @property
    def chord(self):
        """Euclidean chord length."""
        return np.sqrt(self.chord2)

    def sq_diff(self, field):
        """``|u(s_i) - u(s_j)|^2`` of a field's values at the two endpoints."""
        d = self.value1(field) - self.value2(field)
        return _inner(field, d, d)

    def integral(self, field):
        """Signed short-arc integral of a field between the pair endpoints."""
        P, T = field.tables(prefix=True), field.prefix()[1]
        out = self._first(P) - self._second(P)
        out += self.wrap * np.reshape(T, np.shape(T) + (1,) * self.wrap.ndim)
        return out

    def value1(self, field):
        return self._first(field.tables())

    def value2(self, field):
        return self._second(field.tables())


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


def _inner(field, a, b):
    """``a . b`` of two pair blocks of a field's kind: :func:`_dot` of
    component-major blocks of a vector field, ``a * b`` for a scalar one."""
    return _dot(a, b) if field.values.ndim == 2 else a * b


def n_raw(ev, Iu, Iv, Iuv):
    """Bilinear kernel N(u, v) on an evaluator, given the short-arc integrals
    of u, v and their product field uv; u and v are both vector fields, whose
    integrals have the leading component axis that the scalar ``Iuv`` lacks,
    or both scalar fields."""
    uv = _dot(Iu, Iv) if np.ndim(Iu) > np.ndim(Iuv) else Iu * Iv
    return (ev.ds * Iuv - uv) / ev.chord2


def k_raw(ev, du, dv):
    """Chord-difference kernel K(u, v) = <du, dv> / |df|^2, given the
    endpoint differences ``du = u(s1) - u(s2)`` and ``dv`` of two vector
    fields."""
    return _dot(du, dv) / ev.chord2
