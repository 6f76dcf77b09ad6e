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
and the cos/sin table of ``spectral.Interpolant`` call
:func:`map_chunks`, which calls
``fn(j0, j1)`` once per row chunk.  Each row is computed on its own, so the
result is the same, bit for bit, whatever the chunking and whichever thread
runs a chunk.  The policy, with no flag and no environment variable:

* one module-level ``ThreadPoolExecutor`` of ``WORKERS`` threads, the CPUs
  this process may run on (``os.sched_getaffinity``, else
  ``os.cpu_count()``).  Its threads start on the first task, not at import;
* a pass of fewer than ``PARALLEL_CELLS`` cells runs serially, in chunks of
  about ``CHUNK_CELLS`` cells.  On a 2-CPU box the pool gained nothing on
  the M = 512 grid passes and 1.4-1.8x on the M = 1024 ones, and each pool
  thread that runs costs the process its own malloc arena;
* a larger pass runs in chunks of about ``CHUNK_CELLS / WORKERS`` cells, so
  the chunks in flight together hold about as many cells per live block as
  one serial chunk.  Its first chunk runs in the calling thread and fills
  every lazy cache the chunks share (a field's prefix table, a curve's chord
  grid), so the pool threads only read shared state; and ``fn`` may reach
  ``map_chunks`` again only through such a cache, since a pool thread that
  waited on the pool could deadlock it.  The other chunks run on the pool,
  in ``_BATCHES`` tasks per worker, each of consecutive chunks: one task
  per chunk cost up to a fifth of the M = 1024 table's time in hand-offs;
* a pool task runs under the caller's ``np.geterr()``, which numpy does not
  pass on to other threads.  Results come back in chunk order, and an
  exception surfaces from the first chunk that raised it, as in a serial
  loop;
* a forked child process gets a new pool, since it inherits the pool but
  not its threads;
* a pool task calls none of the functions that the benchmark's layer
  tracer (``perfbench/spans.py``) wraps, since the tracer keeps one span
  stack for the calling thread.
"""

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

#: cell budget of the row chunks in flight: passes over the M x M offset grid
#: hold about this many cells per live block instead of the whole grid
CHUNK_CELLS = 1 << 15

#: passes over fewer cells run serially; the M = 1024 half grid (1024 x 513
#: cells) is just above it, the M = 512 grids are below it
PARALLEL_CELLS = 1 << 19


def _cpu_count():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


#: threads of the row-chunk pool: the CPUs this process may run on
WORKERS = _cpu_count()

#: pool tasks per worker in one pass; a task runs consecutive chunks
_BATCHES = 4


def _start_pool():
    """A new pool; its threads start on the first submitted task."""
    global _POOL
    _POOL = ThreadPoolExecutor(max_workers=WORKERS, thread_name_prefix="ohara-rows")


_start_pool()
if hasattr(os, "register_at_fork"):
    # a forked child inherits the pool but not its threads, which would
    # leave every task it submits waiting
    os.register_at_fork(after_in_child=_start_pool)


def map_chunks(fn, M, width=None):
    """``[fn(j0, j1) for j0, j1 in chunks]`` over row chunks ``j0:j1`` of
    ``0:M``, for rows ``width`` cells wide (``M`` by default); large passes
    run on the pool, see the module docstring."""
    width = width or M
    tasks = WORKERS if M * width >= PARALLEL_CELLS else 1
    rows = max(1, CHUNK_CELLS // (tasks * width))
    chunks = [(j0, min(j0 + rows, M)) for j0 in range(0, M, rows)]
    if tasks < 2 or len(chunks) < 2:
        return [fn(j0, j1) for j0, j1 in chunks]
    first = fn(*chunks[0])
    err = np.geterr()

    def task(batch):
        with np.errstate(**err):
            return [fn(j0, j1) for j0, j1 in batch]

    size = -(-(len(chunks) - 1) // (_BATCHES * WORKERS))
    batches = [chunks[i:i + size] for i in range(1, len(chunks), size)]
    return [first] + [out for batch in _POOL.map(task, batches) for out in batch]


class PairSet:
    """Vectorized bundle of grid-sample pairs ``(s1, s2) = (s_i, s_j)``.

    ``i`` and ``j`` broadcast against each other, so one pair, a list of
    pairs and rows of the offset grid (``j`` a column) share this class.
    ``chord2`` may be passed in when the caller already holds the squared
    chords; ``D``, ``dvec`` and ``chord`` are computed on demand.

    ``window = (j0, j1, cols)`` states that the pairs are rows ``j0:j1`` and
    columns ``cols`` (a slice) of the offset grid, ``i = j + k``: the first
    points are then read through a window view of the doubled sample table
    instead of gathered through ``i``.  Vector quantities are component
    major, ``(n,) + shape``; see the module docstring.
    """

    def __init__(self, curve, i_idx, j_idx, chord2=None, window=None):
        M = curve.M
        i = np.asarray(i_idx, dtype=np.intp) % M
        j = np.asarray(j_idx, dtype=np.intp) % M
        self.curve = curve
        self.i = i
        self.j = j
        self.window = window
        k = (i - j) % M
        # signed short-arc separation s_i - s_j in (-L/2, L/2]
        self.ds = np.where(k <= M // 2, k, k - M) * curve.h
        self.wrap = (i < j).astype(float) - (k > M // 2)
        if chord2 is None:
            dvec = self.dvec
            chord2 = _dot(dvec, dvec)
        self.chord2 = chord2

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
