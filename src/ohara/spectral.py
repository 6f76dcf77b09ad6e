"""Periodic spectral calculus on uniform grids.

Everything in this package interprets ``M`` uniform samples of a periodic
function as its trigonometric interpolant (band-limited to ``M`` modes).  This
module provides the three operations the rest of the code needs: spectral
differentiation, exact antiderivatives (prefix integrals) of the interpolant,
and evaluation of the interpolant / its derivatives / its antiderivative at
arbitrary parameter values.

Conventions: samples live at ``s_k = k * L / M`` for ``k = 0..M-1`` with period
``L``; ``M`` must be even.  The Nyquist mode is treated as a pure cosine, which
matches ``numpy.fft.irfft`` at the grid points.

The cos/sin table of :class:`Interpolant` is the one computation of the
package that runs on threads, since its work is elementwise.  It is filled
in row chunks of about ``TABLE_CELLS`` cells, and no chunk has one row
unless the table has.  A scalar interpolant never holds its whole
table: each chunk is reduced to its values and prefixes as soon as it is
filled (see :class:`Interpolant`).  With more than one CPU, a table of at
least ``PARALLEL_CELLS`` cells is split into ``WORKERS`` runs of
consecutive chunks, one task each on a module-level ``ThreadPoolExecutor``
whose threads start on the first task (a forked child gets a new pool,
since it inherits the pool but not its threads).  A task fills the rows
of its chunks with ``cos`` and ``sin`` of the phases ``s * mu`` and, for a
scalar interpolant, multiplies each chunk by fixed coefficient columns
into its own rows of the outputs; the phases and the coefficients are
finite, since the inputs are checked to be finite.  So a task submits no
task of its own, reads no lazy cache, never reaches ``_pairs.map_chunks``,
calls none of the functions that the benchmark's layer tracer
(``perfbench/spans.py``) wraps, and needs no ``np.errstate`` of the
caller, which numpy does not pass on to other threads.  Each table entry
and each output row is its own value, so the outputs have the same bits
whatever the chunks, the runs and the threads.
"""

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

__all__ = [
    "spectral_derivative",
    "prefix_integral",
    "Interpolant",
    "short_arc_offsets",
]


#: cell budget of a row chunk of the cos/sin table, 512 KiB of complex
#: cells.  The grid passes' ``_pairs.CHUNK_CELLS`` is half as large, sized
#: for the two dozen blocks a variation chunk keeps; a table chunk is one
#: block, so the table has a budget of its own and the reparametrization
#: does not change with the grid passes' budget
TABLE_CELLS = 1 << 15


#: tables of fewer cells are built serially; the reparametrization's first
#: tables reach it from M = 256 on (1024 x 129 and 256 x 513 cells)
PARALLEL_CELLS = 1 << 17


#: threads of the table pool: the CPUs this process may run on
WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1)


def _start_pool():
    """A new pool; its threads start on the first submitted task."""
    global _POOL
    _POOL = ThreadPoolExecutor(max_workers=WORKERS, thread_name_prefix="ohara-table")


_start_pool()
if hasattr(os, "register_at_fork"):
    # a forked child inherits the pool but not its threads, which would
    # leave every task it submits waiting
    os.register_at_fork(after_in_child=_start_pool)


def _wavenumbers(M, L):
    return 2.0 * np.pi / L * np.arange(M // 2 + 1)


def spectral_derivative(values, L):
    """Differentiate uniform periodic samples via the trig interpolant.

    The Nyquist cosine has no derivative representable on the grid, so its
    coefficient is dropped.

    Parameters
    ----------
    values : ndarray, shape (M,) or (M, d)
        Samples along axis 0; the sample axis is periodic with period ``L``.
    L : float
        Period.

    Returns
    -------
    ndarray, same shape as ``values``.
    """
    values = np.asarray(values, dtype=float)
    M = values.shape[0]
    c = np.fft.rfft(values, axis=0)
    fac = 1j * _wavenumbers(M, L)
    fac[-1] = 0.0
    if values.ndim > 1:
        fac = fac.reshape((-1,) + (1,) * (values.ndim - 1))
    return np.fft.irfft(c * fac, n=M, axis=0)


def prefix_integral(values, L):
    """Antiderivative of the trig interpolant, sampled on the grid.

    Returns ``(P, total)`` where ``P[k]`` is the integral of the interpolant
    from 0 to ``s_k`` (so ``P[0] == 0``) and ``total`` is the integral over one
    full period.  Works on shape ``(M,)`` or ``(M, d)`` input.
    """
    values = np.asarray(values, dtype=float)
    M = values.shape[0]
    c = np.fft.rfft(values, axis=0)
    mu = _wavenumbers(M, L)
    mean = c[0].real / M  # shape () or (d,) after the axis juggling below
    fac = np.zeros(M // 2 + 1, dtype=complex)
    fac[1:] = 1.0 / (1j * mu[1:])
    # dividing the (real) Nyquist coefficient by i*mu makes it purely
    # imaginary, and irfft keeps only its real part -- which is exactly the
    # statement that the integral of the Nyquist cosine vanishes at the grid
    # points.  So no special case is needed.
    if values.ndim > 1:
        fac = fac.reshape((-1,) + (1,) * (values.ndim - 1))
    Q = np.fft.irfft(c * fac, n=M, axis=0)
    s = (np.arange(M) * (L / M)).reshape((M,) + (1,) * (values.ndim - 1))
    P = mean * s + (Q - Q[0])
    total = np.asarray(mean * L)
    return P, total


class Interpolant:
    """Trigonometric interpolant of uniform periodic samples.

    Supports evaluation of the interpolant, its derivatives, and its
    antiderivative at arbitrary parameter values.  Evaluation is a direct
    mode sum, O(M) per point: it serves the verification routines and the
    oversampled evaluations and Newton steps of the arclength
    reparametrization, where it is most of the cost of ``from_samples``.

    The cos/sin table is built in row chunks (see the module docstring);
    each entry is its own elementwise value, so the bits do not depend on
    the chunks.  A vector interpolant multiplies its whole table by the
    coefficients in one product: a chunk of a BLAS matrix product need not
    give the bits of the same rows of the whole product (with OpenBLAS's
    own threads on, ``(31, 513) @ (513, 3)`` chunks did not).  For a scalar
    interpolant the product is a matrix-vector product, whose rows do keep
    their bits on any subset of two or more points.  So a scalar
    interpolant reduces each chunk of its table as soon as it is filled,
    the value before the prefix, and never holds the whole table (32 MiB
    for the first Newton step of ``from_samples`` at M = 1024); and the
    Newton solve evaluates only its unconverged rows.  The exception is a
    single point: numpy computes a one-row product by its dot path, whose
    bits can differ, so no chunk has one row unless the table has, and the
    Newton solve never passes one point.
    """

    def __init__(self, values, L):
        values = np.asarray(values, dtype=float)
        self.M = values.shape[0]
        if self.M % 2 != 0:
            raise ValueError("sample count must be even")
        self.L = float(L)
        self.shape = values.shape[1:]
        c = np.fft.rfft(values, axis=0)
        if values.ndim == 1:
            c = c[:, None]
        self._c = c  # (K, d)
        self._mu = _wavenumbers(self.M, self.L)
        w = np.full(self.M // 2 + 1, 2.0)
        w[0] = 1.0
        w[-1] = 1.0
        self._w = w

    def _reduce(self, out, scalar):
        out = out[..., 0] if not self.shape else out
        return out[0] if scalar else out

    def _fill(self, s, E):
        """Write the table ``exp(i s mu)`` at the points ``s`` into ``E``, as
        cos + i sin.

        ``cexp`` of a zero real part reduces to ``cos + i sin`` of the same
        phase, so this equals ``np.exp(1j * np.outer(s, mu))`` bit for bit
        while skipping the complex temporary and the ``exp(0)`` scaling.
        """
        x = np.multiply.outer(s, self._mu)
        np.cos(x, out=E.real)
        np.sin(x, out=E.imag)

    def _chunked(self, n, task):
        """Call ``task(j0, j1)`` once per row chunk ``j0:j1`` of an ``n``-point
        table (see the module docstring): in row order on the calling thread,
        or, for a table of at least ``PARALLEL_CELLS`` cells, in ``WORKERS``
        runs of consecutive chunks, one pool task each."""
        rows = max(2, TABLE_CELLS // self._mu.size)
        edges = list(range(0, n, rows)) + [n]
        if len(edges) > 2 and n - edges[-2] == 1:
            del edges[-2]  # no one-row chunk, unless the table has one row

        def run(c0, c1):
            for j0, j1 in zip(edges[c0:c1], edges[c0 + 1:c1 + 1]):
                task(j0, j1)

        chunks = len(edges) - 1
        if WORKERS < 2 or n * self._mu.size < PARALLEL_CELLS:
            run(0, chunks)
        else:
            cuts = [chunks * b // WORKERS for b in range(WORKERS + 1)]
            list(_POOL.map(run, cuts[:-1], cuts[1:]))

    def _table(self, sv):
        """The whole (points, modes) table ``exp(i s mu)`` at the points ``sv``."""
        E = np.empty(sv.shape + self._mu.shape, dtype=complex)
        self._chunked(sv.shape[0], lambda j0, j1: self._fill(sv[j0:j1], E[j0:j1]))
        return E

    def _evaluate(self, s, order, prefix, table=None):
        """``[value, pre]`` at ``s``, each only if asked for: the ``order``-th
        derivative unless ``order`` is None, and the prefix if ``prefix``.

        ``table``, if given, is the whole table at ``s``; the prefix shifts
        it in place.
        """
        s = np.asarray(s, dtype=float)
        sv = np.atleast_1d(s)
        n, d = sv.shape[0], self._c.shape[1]
        if order is not None:
            fac = (1j * self._mu) ** order if order else np.ones_like(self._mu, dtype=complex)
            if order % 2 == 1:
                fac[-1] = 0.0
            coef = (self._w * fac)[:, None] * self._c
        if prefix:
            cpre = np.zeros_like(self._c)
            cpre[1:] = (self._w[1:, None] / (1j * self._mu[1:, None])) * self._c[1:]
            mean = self._c[0].real / self.M
        value, pre = np.empty((n, d)), np.empty((n, d))

        def products(E, j0, j1):
            # the value before the prefix, which shifts E in place
            if order is not None:
                value[j0:j1] = (E @ coef).real / self.M
            if prefix:
                E.real -= 1.0
                pre[j0:j1] = (E @ cpre).real / self.M + np.outer(sv[j0:j1], mean)

        if table is not None or self.shape:
            products(self._table(sv) if table is None else table, 0, n)
        else:
            def fused(j0, j1):
                E = np.empty((j1 - j0, self._mu.size), dtype=complex)
                self._fill(sv[j0:j1], E)
                products(E, j0, j1)

            self._chunked(n, fused)
        wanted = [(value, order is not None), (pre, prefix)]
        return [self._reduce(out, s.ndim == 0) for out, want in wanted if want]

    def __call__(self, s, order=0):
        """Evaluate the interpolant (or its ``order``-th derivative) at ``s``.

        Odd derivatives drop the Nyquist term, as :func:`spectral_derivative`
        does on the grid.
        """
        return self._evaluate(s, order, False)[0]

    def prefix(self, s):
        """Integral of the interpolant from 0 to ``s`` (s need not be in [0, L))."""
        return self._evaluate(s, None, True)[0]

    def value_and_prefix(self, s):
        """``(self(s), self.prefix(s))`` from one table, bit for bit."""
        value, pre = self._evaluate(s, 0, True)
        return value, pre


def short_arc_offsets(M, L):
    """Signed short-arc separation for each cyclic grid offset.

    ``out[k]`` is the representative of ``k * L / M`` in ``(-L/2, L/2]``; the
    antipodal offset ``k = M/2`` maps to ``+L/2``.
    """
    k = np.arange(M)
    k = np.where(k > M // 2, k - M, k)
    return k * (L / M)
