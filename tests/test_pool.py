"""The one thread pool, that of the ``spectral.Interpolant`` cos/sin table,
gives the bits of a serial run, and the row-chunk passes of
``_pairs.map_chunks`` give the same bits whatever the chunking.

The ``pool`` fixture puts every table on a two-worker pool that counts its
tasks; the grid passes stay off it.
"""

import multiprocessing
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from ohara import _pairs, spectral
from ohara.curve import (
    ClosedCurve, bilipschitz_constant, from_samples, random_curve, random_field,
)
from ohara.errors import NumericalError
from ohara.kernels import EnergyParams
from ohara.norms import gagliardo_seminorm, holder_seminorm, seminorms
from ohara.quadrature import GridOperator


def _assert_same_bits(pooled, serial):
    assert len(pooled) == len(serial)
    for a, b in zip(pooled, serial):
        assert np.array_equal(a, b, equal_nan=True)


def _angle_samples(seed, M, n=3):
    """A seeded loop sampled uniformly in angle, so not in arclength."""
    rng = np.random.default_rng(seed)
    theta = 2.0 * np.pi * np.arange(M) / M
    pts = np.zeros((M, n))
    pts[:, 0], pts[:, 1] = np.cos(theta), np.sin(theta)
    for c in range(n):
        for m in range(1, 5):
            a, b = rng.normal(size=2) * 0.05 * 0.5 ** (m - 1)
            pts[:, c] += a * np.cos(m * theta) + b * np.sin(m * theta)
    return pts


def _serial_tables(monkeypatch):
    """Every table built in the calling thread from here on."""
    monkeypatch.setattr(spectral, "PARALLEL_CELLS", 1 << 62)


@pytest.mark.parametrize("M", [64, 120])
def test_from_samples_pool_gives_the_serial_bits(pool, monkeypatch, M):
    # 7-row chunks of the position tables, so the final evaluation at the M
    # arclength points would end in a one-row chunk, which joins the one
    # before; the Newton tables, with 2M + 1 modes, run in two-row chunks,
    # the last of three rows for an odd number of moving rows
    monkeypatch.setattr(_pairs, "CHUNK_CELLS", 7 * (M // 2 + 1))
    assert M % 7 == 1
    pts = _angle_samples(M, M)

    def outputs():
        cv = from_samples(pts)
        return [cv.positions, cv.L]

    pooled = outputs()
    tasks = pool.tasks
    assert tasks > 0
    _serial_tables(monkeypatch)
    _assert_same_bits(pooled, outputs())
    assert pool.tasks == tasks


def test_more_table_workers_than_cpus_give_the_serial_bits(monkeypatch):
    # five workers whatever the CPU count, two-row Newton chunks and a short
    # switch interval, so the tasks' writes into their rows of the shared
    # tables and outputs interleave often
    M = 128
    monkeypatch.setattr(_pairs, "CHUNK_CELLS", 2 * (2 * M + 1))
    pts = _angle_samples(M, M)
    _serial_tables(monkeypatch)
    serial = from_samples(pts)
    pool = ThreadPoolExecutor(max_workers=5)
    monkeypatch.setattr(spectral, "WORKERS", 5)
    monkeypatch.setattr(spectral, "PARALLEL_CELLS", 0)
    monkeypatch.setattr(spectral, "_POOL", pool)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pooled = from_samples(pts)
    finally:
        sys.setswitchinterval(interval)
        pool.shutdown()
    _assert_same_bits([pooled.positions, pooled.L], [serial.positions, serial.L])


@pytest.mark.parametrize("alpha,p", [(2.0, 1.0), (2.5, 1.5)])
def test_grid_passes_pool_gives_the_serial_bits(uneven_chunks, pool, monkeypatch, alpha, p):
    # the grid passes in 7-row chunks with a shorter last one, and the curve's
    # tables on the pool, against one chunk per pass and serial tables
    params = EnergyParams(alpha, p)

    def outputs():
        # the fixture's curve, built afresh: its chord grid and bi-Lipschitz
        # constant are cached on the curve
        cv = random_curve(3, M=uneven_chunks.M, n=3)
        bilip = bilipschitz_constant(cv)
        op = GridOperator(cv, params)
        phi, psi = random_field(cv, 40), random_field(cv, 41)
        dual = op.first_variation_dual()
        rows = op._reduce(op.malpha)
        return [
            cv.chord2_grid(), _pairs.offset_sq_diffs(phi.values), bilip,
            op.ntt, op.calpha, op.malpha, op.phis, *op.energy_with_estimate(),
            rows.offband, *rows.cols.values(), op.g_values(phi),
            *op.h_values(phi, psi), op.first_variation(phi),
            op.second_variation(phi, psi),
            dual.prefix, dual.total, dual.tp_prefix, dual.tp, dual.kpp,
            gagliardo_seminorm(phi.deriv, 0.5, 3.0), holder_seminorm(phi.deriv, 0.5),
            gagliardo_seminorm(cv.tau_field, 0.5, 3.0), holder_seminorm(cv.tau_field, 0.5),
            *seminorms(phi.deriv, 0.5, 3.0, 0.5).values(),
            *seminorms(cv.tau_field, 0.5, 3.0, 0.5).values(),
        ]

    chunked = outputs()
    assert pool.tasks > 0
    monkeypatch.setattr(_pairs, "CHUNK_CELLS", uneven_chunks.M ** 2)
    _serial_tables(monkeypatch)
    _assert_same_bits(chunked, outputs())


def test_grid_passes_stay_off_the_pool(pool):
    # M = 1024: the reparametrization's tables and the grid passes are above
    # the table's PARALLEL_CELLS, though the fixture puts every table on the
    # pool whatever its size
    base = from_samples(_angle_samples(0, 1024))
    assert pool.tasks >= 1
    pool.tasks = 0
    cv = ClosedCurve(base.positions, base.L)  # validation builds the chord grid
    bilipschitz_constant(cv)
    op = GridOperator(cv, EnergyParams(2.5, 1.5))
    phi, psi = random_field(cv, 6), random_field(cv, 7)
    op.energy()
    op.first_variation(phi)
    op.second_variation(phi, psi)
    op.first_variation_dual()
    seminorms(phi.deriv, 0.5, 3.0, 0.5)
    assert pool.tasks == 0


def test_numerical_error_in_a_later_chunk_surfaces_as_in_a_serial_run(
    uneven_chunks, monkeypatch
):
    def message():
        cv = random_curve(3, M=uneven_chunks.M, n=3)
        bilipschitz_constant(cv)  # cached before the chord grid is spoiled
        # a negative squared chord near the end of the grid makes N(tau, tau)
        # negative in a chunk after the first
        cv.chord2_grid()[cv.M - 5, cv.M // 4] *= -1.0
        with pytest.raises(NumericalError) as exc:
            GridOperator(cv, EnergyParams(2.0, 1.0))
        return str(exc.value)

    chunked = message()
    assert "chord/arc tables are inconsistent" in chunked
    monkeypatch.setattr(_pairs, "CHUNK_CELLS", uneven_chunks.M ** 2)
    assert message() == chunked


def _table(queue):
    s = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    queue.put(spectral.Interpolant(np.cos(3.0 * s) + np.sin(s), 2.0 * np.pi)(s + 0.1))


@pytest.mark.skipif(not hasattr(os, "register_at_fork"), reason="no fork on this platform")
def test_forked_child_runs_pool_passes(monkeypatch):
    # the parent's table starts the pool's threads; the child inherits the
    # pool without them
    monkeypatch.setattr(spectral, "WORKERS", 2)
    monkeypatch.setattr(spectral, "PARALLEL_CELLS", 0)
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    _table(queue)
    parent = queue.get(timeout=10)
    child = ctx.Process(target=_table, args=(queue,))
    child.start()
    try:
        assert np.array_equal(queue.get(timeout=30), parent)
    finally:
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
    assert child.exitcode == 0
