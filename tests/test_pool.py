"""The row-chunk pool of ``_pairs.map_chunks`` gives the bits of a serial run.

Each test puts every pass on a two-worker pool (the ``pool`` fixture), and
compares against the same calls with one worker.
"""

import multiprocessing
import os
import threading
import warnings

import numpy as np
import pytest

from ohara import _pairs
from ohara.curve import bilipschitz_constant, from_samples, random_curve, random_field
from ohara.errors import NumericalError
from ohara.kernels import EnergyParams
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


@pytest.mark.parametrize("M", [64, 120])
def test_from_samples_pool_gives_the_serial_bits(pool, monkeypatch, M):
    # 7-row chunks of the position tables, so the final evaluation at the M
    # arclength points ends in a one-row chunk; the Newton tables, with
    # 2M + 1 modes, run in one-row chunks throughout
    monkeypatch.setattr(_pairs, "CHUNK_CELLS", 7 * 2 * (M // 2 + 1))
    assert M % 7 == 1
    pts = _angle_samples(M, M)

    def outputs():
        cv = from_samples(pts)
        return [cv.positions, cv.L]

    pooled = outputs()
    assert pool.tasks > 0
    monkeypatch.setattr(_pairs, "WORKERS", 1)
    _assert_same_bits(pooled, outputs())


@pytest.mark.parametrize("alpha,p", [(2.0, 1.0), (2.5, 1.5)])
def test_grid_passes_pool_gives_the_serial_bits(uneven_chunks, pool, monkeypatch, alpha, p):
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
        ]

    pooled = outputs()
    assert pool.tasks > 0
    monkeypatch.setattr(_pairs, "WORKERS", 1)
    _assert_same_bits(pooled, outputs())


@pytest.mark.parametrize("mode", ["raise", "ignore"])
def test_pool_tasks_run_under_the_callers_errstate(pool, mode):
    threads = set()

    def chunk(j0, j1):
        threads.add(threading.get_ident())
        # only the chunks after the first, which run on the pool, divide by 0
        return np.ones(j1 - j0) / (np.zeros(j1 - j0) if j0 else np.ones(j1 - j0))

    # 16 chunks of 4 rows
    M, width = 64, _pairs.CHUNK_CELLS // 8
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(divide=mode):
            if mode == "raise":
                with pytest.raises(FloatingPointError):
                    _pairs.map_chunks(chunk, M, width)
            else:
                out = np.concatenate(_pairs.map_chunks(chunk, M, width))
                assert np.isinf(out[4:]).all()
    assert pool.tasks > 0
    assert threads - {threading.get_ident()}


def test_numerical_error_in_a_later_chunk_surfaces_as_in_a_serial_run(
    uneven_chunks, pool, monkeypatch
):
    def message():
        cv = random_curve(3, M=uneven_chunks.M, n=3)
        bilipschitz_constant(cv)  # cached before the chord grid is spoiled
        # a negative squared chord near the end of the grid makes N(tau, tau)
        # negative in a chunk that a pool thread evaluates
        cv.chord2_grid()[cv.M - 5, cv.M // 4] *= -1.0
        with pytest.raises(NumericalError) as exc:
            GridOperator(cv, EnergyParams(2.0, 1.0))
        return str(exc.value)

    pooled = message()
    assert pool.tasks > 0
    assert "chord/arc tables are inconsistent" in pooled
    monkeypatch.setattr(_pairs, "WORKERS", 1)
    assert message() == pooled


def _sum_of_rows(queue):
    queue.put(sum(_pairs.map_chunks(lambda j0, j1: j1 - j0, 64, _pairs.CHUNK_CELLS // 8)))


@pytest.mark.skipif(not hasattr(os, "register_at_fork"), reason="no fork on this platform")
def test_forked_child_runs_pool_passes(monkeypatch):
    # the parent's pass starts the pool's threads; the child inherits the
    # pool without them
    monkeypatch.setattr(_pairs, "WORKERS", 2)
    monkeypatch.setattr(_pairs, "PARALLEL_CELLS", 0)
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    _sum_of_rows(queue)
    assert queue.get(timeout=10) == 64
    child = ctx.Process(target=_sum_of_rows, args=(queue,))
    child.start()
    try:
        assert queue.get(timeout=30) == 64
    finally:
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
    assert child.exitcode == 0
