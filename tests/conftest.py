import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from ohara import _pairs, spectral
from ohara.curve import circle, ellipse, random_curve, random_field
from ohara.kernels import EnergyParams


@pytest.fixture(scope="session")
def circle128():
    return circle(128)


@pytest.fixture(scope="session")
def circle256():
    return circle(256)


@pytest.fixture(scope="session")
def ellipse128():
    return ellipse(2.0, 1.0, 128)


class _CountingPool(ThreadPoolExecutor):
    """A two-thread pool that counts the tasks submitted to it.

    A task that submitted a task of its own could wait on it forever, with
    both threads taken; here the submission fails in the task instead, and
    the task's caller gets the error.
    """

    def __init__(self):
        super().__init__(max_workers=2)
        self.tasks = 0

    def submit(self, fn, /, *args, **kwargs):
        if threading.current_thread() in self._threads:
            raise AssertionError("a pool task submitted a task to the pool")
        self.tasks += 1  # only the calling thread gets here: no lock needed
        return super().submit(fn, *args, **kwargs)


@pytest.fixture
def pool(monkeypatch):
    """Every ``spectral.Interpolant`` cos/sin table on a two-thread pool,
    whatever its size and the CPU count; the pool counts the tasks it gets."""
    counting = _CountingPool()
    monkeypatch.setattr(spectral, "WORKERS", 2)
    monkeypatch.setattr(spectral, "PARALLEL_CELLS", 0)
    monkeypatch.setattr(spectral, "_POOL", counting)
    yield counting
    counting.shutdown()


@pytest.fixture(params=[64, 96])
def uneven_chunks(request, monkeypatch):
    """A curve whose grid streams in 7-row chunks with a shorter last one."""
    M = request.param
    monkeypatch.setattr(_pairs, "CHUNK_CELLS", 7 * M)
    assert M % 7 != 0
    return random_curve(3, M=M, n=3)


@pytest.fixture
def params21():
    return EnergyParams(2.0, 1.0)


@pytest.fixture
def params22():
    return EnergyParams(2.0, 2.0)


def perturbed_circle(M=256, amp=0.05, mode=3):
    """Planar circle with a radial cosine perturbation, arclength-resampled."""
    from ohara.curve import from_samples

    th = 2.0 * np.pi * np.arange(M) / M
    r = 1.0 + amp * np.cos(mode * th)
    pts = np.stack([r * np.cos(th), r * np.sin(th)], axis=1)
    return from_samples(pts)


@pytest.fixture
def bumpy256():
    return perturbed_circle(256)


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1.0e-300)
