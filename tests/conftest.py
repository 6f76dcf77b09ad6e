import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from ohara import _pairs, spectral
from ohara.curve import Field, circle, ellipse, random_curve, random_field
from ohara.errors import NumericalError, ValidationError
from ohara.kernels import EnergyParams
from ohara.quadrature import _assembler_cols, _check_band, _offband_cols, _Rows


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


def offset_sq_diffs(values, j0=0, j1=None):
    """Rows ``j0:j1`` (all by default) of ``out[j, k] = |v(s_{j+k}) - v(s_j)|^2``
    over all cyclic offsets ``k``, from the ``(M,)`` or ``(M, n)`` samples
    of ``v``.

    The squared grid differences as the package computed them before they
    became a pair quantity: an ``einsum`` over a sliding window of the
    doubled samples.  Kept here as the reference for their bits.
    """
    vals = values if values.ndim == 2 else values[:, None]
    M = vals.shape[0]
    j1 = M if j1 is None else j1
    # row j of the windows is v(s_{j+k}) over k, as an (n, M) view
    win = np.lib.stride_tricks.sliding_window_view(np.concatenate([vals, vals]), M, axis=0)
    d = win[j0:j1] - vals[j0:j1, :, None]
    return np.einsum("jik,jik->jk", d, d)


def whole_rows(F, band):
    """The :class:`~ohara.quadrature._Rows` of whole rows ``F`` of an offset
    grid: ``offband[j]`` is the sum of row ``j`` over the columns outside
    the band and ``cols[k]`` is column ``k`` for each of the assembler's
    columns.

    The reduction as the package made it before it reduced rows of the half
    grid; kept here as the whole-row reference.
    """
    M = F.shape[1]
    _check_band(M, band)
    keys = _assembler_cols(M, band)
    offband = np.where(_offband_cols(M, band)[None, :], F, 0.0).sum(axis=1)
    # F[:, keys] is a copy, so a chunk's grid is not kept alive
    return _Rows(offband, dict(zip(keys, F[:, keys].T)))


class GeneralParamCurve:
    """A varied curve ``f + eps*phi`` kept in the original material parameter.

    Sample ``k`` sits at material parameter ``s_k`` (the arclength of the
    *unvaried* curve); the varied curve is no longer unit speed, so densities
    carry the parametrization Jacobian ``|c'(s_i)| |c'(s_j)|`` and intrinsic
    distances are short-arc integrals of the speed.
    """

    def __init__(self, base, phi, eps):
        self.base = base
        self.eps = float(eps)
        vals = base.positions + self.eps * phi.values
        dvals = base.tau + self.eps * phi.deriv.values
        self.speed = np.linalg.norm(dvals, axis=1)
        if float(np.min(self.speed)) <= 0.0:
            raise ValidationError("varied curve has vanishing speed")
        self.positions = vals
        self.speed_field = Field(base, self.speed)
        self.length = float(self.speed_field.prefix()[1])

    def chord(self, i, j):
        d = self.positions[i] - self.positions[j]
        return float(np.linalg.norm(d))

    def intrinsic(self, i, j):
        """Intrinsic (shorter-arc) distance between material samples."""
        P, T = self.speed_field.prefix()
        fwd = P[i] - P[j]
        if i < j:
            fwd += T
        return float(min(fwd, T - fwd))


def density_general_param(gcurve, i, j, params):
    """Jacobian-weighted density of a general-parameter curve at a pair.

    ``(1/|dc|^alpha - 1/D^alpha)^p |c'(s_i)| |c'(s_j)|`` with D the intrinsic
    distance; at ``eps = 0`` this reduces to the density ``M_alpha ** p`` of
    ``variations.pair_terms``.  Evaluated in the same bracket form as the
    unit-speed kernel for stability.
    """
    M = gcurve.base.M
    i, j = int(i) % M, int(j) % M
    if i == j:
        raise ValidationError("density requires two distinct samples")
    c = gcurve.chord(i, j)
    D = gcurve.intrinsic(i, j)
    if not (c <= D * (1.0 + 1.0e-9)):
        raise NumericalError("chord exceeds intrinsic distance on varied curve")
    # 1 - (c/D)^alpha, computed as -expm1(alpha * log(c/D))
    bracket = -np.expm1(params.alpha * np.log(min(c / D, 1.0)))
    dens = (bracket / c ** params.alpha) ** params.p
    return float(dens * gcurve.speed[i] * gcurve.speed[j])
