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
"""

import numpy as np

from ._pairs import map_chunks

__all__ = [
    "spectral_derivative",
    "prefix_integral",
    "Interpolant",
    "short_arc_offsets",
]


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

    The cos/sin table is built in row chunks through ``_pairs.map_chunks``,
    on its thread pool for large tables; each entry is its own elementwise
    value, so the bits do not depend on the chunks.  The product of the
    table with the coefficients runs once on the whole table: a chunk of a
    BLAS matrix product need not give the bits of the same rows of the whole
    product (with OpenBLAS's own threads on, ``(31, 513) @ (513, 3)`` chunks
    did not).  For a scalar interpolant the product is a matrix-vector
    product, whose rows do keep their bits on a subset of points, and the
    Newton solve relies on this to evaluate only its unconverged rows.  The
    exception is a single point: numpy computes a one-row product by its
    dot path, whose bits can differ, so that caller never passes one.
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

    def _table(self, sv):
        """The (points, modes) table ``exp(i s mu)``, written as cos + i sin.

        ``cexp`` of a zero real part reduces to ``cos + i sin`` of the same
        phase, so this equals ``np.exp(1j * np.outer(sv, mu))`` bit for bit
        while skipping the complex temporary and the ``exp(0)`` scaling.
        """
        E = np.empty(sv.shape + self._mu.shape, dtype=complex)

        def rows(j0, j1):
            x = np.multiply.outer(sv[j0:j1], self._mu)
            np.cos(x, out=E.real[j0:j1])
            np.sin(x, out=E.imag[j0:j1])

        map_chunks(rows, sv.shape[0], self._mu.size)
        return E

    def _value_from(self, E, order):
        fac = (1j * self._mu) ** order if order else np.ones_like(self._mu, dtype=complex)
        if order % 2 == 1:
            fac = fac.copy()
            fac[-1] = 0.0
        return (E @ ((self._w * fac)[:, None] * self._c)).real / self.M

    def _prefix_from(self, E, sv):
        """Prefix values from the table ``E``, which is shifted in place."""
        mean = self._c[0].real / self.M
        cpre = np.zeros_like(self._c)
        cpre[1:] = (self._w[1:, None] / (1j * self._mu[1:, None])) * self._c[1:]
        E.real -= 1.0
        return (E @ cpre).real / self.M + np.outer(sv, mean)

    def __call__(self, s, order=0):
        """Evaluate the interpolant (or its ``order``-th derivative) at ``s``.

        Odd derivatives drop the Nyquist term, as :func:`spectral_derivative`
        does on the grid.
        """
        s = np.asarray(s, dtype=float)
        sv = np.atleast_1d(s)
        return self._reduce(self._value_from(self._table(sv), order), s.ndim == 0)

    def prefix(self, s):
        """Integral of the interpolant from 0 to ``s`` (s need not be in [0, L))."""
        s = np.asarray(s, dtype=float)
        sv = np.atleast_1d(s)
        return self._reduce(self._prefix_from(self._table(sv), sv), s.ndim == 0)

    def value_and_prefix(self, s):
        """``(self(s), self.prefix(s))`` from one table, bit for bit."""
        s = np.asarray(s, dtype=float)
        sv = np.atleast_1d(s)
        E = self._table(sv)
        value = self._value_from(E, 0)  # before _prefix_from shifts E
        pre = self._prefix_from(E, sv)
        return self._reduce(value, s.ndim == 0), self._reduce(pre, s.ndim == 0)


def short_arc_offsets(M, L):
    """Signed short-arc separation for each cyclic grid offset.

    ``out[k]`` is the representative of ``k * L / M`` in ``(-L/2, L/2]``; the
    antipodal offset ``k = M/2`` maps to ``+L/2``.
    """
    k = np.arange(M)
    k = np.where(k > M // 2, k - M, k)
    return k * (L / M)
