"""Off-grid accuracy of the trigonometric interpolant against closed forms."""

import numpy as np
import pytest

from ohara.spectral import Interpolant

M = 32
L = 3.0
W = 2.0 * np.pi / L
NYQ = M // 2


def _trig_poly(seed):
    """Coefficients of a trig polynomial resolved by ``M`` samples.

    ``a[k] cos(k W s) + b[k] sin(k W s)`` for ``k < M/2``, plus the Nyquist
    cosine ``a[M/2] cos(M/2 W s)``, the one Nyquist term the grid can carry.
    """
    rng = np.random.default_rng(seed)
    a = rng.normal(size=NYQ + 1)
    b = rng.normal(size=NYQ + 1)
    b[0] = b[NYQ] = 0.0
    return a, b


def _closed_form(a, b, s, what):
    k = np.arange(NYQ + 1)
    x = np.multiply.outer(s, k * W)
    c, sn = np.cos(x), np.sin(x)
    if what == 0:
        return c @ a + sn @ b
    if what == 1:
        # odd derivatives drop the Nyquist term, as spectral_derivative does:
        # its sine vanishes on the grid, so the grid cannot represent it
        kw = (k * W) * (k < NYQ)
        return sn @ (-kw * a) + c @ (kw * b)
    if what == 2:
        kw2 = (k * W) ** 2
        return c @ (-kw2 * a) + sn @ (-kw2 * b)
    # prefix integral from 0 to s
    kw = np.where(k > 0, k * W, 1.0)
    return a[0] * s + sn[..., 1:] @ (a[1:] / kw[1:]) + (1.0 - c[..., 1:]) @ (b[1:] / kw[1:])


def _points(seed, n=9):
    # off-grid, and outside [0, L) too: the interpolant is periodic
    return np.random.default_rng(seed).uniform(-L, 2.0 * L, size=n)


@pytest.mark.parametrize("order", [0, 1, 2])
def test_interpolant_matches_closed_form(order):
    a, b = _trig_poly(order)
    grid = np.arange(M) * (L / M)
    interp = Interpolant(_closed_form(a, b, grid, 0), L)
    s = _points(10 + order)
    want = _closed_form(a, b, s, order)
    assert np.max(np.abs(interp(s, order=order) - want)) < 1.0e-12 * max(1.0, np.max(np.abs(want)))


def test_interpolant_prefix_matches_closed_form():
    a, b = _trig_poly(5)
    interp = Interpolant(_closed_form(a, b, np.arange(M) * (L / M), 0), L)
    s = _points(6)
    assert np.max(np.abs(interp.prefix(s) - _closed_form(a, b, s, "prefix"))) < 1.0e-12


def test_interpolant_vector_values_and_scalar_points():
    polys = [_trig_poly(seed) for seed in (7, 8, 9)]
    grid = np.arange(M) * (L / M)
    interp = Interpolant(np.stack([_closed_form(a, b, grid, 0) for a, b in polys], axis=1), L)
    s = _points(3)
    for order in (0, 1, 2, "prefix"):
        got = interp.prefix(s) if order == "prefix" else interp(s, order=order)
        assert got.shape == (s.size, 3)
        want = np.stack([_closed_form(a, b, s, order) for a, b in polys], axis=1)
        assert np.max(np.abs(got - want)) < 1.0e-12 * max(1.0, np.max(np.abs(want)))
        one = interp.prefix(s[0]) if order == "prefix" else interp(s[0], order=order)
        assert one.shape == (3,)
        assert np.max(np.abs(one - want[0])) < 1.0e-12 * max(1.0, np.max(np.abs(want)))

    a, b = polys[0]
    scalar = Interpolant(_closed_form(a, b, grid, 0), L)
    for got in (scalar(s[0]), scalar(s[0], order=2), scalar.prefix(s[0])):
        assert np.ndim(got) == 0
    assert abs(scalar(s[0]) - _closed_form(a, b, s[0], 0)) < 1.0e-12
    assert abs(scalar.prefix(s[0]) - _closed_form(a, b, s[0], "prefix")) < 1.0e-12



@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "odd orders drop the Nyquist sine, which vanishes only at grid points; "
    "keeping it changes the bits of from_samples"))
def test_first_derivative_is_the_derivative_of_the_values_off_the_grid():
    # samples with a nonzero Nyquist coefficient: off the grid, order 1 must
    # be the derivative of order 0, here its central difference
    a, b = _trig_poly(3)
    a[NYQ] = 1.0
    interp = Interpolant(_closed_form(a, b, np.arange(M) * (L / M), 0), L)
    s, step = _points(30), 1.0e-6
    central = (interp(s + step) - interp(s - step)) / (2.0 * step)
    assert np.max(np.abs(interp(s, order=1) - central)) < 1.0e-6 * np.max(np.abs(central))
