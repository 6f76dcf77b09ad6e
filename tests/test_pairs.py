"""Pair evaluators: window reads of the offset grid against index gathers."""

import numpy as np
import pytest

from ohara._pairs import OffGridPair, PairSet, _dot, map_chunks
from ohara.curve import Field, pair_frame, random_curve, random_field
from ohara.quadrature import DEFAULT_BAND, _half_width

from conftest import offset_sq_diffs

M = 48


@pytest.fixture(scope="module", params=[2, 3, 4])
def curve(request):
    return random_curve(5, M=M, n=request.param)


def _fields(cv):
    phi = random_field(cv, 6)
    return {
        "tau": cv.tau_field,
        "phi": phi,
        "phi'": phi.deriv,
        "tau.phi'": cv.tau_field.dot(phi.deriv),
        "position": cv.position_field,
    }


def _windows():
    """``(rows, cols)`` of every read of the grid that the code makes: one pair
    (``pair_frame``), the antipodal column (``antipodal_motion_term``), and
    row chunks by the full width, the half width (operator build, ``_rows``)
    and the band slice of ``first_variation_dual``; and single rows."""
    chunks = [slice(j0, min(j0 + 7, M)) for j0 in range(0, M, 7)]
    col_sets = [slice(None), slice(_half_width(M)), slice(DEFAULT_BAND + 1, M - DEFAULT_BAND)]
    return ([(30, 22), (4, M // 2), (47, 1), (slice(0, M), M // 2), (30, slice(None)),
             (5, slice(_half_width(M)))]
            + [(slice(0, M), cols) for cols in col_sets]
            + [(rows, cols) for rows in chunks for cols in col_sets])


def _window_id(window):
    rows, cols = window
    if isinstance(rows, slice):
        return "%s-%s-%s" % (rows.start, rows.stop, cols)
    return "%s-%s" % window


def _reference(cv, rows, cols):
    """The pairs ``grid[rows, cols]`` by index gathers, each block of the
    shape of ``grid[rows, cols]``."""
    jj, kk = np.meshgrid(np.arange(M), np.arange(M), indexing="ij")
    j, k = jj[rows, cols], kk[rows, cols]
    i = (j + k) % M
    wrap = (i < j).astype(float) - (k > M // 2)

    def gather(samples):
        t = samples.T  # component major
        return t[..., i], t[..., j]

    def integral(field):
        P, T = field.prefix()
        P1, P2 = gather(P)
        return P1 - P2 + wrap * np.reshape(T, np.shape(T) + (1,) * np.ndim(wrap))

    return i, j, k, gather, integral


@pytest.mark.parametrize("window", _windows(), ids=_window_id)
def test_window_reads_equal_index_gathers(curve, window):
    ps = PairSet(curve, *window)
    i, j, k, gather, integral = _reference(curve, *window)
    shape = np.shape(i)
    assert np.array_equal(ps.i, i)
    assert np.array_equal(np.broadcast_to(ps.j, shape), j)
    ds = np.where(k <= M // 2, k, k - M) * curve.h
    assert np.array_equal(np.broadcast_to(ps.ds, shape), ds)
    for name, field in _fields(curve).items():
        v1, v2 = gather(field.values)
        assert np.array_equal(ps.integral(field), integral(field)), name
        assert np.array_equal(ps.value1(field), v1), name
        assert np.array_equal(np.broadcast_to(ps.value2(field), v2.shape), v2), name
    p1, p2 = gather(curve.positions)
    assert ps.dvec.shape == (curve.n,) + shape
    assert np.array_equal(ps.dvec, p1 - p2)
    assert np.array_equal(ps.chord2, offset_sq_diffs(curve.positions)[j, k])


@pytest.mark.parametrize("window", [(slice(0, M), slice(None)), (slice(7, 14), slice(_half_width(M)))])
def test_window_chord2_is_the_dot_of_the_chord(curve, window):
    # the grid's squared chords are those of the component-major chord vector
    ps = PairSet(curve, *window)
    d = ps.dvec
    assert np.array_equal(ps.chord2, _dot(d, d))
    np.testing.assert_array_max_ulp(ps.chord2, np.einsum("i...,i...->...", d, d), maxulp=2)


def _sq_diff_fields(cv, n):
    """Fields whose squared grid differences have ``n`` components: the
    positions, the tangent and a derivative field of the curve ``cv`` of
    dimension ``n``, or for ``n = 1`` two scalar fields on it."""
    phi = random_field(cv, 6)
    if n == 1:
        return {"kappa_sq": Field(cv, cv.kappa_sq()), "tau.phi'": cv.tau_field.dot(phi.deriv)}
    return {"position": cv.position_field, "tau": cv.tau_field, "phi'": phi.deriv}


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9])
def test_squared_differences_keep_the_einsum_bits(uneven_chunks, n):
    # row chunks of PairSet.sq_diff (and so of the squared chords) against the
    # einsum grid they replaced: equal for n < 8, where _dot sums in einsum's
    # order, and within 3 ulp from n = 8 on (two orders of a sum of n
    # nonnegative terms; 3 ulp, 4.1e-16 relative, is the most seen at n = 9,
    # M = 64); the swap mirror holds exactly
    cv = random_curve(3, M=uneven_chunks.M, n=max(n, 2))
    Mc, half = cv.M, slice(_half_width(cv.M))
    jj, kk = np.meshgrid(np.arange(Mc), np.arange(Mc), indexing="ij")

    def rows(read, cols):
        return np.concatenate(map_chunks(lambda j0, j1: read(PairSet(cv, slice(j0, j1), cols)), Mc))

    for name, field in _sq_diff_fields(cv, n).items():
        want = offset_sq_diffs(field.values)
        whole = rows(lambda ps: ps.sq_diff(field), slice(None))
        for cols in (slice(None), half):
            got = rows(lambda ps: ps.sq_diff(field), cols)
            if n < 8:
                assert np.array_equal(got, want[:, cols]), (name, cols)
            else:
                np.testing.assert_array_max_ulp(got, want[:, cols], maxulp=3)
        assert np.array_equal(whole[(jj + kk) % Mc, (Mc - kk) % Mc], whole), name
    if n > 1:
        assert np.array_equal(rows(lambda ps: ps.chord2, slice(None)),
                              rows(lambda ps: ps.sq_diff(cv.position_field), slice(None)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_dot_matches_einsum(n):
    rng = np.random.default_rng(n)
    a = rng.normal(size=(n, 5, 9)) * 10.0 ** rng.uniform(-6, 6, size=(n, 5, 9))
    b = rng.normal(size=(n, 5, 9))
    # the component-last contraction of the same numbers
    ref = np.einsum("...i,...i->...", np.moveaxis(a, 0, -1).copy(), np.moveaxis(b, 0, -1).copy())
    np.testing.assert_array_max_ulp(_dot(a, b), ref, maxulp=2)
    np.testing.assert_array_max_ulp(_dot(a[:, 2, 3], b[:, 2, 3]), ref[2, 3], maxulp=2)
    # products that are all -0.0 sum to +0.0, as in einsum
    assert not np.signbit(_dot(np.zeros((n, 4)), -np.ones((n, 4)))).any()


def test_single_pair_is_component_major(curve):
    ps = pair_frame(curve, 30, 4)
    phi = random_field(curve, 6)
    assert ps.dvec.shape == (curve.n,)
    assert np.array_equal(ps.dvec, curve.positions[30] - curve.positions[4])
    assert np.array_equal(ps.value1(phi), phi.values[30])
    assert ps.integral(phi).shape == (curve.n,)
    assert ps.integral(curve.tau_field.dot(phi)).shape == ()


def test_off_grid_pairs_are_component_major(curve):
    s1 = np.array([0.3, 1.1]) * curve.L / 4.0
    s2 = s1 - curve.L / 8.0
    ev = OffGridPair(curve, s1, s2)
    phi = random_field(curve, 6)
    interp = phi.interpolant()
    assert np.array_equal(ev.integral(phi), (interp.prefix(s1) - interp.prefix(s2)).T)
    assert np.array_equal(ev.value1(phi), phi.at(s1).T)
    assert np.array_equal(ev.value2(phi), phi.at(s2).T)
    assert ev.dvec.shape == (curve.n, 2)
    np.testing.assert_array_max_ulp(ev.chord2, np.sum(ev.dvec ** 2, axis=0), maxulp=2)
