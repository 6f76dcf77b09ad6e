import copy
import json
import tracemalloc
import warnings

import numpy as np
import pytest

from ohara import _pairs, spectral
from ohara.curve import (
    ClosedCurve,
    Field,
    bilipschitz_constant,
    circle,
    ellipse,
    from_samples,
    load_curve,
    pair_frame,
    random_curve,
    random_field,
    resampled,
    save_curve,
)
from ohara.errors import ValidationError
from ohara.kernels import EnergyParams
from ohara.quadrature import (
    GridOperator,
    density_grid,
    energy,
    first_variation,
    holder_chain_check,
    second_variation,
)
from ohara.spectral import Interpolant, prefix_integral

from conftest import offset_sq_diffs


def test_circle_geometry(circle128):
    cv = circle128
    assert cv.L == pytest.approx(2.0 * np.pi, rel=1e-12)
    # unit tangent, curvature magnitude one, tau'= kappa points inward
    assert np.allclose(np.linalg.norm(cv.tau, axis=1), 1.0, atol=1e-12)
    assert np.allclose(np.linalg.norm(cv.kappa, axis=1), 1.0, atol=1e-10)
    assert np.allclose(
        np.einsum("ij,ij->i", cv.kappa, cv.positions - cv.positions.mean(0)),
        -1.0,
        atol=1e-9,
    )


def test_from_samples_reparametrizes_nonuniform():
    # quadratic clustering of the parameter; same geometric circle
    t = np.linspace(0.0, 1.0, 256, endpoint=False)
    w = t + 0.15 * np.sin(2.0 * np.pi * t) / (2.0 * np.pi)
    th = 2.0 * np.pi * w
    cv = from_samples(np.stack([np.cos(th), np.sin(th)], axis=1))
    assert cv.unit_speed_defect < 1e-9
    assert cv.L == pytest.approx(2.0 * np.pi, rel=1e-10)
    r = np.linalg.norm(cv.positions - cv.positions.mean(0), axis=1)
    assert np.allclose(r, 1.0, atol=1e-10)


def test_ellipse_length_matches_quadrature():
    from scipy.special import ellipe

    cv = ellipse(2.0, 1.0, 256)
    # perimeter of the ellipse via the complete elliptic integral
    expected = 4.0 * 2.0 * ellipe(1.0 - (1.0 / 2.0) ** 2)
    assert cv.L == pytest.approx(expected, rel=1e-10)


class _DirectInterpolant:
    """Reference trig interpolant: a fresh ``np.exp`` table per evaluation.

    The direct evaluation ``from_samples`` used before the table was shared
    between the value and the prefix of each Newton step.
    """

    def __init__(self, values):
        self.M = values.shape[0]
        self.c = np.fft.rfft(values, axis=0).reshape(self.M // 2 + 1, -1)
        self.mu = 2.0 * np.pi * np.arange(self.M // 2 + 1)
        self.w = np.full(self.M // 2 + 1, 2.0)
        self.w[0] = self.w[-1] = 1.0
        self.shape = values.shape[1:]

    def _table(self, s):
        E = 1j * np.outer(s, self.mu)
        np.exp(E, out=E)
        return E

    def __call__(self, s, order=0):
        fac = (1j * self.mu) ** order if order else np.ones_like(self.mu, dtype=complex)
        if order % 2 == 1:
            fac[-1] = 0.0
        out = (self._table(s) @ ((self.w * fac)[:, None] * self.c)).real / self.M
        return out if self.shape else out[:, 0]

    def prefix(self, s):
        mean = self.c[0].real / self.M
        cpre = np.zeros_like(self.c)
        cpre[1:] = (self.w[1:, None] / (1j * self.mu[1:, None])) * self.c[1:]
        E = self._table(s)
        E -= 1.0
        out = (E @ cpre).real / self.M + np.outer(s, mean)
        return out if self.shape else out[:, 0]


def _direct_from_samples(pts, oversample=4):
    """Positions and length from the direct reparametrization, pass by pass."""
    for _ in range(4):
        M = pts.shape[0]
        Mf = oversample * M
        tf = np.arange(Mf) / Mf
        speed = np.linalg.norm(_DirectInterpolant(pts)(tf, order=1), axis=1)
        A, L = prefix_integral(speed, 1.0)
        L = float(L)
        dev = float(np.max(np.abs(speed - L))) / L
        targets = np.arange(M) * (L / M)
        sp = _DirectInterpolant(speed)
        t = np.interp(targets, np.concatenate([A, [L]]), np.concatenate([tf, [1.0]]))
        for _ in range(6):
            r = sp.prefix(t) - targets
            t = t - r / sp(t)
        t[0] = 0.0
        pts = _DirectInterpolant(pts)(t)
        if dev < 1.0e-12:
            break
    cv = ClosedCurve(pts, L)
    return cv.positions, cv.L


def _angle_samples(seed, M, n=3, modes=4, amplitude=0.05):
    """A seeded loop sampled uniformly in angle, so not in arclength."""
    rng = np.random.default_rng(seed)
    theta = 2.0 * np.pi * np.arange(M) / M
    pts = np.zeros((M, n))
    pts[:, 0], pts[:, 1] = np.cos(theta), np.sin(theta)
    for c in range(n):
        for m in range(1, modes + 1):
            a, b = rng.normal(size=2) * amplitude * 0.5 ** (m - 1)
            pts[:, c] += a * np.cos(m * theta) + b * np.sin(m * theta)
    return pts


def _ellipse_samples(M=128, a=2.0):
    theta = 2.0 * np.pi * np.arange(M) / M
    return np.stack([a * np.cos(theta), np.sin(theta)], axis=1)


def _flow_trial_samples(M=256):
    """A flow backtracking trial's input: a random curve moved off arclength."""
    cv = random_curve(0, M=M)
    return cv.positions - 0.05 * random_field(cv, 1).values


@pytest.mark.parametrize(
    "make_pts",
    [
        lambda: _angle_samples(1, 64),
        lambda: _angle_samples(2, 128),
        _ellipse_samples,
        lambda: _angle_samples(0, 1024, modes=5, amplitude=0.1),
        _flow_trial_samples,
        # Newton rows that enter a 2-cycle: in angle(8, 96) 16 of them with
        # an odd number of steps left, in angle(29, 96) all 45 with an even
        # number; in angle(4, 96) a step with one moving row has a 2-cycle
        # row as its companion
        lambda: _angle_samples(8, 96),
        lambda: _angle_samples(29, 96),
        lambda: _angle_samples(4, 96),
    ],
    ids=[
        "angle-m64", "angle-m128", "ellipse-m128", "cli-m1024", "flow-trial-m256",
        "cycles-odd-left-m96", "cycles-even-left-m96", "lone-row-cycled-companion-m96",
    ],
)
def test_from_samples_is_bit_identical_to_direct_tables(make_pts):
    # the shared cos/sin table, the chunk-fused Newton products and the
    # frozen and resolved Newton rows only remove work: every output bit
    # stays as the reference's six full sweeps give it
    pts = make_pts()
    positions, L = _direct_from_samples(pts)
    cv = from_samples(pts)
    assert np.array_equal(cv.positions, positions)
    assert cv.L == L


@pytest.mark.parametrize(
    "make_pts",
    [lambda: _angle_samples(0, 256, modes=5, amplitude=0.1), lambda: _ellipse_samples(64, 1.5)],
    ids=["angle-m256", "ellipse-m64"],
)
def test_newton_steps_skip_converged_rows(monkeypatch, make_pts):
    # the 1.5 x 1 ellipse at M = 64 reaches steps with one moving row, which
    # must still be evaluated together with a frozen companion row
    from ohara import curve

    pts = make_pts()
    rows, passes = [], []
    value_and_prefix = Interpolant.value_and_prefix
    arclength_pass = curve._arclength_pass

    def counted_value_and_prefix(self, s):
        rows.append(np.size(s))
        return value_and_prefix(self, s)

    def counted_pass(points, tf, table):
        passes.append(1)
        return arclength_pass(points, tf, table)

    monkeypatch.setattr(Interpolant, "value_and_prefix", counted_value_and_prefix)
    monkeypatch.setattr(curve, "_arclength_pass", counted_pass)
    from_samples(pts)
    assert 1 not in rows
    assert sum(rows) < 0.5 * 6 * len(pts) * len(passes)


def test_value_and_prefix_is_bit_identical_to_separate_calls():
    # a table of 33 modes comes in chunks of TABLE_CELLS // 33 rows: 40
    # points are one chunk; three chunks and one more point, which joins
    # the third.  In white noise every mode counts, so a row summed in
    # another order (a one-row product) shows in its bits
    rng = np.random.default_rng(5)
    noise = np.random.default_rng(6).normal(size=64)
    for n in (40, 3 * (spectral.TABLE_CELLS // 33) + 1):
        s = rng.uniform(0.0, 1.0, size=n)
        for values in (np.linalg.norm(_angle_samples(3, 64), axis=1), _angle_samples(4, 64), noise):
            interp = Interpolant(values, 1.0)
            for at in (s, s[0]):
                value, pre = interp.value_and_prefix(at)
                assert np.array_equal(value, interp(at)) and np.shape(value) == np.shape(interp(at))
                assert np.array_equal(pre, interp.prefix(at)) and np.shape(pre) == np.shape(interp.prefix(at))
            value, pre = interp.value_and_prefix(s)
            ref = _DirectInterpolant(values)
            assert np.array_equal(value, ref(s))
            assert np.array_equal(pre, ref.prefix(s))


@pytest.mark.parametrize(
    "make_pts,earlier_cells",
    [(lambda: _angle_samples(0, 1024), 14_897_763), (_flow_trial_samples, 997_140)],
    ids=["angle-m1024", "flow-trial-m256"],
)
def test_from_samples_fills_fewer_table_cells(monkeypatch, make_pts, earlier_cells):
    # earlier_cells: the cos/sin cells one call filled when each pass built
    # its own oversampled table and 2-cycling Newton rows took all six
    # steps, with two BLAS threads (with one: 14,877,273 and 976,107)
    pts = make_pts()
    cells = []
    fill = Interpolant._fill

    def counted_fill(self, s, E):
        cells.append(E.size)  # list.append: pool threads may call this
        return fill(self, s, E)

    monkeypatch.setattr(Interpolant, "_fill", counted_fill)
    from_samples(pts)
    assert sum(cells) <= 0.8 * earlier_cells


@pytest.mark.parametrize(
    "bad",
    [
        np.zeros((8, 2)),  # too few samples
        np.zeros((33, 2)),  # odd M
        np.random.default_rng(0).normal(size=(64, 1)),  # ambient dim 1
    ],
)
def test_from_samples_rejects(bad):
    with pytest.raises(ValidationError):
        from_samples(bad)


def test_from_samples_rejects_self_intersection():
    # figure-eight style crossing collapses the chord between far samples
    t = 2.0 * np.pi * np.arange(64) / 64
    pts = np.stack([np.sin(2 * t), np.sin(t)], axis=1)
    with pytest.raises(ValidationError):
        from_samples(pts)


def test_save_load_roundtrip(tmp_path, circle128):
    path = tmp_path / "c.json"
    save_curve(circle128, path)
    doc = json.loads(path.read_text())
    assert doc["closed"] is True and doc["dimension"] == 2
    cv = load_curve(path)
    assert cv.M == 128
    assert np.allclose(cv.positions, circle128.positions, atol=1e-12)


def test_load_curve_csv_and_resample(tmp_path):
    cv = circle(64)
    path = tmp_path / "c.csv"
    with open(path, "w") as fh:
        for row in cv.positions:
            fh.write("%r,%r\n" % (float(row[0]), float(row[1])))
    cv2 = load_curve(path, M=128)
    assert cv2.M == 128
    assert cv2.L == pytest.approx(cv.L, rel=1e-9)


def test_load_curve_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ValidationError):
        load_curve(path)
    path.write_text('{"closed": true}')
    with pytest.raises(ValidationError):
        load_curve(path)


def test_resampled_preserves_geometry():
    cv = random_curve(3, M=128, n=3, amplitude=0.05)
    cv2 = resampled(cv, 256)
    assert cv2.M == 256
    assert cv2.L == pytest.approx(cv.L, rel=1e-10)
    assert np.allclose(cv2.positions[::2], cv.positions, atol=1e-8 * cv.L)


def test_from_samples_rejects_unresolved():
    # mode-13 wiggle on a 32-point grid: spectrally under-resolved
    theta = 2.0 * np.pi * np.arange(32) / 32
    pts = np.stack(
        [np.cos(theta), np.sin(theta), 0.3 * np.sin(13.0 * theta)], axis=1
    )
    with pytest.raises(ValidationError):
        from_samples(pts)


def test_bilipschitz_circle(circle128):
    # chord/arc ratio of the circle: worst at antipodal pairs, pi/2
    c = bilipschitz_constant(circle128)
    assert c == pytest.approx(np.pi / 2.0, rel=1e-10)


def test_pair_frame_short_arc(circle128):
    cv = circle128
    # (i, j, ds in grid steps): negative ds, a pair across the origin, the
    # antipodal pair both ways round, positive ds
    for i, j, steps in [(100, 4, -32), (3, 120, 11), (64, 0, 64), (0, 64, 64), (4, 100, 32)]:
        fr = pair_frame(cv, i, j)
        assert fr.ds == pytest.approx(steps * cv.h, rel=1e-14)
        assert abs(fr.ds) <= cv.L / 2.0
        assert fr.D == pytest.approx(abs(fr.ds))
        assert np.array_equal(fr.dvec, cv.positions[i] - cv.positions[j])
        assert fr.chord == pytest.approx(2.0 * np.sin(fr.D / 2.0), rel=1e-12)


def test_quadrature_sets_no_attributes_on_curves():
    # the pair grid and the tau.tau product belong to the operator, not to
    # the curve: the quadrature entry points leave the curve's attributes as
    # construction made them
    cv = random_curve(3, M=64, n=3)
    before = set(vars(cv))
    pr = EnergyParams(2.0, 2.0)
    phi, psi = random_field(cv, 1), random_field(cv, 2)
    energy(cv, pr, with_estimate=True)
    first_variation(cv, phi, pr)
    second_variation(cv, phi, psi, pr)
    density_grid(cv, pr, which="h", phi=phi, psi=psi)
    holder_chain_check(cv, phi, psi, pr)
    assert set(vars(cv)) == before


def test_grid_operator_shares_the_curve_chords():
    # the operator keeps the curve's squared chords on its half grid, and its
    # row chunks read them as views
    cv = random_curve(3, M=64, n=3)
    op = GridOperator(cv, EnergyParams(2.0, 1.0))
    b = op._rows(5, 12)
    assert np.shares_memory(b.ev.chord2, op.chord2)
    # the operator evaluates the offset columns 0..M/2 only
    assert op.chord2.shape == (64, 33)
    assert np.array_equal(b.ev.chord2, offset_sq_diffs(cv.positions)[5:12, :33])
    assert b.ev.j.shape == (7, 1)


def _largest_held_array(obj):
    """Cells of the largest array that ``obj`` holds, through its attributes
    and those of the package objects, dicts, lists and tuples it holds; a
    view counts as the array that owns its memory."""
    largest, stack, seen = 0, [obj], set()
    while stack:
        x = stack.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        if isinstance(x, np.ndarray):
            while getattr(x, "base", None) is not None:  # a window view's base is no ndarray
                x = x.base
            largest = max(largest, x.size if isinstance(x, np.ndarray) else 0)
        elif isinstance(x, dict):
            stack.extend(x.values())
        elif isinstance(x, (list, tuple)):
            stack.extend(x)
        elif type(x).__module__.startswith("ohara"):
            stack.extend(vars(x).values())
    return largest


def test_no_curve_attribute_holds_a_whole_grid():
    M = 128
    cv = random_curve(3, M=M, n=3)
    assert _largest_held_array(cv) < M * M
    bilipschitz_constant(cv)
    assert _largest_held_array(cv) < M * M
    op = GridOperator(cv, EnergyParams(2.5, 1.5))
    op.energy()
    # the operator keeps its half grids; the curve keeps none
    assert _largest_held_array(op) >= M * (M // 2 + 1)
    assert _largest_held_array(cv) < M * M
    # nor does a copy, whose fields rebuild their tables, with the same bits
    copied = copy.deepcopy(cv)
    assert _largest_held_array(copied) < M * M
    assert GridOperator(copied, EnergyParams(2.5, 1.5)).energy() == op.energy()


def test_curve_construction_peak_stays_below_a_whole_grid():
    # the construction's chord pass streams half-width row chunks; a whole
    # M x M grid of squared chords alone is M^2 * 8 bytes
    M = 512
    base = random_curve(0, M=M, n=3)
    ClosedCurve(base.positions, base.L)  # warm-up
    tracemalloc.start()
    try:
        ClosedCurve(base.positions, base.L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < M * M * 8


def test_random_curve_deterministic():
    a = random_curve(7, M=128, n=3)
    b = random_curve(7, M=128, n=3)
    assert np.array_equal(a.positions, b.positions)
    c = random_curve(8, M=128, n=3)
    assert not np.allclose(a.positions, c.positions)


def test_field_shapes_and_deriv(circle128):
    cv = circle128
    phi = random_field(cv, seed=1)
    assert phi.values.shape == (cv.M, cv.n)
    # spectral derivative of tangent is the curvature
    assert np.allclose(cv.tau_field.deriv.values, cv.kappa, atol=1e-10)
    with pytest.raises(ValidationError):
        Field(cv, np.zeros((cv.M + 2, cv.n)))
    with pytest.raises(ValidationError):
        Field(cv, np.full((cv.M, cv.n), np.nan))


def test_scaled_curve_construction(circle128):
    cv = ClosedCurve(2.0 * circle128.positions, 2.0 * circle128.L)
    assert cv.L == pytest.approx(2.0 * circle128.L)
    assert cv.h == pytest.approx(2.0 * circle128.h)


def _with_sample(value):
    pts = circle(64).positions.copy()
    pts[3, 1] = value
    return pts


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ClosedCurve(_with_sample(np.nan), 2.0 * np.pi), "positions must be finite"),
        (lambda: ClosedCurve(_with_sample(np.inf), 2.0 * np.pi), "positions must be finite"),
        (lambda: ClosedCurve(circle(64).positions, np.nan), "length must be finite and positive"),
        (lambda: ClosedCurve(circle(64).positions, -2.0 * np.pi), "length must be finite and positive"),
        (lambda: ClosedCurve(circle(64).positions, 0.0), "length must be finite and positive"),
        # finite input whose spectral tangent overflows to NaN
        (lambda: ClosedCurve(1e307 * circle(64).positions, 2e307 * np.pi), "unit-speed deviation nan"),
    ],
    ids=["nan-sample", "inf-sample", "nan-length", "negative-length", "zero-length",
         "overflowing-tangent"],
)
def test_closed_curve_rejects_non_finite_or_non_positive_input(build, message):
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValidationError, match=message):
        build()


def test_self_intersecting_samples_are_rejected_without_warnings(monkeypatch):
    # a figure eight, and a circle with one squared chord zeroed: a zero
    # chord must end in the ValidationError, not in a division warning
    from ohara import curve as curve_module

    t = 2.0 * np.pi * np.arange(256) / 256
    eight = np.stack([np.sin(t), np.sin(t) * np.cos(t)], axis=1)
    positions = circle(64).positions

    class ZeroChord(_pairs.PairSet):
        @property
        def chord2(self):
            c2 = super().chord2
            return np.where((self.j == 40) & (self.i == 50), 0.0, c2)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="degenerate or self-intersecting"):
            from_samples(eight)
        monkeypatch.setattr(curve_module, "PairSet", ZeroChord)
        with pytest.raises(ValidationError, match=r"min separated chord 0 x L"):
            ClosedCurve(positions, 2.0 * np.pi)


def test_bilipschitz_constant_is_chunk_independent(monkeypatch):
    from ohara.spectral import short_arc_offsets

    monkeypatch.setattr(_pairs, "CHUNK_CELLS", 7 * 96)
    cv = random_curve(4, M=96, n=3)
    D = np.abs(short_arc_offsets(cv.M, cv.L))[None, 1:]
    full = max(1.0, float(np.max(D / np.sqrt(offset_sq_diffs(cv.positions)[:, 1:]))))
    assert bilipschitz_constant(cv) == full > 1.0


@pytest.mark.parametrize("rows", [None, 7])
def test_offset_sq_diffs_matches_the_roll_loop(rows):
    # the squared differences |u(s_{j+k}) - u(s_j)|^2 of grid pairs, as
    # PairSet.sq_diff reads them by rows and as the reference offset_sq_diffs
    # computes them, against a loop over np.roll
    def roll_loop(values):
        vals = values if values.ndim == 2 else values[:, None]
        M = vals.shape[0]
        out = np.empty((M, M))
        for k in range(M):
            d = np.roll(vals, -k, axis=0) - vals
            out[:, k] = np.einsum("ij,ij->i", d, d)
        return out

    cv = random_curve(2, M=96, n=3)
    phi = random_field(cv, 3)
    chunks = [(0, cv.M)] if rows is None else [  # the last chunk shorter
        (j0, min(j0 + rows, cv.M)) for j0 in range(0, cv.M, rows)]
    for field in (cv.position_field, cv.tau_field, phi.deriv, Field(cv, cv.kappa_sq())):
        want = roll_loop(field.values)
        got = [_pairs.PairSet(cv, slice(j0, j1), slice(None)).sq_diff(field) for j0, j1 in chunks]
        assert np.array_equal(np.concatenate(got), want)
        assert np.array_equal(np.concatenate(
            [offset_sq_diffs(field.values, j0, j1) for j0, j1 in chunks]), want)


def test_random_field_modes_must_stay_below_nyquist():
    # on M samples mode m and mode M - m agree, so 2 modes >= M would fold
    cv = circle(16)
    assert np.all(random_field(cv, 0, modes=0).values == random_field(cv, 0, modes=0).values[0])
    assert random_field(cv, 0, modes=7).values.shape == (16, 2)
    for modes in (8, 99, -1):
        with pytest.raises(ValidationError, match="2 modes < M"):
            random_field(cv, 0, modes=modes)
