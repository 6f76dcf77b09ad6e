"""Arclength-parametrized closed curves and periodic fields along them.

A :class:`ClosedCurve` stores ``M`` uniform arclength samples of a closed
curve in R^n together with its unit tangent, curvature vector, and a prefix
table of the tangent.  Construction from arbitrary (non-uniform) point samples
goes through an iterative spectral reparametrization to arclength.

The sample data is canonicalized for consistency rather than taken verbatim:
the tangent is normalized to unit length at every sample and its mean is
removed (a closed curve has zero mean tangent), and the positions are rebuilt
as the prefix integral of that tangent.  As a result chord vectors between
samples agree with short-arc tangent integrals to machine precision, which
the kernel identities downstream rely on.

A curve keeps no pair grid.  Its construction reads the squared chords of
the grid pairs once, in row chunks of ``_pairs.PairSet`` over the offsets
``1..M/2`` (by the swap mirror they hold every pair's value), to reject
degenerate or self-intersecting samples and to compute the bi-Lipschitz
constant that :func:`bilipschitz_constant` returns.
"""

import csv
import json

import numpy as np

from ._pairs import PairSet, doubled_table, map_chunks
from .errors import NumericalError, ValidationError
from .spectral import Interpolant, prefix_integral, short_arc_offsets, spectral_derivative

__all__ = [
    "ClosedCurve",
    "Field",
    "from_samples",
    "pair_frame",
    "bilipschitz_constant",
    "resampled",
    "circle",
    "ellipse",
    "load_curve",
    "save_curve",
    "random_curve",
    "random_field",
]

#: bi-Lipschitz constants above this value flag the curve as numerically unusable
BILIPSCHITZ_CAP = 1.0e6

#: minimum admissible chord (relative to L) between non-neighbor samples
MIN_CHORD_REL = 1.0e-9

#: the arclength reparametrization samples the speed on this many times the
#: grid before integrating it
_OVERSAMPLE = 4


class Field:
    """Periodic samples of a function along a curve's arclength grid.

    ``values`` has shape ``(M,)`` for scalar fields or ``(M, n)`` for vector
    fields (``n`` the ambient dimension of the curve).  The spectral
    derivative, the prefix integral of the trig interpolant and the doubled
    tables that grid pairs read (:meth:`tables`) are computed lazily and
    cached; an explicit derivative can be supplied when it is known exactly
    (e.g. the tangent field's derivative is the curvature).
    """

    def __init__(self, curve, values, derivative=None):
        values = np.asarray(values, dtype=float)
        if values.ndim not in (1, 2):
            raise ValidationError("field samples must be (M,) or (M, n)")
        if values.shape[0] != curve.M:
            raise ValidationError(
                "field has %d samples, curve grid has %d" % (values.shape[0], curve.M)
            )
        if values.ndim == 2 and values.shape[1] != curve.n:
            raise ValidationError(
                "vector field dimension %d does not match curve dimension %d"
                % (values.shape[1], curve.n)
            )
        if not np.all(np.isfinite(values)):
            raise ValidationError("field samples must be finite")
        self.curve = curve
        self.values = values
        self._deriv = derivative
        self._prefix = None
        self._interp = None
        self._tables = {}

    @property
    def deriv(self):
        """Derivative field (spectral, unless supplied at construction)."""
        if self._deriv is None:
            self._deriv = Field(self.curve, spectral_derivative(self.values, self.curve.L))
        elif not isinstance(self._deriv, Field):
            self._deriv = Field(self.curve, self._deriv)
        return self._deriv

    def prefix(self):
        """``(P, total)``: grid prefix integral and the full-period integral."""
        if self._prefix is None:
            self._prefix = prefix_integral(self.values, self.curve.L)
        return self._prefix

    def tables(self, prefix=False):
        """``_pairs.doubled_table`` of the samples, or of the grid prefix if
        ``prefix``: the tables that ``PairSet`` reads grid pairs from."""
        if prefix not in self._tables:
            self._tables[prefix] = doubled_table(self.prefix()[0] if prefix else self.values)
        return self._tables[prefix]

    def __getstate__(self):
        # a copy or pickle would turn each table's (n, M, M) window view into
        # a whole array; the copy builds its tables again when it reads them
        return dict(vars(self), _tables={})

    def interpolant(self):
        if self._interp is None:
            self._interp = Interpolant(self.values, self.curve.L)
        return self._interp

    def at(self, s):
        return self.interpolant()(s)

    def dot(self, other):
        """Pointwise inner product with another field -> scalar Field."""
        if self.values.ndim == 1 and other.values.ndim == 1:
            vals = self.values * other.values
        elif self.values.ndim == 2 and other.values.ndim == 2:
            vals = np.einsum("ij,ij->i", self.values, other.values)
        else:
            raise ValidationError("cannot form the pointwise product of mixed-rank fields")
        return Field(self.curve, vals)

    def sup_norm(self):
        if self.values.ndim == 1:
            return float(np.max(np.abs(self.values)))
        return float(np.max(np.linalg.norm(self.values, axis=1)))


class ClosedCurve:
    """Closed curve in R^n sampled uniformly in arclength.

    Attributes
    ----------
    positions : ndarray (M, n)
        Samples ``f(s_k)`` at ``s_k = k L / M``.
    tau : ndarray (M, n)
        Unit tangent samples.
    kappa : ndarray (M, n)
        Curvature vector samples (``tau'``).
    L : float
        Total length.
    """

    def __init__(self, positions, L):
        positions = np.asarray(positions, dtype=float)
        if positions.ndim != 2:
            raise ValidationError("positions must be an (M, n) array")
        M, n = positions.shape
        if n < 2:
            raise ValidationError("ambient dimension must be >= 2")
        if M < 16 or M % 2 != 0:
            raise ValidationError("sample count must be even and >= 16")
        if not np.all(np.isfinite(positions)):
            raise ValidationError("positions must be finite")
        L = float(L)
        if not (np.isfinite(L) and L > 0.0):
            raise ValidationError("curve length must be finite and positive (got %r)" % L)
        self.M = M
        self.n = n
        self.L = L
        self.h = self.L / M
        self.s = np.arange(M) * self.h

        tau = spectral_derivative(positions, self.L)
        speed = np.linalg.norm(tau, axis=1)
        dev = float(np.max(np.abs(speed - 1.0)))
        # every guard is written so that a NaN fails it
        if not dev <= 1.0e-6:
            raise ValidationError(
                "samples are not uniform in arclength (unit-speed deviation %.3g)" % dev
            )
        # canonicalize: unit tangent, zero mean, positions from its prefix
        tau = tau / speed[:, None]
        tau = tau - tau.mean(axis=0)
        tau = tau - tau.mean(axis=0)
        self.tau = tau
        pref, total = prefix_integral(tau, self.L)
        self.positions = positions[0] + pref
        self.closure_defect = float(np.linalg.norm(total))
        self.kappa = spectral_derivative(tau, self.L)
        self.unit_speed_defect = dev

        self._tau_field = None
        self._pos_field = None
        self._validate()

    # -- construction-time checks -------------------------------------------

    def _validate(self):
        if not self.closure_defect <= 1.0e-8 * self.L:
            raise ValidationError(
                "curve does not close up (defect %.3g x L)" % (self.closure_defect / self.L)
            )
        ortho = float(np.max(np.abs(np.einsum("ij,ij->i", self.tau, self.kappa))))
        if not ortho <= 1.0e-6:
            raise ValidationError(
                "tangent/curvature orthogonality defect %.3g; curve is not "
                "resolved by its grid" % ortho
            )
        # one pass over the squared chords of the columns 1 .. M/2, which by
        # the swap mirror hold every pair's value: reject data where two
        # samples at least two grid steps apart come closer than a minimal
        # chord, and keep the bi-Lipschitz constant, the largest ratio of
        # intrinsic distance to chord
        M, w = self.M, self.M // 2
        D = np.abs(short_arc_offsets(M, self.L))[1:w + 1]

        def chords(j0, j1):
            c2 = PairSet(self, slice(j0, j1), slice(1, w + 1)).chord2
            return np.min(c2[:, 1:]), np.max(D / np.sqrt(c2))

        with np.errstate(divide="ignore"):
            mins, peaks = zip(*map_chunks(chords, M))
        min_chord = float(np.sqrt(np.min(mins)))
        if not min_chord >= MIN_CHORD_REL * self.L:
            raise ValidationError(
                "curve is degenerate or self-intersecting (min separated chord "
                "%.3g x L)" % (min_chord / self.L)
            )
        self._bilip = max(1.0, float(np.max(peaks)))

    # -- cached geometry -----------------------------------------------------

    @property
    def tau_field(self):
        if self._tau_field is None:
            self._tau_field = Field(self, self.tau, derivative=self.kappa)
        return self._tau_field

    @property
    def position_field(self):
        if self._pos_field is None:
            self._pos_field = Field(self, self.positions, derivative=self.tau)
        return self._pos_field

    def kappa_sq(self):
        return np.einsum("ij,ij->i", self.kappa, self.kappa)


# -- public constructors -----------------------------------------------------


def from_samples(points):
    """Build a :class:`ClosedCurve` from ordered point samples.

    The points are interpreted as uniform samples of *some* periodic
    parametrization; the curve they interpolate is reparametrized to
    arclength spectrally.  Degenerate or self-intersecting input is rejected.

    Parameters
    ----------
    points : array-like (M, n)
        Ordered samples, first point not repeated at the end.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValidationError("points must be an (M, n) array")
    if not np.all(np.isfinite(pts)):
        raise ValidationError("points must be finite")
    M, n = pts.shape
    if M < 16 or M % 2 != 0:
        raise ValidationError("need an even number of samples, at least 16")
    if n < 2:
        raise ValidationError("ambient dimension must be >= 2")
    scale = float(np.max(np.ptp(pts, axis=0)))
    if scale <= 0.0:
        raise ValidationError("all points coincide")
    seg = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
    if float(np.min(seg)) < 1.0e-12 * scale:
        raise ValidationError("consecutive samples coincide")

    # every pass differentiates M samples of period 1 on this oversampled
    # grid, so one cos/sin table serves them all
    tf = np.arange(_OVERSAMPLE * M) / (_OVERSAMPLE * M)
    table = Interpolant(pts, 1.0)._table(tf)
    uniform = pts
    for _ in range(4):
        uniform, L, dev = _arclength_pass(uniform, tf, table)
        if dev < 1.0e-12:
            break
    return ClosedCurve(uniform, L)


def _arclength_pass(pts, tf, table):
    """One spectral reparametrization sweep; returns (new_pts, L, speed_dev).

    ``table`` is the cos/sin table of M modes of period 1 at the oversampled
    grid ``tf``; it is read, not changed.

    The Newton solve for the arclength targets takes six steps, and runs
    each only on the rows that may still move; every output bit stays as six
    full steps give it.  That needs the rows of a product over a subset to
    equal the same rows of the full product, which holds for two rows or
    more but not for one (see the companion row below).  So a step maps
    equal inputs of a row to equal bits, and two cases end a row early:

    * a fixed point: the step returned the row's input.  Every later step
      repeats the same arithmetic, so the row keeps that value.
    * a 2-cycle: the step returned the value the row had one step before
      its input.  Then each later step swaps the two values, so with ``k``
      steps left the row ends on the step's result if ``k`` is even and on
      its input if ``k`` is odd.  The row takes that value at once.
    """
    M = pts.shape[0]
    interp = Interpolant(pts, 1.0)
    dv = interp._evaluate(tf, 1, False, table)[0]
    speed = np.linalg.norm(dv, axis=1)
    if float(np.min(speed)) <= 1.0e-12 * float(np.max(speed)):
        raise ValidationError("parametrization is degenerate (vanishing speed)")
    A, L = prefix_integral(speed, 1.0)
    L = float(L)
    dev = float(np.max(np.abs(speed - L))) / L
    targets = np.arange(M) * (L / M)
    sp_interp = Interpolant(speed, 1.0)
    # Newton solve A(t) = target, dA/dt = speed(t); A is strictly increasing
    t = np.interp(targets, np.concatenate([A, [L]]), np.concatenate([tf, [1.0]]))
    before = np.full(M, np.nan)  # each row's value one step before t
    rows = np.arange(M)
    for left in range(5, -1, -1):
        # numpy takes a one-row (1, K) @ (K, 1) product down its dot path,
        # whose bits can differ from that row of a larger product; a lone
        # row goes with a companion row, which has stopped, and the
        # companion's result is dropped (it may be a 2-cycle's other value)
        evaluated = rows if rows.size > 1 else np.array([rows[0], (rows[0] + 1) % M])
        t_eval = t[evaluated]
        speed_t, A_t = sp_interp.value_and_prefix(t_eval)
        step = (t_eval - (A_t - targets[evaluated]) / speed_t)[:rows.size]
        t_rows = t_eval[:rows.size]
        cycled = step == before[rows]
        before[rows] = t_rows
        t[rows] = step if left % 2 == 0 else np.where(cycled, t_rows, step)
        rows = rows[(step != t_rows) & ~cycled]
        if rows.size == 0:
            break
    t[0] = 0.0
    return interp(t), L, dev


def resampled(curve, M_new):
    """The same curve sampled on a finer/coarser uniform arclength grid."""
    if M_new < 16 or M_new % 2 != 0:
        raise ValidationError("sample count must be even and >= 16")
    interp = Interpolant(curve.positions, curve.L)
    s_new = np.arange(M_new) * (curve.L / M_new)
    return from_samples(interp(s_new))


def circle(M=256, radius=1.0, n=2):
    """Round circle in the first two coordinates of R^n."""
    if n < 2:
        raise ValidationError("ambient dimension must be >= 2")
    theta = 2.0 * np.pi * np.arange(M) / M
    pts = np.zeros((M, n))
    pts[:, 0] = radius * np.cos(theta)
    pts[:, 1] = radius * np.sin(theta)
    return ClosedCurve(pts, 2.0 * np.pi * radius)


def ellipse(a=2.0, b=1.0, M=256):
    """Arclength-parametrized ellipse with semi-axes a, b."""
    theta = 2.0 * np.pi * np.arange(4 * M) / (4 * M)
    pts = np.stack([a * np.cos(theta), b * np.sin(theta)], axis=1)
    fine = from_samples(pts)
    return resampled(fine, M)


# -- pair-level operations ---------------------------------------------------


def pair_frame(curve, i, j):
    """The one-pair :class:`PairSet` of the sample pair ``(s_i, s_j)``.

    ``ds`` is the representative of ``s_i - s_j`` in ``(-L/2, L/2]`` (the
    antipodal separation maps to ``+L/2``); ``D = |ds|`` is the intrinsic
    distance, ``dvec = f(s_i) - f(s_j)`` the chord vector and ``chord`` its
    length.
    """
    M = curve.M
    i = int(i) % M
    j = int(j) % M
    if i == j:
        raise ValidationError("pair_frame requires two distinct samples (diagonal pair)")
    return PairSet(curve, j, (i - j) % M)


def bilipschitz_constant(curve):
    """max over sample pairs of intrinsic distance / chord (>= 1).

    The supremum over distinct pairs is taken together with 1 (the diagonal
    limit for a unit-speed curve).  It is computed once, in the chord pass of
    the curve's construction.  Values above ``BILIPSCHITZ_CAP`` raise
    :class:`NumericalError`: the curve is too close to self-intersecting for
    the quadrature downstream to mean anything.
    """
    if curve._bilip > BILIPSCHITZ_CAP:
        raise NumericalError(
            "bi-Lipschitz constant %.3g exceeds cap %.1g" % (curve._bilip, BILIPSCHITZ_CAP)
        )
    return curve._bilip


# -- I/O ---------------------------------------------------------------------


def save_curve(curve, path):
    """Write a curve to JSON (``.json``) or CSV (anything else)."""
    path = str(path)
    if path.endswith(".json"):
        doc = {
            "dimension": curve.n,
            "points": [[float(x) for x in row] for row in curve.positions],
            "closed": True,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
            fh.write("\n")
    else:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            for row in curve.positions:
                w.writerow([repr(float(x)) for x in row])


def _float_array(data, what):
    try:
        return np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError("%s must be a numeric array: %s" % (what, exc))


def _read_rows(text, what):
    """Numeric table with one row per line; commas or blanks separate cells.

    Blank lines and lines starting with ``#`` are skipped.
    """
    rows = []
    for num, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            rows.append([float(tok) for tok in line.replace(",", " ").split()])
        except ValueError:
            raise ValidationError("%s line %d is not numeric: %.40r" % (what, num, line))
    return _float_array(rows, what + " rows")


def _read_samples(path, what, keys, missing):
    """``(array, doc)`` from a curve or field file, JSON or CSV.

    A file whose text starts with ``{`` is JSON: ``array`` is the entry of
    the first of ``keys`` it holds (``missing`` is the error message when it
    holds none) and ``doc`` the whole document.  Any other file is a table
    of rows (:func:`_read_rows`), and ``doc`` is ``{}``.  ``what`` names the
    file in error messages.
    """
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ValidationError("cannot read %s file %s: %s" % (what, path, exc))
    if not text.lstrip().startswith("{"):
        return _read_rows(text, what + " file"), {}
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError("malformed %s JSON: %s" % (what, exc))
    key = next((k for k in keys if k in doc), None)
    if key is None:
        raise ValidationError(missing)
    return _float_array(doc[key], "%s %s" % (what, key)), doc


def load_curve(path, M=None):
    """Read point samples from JSON or CSV and build a curve.

    JSON layout: ``{"dimension": n, "points": [[...], ...], "closed": true}``.
    CSV layout: one point per row.  If ``M`` is given the curve is resampled
    to that grid size.
    """
    path = str(path)
    pts, doc = _read_samples(path, "curve", ("points",),
                             "curve JSON must contain a 'points' array")
    if not doc.get("closed", True):
        raise ValidationError("only closed curves are supported")
    if "dimension" in doc and pts.ndim == 2 and pts.shape[1] != doc["dimension"]:
        raise ValidationError("curve JSON dimension does not match point data")
    crv = from_samples(pts)
    if M is not None and M != crv.M:
        crv = resampled(crv, M)
    return crv


# -- random instances (shared by tests and the CLI) --------------------------


def random_curve(seed, M=256, n=3, modes=5, amplitude=0.1):
    """Seeded random smooth perturbation of a circle, reparametrized.

    Mode-``m`` Fourier coefficients decay like ``2^-m`` so the result is a
    gentle, resolved loop; amplitude 0.1 keeps the bi-Lipschitz constant
    within a small factor of the circle's pi/2.  Draws whose perturbation is
    too rough for the requested grid are retried at half amplitude
    (deterministically), so every seed yields a valid curve.
    """
    rng = np.random.default_rng(seed)
    theta = 2.0 * np.pi * np.arange(M) / M
    base = np.zeros((M, n))
    base[:, 0] = np.cos(theta)
    base[:, 1] = np.sin(theta)
    bump = np.zeros((M, n))
    for c in range(n):
        for m in range(1, modes + 1):
            a, b = rng.normal(size=2) * amplitude * 0.5 ** (m - 1)
            if m == 1 and c < 2:
                continue  # skip in-plane mode 1 (near-rigid drift)
            bump[:, c] += a * np.cos(m * theta) + b * np.sin(m * theta)
    for attempt in range(4):
        try:
            return from_samples(base + 0.5**attempt * bump)
        except ValidationError:
            continue
    return from_samples(base)


def random_field(curve, seed, modes=6, amplitude=1.0):
    """Seeded random smooth vector field along a curve (trig polynomial).

    Needs ``0 <= 2 modes < M``: on the grid a higher mode folds onto a lower
    one.
    """
    if modes < 0 or 2 * modes >= curve.M:
        raise ValidationError(
            "random field needs 0 <= 2 modes < M (M = %d, modes = %d)" % (curve.M, modes)
        )
    rng = np.random.default_rng(seed)
    theta = 2.0 * np.pi * curve.s / curve.L
    vals = np.zeros((curve.M, curve.n))
    for c in range(curve.n):
        vals[:, c] += rng.normal() * amplitude * 0.5
        for m in range(1, modes + 1):
            a, b = rng.normal(size=2) * amplitude * 0.6 ** m
            vals[:, c] += a * np.cos(m * theta) + b * np.sin(m * theta)
    return Field(curve, vals)
