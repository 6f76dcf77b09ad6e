"""Function-space seminorms on periodic fields: Gagliardo, Hölder, products.

Every seminorm of a field reads the offset grid of
``|u(s_{j+k}) - u(s_j)|`` in one pass over the row chunks of
``_pairs.map_chunks``, each chunk the grid pairs of a ``_pairs.PairSet``
read off the field's kept tables (``PairSet.sq_diff``), never as a whole
grid.  The grid is swap symmetric bit for bit, ``|Δu|`` and ``|Δs|``
alike, so the pass reads only its half, the columns ``k = 0..M/2``:
``_one_pass`` hands each chunk to one reducer per seminorm, so
:func:`seminorms` gives the Gagliardo, Hölder and Sobolev-L^∞ values of a
field from a single pass, with the same bits as the one-seminorm functions
and whatever the chunking.

The Gagliardo double integral reduces each chunk of the half grid to the
quadrature module's ``_Rows``, which weights each half column by the
whole-grid columns it stands for, and assembles them like the energy.
Cells with |Δs| below 2L/M are handled with the analytic bound
``|Δu| <= sup|u'| |Δs|``, which turns the cell integrand into
``|Δs|^(q-1-σq)`` and is integrated in closed form (σ < 1 keeps it
integrable); everything else is a plain midpoint sum with the usual corner
and cut corrections.

Hölder-type quantities are suprema over grid pairs, the maximum of the
chunk maxima over the half columns, which is the maximum over the whole
grid; the near-diagonal part (separations under one cell, which the grid
cannot see) is refined with the derivative bound
``sup|u'| * min(R, h)^(1-β)``.
"""

import numpy as np

from ._pairs import PairSet, map_chunks
from .errors import ValidationError
from .quadrature import _half_width, _integrate, _Rows
from .spectral import short_arc_offsets

__all__ = [
    "gagliardo_seminorm",
    "holder_seminorm",
    "local_modulus",
    "lq_norm",
    "product_seminorm_check",
    "seminorms",
    "sobolev_linf_norm",
    "sup_norm",
]

#: the fixed (β, σ, q) of :func:`product_seminorm_check`
PRODUCT_BETA, PRODUCT_SIGMA, PRODUCT_Q = 1.0, 0.5, 2.0

_GAGLIARDO_BAND = 1


def _deriv_sup(u):
    return float(u.deriv.sup_norm())


def sup_norm(u):
    """sup over the grid of the pointwise (Euclidean) field norm."""
    return float(u.sup_norm())


def lq_norm(u, q):
    """L^q norm of the field over one period (midpoint rule in arclength)."""
    if q < 1:
        raise ValidationError("q must be >= 1")
    vals = u.values if u.values.ndim == 2 else u.values[:, None]
    mags = np.sqrt(np.einsum("ij,ij->i", vals, vals))
    return float((u.curve.h * np.sum(mags**q)) ** (1.0 / q))


def _bound_band_pieces(cols, curve, band, bound, expo):
    """Gagliardo band model for :func:`~ohara.quadrature._integrate`.

    ``bound * |u|^expo`` dominates the integrand inside the band (the bound
    comes from sup |u'|), so the band integral is its closed form; the cut
    corrections fall back to one-sided sample differences and carry no h^4
    term.  ``cols`` maps a column index to that column of the grid
    (``_Rows.cols``).
    """
    M, h = curve.M, curve.h
    b = band
    d1p = (-2.0 * cols[b + 1] + 3.0 * cols[b + 2] - cols[b + 3]) / h
    d1m = (2.0 * cols[M - b - 1] - 3.0 * cols[M - b - 2] + cols[M - b - 3]) / h
    cut_em2 = (h ** 2 / 24.0) * (d1m - d1p)
    c1 = (band + 0.5) * h
    band_int = np.full(M, bound * 2.0 * c1 ** (expo + 1.0) / (expo + 1.0))
    return band_int, cut_em2, np.zeros(M)


def _gagliardo(u, sigma, q):
    """Reducer of the Gagliardo seminorm [u]_{W^{σ,q}} for :func:`_one_pass`."""
    if not 0.0 < sigma < 1.0:
        raise ValidationError("sigma must lie in (0, 1)")
    if q < 1:
        raise ValidationError("q must be >= 1")
    curve = u.curve
    offs = np.abs(short_arc_offsets(curve.M, curve.L))[:_half_width(curve.M)]
    # offset 0 lies in the band, which the assembler does not read
    denom = np.where(offs > 0.0, offs, 1.0) ** (1.0 + sigma * q)
    band = _GAGLIARDO_BAND

    def finish(chunks):
        rows = _Rows.concat(chunks)
        bound = _deriv_sup(u) ** q
        pieces = _bound_band_pieces(rows.cols, curve, band, bound, q - 1.0 - sigma * q)
        total, _ = _integrate(rows, curve, band, pieces)
        return float(max(total, 0.0) ** (1.0 / q))

    return (lambda d: _Rows.of(d**q / denom, band)), finish


def _modulus(u, beta, R):
    """Reducer of the local modulus (see :func:`local_modulus`) for :func:`_one_pass`."""
    if not 0.0 < beta <= 1.0:
        raise ValidationError("beta must lie in (0, 1]")
    curve = u.curve
    if not 0.0 < R <= curve.L / 2.0:
        raise ValidationError("R must lie in (0, L/2]")
    offs = np.abs(short_arc_offsets(curve.M, curve.L))[:_half_width(curve.M)]
    sel = (offs > 0.0) & (offs <= R)
    scale = offs[sel] ** beta
    near = _deriv_sup(u) * min(R, curve.h) ** (1.0 - beta)
    # |Δu| >= 0, so the initial 0 changes no maximum; it covers R < h
    return (lambda d: np.max(d[:, sel] / scale, initial=0.0)), (
        lambda chunks: max(float(np.max(chunks)), near)
    )


def _one_pass(u, *reducers):
    """Every seminorm of ``reducers`` from one row-chunk pass over ``|Δu|``.

    A reducer is a pair ``(chunk, finish)``: ``chunk(d)`` reduces rows ``d``
    of the half ``|u(s_{j+k}) - u(s_j)|`` grid, columns ``k = 0..M/2``,
    and ``finish`` takes the list of its chunk results, in row order, to
    the seminorm's value.
    """

    w = _half_width(u.curve.M)

    def chunk(j0, j1):
        d = np.sqrt(PairSet(u.curve, slice(j0, j1), slice(w)).sq_diff(u))
        return [reduce(d) for reduce, _ in reducers]

    with np.errstate(divide="ignore", invalid="ignore"):
        parts = map_chunks(chunk, u.curve.M, w)
    return [finish(list(res)) for (_, finish), res in zip(reducers, zip(*parts))]


def _sobolev_linf(u, gag, q):
    return max((lq_norm(u, q) ** q + gag**q) ** (1.0 / q), sup_norm(u))


def gagliardo_seminorm(u, sigma, q):
    """Fractional seminorm [u]_{W^{σ,q}} of a field on its curve.

    The q-th power is the double integral of ``|Δu|^q / |Δs|^(1+σq)`` over
    the pair torus with short-arc separations.
    """
    return _one_pass(u, _gagliardo(u, sigma, q))[0]


def local_modulus(u, beta, R):
    """Restricted Hölder modulus: sup of |Δu| / |Δs|^β over 0 < |Δs| <= R.

    Separations under one grid cell are invisible to the sample pairs; they
    are covered by the derivative bound ``sup|u'| min(R, h)^(1-β)``, which
    also supplies the diagonal limit for β = 1.
    """
    return _one_pass(u, _modulus(u, beta, R))[0]


def holder_seminorm(u, beta):
    """Hölder seminorm [u]_{C^{0,β}}: the local modulus over all pairs."""
    return local_modulus(u, beta, u.curve.L / 2.0)


def sobolev_linf_norm(u, sigma, q):
    """The combined norm max(‖u‖_{W^{σ,q}}, ‖u‖_∞).

    The Sobolev part is ``(‖u‖_q^q + [u]_{W^{σ,q}}^q)^(1/q)``.
    """
    return _sobolev_linf(u, gagliardo_seminorm(u, sigma, q), q)


def seminorms(u, sigma, q, beta):
    """``gagliardo``, ``holder`` and ``sobolev_linf`` of u from one pass.

    Each value equals that of :func:`gagliardo_seminorm`,
    :func:`holder_seminorm` and :func:`sobolev_linf_norm`, bit for bit.
    """
    gag, holder = _one_pass(
        u, _gagliardo(u, sigma, q), _modulus(u, beta, u.curve.L / 2.0)
    )
    return {"gagliardo": gag, "holder": holder, "sobolev_linf": _sobolev_linf(u, gag, q)}


def product_seminorm_check(curve, phi, known=None):
    """Product estimates for the scalar field tau . phi'.

    The parameters are fixed, (β, σ, q) = (``PRODUCT_BETA``,
    ``PRODUCT_SIGMA``, ``PRODUCT_Q``) = (1, 1/2, 2), and reported in the
    output: ``ohara norms`` prints its ``product_check`` at these values
    whatever ``--alpha``, ``--p`` and ``--beta`` say.  ``known`` maps a
    triple ``(σ, q, β)`` to the :func:`seminorms` reports ``(of tau, of
    phi')`` that the caller already has; at the fixed triple they are used
    as they are, not computed again.

    Hölder side: [tau.phi']_{C^{0,β}} <= ‖tau‖_∞ [phi']_{C^{0,β}}
    + [tau]_{C^{0,β}} ‖phi'‖_∞ with constant exactly 1; the margin
    (rhs - lhs) is reported and must be nonnegative up to roundoff.

    Gagliardo side: same shape with a fitted constant lhs/rhs (no exact
    constant is available), reported for stability monitoring.
    """
    tau = curve.tau_field
    dphi = phi.deriv
    triple = (PRODUCT_SIGMA, PRODUCT_Q, PRODUCT_BETA)
    given = (known or {}).get(triple)
    of_tau, of_dphi = given or [seminorms(f, *triple) for f in (tau, dphi)]
    of_w = seminorms(tau.dot(dphi), *triple)
    lhs = of_w["holder"]
    rhs = sup_norm(tau) * of_dphi["holder"] + of_tau["holder"] * sup_norm(dphi)
    scale = max(rhs, 1e-300)

    gag_lhs = of_w["gagliardo"]
    gag_rhs = sup_norm(tau) * of_dphi["gagliardo"] + of_tau["gagliardo"] * sup_norm(dphi)

    return {
        "beta": PRODUCT_BETA,
        "holder_lhs": lhs,
        "holder_rhs": rhs,
        "margin": (rhs - lhs) / scale,
        "sigma": PRODUCT_SIGMA,
        "q": PRODUCT_Q,
        "gagliardo_lhs": gag_lhs,
        "gagliardo_rhs": gag_rhs,
        "fitted_constant": gag_lhs / max(gag_rhs, 1e-300),
    }
