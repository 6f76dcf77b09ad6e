"""Function-space seminorms on periodic fields: Gagliardo, Hölder, products.

The Gagliardo and Hölder seminorms read the offset grid of
``|u(s_{j+k}) - u(s_j)|`` (``_pairs.offset_sq_diffs``) on the row chunks of
``_pairs.map_chunks``, never as a whole ``(M, M)`` grid, and give the same
bits whatever the chunking.

The Gagliardo double integral reduces each chunk to the quadrature module's
``_Rows`` and assembles them like the energy.  Cells with |Δs| below 2L/M
are handled with the analytic bound ``|Δu| <= sup|u'| |Δs|``, which turns
the cell integrand into ``|Δs|^(q-1-σq)`` and is integrated in closed form
(σ < 1 keeps it integrable); everything else is a plain midpoint sum with
the usual corner and cut corrections.

Hölder-type quantities are suprema over grid pairs, the maximum of the
chunk maxima; the near-diagonal part (separations under one cell, which the
grid cannot see) is refined with the derivative bound
``sup|u'| * min(R, h)^(1-β)``.
"""

from dataclasses import dataclass, field as dc_field

import numpy as np

from ._pairs import map_chunks, offset_sq_diffs
from .errors import ValidationError
from .quadrature import _integrate, _Rows
from .spectral import short_arc_offsets

__all__ = [
    "SeminormReport",
    "gagliardo_seminorm",
    "holder_seminorm",
    "little_holder_flag",
    "local_modulus",
    "lq_norm",
    "product_seminorm_check",
    "sobolev_linf_norm",
    "sup_norm",
]

#: local modulus below this fraction of the full seminorm at R = 8L/M flags
#: a field as little-Hölder at the working resolution
LITTLE_HOLDER_TOL = 0.5

_GAGLIARDO_BAND = 1


@dataclass
class SeminormReport:
    """A computed seminorm value with the parameters that define it."""

    value: float
    kind: str
    M: int
    parameters: dict = dc_field(default_factory=dict)

    def as_dict(self):
        out = {"value": self.value, "kind": self.kind, "M": self.M}
        out.update(self.parameters)
        return out


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


def gagliardo_seminorm(u, sigma, q, report=False):
    """Fractional seminorm [u]_{W^{σ,q}} of a field on its curve.

    The q-th power is the double integral of ``|Δu|^q / |Δs|^(1+σq)`` over
    the pair torus with short-arc separations.
    """
    if not 0.0 < sigma < 1.0:
        raise ValidationError("sigma must lie in (0, 1)")
    if q < 1:
        raise ValidationError("q must be >= 1")
    curve = u.curve
    M = curve.M
    offs = np.abs(short_arc_offsets(M, curve.L))
    # offset 0 lies in the band, which the assembler does not read
    denom = np.where(offs > 0.0, offs, 1.0) ** (1.0 + sigma * q)
    band = _GAGLIARDO_BAND

    def reduce(j0, j1):
        return _Rows.of(np.sqrt(offset_sq_diffs(u.values, j0, j1))**q / denom, band)

    with np.errstate(divide="ignore", invalid="ignore"):
        rows = _Rows.concat(map_chunks(reduce, M))
    expo = q - 1.0 - sigma * q
    bound = _deriv_sup(u) ** q
    pieces = _bound_band_pieces(rows.cols, curve, band, bound, expo)
    total, _ = _integrate(rows, curve, band, pieces)
    value = float(max(total, 0.0) ** (1.0 / q))
    if report:
        return SeminormReport(
            value, "gagliardo", M, {"sigma": sigma, "q": q}
        )
    return value


def local_modulus(u, beta, R, report=False):
    """Restricted Hölder modulus: sup of |Δu| / |Δs|^β over 0 < |Δs| <= R.

    Separations under one grid cell are invisible to the sample pairs; they
    are covered by the derivative bound ``sup|u'| min(R, h)^(1-β)``, which
    also supplies the diagonal limit for β = 1.
    """
    if not 0.0 < beta <= 1.0:
        raise ValidationError("beta must lie in (0, 1]")
    curve = u.curve
    if not 0.0 < R <= curve.L / 2.0:
        raise ValidationError("R must lie in (0, L/2]")
    offs = np.abs(short_arc_offsets(curve.M, curve.L))
    sel = (offs > 0.0) & (offs <= R)
    value = 0.0
    if np.any(sel):
        scale = offs[sel] ** beta
        value = float(np.max(map_chunks(lambda j0, j1: np.max(
            np.sqrt(offset_sq_diffs(u.values, j0, j1)[:, sel]) / scale), curve.M)))
    near = _deriv_sup(u) * min(R, curve.h) ** (1.0 - beta)
    value = max(value, near)
    if report:
        return SeminormReport(
            value, "local-holder", curve.M, {"beta": beta, "R": R}
        )
    return value


def holder_seminorm(u, beta, report=False):
    """Hölder seminorm [u]_{C^{0,β}}: the local modulus over all pairs."""
    out = local_modulus(u, beta, u.curve.L / 2.0, report=report)
    if report:
        out.kind = "holder"
        del out.parameters["R"]
    return out


def little_holder_flag(u, beta, tol=LITTLE_HOLDER_TOL):
    """Whether u looks little-Hölder at this resolution.

    True when the local modulus at R = 8L/M has already decayed below
    ``tol`` times the full seminorm.  A resolution-limited proxy: smooth
    fields flag True for β < 1, genuinely C^{0,β}-rough ones do not.
    """
    curve = u.curve
    R = 8.0 * curve.L / curve.M
    full = holder_seminorm(u, beta)
    if full == 0.0:
        return True
    return bool(local_modulus(u, beta, R) < tol * full)


def sobolev_linf_norm(u, sigma, q, report=False):
    """The combined norm max(‖u‖_{W^{σ,q}}, ‖u‖_∞).

    The Sobolev part is ``(‖u‖_q^q + [u]_{W^{σ,q}}^q)^(1/q)``.
    """
    gag = gagliardo_seminorm(u, sigma, q)
    lq = lq_norm(u, q)
    value = max((lq**q + gag**q) ** (1.0 / q), sup_norm(u))
    if report:
        return SeminormReport(
            value, "sobolev-linf", u.curve.M, {"sigma": sigma, "q": q}
        )
    return value


def product_seminorm_check(curve, phi, beta=1.0, sigma=0.5, q=2.0):
    """Product estimates for the scalar field tau . phi'.

    Hölder side: [tau.phi']_{C^{0,β}} <= ‖tau‖_∞ [phi']_{C^{0,β}}
    + [tau]_{C^{0,β}} ‖phi'‖_∞ with constant exactly 1; the margin
    (rhs - lhs) is reported and must be nonnegative up to roundoff.

    Gagliardo side: same shape with a fitted constant lhs/rhs (no exact
    constant is available), reported for stability monitoring.
    """
    tau = curve.tau_field
    dphi = phi.deriv
    w = tau.dot(dphi)

    lhs = holder_seminorm(w, beta)
    rhs = sup_norm(tau) * holder_seminorm(dphi, beta) + holder_seminorm(
        tau, beta
    ) * sup_norm(dphi)
    scale = max(rhs, 1e-300)

    gag_lhs = gagliardo_seminorm(w, sigma, q)
    gag_rhs = sup_norm(tau) * gagliardo_seminorm(dphi, sigma, q) + gagliardo_seminorm(
        tau, sigma, q
    ) * sup_norm(dphi)

    return {
        "beta": beta,
        "holder_lhs": lhs,
        "holder_rhs": rhs,
        "margin": (rhs - lhs) / scale,
        "sigma": sigma,
        "q": q,
        "gagliardo_lhs": gag_lhs,
        "gagliardo_rhs": gag_rhs,
        "fitted_constant": gag_lhs / max(gag_rhs, 1e-300),
    }
