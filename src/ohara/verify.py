"""Independent oracles: diagonal extrapolation, FD derivatives of E, circle forms.

Everything here recomputes a quantity the main modules produce by an
unrelated route, so that agreement is evidence rather than tautology:

* :func:`diagonal_limit` evaluates a weighted kernel quantity along the
  collapsing symmetric path ``(s + h/2, s - h/2)`` with trigonometric
  interpolation between grid points, extrapolates in ``h^2``, and compares
  with the closed forms of the diagonal module.
* :func:`fd_energy_gradient` / :func:`fd_energy_hessian` differentiate the
  assembled energy through finite perturbations of the curve, each perturbed
  curve re-parametrized to arclength from scratch.
* :func:`circle_reference` is a curve-object-free 1-D formula for the circle
  density, stable down to tiny separations via series switching.
"""

from dataclasses import dataclass

import numpy as np

from ._pairs import OffGridPair
from .curve import Field, from_samples
from .diagonal import term_limits
from .errors import NumericalError, ValidationError
from .kernels import n_tau_checked
from .quadrature import energy
from .spectral import prefix_integral
from .variations import Blocks

__all__ = [
    "LimitReport",
    "LIMIT_KINDS",
    "circle_reference",
    "cusp_field",
    "diagonal_limit",
    "fd_energy_gradient",
    "fd_energy_hessian",
    "neville_h2",
]

#: number of path levels L / 16 / 2^k used by the diagonal extrapolation
_LEVELS = 6


@dataclass
class LimitReport:
    """Extrapolation record for one diagonal limit at one target point."""

    which: str
    s: float
    samples: list  # [(|ds|, weighted value), ...], |ds| geometrically decreasing
    extrapolated: float
    reference: float
    gap_abs: float
    gap_rel: float  # None when the reference is exactly zero

    def as_dict(self):
        return {
            "which": self.which,
            "s": self.s,
            "samples": [[d, v] for d, v in self.samples],
            "extrapolated": self.extrapolated,
            "reference": self.reference,
            "gap": {"abs": self.gap_abs, "rel": self.gap_rel},
        }


def neville_h2(hs, vals):
    """Richardson/Neville extrapolation to h = 0 assuming an h^2 expansion."""
    x = np.asarray(hs, dtype=float) ** 2
    t = [float(v) for v in vals]
    if len(t) < 4:
        raise ValidationError("extrapolation needs at least 4 values")
    for lev in range(1, len(t)):
        t = [
            (x[i + lev] * t[i] - x[i] * t[i + 1]) / (x[i + lev] - x[i])
            for i in range(len(t) - 1)
        ]
    return t[0]


def _h_raw(b):
    terms, flagged = b.h_terms()
    if bool(np.any(flagged)):
        raise NumericalError("H2 singular along the diagonal path")
    return sum(terms.values())


_PHI, _PSI = ("phi",), ("phi", "psi")

# kind -> (weight, fields needed, raw value on a Blocks).  The weight says
# how the raw quantity is scaled before taking the limit:
#   n     -> D^(alpha - 2 beta) X / |df|^alpha
#   m     -> D^(alpha - 2 beta) X          (X already carries 1/|df|^alpha)
#   gh    -> D^((alpha - 2 beta) p) X  (params.weight_exponent)
#   plain -> X
_KINDS = {
    "m_alpha": ("m", (), lambda b: b.malpha()),
    "density": ("gh", (), lambda b: b.malpha() ** b.params.p),
    "n_tau": ("n", (), lambda b: b.ntt()),
    "chord_ratio": ("plain", _PHI, lambda b: 2.0 * b.kf("phi")),
    "k_ratio": ("plain", _PSI, lambda b: 2.0 * b.kpq()),
    "r1": ("n", _PHI, lambda b: b.dn_terms("phi")["R1"]),
    "r2": ("n", _PHI, lambda b: b.dn_terms("phi")["R2"]),
    "delta_n": ("n", _PHI, lambda b: b.dn("phi")),
    "s1": ("n", _PSI, lambda b: b.d2n_terms()["S1"]),
    "s2": ("n", _PSI, lambda b: b.d2n_terms()["S2"]),
    "s3": ("n", _PSI, lambda b: b.d2n_terms()["S3"]),
    "s4": ("n", _PSI, lambda b: b.d2n_terms()["S4"]),
    "s5": ("n", _PSI, lambda b: b.d2n_terms()["S5"]),
    "delta2_n": ("n", _PSI, lambda b: sum(b.d2n_terms().values())),
    "delta_m": ("m", _PHI, lambda b: b.dm("phi")),
    "delta2_m": ("m", _PSI, lambda b: b.d2m()),
    "g": ("gh", _PHI, lambda b: sum(b.g_terms("phi").values())),
    "h": ("gh", _PSI, _h_raw),
}

#: limit kind -> weight (see the table above)
LIMIT_KINDS = {which: row[0] for which, row in _KINDS.items()}


def diagonal_limit(curve, phi, psi, params, s, which):
    """Extrapolate a weighted kernel quantity along ``(s + h/2, s - h/2)``.

    The path levels are ``h = L / 16 / 2^k`` for ``k < _LEVELS``.

    ``which`` selects the quantity (see :data:`LIMIT_KINDS`).  Kinds of
    the first variation need ``phi``, kinds of the second need ``phi`` and
    ``psi``; a missing field raises :class:`ValidationError`.  The weight
    exponent follows ``params.beta``.  The reference value is the entry of
    :func:`~ohara.diagonal.term_limits` at ``s``; for ``beta < 1`` it is 0
    for every weighted kind — the weighted fields vanish on the diagonal in
    that branch, so the report's absolute gap is the decayed value itself
    (``gap_rel`` is None there).  ``s`` must be a grid point of the curve.
    """
    if which not in _KINDS:
        raise ValidationError("unknown limit kind %r" % (which,))
    kind, needs, raw_value = _KINDS[which]
    if phi is None and needs:
        raise ValidationError("%s needs a phi field" % which)
    if psi is None and "psi" in needs:
        raise ValidationError("%s needs phi and psi fields" % which)
    idx = int(round(s / curve.h)) % curve.M
    if abs(s - round(s / curve.h) * curve.h) > 1.0e-9 * curve.L:
        raise ValidationError("s must be a grid point")

    hs = curve.L / 16.0 / 2.0 ** np.arange(_LEVELS)
    ev = OffGridPair(curve, s + hs / 2.0, s - hs / 2.0)
    b = Blocks(ev, params=params, phi=phi, psi=psi)
    n_tau_checked(b.ntt_raw())

    alpha, beta = params.alpha, params.beta
    raw = np.asarray(raw_value(b), dtype=float)
    if kind == "n":
        weighted = ev.D ** (alpha - 2.0 * beta) * raw / b.calpha()
    elif kind == "m":
        weighted = ev.D ** (alpha - 2.0 * beta) * raw
    elif kind == "gh":
        weighted = ev.D ** params.weight_exponent * raw
    else:
        weighted = raw

    extrap = neville_h2(hs, weighted)
    if beta < 1.0 and kind != "plain":
        ref = 0.0
    else:
        ref = float(term_limits(curve, params, phi=phi, psi=psi)[which][idx])
    gap_abs = abs(extrap - ref)
    gap_rel = gap_abs / abs(ref) if ref != 0.0 else None
    return LimitReport(
        which=which,
        s=float(s),
        samples=list(zip((float(x) for x in hs), (float(v) for v in weighted))),
        extrapolated=float(extrap),
        reference=float(ref),
        gap_abs=float(gap_abs),
        gap_rel=gap_rel,
    )


def _perturbed_energy(curve, values, eps, params):
    try:
        cv = from_samples(curve.positions + eps * values)
    except ValidationError as exc:
        raise ValidationError(
            "perturbed curve at eps=%g rejected: %s" % (eps, exc)
        ) from exc
    return energy(cv, params)


def fd_energy_gradient(curve, phi, params, eps=None):
    """Central finite differences of ``eps -> E(f + eps phi)`` at 0.

    Returns ``(fd_value, richardson_value)``: the plain central quotient at
    ``eps`` and the Richardson combination of the quotients at ``eps`` and
    ``eps/2`` (one order higher).  Each perturbed curve goes through the full
    arclength reparametrization, so this is a geometric derivative oracle,
    independent of the variation formulas.
    """
    if phi.values.ndim != 2:
        raise ValidationError("perturbation field must be a vector field")
    if eps is None:
        eps = 1.0e-5 * curve.L / max(phi.sup_norm(), 1.0e-12)
    vals = phi.values

    def central(e):
        return (
            _perturbed_energy(curve, vals, +e, params)
            - _perturbed_energy(curve, vals, -e, params)
        ) / (2.0 * e)

    d1 = central(eps)
    d2 = central(eps / 2.0)
    return d1, (4.0 * d2 - d1) / 3.0


def fd_energy_hessian(curve, phi, psi, params):
    """Mixed central difference of ``E(f + e1 phi + e2 psi)`` at the origin.

    Uses the four-corner quotient on the 3x3 stencil at ``eps = 3e-4 L /
    max(sup |phi|, sup |psi|)`` and again at ``eps/2``, returning the
    Richardson combination.
    """
    if phi.values.ndim != 2 or psi.values.ndim != 2:
        raise ValidationError("perturbation fields must be vector fields")
    sup = max(phi.sup_norm(), psi.sup_norm(), 1.0e-12)
    eps = 3.0e-4 * curve.L / sup
    vp = phi.values
    vq = psi.values

    def corner(e):
        epp = _perturbed_energy(curve, vp + vq, e, params)
        emm = _perturbed_energy(curve, vp + vq, -e, params)
        epm = _perturbed_energy(curve, vp - vq, e, params)
        emp = _perturbed_energy(curve, vp - vq, -e, params)
        return (epp - epm - emp + emm) / (4.0 * e * e)

    d1 = corner(eps)
    d2 = corner(eps / 2.0)
    return (4.0 * d2 - d1) / 3.0


def circle_reference(alpha, p, ds_list):
    """Closed-form unit-circle density table, no curve object involved.

    For intrinsic separation ``ds`` in (0, pi] the chord is ``2 sin(ds/2)``
    and the density is ``c^(-alpha p) [1 - (c/ds)^alpha]^p``.  Below
    ``ds ~ 0.15`` the bracket is evaluated from the series of
    ``(c/ds)^2 - 1`` to keep full relative accuracy through the
    cancellation.  Rows carry the weighted value ``ds^((alpha-2)p) *
    density``, whose limit is ``(alpha/24)^p``.
    """
    ds = np.asarray(ds_list, dtype=float)
    if np.any(ds <= 0.0) or np.any(ds > np.pi):
        raise ValidationError("ds values must lie in (0, pi]")
    chord = 2.0 * np.sin(ds / 2.0)
    # log r, r = (chord/ds)^2, via series for small ds
    r1_series = (
        -(ds**2) / 12.0
        + ds**4 / 360.0
        - ds**6 / 20160.0
        + ds**8 / 1814400.0
    )
    logr = np.where(
        ds < 0.15,
        np.log1p(r1_series),
        2.0 * np.log(np.sinc(ds / (2.0 * np.pi))),
    )
    bracket = -np.expm1((alpha / 2.0) * logr)
    density = chord ** (-alpha * p) * bracket**p
    weighted = ds ** ((alpha - 2.0) * p) * density
    rows = [
        {"ds": float(d), "chord": float(c), "density": float(m), "weighted": float(w)}
        for d, c, m, w in zip(ds, chord, density, weighted)
    ]
    return {"alpha": alpha, "p": p, "limit": (alpha / 24.0) ** p, "rows": rows}


def cusp_field(curve, beta, s0=0.0, scale=None):
    """Vector field whose derivative has an ``|s - s0|^beta`` cusp.

    The derivative profile is ``(d(s)^2 + scale^2)^(beta/2)`` (``d`` the
    short-arc distance to ``s0``), mean-removed and integrated into a
    periodic primitive along the first coordinate axis.  The field is thus
    C^1 with a derivative that is genuinely Hölder-beta down to ``scale``
    (default: one grid cell) — the regularity class of the beta < 1 branch.
    Its derivative's Hölder-beta modulus does not decay at fine scales, as
    that of a smooth field does.
    """
    if not 0.0 < beta <= 1.0:
        raise ValidationError("beta must lie in (0, 1]")
    if scale is None:
        scale = curve.h
    L = curve.L
    d = np.abs((curve.s - s0 + L / 2.0) % L - L / 2.0)
    g = (d**2 + scale**2) ** (beta / 2.0)
    g -= g.mean()
    prim, _ = prefix_integral(g, L)
    vals = np.zeros((curve.M, curve.n))
    vals[:, 0] = prim
    return Field(curve, vals)
