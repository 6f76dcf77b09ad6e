"""Closed-form diagonal limits of the weighted kernels and variations.

For a smooth arclength curve, each kernel quantity X from the variation
machinery has a finite limit of ``D^(alpha-2) X / |df|^alpha``-type weighted
combinations as the pair collapses to a point s.  These limits are smooth
functions of s built from the tangent, the curvature, and the test fields'
derivatives; this module evaluates them per grid sample.

They serve two purposes: as the continuous diagonal extension anchoring the
band model of the quadrature (the weighted integrand is interpolated through
its diagonal value), and as reference values for the extrapolation checks in
the verify module.  The basic limits are

    K(u, v)                          ->  u'(s) . v'(s)
    D^(alpha-2) N(u, v) / |df|^alpha ->  u'(s) . v'(s) / 12
    D^(alpha-2) M_alpha              ->  (alpha/24) |kappa(s)|^2

and everything else follows by composing the term formulas with these,
using d/ds (tau . phi') = kappa . phi' + tau . phi''.
"""

import numpy as np

from .errors import ValidationError

__all__ = [
    "m_limit",
    "density_limit",
    "g_limit",
    "g_limit_weights",
    "h_limit",
    "term_limits",
]


def _dots(curve, phi, psi):
    """Per-sample contractions used by the limit formulas."""
    tau, kap = curve.tau, curve.kappa
    out = {"k2": np.einsum("ij,ij->i", kap, kap)}
    if phi is not None:
        dp = phi.deriv.values
        ddp = phi.deriv.deriv.values
        out["tp"] = np.einsum("ij,ij->i", tau, dp)
        out["kp"] = np.einsum("ij,ij->i", kap, dp)
        out["kpp"] = np.einsum("ij,ij->i", kap, ddp)
        out["tpp"] = np.einsum("ij,ij->i", tau, ddp)
        out["dp"] = dp
        out["ddp"] = ddp
    if psi is not None:
        dq = psi.deriv.values
        ddq = psi.deriv.deriv.values
        out["tq"] = np.einsum("ij,ij->i", tau, dq)
        out["kq"] = np.einsum("ij,ij->i", kap, dq)
        out["kqq"] = np.einsum("ij,ij->i", kap, ddq)
        out["tqq"] = np.einsum("ij,ij->i", tau, ddq)
        out["dq"] = dq
        out["ddq"] = ddq
    if phi is not None and psi is not None:
        out["pq"] = np.einsum("ij,ij->i", out["dp"], out["dq"])
        out["ppqq"] = np.einsum("ij,ij->i", out["ddp"], out["ddq"])
    return out


def m_limit(curve, params):
    """Limit of ``D^(alpha-2) M_alpha`` at each sample: (alpha/24)|kappa|^2."""
    return (params.alpha / 24.0) * curve.kappa_sq()


def density_limit(curve, params, beta=None):
    """Limit of the beta-weighted density ``D^((alpha-2 beta) p) M_alpha^p``.

    For beta = 1 this is ``((alpha/24)|kappa|^2)^p``; for beta < 1 the weight
    overcompensates and the limit vanishes identically.
    """
    if beta is None:
        beta = params.beta
    if not (0.0 < beta <= 1.0):
        raise ValidationError("beta must lie in (0, 1]")
    if beta < 1.0:
        return np.zeros(curve.M)
    return m_limit(curve, params) ** params.p


def term_limits(curve, params, phi=None, psi=None):
    """Closed forms of the weighted diagonal limits, per grid sample.

    Returns a dict keyed like the variation terms.  All N-type entries are
    limits of ``D^(alpha-2) X / |df|^alpha`` (X the unnormalized term), the
    chord-ratio entries are plain limits, and ``g``/``h`` are limits of
    ``D^((alpha-2)p) G`` and ``D^((alpha-2)p) H``.
    """
    d = _dots(curve, phi, psi)
    k2 = d["k2"]
    alpha = params.alpha if params is not None else None
    out = {"n_tau": k2 / 12.0}
    if phi is not None:
        tp, kpp = d["tp"], d["kpp"]
        out["chord_ratio"] = 2.0 * tp
        out["r1"] = -tp * k2 / 6.0
        out["r2"] = kpp / 6.0
        out["delta_n"] = out["r1"] + out["r2"]
    if phi is not None and psi is not None:
        tq, kqq, pq = d["tq"], d["kqq"], d["pq"]
        dnp = out["delta_n"]
        dnq = -tq * k2 / 6.0 + kqq / 6.0
        out["k_ratio"] = 2.0 * pq
        out["n"] = pq / 12.0
        out["s1"] = -(pq - 2.0 * d["tp"] * tq) * k2 / 6.0
        out["s2"] = -d["tp"] * dnq - tq * dnp
        out["s3"] = -tq * d["kpp"] / 6.0 - d["tp"] * kqq / 6.0
        out["s4"] = d["ppqq"] / 6.0
        # (tau.phi')' = kappa.phi' + tau.phi''
        gp = d["kp"] + d["tpp"]
        gq = d["kq"] + d["tqq"]
        out["s5"] = -gp * gq / 6.0
        out["delta2_n"] = out["s1"] + out["s2"] + out["s3"] + out["s4"] + out["s5"]
    if params is not None:
        m0 = m_limit(curve, params)
        out["m_alpha"] = m0
        if phi is not None:
            out["delta_m"] = (alpha / 2.0) * out["delta_n"] - alpha * m0 * d["tp"]
        if phi is not None and psi is not None:
            dmq = (alpha / 2.0) * dnq - alpha * m0 * d["tq"]
            q1 = (alpha / 2.0) * out["delta2_n"]
            q2 = -(alpha ** 2 / 2.0) * out["delta_n"] * d["tq"]
            # Q3 carries an extra factor D^2 -> vanishes in the limit
            q4 = -alpha * dmq * d["tp"]
            q5 = -alpha * m0 * d["pq"]
            q6 = 2.0 * alpha * m0 * d["tp"] * d["tq"]
            out["delta2_m"] = q1 + q2 + q4 + q5 + q6
            out["_dm_psi"] = dmq
    return out


def g_limit(curve, params, phi):
    """Limit of ``D^((alpha-2)p) G[phi]`` at each sample."""
    t = term_limits(curve, params, phi=phi)
    m0 = t["m_alpha"]
    p = params.p
    d = _dots(curve, phi, None)
    mp1 = m0 ** (p - 1.0) if p != 1.0 else np.ones_like(m0)
    return p * mp1 * t["delta_m"] + m0 * mp1 * 2.0 * d["tp"]


def g_limit_weights(curve, params):
    """``(a, b)`` with ``g_limit(phi) = a (tau . phi') + b (kappa . phi'')``.

    :func:`g_limit` is linear in the field through these two contractions;
    these are its per-sample coefficients.
    """
    m0 = m_limit(curve, params)
    p, alpha = params.p, params.alpha
    mp1 = m0 ** (p - 1.0) if p != 1.0 else np.ones_like(m0)
    # delta_m = (alpha/12) (kappa.phi'' - |kappa|^2 tau.phi') - alpha m0 tau.phi'
    a = mp1 * (2.0 * m0 - p * alpha * (curve.kappa_sq() / 12.0 + m0))
    return a, p * mp1 * alpha / 12.0


def h_limit(curve, params, phi, psi):
    """Limit of ``D^((alpha-2)p) H[phi, psi]`` at each sample."""
    t = term_limits(curve, params, phi=phi, psi=psi)
    d = _dots(curve, phi, psi)
    m0 = t["m_alpha"]
    p = params.p
    mp = m0 ** p
    mp1 = m0 ** (p - 1.0) if p != 1.0 else np.ones_like(m0)
    dmp = t["delta_m"]
    dmq = t["_dm_psi"]
    h1 = p * mp1 * t["delta2_m"]
    if p == 1.0:
        h2 = np.zeros_like(m0)
    else:
        h2 = p * (p - 1.0) * m0 ** (p - 2.0) * dmp * dmq
    h3 = p * mp1 * dmp * 2.0 * d["tq"]
    h4 = p * mp1 * dmq * 2.0 * d["tp"]
    h5 = mp * (2.0 * d["pq"] - 4.0 * d["tp"] * d["tq"])
    h6 = mp * 4.0 * d["tp"] * d["tq"]
    return h1 + h2 + h3 + h4 + h5 + h6
