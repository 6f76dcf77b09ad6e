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


def density_limit(curve, params):
    """Limit of ``D^((alpha-2)p) M_alpha^p``: ``((alpha/24)|kappa|^2)^p``.

    This is the unit-beta weight; for beta < 1 the weight overcompensates and
    the limit is 0, which callers that use such a weight supply themselves.
    """
    return term_limits(curve, params)["density"]


def term_limits(curve, params, phi=None, psi=None):
    """Closed forms of the weighted diagonal limits, per grid sample.

    Returns a dict keyed like the limit kinds of the verify module: every
    kind that the given fields determine has one entry.  The N-type entries
    (``n_tau``, ``r1``, ``r2``, ``delta_n``, ``s1``..``s5``, ``delta2_n``)
    are limits of ``D^(alpha-2) X / |df|^alpha`` (X the unnormalized term),
    the M-type entries (``m_alpha``, ``delta_m``, ``delta2_m``) limits of
    ``D^(alpha-2) X``, the chord ratios plain limits, and ``density``,
    ``g`` and ``h`` limits of ``D^((alpha-2)p)`` times ``M_alpha^p``, G and
    H.  The ``phi`` entries need ``phi``; the mixed ones need ``psi`` too.
    """
    d = _dots(curve, phi, psi)
    k2 = d["k2"]
    alpha, p = params.alpha, params.p
    m0 = m_limit(curve, params)
    mp = m0 ** p
    out = {"n_tau": k2 / 12.0, "m_alpha": m0, "density": mp}
    if phi is not None:
        tp, kpp = d["tp"], d["kpp"]
        mp1 = m0 ** (p - 1.0) if p != 1.0 else np.ones_like(m0)
        out["chord_ratio"] = 2.0 * tp
        out["r1"] = -tp * k2 / 6.0
        out["r2"] = kpp / 6.0
        out["delta_n"] = out["r1"] + out["r2"]
        out["delta_m"] = (alpha / 2.0) * out["delta_n"] - alpha * m0 * tp
        out["g"] = p * mp1 * out["delta_m"] + m0 * mp1 * 2.0 * tp
    if phi is not None and psi is not None:
        tq, kqq, pq = d["tq"], d["kqq"], d["pq"]
        dnp, dmp = out["delta_n"], out["delta_m"]
        dnq = -tq * k2 / 6.0 + kqq / 6.0
        dmq = (alpha / 2.0) * dnq - alpha * m0 * tq
        out["k_ratio"] = 2.0 * pq
        out["s1"] = -(pq - 2.0 * tp * tq) * k2 / 6.0
        out["s2"] = -tp * dnq - tq * dnp
        out["s3"] = -tq * kpp / 6.0 - tp * kqq / 6.0
        out["s4"] = d["ppqq"] / 6.0
        # (tau.phi')' = kappa.phi' + tau.phi''
        gp = d["kp"] + d["tpp"]
        gq = d["kq"] + d["tqq"]
        out["s5"] = -gp * gq / 6.0
        out["delta2_n"] = out["s1"] + out["s2"] + out["s3"] + out["s4"] + out["s5"]
        q1 = (alpha / 2.0) * out["delta2_n"]
        q2 = -(alpha ** 2 / 2.0) * dnp * tq
        # Q3 carries an extra factor D^2 -> vanishes in the limit
        q4 = -alpha * dmq * tp
        q5 = -alpha * m0 * pq
        q6 = 2.0 * alpha * m0 * tp * tq
        out["delta2_m"] = q1 + q2 + q4 + q5 + q6
        h1 = p * mp1 * out["delta2_m"]
        if p == 1.0:
            h2 = np.zeros_like(m0)
        else:
            h2 = p * (p - 1.0) * m0 ** (p - 2.0) * dmp * dmq
        h3 = p * mp1 * dmp * 2.0 * tq
        h4 = p * mp1 * dmq * 2.0 * tp
        h5 = mp * (2.0 * pq - 4.0 * tp * tq)
        h6 = mp * 4.0 * tp * tq
        out["h"] = h1 + h2 + h3 + h4 + h5 + h6
    return out


def g_limit(curve, params, phi):
    """Limit of ``D^((alpha-2)p) G[phi]`` at each sample."""
    return term_limits(curve, params, phi=phi)["g"]


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
    return term_limits(curve, params, phi=phi, psi=psi)["h"]
