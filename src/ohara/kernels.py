"""Energy parameters and the pointwise (alpha, p) kernel family.

The pair density of the (alpha, p) energy is evaluated through the bilinear
reformulation rather than as a difference of reciprocal powers: with

    N(u, v) = [ ds * I(u.v) - I(u) . I(v) ] / |df|^2,

where ``I`` denotes the signed short-arc integral and ``ds`` the signed
short-arc separation, one has the exact identity ``1 + N(tau, tau) =
D^2 / |df|^2``, and

    M_alpha = phi_alpha(N(tau, tau)) / |df|^alpha,
    phi_alpha(t) = 1 - (1 + t)^(-alpha/2).

This cancels the ``1/|df|^alpha - 1/D^alpha`` subtraction analytically, so
the density is computable to full relative precision arbitrarily close to
the diagonal.  The integrand of the energy is ``M_alpha ** p``.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ValidationError

__all__ = [
    "EnergyParams",
    "phi_alpha",
    "N_CLAMP",
]

#: values of N(tau, tau) in [-N_CLAMP, 0) are treated as rounding noise
N_CLAMP = 1.0e-12


@dataclass(frozen=True)
class EnergyParams:
    """Parameter pair (alpha, p) with the standing assumption enforced.

    The admissible range is ``2 <= alpha * p < 2p + 1`` (scale-invariant
    case included, sub-critical regularity); ``sigma = (alpha*p - 1) / (2p)``
    is the natural fractional-smoothness exponent and ``beta`` the Hoelder
    exponent used by weighted densities (default ``min(alpha/2, 1)``).
    """

    alpha: float
    p: float = 1.0
    beta: float = field(default=None)

    def __post_init__(self):
        if not (self.alpha > 0):
            raise ValidationError("alpha must be positive")
        ap = self.alpha * self.p
        if not (2.0 <= ap < 2.0 * self.p + 1.0):
            raise ValidationError("constraint 2 <= alpha*p < 2p+1 violated")
        if not (self.p >= 1):
            raise ValidationError("p must be >= 1")
        if self.beta is None:
            object.__setattr__(self, "beta", min(self.alpha / 2.0, 1.0))
        if not (0.0 < self.beta <= 1.0):
            raise ValidationError("beta must lie in (0, 1]")

    @property
    def sigma(self):
        return (self.alpha * self.p - 1.0) / (2.0 * self.p)

    @property
    def weight_exponent(self):
        """Exponent of the D-weight that renders the density bounded."""
        return (self.alpha - 2.0 * self.beta) * self.p


def phi_alpha(t, alpha):
    """``phi_alpha(t) = 1 - (1+t)^(-alpha/2)`` and its first two derivatives.

    Evaluated via ``expm1``/``log1p`` so small ``t`` loses no precision.
    Returns ``(value, d1, d2)``.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t <= -1.0):
        raise ValidationError("phi_alpha requires t > -1")
    a2 = alpha / 2.0
    w = np.power(1.0 + t, -a2)  # (1+t)^(-alpha/2)
    value = -np.expm1(-a2 * np.log1p(t))
    d1 = a2 * w / (1.0 + t)
    d2 = -a2 * (a2 + 1.0) * w / (1.0 + t) ** 2
    return value, d1, d2


def n_tau_checked(ntt, where=None):
    """Apply the validity policy to raw N(tau, tau) values.

    Negative values beyond rounding tolerance mean the prefix tables and the
    chord disagree -- a genuine inconsistency; small negatives are clamped.
    ``where`` optionally restricts the check (grid band columns are excluded
    by the caller).
    """
    ntt = np.asarray(ntt, dtype=float)
    bad = ntt < -N_CLAMP
    if where is not None:
        bad = bad & where
    if np.any(bad):
        raise NumericalError(
            "N(tau, tau) = %.3g < -%.1g: chord/arc tables are inconsistent"
            % (float(np.min(np.where(bad, ntt, 0.0))), N_CLAMP)
        )
    return np.where(ntt < 0.0, 0.0, ntt)
