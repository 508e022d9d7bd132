"""Exact radial solution oracles on balls.

Radial functions u(|x|) satisfy D_inf u = (u')^2 u'' in every dimension
(no curvature term appears for this operator), so the whole radial theory
reduces to one-dimensional singular-integral identities:

  decaying family   integral_{u(r)/m}^{1} (1-s^4)^(-1/4) ds = lambda^(1/4) r,
                    solving (u')^2 u'' + lambda u^3 = 0, u(0) = m = sup u;
  growing family    integral_{delta}^{u(r)} (s^4-delta^4)^(-1/4) ds
                    = lambda^(1/4) r, solving (u')^2 u'' - lambda u^3 = 0,
                    u(0) = delta = inf u.

The first eigenvalue of a ball of radius R is (C/R)^4 with
C = integral_0^1 (1-s^4)^(-1/4) ds = pi*sqrt(2)/4.  Both integral maps have
closed forms (inflap.quadrature); vectorized Newton inversion of them gives
pointwise profile evaluation.  A Picard iteration of the equivalent
double-integral fixed point serves as an independent cross-oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import write_csv
from .quadrature import (
    F_DECAY_FULL,
    GROW_SPLIT,
    QuadratureError,
    cumulative_simpson,
    decay_table,
    grow_table,
)

__all__ = [
    "RadialProfile",
    "ball_eigenvalue",
    "decaying_profile",
    "growing_profile",
    "dm_dlambda",
    "GrowthBounds",
    "growth_bounds",
    "sup_lower_bound_check",
    "picard_growing",
    "picard_decaying",
    "profile_to_csv",
    "eigenvalue_table_csv",
    "GROWTH_SIGMA",
]


class RadialParameterError(ValueError):
    """Raised for parameter combinations with no positive radial solution."""


#: sigma = 2 / (2^4 - 1)^(1/4), the log-slope spread of the growth sandwich.
GROWTH_SIGMA = 2.0 / 15.0 ** 0.25


def ball_eigenvalue(R):
    """First eigenvalue of the infinity-Laplacian on a ball of radius R.

    lambda_B(R) = (pi*sqrt(2)/(4R))^4; scales exactly like R^(-4).
    """
    if R <= 0:
        raise RadialParameterError("ball radius must be positive")
    return (F_DECAY_FULL / R) ** 4


@dataclass
class RadialProfile:
    """Radial solution u(r) on [0, R] defined by singular-integral inversion.

    kind "eigen_decaying": u decreasing, u(0) = m = sup, u(R) = delta >= 0,
    with ODE residual (u')^2 u'' + lambda u^3 = 0.  kind "growing": u
    increasing, u(0) = delta > 0, with residual (u')^2 u'' - lambda u^3 = 0.
    Instances are immutable and freely shareable.
    """

    kind: str
    R: float
    lam: float
    m: float
    delta: float

    def eval(self, r):
        """u(r), vectorized over r in [0, R] (small overshoot tolerated)."""
        r = np.asarray(r, dtype=float)
        if np.any(r < -1e-12):
            raise ValueError("radius must be nonnegative")
        target = self.lam ** 0.25 * np.clip(r, 0.0, None)
        if self.kind == "eigen_decaying":
            q = decay_table().inverse(np.minimum(target, F_DECAY_FULL))
            return self.m * q
        return self.delta * grow_table().inverse(target)

    def deriv(self, r):
        """Analytic du/dr; one-sided limit 0 at r = 0 for both kinds."""
        u = self.eval(r)
        if self.kind == "eigen_decaying":
            core = np.clip(self.m ** 4 - u ** 4, 0.0, None)
            return -(self.lam ** 0.25) * core ** 0.25
        core = np.clip(u ** 4 - self.delta ** 4, 0.0, None)
        return self.lam ** 0.25 * core ** 0.25

    @property
    def sup(self):
        """sup over the closed ball: m for decaying, u(R) for growing."""
        if self.kind == "eigen_decaying":
            return self.m
        return float(self.eval(self.R))

    def ode_residual(self, r):
        """(u')^2 u'' -/+ lambda u^3, u'' the centred difference of u' at
        step 2e-5 R.

        Signs follow the family: + lambda u^3 for decaying, - lambda u^3 for
        growing, so the exact profile gives zero.  Not meaningful at r = 0.
        """
        r = np.asarray(r, dtype=float)
        eps = 2e-5 * self.R
        up = self.deriv(r)
        u2 = (self.deriv(r + eps) - self.deriv(np.clip(r - eps, 0.0, None))) / (2 * eps)
        u = self.eval(r)
        if self.kind == "eigen_decaying":
            return up ** 2 * u2 + self.lam * u ** 3
        return up ** 2 * u2 - self.lam * u ** 3


def decaying_profile(R, lam, delta_or_m, fixed_which="delta"):
    """Decreasing radial solution with (u')^2 u'' + lambda u^3 = 0.

    ``fixed_which`` selects which boundary datum is prescribed: "delta"
    pins the boundary value u(R) (the center value m follows), "m" pins
    the center value (the boundary value follows).  Requires
    0 < lambda <= lambda_B(R); at lambda = lambda_B only delta = 0 is
    admissible and the profile is a first eigenfunction.
    """
    lam_b = ball_eigenvalue(R)
    if lam <= 0:
        raise RadialParameterError("lambda must be positive")
    if lam > lam_b * (1.0 + 1e-12):
        raise RadialParameterError(
            f"no positive decaying solution: lambda={lam:.6g} exceeds "
            f"lambda_B({R:g}) = {lam_b:.6g}"
        )
    target = min(lam, lam_b) ** 0.25 * R
    q_R = decay_table().inverse(min(target, F_DECAY_FULL))
    at_eigen = abs(lam - lam_b) <= 1e-10 * lam_b
    if fixed_which == "delta":
        delta = float(delta_or_m)
        if delta < 0:
            raise RadialParameterError("boundary value delta must be >= 0")
        if at_eigen:
            if delta != 0.0:
                raise RadialParameterError(
                    "at lambda = lambda_B the boundary value must be 0"
                )
            return RadialProfile("eigen_decaying", R, lam_b, 1.0, 0.0)
        if delta == 0.0:
            raise RadialParameterError(
                "delta = 0 requires lambda = lambda_B (eigenfunction case)"
            )
        m = delta / q_R
        return RadialProfile("eigen_decaying", R, lam, m, delta)
    if fixed_which != "m":
        raise ValueError("fixed_which must be 'delta' or 'm'")
    m = float(delta_or_m)
    if m <= 0:
        raise RadialParameterError("center value m must be positive")
    if at_eigen:
        return RadialProfile("eigen_decaying", R, lam_b, m, 0.0)
    return RadialProfile("eigen_decaying", R, lam, m, m * q_R)


def growing_profile(R, lam, delta):
    """Increasing radial solution with (u')^2 u'' - lambda u^3 = 0, u(0)=delta."""
    if lam <= 0:
        raise RadialParameterError("lambda must be positive")
    if delta <= 0:
        raise RadialParameterError("center value delta must be positive")
    return RadialProfile("growing", R, lam, float("nan"), delta)


def dm_dlambda(R, lam, delta, m):
    """Closed-form d(center value)/d(lambda) at fixed boundary value delta.

    Valid for 0 < lambda < lambda_B(R) and delta > 0; always positive.
    """
    if delta <= 0:
        raise RadialParameterError("dm/dlambda formula is singular at delta = 0")
    lam_b = ball_eigenvalue(R)
    if not 0 < lam < lam_b:
        raise RadialParameterError("requires 0 < lambda < lambda_B")
    return R * m * m / (4.0 * delta * lam ** 0.75) * (1.0 - (delta / m) ** 4) ** 0.25


@dataclass(frozen=True)
class GrowthBounds:
    """Two-sided exponential sandwich for u(R) of a growing profile."""

    lower: float
    upper: float
    A: float
    B: float
    sigma: float


def growth_bounds(R, lam, delta):
    """Exponential bounds 2 delta B^(1/sigma) e^(lam^(1/4) R / sigma) <= u(R)
    <= 2 B delta e^(lam^(1/4) R), valid once u(R) >= 2 delta.

    A is the integral of (s^4-1)^(-1/4) over [1, 2] (the split at twice the
    center value), B = exp(-A), and sigma = 2/(2^4-1)^(1/4).
    """
    prof = growing_profile(R, lam, delta)
    uR = prof.sup
    if uR < 2.0 * delta:
        raise RadialParameterError(
            f"growth bounds need u(R) >= 2 delta; got u(R)={uR:.6g}, "
            f"delta={delta:.6g} (R too small)"
        )
    A = GROW_SPLIT
    B = math.exp(-A)
    z = lam ** 0.25 * R
    lower = 2.0 * delta * B ** (1.0 / GROWTH_SIGMA) * math.exp(z / GROWTH_SIGMA)
    upper = 2.0 * B * delta * math.exp(z)
    return GrowthBounds(lower, upper, A, B, GROWTH_SIGMA)


def sup_lower_bound_check(lam, delta, profile):
    """Check sup u >= delta (lambda/(lambda_B - lambda))^(1/3) for a decaying
    profile on a ball with boundary value delta > 0."""
    lam_b = ball_eigenvalue(profile.R)
    if not 0 < lam < lam_b:
        raise RadialParameterError("requires 0 < lambda < lambda_B")
    bound = delta * (lam / (lam_b - lam)) ** (1.0 / 3.0)
    return profile.m >= bound * (1.0 - 1e-12), bound


# ---------------------------------------------------------------------------
# Picard fixed-point cross-oracle
# ---------------------------------------------------------------------------

def _picard_iterate(R, lam, anchor, sign, max_iter):
    """Iterate u <- anchor + sign*(3 lam)^(1/3) II(u) on a cube-graded grid
    of 2049 points until two iterates differ by less than 1e-12.

    II(u)(r) = integral_0^r (integral_0^t u^3 ds)^(1/3) dt.  Both integrals
    are computed in the substitution t = tau^3 (and s = sigma^3), which makes
    every integrand smooth at the origin, so cumulative Simpson converges at
    full order.  Returns (r_grid, u_values, iterations).
    """
    tau = np.linspace(0.0, R ** (1.0 / 3.0), 2049)
    dtau = tau[1] - tau[0]
    r = tau ** 3
    u = np.full(tau.size, float(anchor))
    coef = (3.0 * lam) ** (1.0 / 3.0)
    for it in range(1, max_iter + 1):
        inner = cumulative_simpson(3.0 * tau ** 2 * u ** 3, dtau)
        outer = cumulative_simpson(3.0 * tau ** 2 * np.cbrt(inner), dtau)
        new = anchor + sign * coef * outer
        diff = float(np.max(np.abs(new - u)))
        u = new
        if diff < 1e-12:
            return r, u, it
    raise QuadratureError(
        f"Picard iteration did not converge within {max_iter} iterations "
        f"(last sup-difference {diff:.3e})"
    )


def picard_growing(R, lam, delta, max_iter=10_000):
    """Independent oracle for the growing profile via its integral fixed point.

    u(r) = delta + (3 lam)^(1/3) integral_0^r (integral_0^t u^3)^(1/3) dt,
    iterated from u = delta until the sup-difference falls below 1e-12.
    """
    return _picard_iterate(R, lam, delta, +1.0, max_iter)


def picard_decaying(R, lam, m, max_iter=10_000):
    """Picard oracle for the decaying profile at a fixed center value m.

    u(r) = m - (3 lam)^(1/3) integral_0^r (integral_0^t u^3)^(1/3) dt.
    The boundary value u(R) is whatever the center value implies.
    """
    return _picard_iterate(R, lam, m, -1.0, max_iter)


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def profile_to_csv(profile, path, n=201):
    """Write (r, u, du/dr) samples of a profile to CSV."""
    r = np.linspace(0.0, profile.R, n)
    write_csv(path, "r,u,du_dr",
              np.column_stack((r, profile.eval(r), profile.deriv(r))))


def eigenvalue_table_csv(radii, path):
    """Write (R, lambda_B(R)) over a radius grid to CSV."""
    write_csv(path, "R,lambda_B", [(R, ball_eigenvalue(R)) for R in radii])
