"""Explicit monotone evolution scheme for D_inf(phi) = 3 phi^2 phi_t.

The update is explicit Euler on the chosen variable.  In the default
log variable eta = log(phi),

    eta_t = (D_inf(eta) + |D eta|^4) / 3,

positivity of phi is automatic and the equation has bounded coefficients
when phi stays away from 0.  In phi mode the degenerate 3 phi^2 factor is
lagged at the current level, which is the right variable for decay
experiments with (near-)zero lateral data: there phi is linear near the
boundary while eta is log-singular.

The second-order term uses the wide-stencil min/max form: with slopes
s_k = (v_k - v_c) / d_k over the 3^n - 1 axis-and-diagonal neighbors,

    gradient   G  = (max_k s_k - min_k s_k) / 2
    curvature  S2 = 2 (max_k s_k + min_k s_k) / (d_max + d_min)
    D_inf(v)   ~  G^2 S2        away from discrete local extrema.

At discrete local extrema (max_k s_k <= 0 or min_k s_k >= 0) that form
degenerates to 0 while the true operator need not vanish: every critical
point of a solution of this equation carries a universal r^(4/3) profile
(D_inf of r^alpha is finite and nonzero at the origin only for
alpha = 4/3), with D_inf -> -(64/81) c^3 for u = u0 - c r^(4/3).  The
scheme therefore switches to the cusp-consistent monotone value

    D_inf(v) ~ -(64/81) max_k((v_c - v_k)/d_k^(4/3))^3    at maxima

(+ the mirror image at minima).  The per-direction quantity
(v_c - v_k)/d_k^(4/3) estimates c and is distance-consistent for the
radial model, non-increasing in each neighbor value, so monotonicity is
kept; at smooth critical points the value is O(h^2).  The CFL bound
makes the update non-decreasing in the center value.  Away from extrema
it is non-decreasing in every neighbor value only while the one-sided
slopes stay within a factor 3 of each other: G comes from the same
slopes as S2, so G^2 S2 falls as max_k s_k rises where
3 max_k s_k + min_k s_k < 0 (and mirrored).  Smooth data at small h
stays inside that range; random fields do not.  The |D eta|^4 term uses
the axiswise upwind estimate
Q^2 = sum_i max((v_{+i}-v_c)/d_{+i}, (v_{-i}-v_c)/d_{-i}, 0)^2, which
is monotone.  Stencil constants in the CFL rule: S = 1 weights the
second-order coefficient 2 G^2 / d_min^2, and U = sqrt(n) weights the
quartic sensitivity 4 Q^3 / d_min.

Zero-boundary (decay) runs are degenerate: the effective diffusivity
(|D phi| / phi)^2 grows like 1/dist^2 near the boundary and an explicit
scheme would need dt ~ h^4.  The optional gradient cap clips the
effective log-gradient at grad_cap (default c/sqrt(h) for such runs),
which caps the diffusivity in an O(sqrt(h)) boundary collar and restores
dt ~ h^3; the collar error vanishes under refinement and is measured
directly against the exact separable solutions in the acceptance suite.

One kernel serves the stepper, the CFL rule and the monotone
discrete_infinity_laplacian.  It reduces by distance class (the columns
whose lattice arms h |off| share one length d): per column one gather and
one max and min of the raw values, per class one subtract and one divide.
Rounding is monotone, so fl(fl(max_k v_k - v_c)/d) = max_k fl(fl(v_k -
v_c)/d) bit for bit, as are the min and the eta upwind terms.  Irregular
(ball ring) rows, and minmax rows where two classes tie for an extreme
slope, are redone in argmax form, whose first-column tie rule may pick
another arm length; extremum rows take the cusp branch, which ignores it.
solve() gathers the interior once per in-place step, then the ring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grids import GridField, sample_boundary_data
from . import transforms

__all__ = [
    "SolverConfig",
    "SolveResult",
    "SolverError",
    "StiffnessError",
    "discrete_infinity_laplacian",
    "cfl_dt",
    "solve",
]


class SolverError(RuntimeError):
    pass


class StiffnessError(SolverError):
    pass


@dataclass(frozen=True)
class SolverConfig:
    variable: str = "eta"
    cfl: float = 0.9
    grad_cap: Optional[float] = None   # None = no cap; "auto" via solve()
    auto_cap_scale: float = 0.6        # cap = scale / sqrt(h) for decay runs
    max_steps: int = 5_000_000
    positivity_floor: float = 1e-8
    summarize_residual: bool = True

    def __post_init__(self):
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError("cfl must lie in (0, 1]")
        if self.variable not in ("eta", "phi"):
            raise ValueError("variable must be 'eta' or 'phi'")
        if self.positivity_floor <= 0:
            raise ValueError("positivity_floor must be positive")


@dataclass
class SolveResult:
    field: GridField
    dt_history: list
    residual_summary: Optional[transforms.ResidualReport]
    flags: dict
    config: SolverConfig

    @property
    def grid(self):
        return self.field.grid


CUSP = 64.0 / 81.0  # D_inf(u0 - c r^(4/3)) -> -(64/81) c^3 at the origin


def _monotone_parts(grid, vals, c, upwind=False):
    """Monotone D_inf estimate and its center-sensitivity bound.

    Returns (dinf, g, coef_c, axis_up) for c = vals[interior_idx]: the
    wide-stencil minmax operator with the cusp-consistent branch at
    discrete local extrema, the gradient magnitude estimate used for
    diffusivity capping, a per-node bound on -d(dinf)/d(v_c) for the CFL
    rule, and the upwind slope max((v_{+i} - v_c)/d_{+i},
    (v_{-i} - v_c)/d_{-i}) of every axis (an empty list unless upwind).
    """
    idx = grid.nbr_index.T
    axis_up = []
    sp, tie = None, False
    for d, pairs in grid.stencil_classes:
        top = bot = None
        for kp, km in pairs:
            a, b = vals[idx[kp]], vals[idx[km]]
            hi = np.maximum(a, b)
            np.minimum(a, b, out=a)
            if upwind and sp is None:   # the axis class: (+e_i, -e_i)
                axis_up.append((hi - c) / d)
            top = hi if top is None else np.maximum(top, hi, out=top)
            bot = a if bot is None else np.minimum(bot, a, out=bot)
        top, bot = ((v - c) / d for v in (top, bot))
        if sp is None:
            sp, sm, dp, dm = top, bot, d, d
            continue
        tie = tie | (top == sp) | (bot == sm)
        dp = np.where(top > sp, d, dp)
        np.maximum(sp, top, out=sp)
        dm = np.where(bot < sm, d, dm)
        np.minimum(sm, bot, out=sm)

    # argmax form, ties to the first column, on the irregular rows and on
    # the minmax rows where two classes reach the same extreme slope
    exact = [(grid.irregular_rows, grid.irregular_index, grid.irregular_dist)]
    if np.ndim(dp) == 0:   # one class: no merge, no arm-length arrays
        dp, dm = np.full_like(c, dp), np.full_like(c, dm)
    else:
        ties = np.flatnonzero(tie)
        ties = ties[(sp[ties] > 0.0) & (sm[ties] < 0.0)]
        exact.append((ties, idx[:, ties], grid.nbr_dist.T[:, ties]))
    plus, minus = grid.axis_columns
    for rows, idx_r, dist_r in exact:
        if rows.size:
            s = vals[idx_r] - c[rows]
            s /= dist_r
            kp, km, n = s.argmax(0), s.argmin(0), np.arange(rows.size)
            sp[rows], sm[rows] = s[kp, n], s[km, n]
            dp[rows], dm[rows] = dist_r[kp, n], dist_r[km, n]
            for u, p, m in zip(axis_up, plus, minus):
                u[rows] = np.maximum(s[p], s[m])

    g = np.maximum(np.maximum(sp, -sm), 0.0)
    g2 = (0.5 * (sp - sm)) ** 2
    dinf = g2 * (2.0 * (sp + sm) / (dp + dm))
    coef_c = 2.0 * g2 / (dp * dm)

    # discrete maxima, then minima (a flat node is both; the minimum wins)
    for rows, sign in ((np.flatnonzero(sp <= 0.0), -1.0),
                       (np.flatnonzero(sm >= 0.0), 1.0)):
        if rows.size:
            q = vals[grid.nbr_index[rows]] - c[rows, None]
            q /= grid.nbr_dist43[:, rows].T
            cusp_c = np.maximum(np.max(sign * q, axis=1), 0.0)
            dinf[rows] = sign * CUSP * cusp_c ** 3
            coef_c[rows] = 3.0 * CUSP * cusp_c ** 2 / \
                grid.dmin[rows] ** (4.0 / 3.0)
    return dinf, g, coef_c, axis_up


def discrete_infinity_laplacian(grid, vals, mode="monotone_minmax"):
    """D_inf at every interior node of one time slice.

    monotone_minmax: G^2 * minmax second difference (order-preserving);
    centered_diagnostic: direct centered contraction (accurate, for
    residual work).  Returns an array over grid.interior_idx.
    """
    if mode == "monotone_minmax":
        return _monotone_parts(grid, vals, vals[grid.interior_idx])[0]
    if mode == "centered_diagnostic":
        dinf, _ = transforms._infinity_laplacian_centered(
            grid, vals, grid.h, grid.nbr_index)
        return dinf
    raise ValueError(f"unknown mode {mode!r}")


def _rhs_and_coef(grid, vals, config, cap, c=None):
    """Monotone right-hand side dv/dt and the CFL coefficient, one pass.

    Returns (rhs over interior rows, coef: per-node bound on -d(rhs)/d(v_c)
    scaled so that dt <= cfl / max(coef) keeps the update non-decreasing
    in the center value); c is vals[interior_idx] if the caller has it.
    With coef_c from _monotone_parts,
    eta mode:  coef = (coef_c + 4 sqrt(n) Q^3 / dmin) / 3,
    phi mode:  coef = coef_c / (3 max(phi, floor)^2),
    where the gradient cap, when set, scales coef_c down and clips Q.
    """
    tiny = 1e-300
    if c is None:
        c = vals[grid.interior_idx]
    eta = config.variable == "eta"
    dinf, g, coef_c, axis_up = _monotone_parts(grid, vals, c, upwind=eta)
    if eta:
        # axiswise upwind |D eta|^2 estimate (monotone in neighbor values)
        q2 = sum(np.square(np.maximum(up, 0.0)) for up in axis_up)
        if cap is not None:
            scale = np.minimum(cap / np.maximum(g, tiny), 1.0)
            dinf = dinf * scale * scale
            coef_c = coef_c * scale * scale
            q2 = np.minimum(q2, cap * cap)
        q3 = q2 * np.sqrt(q2)
        rhs = (dinf + q2 * q2) / 3.0
        coef = (coef_c + 4.0 * math.sqrt(grid.dim) * q3 / grid.dmin) / 3.0
        return rhs, coef
    phi_safe = np.maximum(c, config.positivity_floor)
    fac = 1.0 / (phi_safe * phi_safe)
    if cap is not None:
        r = g / phi_safe
        shrink = np.minimum(cap / np.maximum(r, tiny), 1.0)
        fac = fac * shrink * shrink
    return dinf * fac / 3.0, coef_c * fac / 3.0


def cfl_dt(grid, vals, config, cap=None):
    """Largest monotone explicit step for the current level: the dt the
    stepper in solve() takes, cfl / max(coef), before clipping to a level.
    """
    _, coef = _rhs_and_coef(grid, vals, config, cap)
    return config.cfl / max(float(np.max(coef)), 1e-300)


def _resolve_cap(grid, bd, config):
    if config.grad_cap is not None:
        return float(config.grad_cap)
    if bd.zero_lateral_ok:
        return config.auto_cap_scale / math.sqrt(grid.h)
    return None


def solve(grid, bd, config=None):
    """March the full cylinder; snapshots are stored at the grid's levels.

    Between stored levels the scheme takes CFL-limited substeps (the last
    substep is clipped to land exactly on the level time).  Raises
    SolverError if positivity is lost in phi mode (unless the data is a
    zero-lateral decay experiment, where values are clamped at 0) and
    StiffnessError if dt collapses.
    """
    config = config or SolverConfig()
    sample_boundary_data(bd, grid)  # validates positivity/continuity; sets m, M
    cap = _resolve_cap(grid, bd, config)

    L = grid.time_levels
    eta = config.variable == "eta"
    floor = config.positivity_floor
    ii = grid.interior_idx
    bidx = grid.boundary_idx
    bpts = grid.sample_pos[bidx]

    def to_variable(phi):
        phi = np.asarray(phi, dtype=float)
        return np.log(np.maximum(phi, floor)) if eta else phi

    values = np.empty((grid.n_nodes, L))
    work = to_variable(bd.f(grid.sample_pos)).copy()
    values[:, 0] = work
    dt_history = []
    flags = {"positivity_ok": True, "cfl_shrunk": False}

    for j in range(1, L):
        t_now = grid.t[j - 1]
        t_target = grid.t[j]
        while t_now < t_target - 1e-14 * grid.T:
            c = work[ii]
            rhs, coef = _rhs_and_coef(grid, work, config, cap, c)
            dt = config.cfl / max(float(np.max(coef)), 1e-300)
            dt = min(dt, t_target - t_now)
            c += dt * rhs
            work[ii] = c
            work[bidx] = to_variable(bd.g(bpts, t_now + dt))
            if dt < 1e-13 * grid.T:
                raise StiffnessError(
                    f"time step collapsed to {dt:.3e} at t={t_now:.6g}; "
                    "the problem is too stiff for the explicit scheme"
                )
            if not eta:
                wmin = float(np.min(c))
                if wmin < floor:
                    if bd.zero_lateral_ok:
                        np.clip(work, 0.0, None, out=work)
                        flags["positivity_ok"] = flags["positivity_ok"] and \
                            wmin >= 0.0
                    else:
                        raise SolverError(
                            f"positivity floor breached (min {wmin:.3e}); "
                            "switch variable='eta' for this data"
                        )
            t_now += dt
            dt_history.append(dt)
            if len(dt_history) > config.max_steps:
                raise StiffnessError(
                    f"exceeded max_steps={config.max_steps}"
                )
        values[:, j] = work
    if len(dt_history) > L - 1:
        flags["cfl_shrunk"] = True

    fld = GridField(grid, np.exp(values) if eta else values, "phi",
                    {"solved_in": config.variable, "grad_cap": cap})
    summary = None
    if config.summarize_residual and L >= 3:
        if eta:
            summary = transforms.residual_Gamma(GridField(grid, values, "eta"))
        elif np.all(fld.values[ii] > 0):
            summary = transforms.residual_Pi(fld)
    return SolveResult(fld, dt_history, summary, flags, config)
