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
discrete_infinity_laplacian.  It reads neighbours from a flat array of
lattice values (see grids), on which a stencil column is a contiguous
slice, and reduces by distance class (the arms h |off| with the same
number of nonzero entries share one length d).  The grid's
stencil_extremes gives, per axis set, the max and min of the raw values
over its arms with one slice max and one slice min each; the kernel
merges the sets of a class, gathers the class max and min onto the
interior rows, and takes one subtract and one divide per class.
Rounding is monotone, so fl(fl(max_k v_k - v_c)/d) = max_k fl(fl(v_k -
v_c)/d) bit for bit, as are the min and the eta upwind terms.  Irregular
(ball ring) rows, and minmax rows where two classes tie for an extreme
slope, are redone in argmax form, whose first-column tie rule may pick
another arm length; extremum rows take the cusp branch, which ignores it.
Those rows read their arms as lat[position + flat_off].  solve() marches
the interior values and writes them and the ring data back to the lattice
array once per step.
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


def _lattice_parts(grid, lat, c, upwind=False, grad=True):
    """The monotone kernel on a flat array of lattice values.

    Returns (dinf, g, coef_c, axis_up) over the interior rows, for the
    neighbour values in lat and the centre values c: the wide-stencil
    minmax operator with the cusp-consistent branch at discrete local
    extrema, the gradient magnitude estimate used for diffusivity capping
    (None unless grad), a per-node bound on -d(dinf)/d(v_c) for the CFL
    rule, and the upwind slope max((v_{+i} - v_c)/d_{+i},
    (v_{-i} - v_c)/d_{-i}) of every axis (an empty list unless upwind).
    """
    rows = grid.interior_pos
    axis_up = []
    sp, tie = None, False
    for d, pairs in grid.stencil_extremes(lat):
        top = bot = None
        for a, b in pairs:
            if upwind and sp is None:   # the axis class, in axis order
                axis_up.append(_slope(a[rows], c, d))
            if top is None:   # merged in place: a, b are fresh arrays
                top, bot = a, b
            else:
                np.maximum(top, a, out=top)
                np.minimum(bot, b, out=bot)
        top, bot = _slope(top[rows], c, d), _slope(bot[rows], c, d)
        if sp is None:
            sp, sm = top, bot
            dp, dm = np.full(c.shape, d), np.full(c.shape, d)
            continue
        tie = tie | (top == sp) | (bot == sm)
        np.putmask(dp, top > sp, d)
        np.maximum(sp, top, out=sp)
        np.putmask(dm, bot < sm, d)
        np.minimum(sm, bot, out=sm)

    # argmax form, ties to the first column, on the irregular rows and on
    # the minmax rows where two classes reach the same extreme slope
    exact = [(grid.irregular_rows, grid.irregular_dist)]
    if tie is not False:   # more than one class
        ties = np.flatnonzero(tie)
        ties = ties[(sp[ties] > 0.0) & (sm[ties] < 0.0)]
        exact.append((ties, grid.arm_lengths(ties)))
    plus, minus = grid.axis_columns
    for r, dist in exact:
        if r.size:
            s = _neighbours(grid, lat, r) - c[r]
            s /= dist
            n = np.arange(r.size)
            kp, km = s.argmax(0) * r.size + n, s.argmin(0) * r.size + n
            sp[r], sm[r] = s.take(kp), s.take(km)
            dp[r], dm[r] = dist.take(kp), dist.take(km)
            for u, p, m in zip(axis_up, plus, minus):
                u[r] = np.maximum(s[p], s[m])

    # in place from here on (at 20k rows a fresh temporary adds about a
    # third to the pass that fills it): g = max(sp, -sm, 0), g2 =
    # (0.5 (sp - sm))^2, dinf = g2 (2 (sp + sm) / (dp + dm)) and coef_c =
    # 2 g2 / (dp dm), each rounding as written
    g = None
    if grad:
        g = np.negative(sm)
        np.maximum(sp, g, out=g)
        np.maximum(g, 0.0, out=g)
    g2 = np.subtract(sp, sm)
    g2 *= 0.5
    np.square(g2, out=g2)
    dinf = np.add(sp, sm)
    dinf *= 2.0
    den = np.add(dp, dm)
    dinf /= den
    dinf *= g2
    coef_c = np.multiply(g2, 2.0, out=g2)
    coef_c /= np.multiply(dp, dm, out=den)

    # discrete maxima (sign -1) and minima (+1); a flat row is both and
    # takes the minimum's sign, which is immaterial: all its slopes are 0,
    # so q = 0, dinf = +-0 and coef_c = 0 whichever sign it takes
    r = np.flatnonzero((sp <= 0.0) | (sm >= 0.0))
    if r.size:
        sign = np.where(sm[r] >= 0.0, 1.0, -1.0)
        q = _neighbours(grid, lat, r) - c[r]
        q /= grid.arm_lengths(r) ** (4.0 / 3.0)
        cusp_c = np.maximum(np.max(sign * q, axis=0), 0.0)
        dinf[r] = sign * CUSP * cusp_c ** 3
        coef_c[r] = 3.0 * CUSP * cusp_c ** 2 / grid.dmin[r] ** (4.0 / 3.0)
    return dinf, g, coef_c, axis_up


def _slope(v, c, d):
    """(v - c) / d, in place on the fresh array v."""
    v -= c
    v /= d
    return v


def _neighbours(grid, lat, r):
    """(K, len(r)) stencil values of the interior rows r, from lat."""
    return lat[(grid.flat_off + grid.lo)[:, None] + grid.interior_pos[r]]


def _lattice_rhs_coef(grid, lat, c, config, cap):
    """Monotone right-hand side dv/dt and the CFL coefficient over the
    interior rows, for the neighbour values in lat and the centre values c.

    coef is a per-node bound on -d(rhs)/d(v_c), scaled so that
    dt <= cfl / max(coef) keeps the update non-decreasing in the center
    value.  With coef_c from _lattice_parts,
    eta mode:  coef = (coef_c + 4 sqrt(n) Q^3 / dmin) / 3,
    phi mode:  coef = coef_c / (3 max(phi, floor)^2),
    where the gradient cap, when set, scales coef_c down and clips Q.
    """
    tiny = 1e-300
    eta = config.variable == "eta"
    dinf, g, coef_c, axis_up = _lattice_parts(grid, lat, c, upwind=eta,
                                              grad=cap is not None)
    # in place, each rounding as in the formulas above
    if eta:
        # axiswise upwind |D eta|^2 estimate (monotone in neighbor values)
        for up in axis_up:
            np.maximum(up, 0.0, out=up)
            np.square(up, out=up)
        q2 = axis_up[0]
        for up in axis_up[1:]:
            q2 += up
        if cap is not None:
            scale = np.maximum(g, tiny, out=g)
            np.divide(cap, scale, out=scale)
            np.minimum(scale, 1.0, out=scale)
            dinf *= scale
            dinf *= scale
            coef_c *= scale
            coef_c *= scale
            np.minimum(q2, cap * cap, out=q2)
        q3 = np.sqrt(q2)
        q3 *= q2
        dinf += np.square(q2, out=q2)
        dinf /= 3.0
        q3 *= 4.0 * math.sqrt(grid.dim)
        q3 /= grid.dmin
        coef_c += q3
        coef_c /= 3.0
        return dinf, coef_c
    phi_safe = np.maximum(c, config.positivity_floor)
    fac = np.multiply(phi_safe, phi_safe)
    np.divide(1.0, fac, out=fac)
    if cap is not None:
        shrink = np.divide(g, phi_safe, out=g)
        np.maximum(shrink, tiny, out=shrink)
        np.divide(cap, shrink, out=shrink)
        np.minimum(shrink, 1.0, out=shrink)
        fac *= shrink
        fac *= shrink
    dinf *= fac
    dinf /= 3.0
    coef_c *= fac
    coef_c /= 3.0
    return dinf, coef_c


def discrete_infinity_laplacian(grid, vals, mode="monotone_minmax"):
    """D_inf at every interior node of one time slice.

    monotone_minmax: G^2 * minmax second difference (order-preserving);
    centered_diagnostic: direct centered contraction (accurate, for
    residual work).  Returns an array over grid.interior_idx.
    """
    if mode == "monotone_minmax":
        return _lattice_parts(grid, grid.lattice(vals),
                              vals[grid.interior_idx], grad=False)[0]
    if mode == "centered_diagnostic":
        return transforms._infinity_laplacian_centered(grid, vals)[0]
    raise ValueError(f"unknown mode {mode!r}")


def _rhs_and_coef(grid, vals, config, cap, c=None):
    """_lattice_rhs_coef for node values vals: returns (rhs, coef) over the
    interior rows; c is vals[interior_idx] if the caller has it."""
    if c is None:
        c = vals[grid.interior_idx]
    return _lattice_rhs_coef(grid, grid.lattice(vals), c, config, cap)


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
    nodes = grid.node_flat
    ring = nodes[grid.boundary_idx]
    bpts = grid.sample_pos[grid.boundary_idx]

    def to_variable(phi):
        phi = np.asarray(phi, dtype=float)
        return np.log(np.maximum(phi, floor)) if eta else phi

    # the interior values c are marched; lat holds every node's value for
    # the stencil reads
    values = np.empty((grid.n_nodes, L))
    values[:, 0] = to_variable(bd.f(grid.sample_pos))
    lat = grid.lattice(values[:, 0])
    c = values[grid.interior_idx, 0]
    inner = grid.lo + grid.interior_pos
    dt_history = []
    flags = {"positivity_ok": True, "cfl_shrunk": False}

    for j in range(1, L):
        t_now = grid.t[j - 1]
        t_target = grid.t[j]
        while t_now < t_target - 1e-14 * grid.T:
            rhs, coef = _lattice_rhs_coef(grid, lat, c, config, cap)
            dt = config.cfl / max(float(np.max(coef)), 1e-300)
            dt = min(dt, t_target - t_now)
            rhs *= dt
            c += rhs
            lat[ring] = to_variable(bd.g(bpts, t_now + dt))
            if dt < 1e-13 * grid.T:
                raise StiffnessError(
                    f"time step collapsed to {dt:.3e} at t={t_now:.6g}; "
                    "the problem is too stiff for the explicit scheme"
                )
            if not eta:
                wmin = float(np.min(c))
                if wmin < floor:
                    if bd.zero_lateral_ok:
                        np.clip(c, 0.0, None, out=c)
                        flags["positivity_ok"] = flags["positivity_ok"] and \
                            wmin >= 0.0
                    else:
                        raise SolverError(
                            f"positivity floor breached (min {wmin:.3e}); "
                            "switch variable='eta' for this data"
                        )
            lat[inner] = c
            t_now += dt
            dt_history.append(dt)
            if len(dt_history) > config.max_steps:
                raise StiffnessError(
                    f"exceeded max_steps={config.max_steps}"
                )
        values[:, j] = lat[nodes]
    if len(dt_history) > L - 1:
        flags["cfl_shrunk"] = True

    fld = GridField(grid, np.exp(values) if eta else values, "phi",
                    {"solved_in": config.variable, "grad_cap": cap})
    summary = None
    if config.summarize_residual and L >= 3:
        if eta:
            summary = transforms.residual_Gamma(GridField(grid, values, "eta"))
        elif np.all(fld.values[grid.interior_idx] > 0):
            summary = transforms.residual_Pi(fld)
    return SolveResult(fld, dt_history, summary, flags, config)
