"""Explicit monotone evolution scheme for D_inf(phi) = 3 phi^2 phi_t.

The update is explicit Euler on the chosen variable.  In the default
log variable eta = log(phi),

    eta_t = (D_inf(eta) + |D eta|^4) / 3,

positivity of phi is automatic and the equation has bounded coefficients
when phi stays away from 0.  In phi mode the degenerate 3 phi^2 factor is
lagged at the current level.  Decay experiments with zero lateral data
(BoundaryData.zero_lateral_ok) need phi mode: there phi is linear near
the boundary while eta is log-singular, so solve() raises SolverError for
such data in eta mode.

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
makes the update non-decreasing in the center value in eta mode.  In phi
mode it need not: the bound coef_c / (3 phi^2) leaves out the 2 rhs / phi
that the lagged 1 / phi^2 adds to -d(rhs)/d(phi_c), so where rhs > 0 and
the gradient cap does not bind, a raised centre value can lower the
update.  Away from extrema it is non-decreasing in every neighbor value
only while the one-sided slopes stay within a factor 3 of each other:
G comes from the same slopes as S2, so G^2 S2 falls as max_k s_k rises
where 3 max_k s_k + min_k s_k < 0 (and mirrored).  Smooth data at small
h stays inside that range; random fields do not.  The |D eta|^4 term
uses the axiswise upwind estimate
Q^2 = sum_i max((v_{+i}-v_c)/d_{+i}, (v_{-i}-v_c)/d_{-i}, 0)^2, which
is monotone.  Stencil constants in the CFL rule: S = 1 weights the
second-order coefficient 2 G^2 / d_min^2, and U = sqrt(n) weights the
quartic sensitivity 4 Q^3 / d_min.

Zero-boundary (decay) runs are degenerate: the effective diffusivity
(|D phi| / phi)^2 grows like 1/dist^2 near the boundary and an explicit
scheme would need dt ~ h^4.  For zero-lateral data only, so in phi mode
only, the gradient cap clips the effective log-gradient |D phi| / phi at
SolverConfig.auto_cap_scale / sqrt(h) = 0.6 / sqrt(h),
which caps the diffusivity in an O(sqrt(h)) boundary collar and restores
dt ~ h^3; the collar error vanishes under refinement and is measured
directly against the exact separable solutions in the acceptance suite.
Other data runs uncapped.  The step constants are fixed class constants
of SolverConfig: cfl = 0.9, auto_cap_scale = 0.6, max_steps = 5_000_000
and positivity_floor = 1e-8.

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
v_c)/d) bit for bit, as are the min and the eta upwind terms.  On equal
extreme slopes the shorter arm counts: a longer class takes over only on
a strictly larger slope, and the stencil's columns run by class, shortest
first (see grids), so the argmax form's first-column rule is the same.
Irregular (ball ring) rows are redone in that form; extremum rows take
the cusp branch, a max over all arms.  Each pass runs only when it has
rows, on an (n, K) row-major block of lat[position + flat_off], so that
the reductions run along the contiguous axis.  The grid builds the
irregular rows' stencil positions and arm lengths in that layout once; the
cusp pass reads its rows' arm lengths from the grid's one row-major arm
table and raises them and its rows' shortest arms to the power 4/3 itself
(there is about one extremum row per step on a smooth solve).
solve() marches the interior values and writes them and the ring data
back to the lattice array once per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Optional

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
    """The options of solve(): the marched variable, "eta" (log phi) or
    "phi", and whether to summarize the residual of the result.

    The step constants are fixed, not options: each substep is
    cfl / max(coef); zero-lateral data caps the log-gradient at
    auto_cap_scale / sqrt(h); a solve raises StiffnessError after
    max_steps substeps; phi is floored at positivity_floor before the log
    and in the phi-mode coefficient.
    """

    cfl: ClassVar[float] = 0.9
    auto_cap_scale: ClassVar[float] = 0.6
    max_steps: ClassVar[int] = 5_000_000
    positivity_floor: ClassVar[float] = 1e-8

    variable: str = "eta"
    summarize_residual: bool = True

    def __post_init__(self):
        if self.variable not in ("eta", "phi"):
            raise ValueError("variable must be 'eta' or 'phi'")
        if not isinstance(self.summarize_residual, bool):
            raise ValueError("summarize_residual must be true or false")


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
    sp = None
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
        # strict: on equal slopes the shorter class keeps its length
        np.putmask(dp, top > sp, d)
        np.maximum(sp, top, out=sp)
        np.putmask(dm, bot < sm, d)
        np.minimum(sm, bot, out=sm)

    # the irregular rows in argmax form, on their (n, K) row-major block so
    # that the reductions run along rows; a tie goes to the first column,
    # the earliest class in the stencil's order, as on the regular rows
    r = grid.irregular_rows
    if r.size:
        s, dist = lat[grid.irregular_flat], grid.irregular_arms
        s -= c[r, None]
        s /= dist
        kp, km = s.argmax(1), s.argmin(1)
        start = np.arange(r.size) * s.shape[1]   # flat index of each row
        kp += start
        km += start
        sp[r], sm[r] = s.take(kp), s.take(km)
        dp[r], dm[r] = dist.take(kp), dist.take(km)
        for u, p, m in zip(axis_up, *grid.axis_columns):
            u[r] = np.maximum(s[:, p], s[:, m])

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
    r = ((sp <= 0.0) | (sm >= 0.0)).nonzero()[0]
    if r.size:
        sign = np.where(sm[r] >= 0.0, 1.0, -1.0)
        q = lat[grid.interior_pos[r, None] + grid.column_base]
        q -= c[r, None]
        q /= grid.arm_lengths(r) ** (4.0 / 3.0)
        cusp_c = np.maximum((sign[:, None] * q).max(1), 0.0)
        dinf[r] = sign * CUSP * cusp_c ** 3
        coef_c[r] = 3.0 * CUSP * cusp_c ** 2 / grid.dmin[r] ** (4.0 / 3.0)
    return dinf, g, coef_c, axis_up


def _slope(v, c, d):
    """(v - c) / d, in place on the fresh array v."""
    v -= c
    v /= d
    return v


def _lattice_rhs_coef(grid, lat, c, config, cap):
    """Monotone right-hand side dv/dt and the CFL coefficient over the
    interior rows, for the neighbour values in lat and the centre values c.

    coef bounds -d(rhs)/d(v_c) per node, scaled so that dt <= cfl /
    max(coef) keeps the update non-decreasing in the center value, except
    in phi mode (see below).  With coef_c from _lattice_parts,
    eta mode:  coef = (coef_c + 4 sqrt(n) Q^3 / dmin) / 3,
    phi mode:  coef = coef_c / (3 max(phi, floor)^2),
    where the gradient cap, which only phi mode takes (zero-lateral data),
    scales dinf and coef down.  The phi-mode coef leaves out the 2 rhs / phi
    of the lagged 1 / phi^2: where rhs > 0 and the cap does not bind, it is
    no bound.
    """
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
        np.maximum(shrink, 1e-300, out=shrink)
        np.divide(cap, shrink, out=shrink)
        np.minimum(shrink, 1.0, out=shrink)
        fac *= shrink
        fac *= shrink
    dinf *= fac
    dinf /= 3.0
    coef_c *= fac
    coef_c /= 3.0
    return dinf, coef_c


def discrete_infinity_laplacian(grid, vals):
    """The monotone D_inf, G^2 times the minmax second difference with the
    cusp branch at discrete extrema, at every interior node of one time
    slice.  Returns an array over grid.interior_idx.
    """
    return _lattice_parts(grid, grid.lattice(vals), vals[grid.interior_idx],
                          grad=False)[0]


def _rhs_and_coef(grid, vals, config, cap):
    """_lattice_rhs_coef for node values vals: returns (rhs, coef) over the
    interior rows.  Raises ValueError for a cap in eta mode."""
    if cap is not None and config.variable == "eta":
        raise ValueError("the gradient cap applies in phi mode only")
    return _lattice_rhs_coef(grid, grid.lattice(vals),
                             vals[grid.interior_idx], config, cap)


def cfl_dt(grid, vals, config, cap=None):
    """Largest monotone explicit step for the current level: the dt the
    stepper in solve() takes, cfl / max(coef), before clipping to a level.
    """
    _, coef = _rhs_and_coef(grid, vals, config, cap)
    return config.cfl / max(float(np.max(coef)), 1e-300)


def _resolve_cap(grid, bd, config):
    if bd.zero_lateral_ok:
        return config.auto_cap_scale / math.sqrt(grid.h)
    return None


def solve(grid, bd, config=None):
    """March the full cylinder; snapshots are stored at the grid's levels.

    Between stored levels the scheme takes CFL-limited substeps of
    SolverConfig.cfl / max(coef) (the last substep is clipped to land
    exactly on the level time).  Zero-lateral data runs with the gradient
    cap auto_cap_scale / sqrt(h), reported as field.meta["grad_cap"]
    (None for other data).  Raises SolverError if positivity is lost in
    phi mode (unless the data is a zero-lateral decay experiment, where
    values are clamped at 0) and StiffnessError if the CFL step collapses
    (a clipped last substep does not count) or the march exceeds
    SolverConfig.max_steps substeps.
    """
    config = config or SolverConfig()
    if config.variable == "eta" and bd.zero_lateral_ok:
        raise SolverError(
            "zero-lateral data needs variable='phi': eta = log phi is "
            "singular where phi vanishes")
    hfield = sample_boundary_data(bd, grid)   # validated once per grid
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
    values[:, 0] = to_variable(hfield.values[:, 0])
    lat = grid.lattice(values[:, 0])
    c = values[grid.interior_idx, 0]
    inner = grid.lo + grid.interior_pos
    dt_history = []
    flags = {"positivity_ok": True}

    for j in range(1, L):
        t_now = grid.t[j - 1]
        t_target = grid.t[j]
        while t_now < t_target - 1e-14 * grid.T:
            rhs, coef = _lattice_rhs_coef(grid, lat, c, config, cap)
            dt = config.cfl / max(float(coef.max()), 1e-300)
            if dt < 1e-13 * grid.T:   # the CFL step, before any clipping
                raise StiffnessError(
                    f"time step collapsed to {dt:.3e} at t={t_now:.6g}; "
                    "the problem is too stiff for the explicit scheme"
                )
            dt = min(dt, t_target - t_now)
            rhs *= dt
            c += rhs
            lat[ring] = to_variable(bd.g(bpts, t_now + dt))
            if not eta:
                wmin = float(c.min())
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

    # in eta mode the summary reads the eta values before they become phi
    # in place, so that the solve holds one (N, L) array of values
    summary = None
    if config.summarize_residual and L >= 3:
        if eta:
            summary = transforms.residual_Gamma(GridField(grid, values, "eta"))
        elif np.all(values[grid.interior_idx] > 0):
            summary = transforms.residual_Pi(GridField(grid, values, "phi"))
    if eta:
        np.exp(values, out=values)
    fld = GridField(grid, values, "phi",
                    {"solved_in": config.variable, "grad_cap": cap})
    return SolveResult(fld, dt_history, summary, flags, config)
