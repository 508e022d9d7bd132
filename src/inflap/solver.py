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
s+ = max_k s_k at arm length d+ and s- = min_k s_k at d-,

    gradient   G  = (s+ - s-) / 2
    curvature  S2 = 2 (s+ + s-) / (d+ + d-)
    D_inf(v)   ~  G^2 S2        away from discrete local extrema.

At discrete local extrema (s+ <= 0 or s- >= 0) that form degenerates to
0 while the true operator need not vanish: every critical point of a
solution of this equation carries a universal r^(4/3) profile (D_inf of
r^alpha is finite and nonzero at the origin only for alpha = 4/3), with
D_inf -> -(64/81) c^3 for u = u0 - c r^(4/3).  The scheme therefore
switches to the cusp-consistent monotone value

    D_inf(v) ~ -(64/81) max_k((v_c - v_k)/d_k^(4/3))^3    at maxima

(+ the mirror image at minima).  The per-direction quantity
(v_c - v_k)/d_k^(4/3) estimates c and is distance-consistent for the
radial model, non-increasing in each neighbor value, so monotonicity is
kept; at smooth critical points the value is O(h^2).  Away from extrema
the update is non-decreasing in every neighbor value only while the
one-sided slopes stay within a factor 3 of each other: G comes from the
same slopes as S2, so G^2 S2 falls as s+ rises where 3 s+ + s- < 0 (and
mirrored).  Smooth data at small h stays inside that range; random
fields do not.  The |D eta|^4 term uses the axiswise upwind estimate
Q^2 = sum_i max((v_{+i}-v_c)/d_{+i}, (v_{-i}-v_c)/d_{-i}, 0)^2, which
is monotone.  The CFL coefficient coef bounds -d(rhs)/d(v_c): 2 G^2 /
(d+ d-) for G^2 S2 (its cusp counterpart at extrema), plus 4 sqrt(n)
Q^3 / d_min in eta mode, and in phi mode without a cap the 2 max(rhs, 0)
/ phi that the lagged 1 / phi^2 adds.  dt = cfl / max(coef) keeps the
update non-decreasing in the centre value as long as the row keeps its
branch (extremum or not, and its argmax and argmin arms).

Zero-boundary (decay) runs are degenerate: the effective diffusivity
(|D phi| / phi)^2 grows like 1/dist^2 near the boundary and an explicit
scheme would need dt ~ h^4.  For zero-lateral data only, so in phi mode
only, the gradient cap clips the effective log-gradient |D phi| / phi at
SolverConfig.auto_cap_scale / sqrt(h) = 0.6 / sqrt(h), which caps the
diffusivity in an O(sqrt(h)) boundary collar and restores dt ~ h^3; the
collar error vanishes under refinement and is measured directly against
the exact separable solutions in the acceptance suite.  On the unit disk
the step binds at the first irregular row, at distance h from the
boundary inside the capped collar, with dt ~ 3.75 h^3.  Each solve
records its smallest CFL step in SolveResult.binding: the dt and its start
time, the binding interior row (coef's argmax), its sample position and
boundary distance, whether it is irregular, and whether the cap scaled it.
The step constants are fixed class constants of SolverConfig: cfl = 0.9,
auto_cap_scale = 0.6, max_steps = 5_000_000 and positivity_floor = 1e-8.

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
Irregular (ball ring) rows are redone in that form, and extremum rows
take the cusp branch, each pass on an (n, K) row-major block of
lat[position + flat_off] and only when it has rows.  The finishing pass
forms (s+ - s-)^2, (s+ + s-) / (d+ + d-) and d+ d- once each, so that
2 D_inf and 2 coef_c come out bit for bit (powers of 2 scale exactly);
the cusp rows overwrite them.  The constants then fold into one factor
per row: 1/6 with the Q terms in eta mode, which stays exact, and in
phi mode min(cap / g, 1 / phi)^2 / 6 (that is shrink^2 / phi^2 / 6),
which rounds apart from dinf fac / 3 by a few ulps.
solve() marches the interior values and writes them and the ring data
back to the lattice array once per step.
"""

from __future__ import annotations

import dataclasses
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
    """A solve's field, its substeps and flags, and ``binding``, the
    record of its smallest CFL step (see the module docstring)."""

    field: GridField
    dt_history: list
    residual_summary: Optional[transforms.ResidualReport]
    flags: dict
    config: SolverConfig
    binding: dict = dataclasses.field(default_factory=dict)

    @property
    def grid(self):
        return self.field.grid


CUSP = 64.0 / 81.0  # D_inf(u0 - c r^(4/3)) -> -(64/81) c^3 at the origin


def _lattice_parts(grid, lat, c, upwind=False, grad=True):
    """The monotone kernel on a flat array of lattice values, at twice
    its scale.

    Returns (dinf2, g, coef2, axis_up) over the interior rows, for the
    neighbour values in lat and the centre values c: dinf2 = 2 D_inf, the
    minmax operator with the cusp branch at discrete local extrema; the
    gradient estimate g for the cap (None unless grad); coef2 = 2 coef_c,
    coef_c bounding -d(D_inf)/d(v_c); and the upwind slope
    max((v_{+i} - v_c)/d_{+i}, (v_{-i} - v_c)/d_{-i}) of every axis (an
    empty list unless upwind).  The callers fold the exact factor 2 into
    their own constants.
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
        if sp is None:   # the arm lengths stay scalars on one class
            sp, sm, dp, dm = top, bot, d, d
            continue
        # strict: on equal slopes the shorter class keeps its length
        dp = np.where(top > sp, d, dp)
        np.maximum(sp, top, out=sp)
        dm = np.where(bot < sm, d, dm)
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
        kp += grid.irregular_starts
        km += grid.irregular_starts
        if np.ndim(dp) == 0:
            dp, dm = np.full(c.shape, dp), np.full(c.shape, dm)
        sp[r], sm[r] = s.take(kp), s.take(km)
        dp[r], dm[r] = dist.take(kp), dist.take(km)
        for u, p, m in zip(axis_up, *grid.axis_columns):
            u[r] = np.maximum(s[:, p], s[:, m])

    # in place from here on: with d2 = (sp - sm)^2, dinf2 = d2 (sp + sm) /
    # (dp + dm) and coef2 = d2 / (dp dm) are 2 dinf and 2 coef_c bit for
    # bit (outside the subnormal range); g = max(sp, -sm) >= (sp - sm) / 2
    # >= 0, and the extremum rows have min(sp, -sm) <= 0
    nsm = np.negative(sm)
    ext = np.minimum(sp, nsm)
    r = (ext <= 0.0).nonzero()[0]
    g = np.maximum(sp, nsm, out=ext) if grad else None
    d2 = np.add(sp, nsm, out=nsm)
    np.square(d2, out=d2)
    dinf2 = np.add(sp, sm, out=sp)
    dinf2 /= dp + dm
    dinf2 *= d2
    coef2 = np.divide(d2, dp * dm, out=d2)

    # discrete maxima (sign -1) and minima (+1); a flat row is both and
    # takes the minimum's sign, which is immaterial: all its slopes are 0,
    # so q = 0, dinf = +-0 and coef_c = 0 whichever sign it takes
    if r.size:
        sign = np.where(sm[r] >= 0.0, 1.0, -1.0)
        q = lat[grid.interior_pos[r, None] + grid.column_base]
        q -= c[r, None]
        q /= grid.arm_lengths(r) ** (4.0 / 3.0)
        q *= sign[:, None]
        cusp_c = np.maximum(q.max(1), 0.0)
        dinf2[r] = sign * (2.0 * CUSP) * cusp_c ** 3
        coef2[r] = 6.0 * CUSP * cusp_c ** 2 / grid.dmin[r] ** (4.0 / 3.0)
    return dinf2, g, coef2, axis_up


def _slope(v, c, d):
    """(v - c) / d, in place on the fresh array v."""
    v -= c
    v /= d
    return v


def _lattice_rhs_coef(grid, lat, c, config, cap):
    """Monotone right-hand side dv/dt and the CFL coefficient over the
    interior rows, for the neighbour values in lat and the centre values c.

    coef bounds -d(rhs)/d(v_c) per node (see the module docstring).  With
    dinf and coef_c from _lattice_parts,
    eta mode:  rhs = (dinf + Q^4) / 3,
               coef = (coef_c + 4 sqrt(n) Q^3 / dmin) / 3,
    phi mode:  rhs = dinf fac / 3,  coef = coef_c fac / 3 (+ 2 max(rhs, 0)
               / phi without a cap),  fac = min(cap / g, 1 / phi)^2,
    with phi floored at positivity_floor; the gradient cap, phi mode only,
    scales by shrink^2 = min(cap phi / g, 1)^2, and fac = shrink^2 / phi^2.
    """
    eta = config.variable == "eta"
    dinf2, g, coef2, axis_up = _lattice_parts(grid, lat, c, upwind=eta,
                                              grad=cap is not None)
    # in place; the exact factor 2 of dinf2 and coef2 folds into the 1/3
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
        q3 *= 8.0 * math.sqrt(grid.dim)
        q3 /= grid.dmin
        coef2 += q3
        coef2 /= 6.0
        np.square(q2, out=q2)
        q2 += q2
        dinf2 += q2
        dinf2 /= 6.0
        return dinf2, coef2
    phi = np.maximum(c, config.positivity_floor)
    if cap is None:
        fac = np.square(phi)
    else:   # 1 / min(cap / g, 1 / phi)
        fac = np.multiply(g, 1.0 / cap, out=g)
        np.maximum(fac, phi, out=fac)
        np.square(fac, out=fac)
    np.divide(1.0 / 6.0, fac, out=fac)
    dinf2 *= fac
    coef2 *= fac
    if cap is None:
        coef2 += 2.0 * np.maximum(dinf2, 0.0) / phi
    return dinf2, coef2


def discrete_infinity_laplacian(grid, vals):
    """The monotone D_inf, G^2 times the minmax second difference with the
    cusp branch at discrete extrema, at every interior node of one time
    slice.  Returns an array over grid.interior_idx.
    """
    dinf2 = _lattice_parts(grid, grid.lattice(vals), vals[grid.interior_idx],
                           grad=False)[0]
    dinf2 *= 0.5
    return dinf2


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
    return config.cfl / max(float(coef.max()), 1e-300)


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
    (a clipped last substep does not count) or is NaN, because the values
    are no longer finite, or if the march exceeds SolverConfig.max_steps
    substeps.
    """
    config = config or SolverConfig()
    if config.variable == "eta" and bd.zero_lateral_ok:
        raise SolverError(
            "zero-lateral data needs variable='phi': eta = log phi is "
            "singular where phi vanishes")
    f0 = sample_boundary_data(bd, grid).slab   # validated once per grid
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
    values[:, 0] = to_variable(f0)
    lat = grid.lattice(values[:, 0])
    c = values[grid.interior_idx, 0]
    inner = grid.lo + grid.interior_pos
    dt_history = []
    flags = {"positivity_ok": True}
    least = (math.inf,)   # the smallest CFL step: (dt, t, row, its stencil)

    for j in range(1, L):
        t_now = grid.t[j - 1]
        t_target = grid.t[j]
        while t_now < t_target - 1e-14 * grid.T:
            rhs, coef = _lattice_rhs_coef(grid, lat, c, config, cap)
            i = coef.argmax()
            dt = config.cfl / max(float(coef[i]), 1e-300)
            # written as "not >=" so that a NaN step, from values that are
            # no longer finite, takes the collapsed-step branch
            if not dt >= least[0]:
                if not dt >= 1e-13 * grid.T:   # before clipping to a level
                    raise StiffnessError(
                        f"time step collapsed to {dt:.3e} at t={t_now:.6g}; "
                        + ("the values are no longer finite" if math.isnan(dt)
                           else "the problem is too stiff for the explicit "
                           "scheme"))
                least = (dt, t_now, i, lat[grid.flat_off + inner[i]],
                         c[i])
            dt = min(dt, t_target - t_now)
            rhs *= dt
            c += rhs
            lat[ring] = to_variable(bd.g(bpts, t_now + dt))
            if not eta:
                wmin = float(np.minimum.reduce(c))
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
    # in place, so that the solve holds one (N, L) array of values; the
    # summary runs level by level and adds only its (Ni, L) residuals
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
    return SolveResult(fld, dt_history, summary, flags, config,
                       _binding(grid, cap, floor, *least))


def _binding(grid, cap, floor, dt, t, row, stencil, centre):
    """The record of the smallest CFL step (see the module docstring); the
    cap scaled its row where the row's g / phi exceeds the cap."""
    x = grid.sample_pos[grid.interior_idx[row]]
    s = (stencil - centre) / grid.arm_lengths(row)
    return {"dt": dt, "t": float(t), "row": int(row), "position": x.tolist(),
            "boundary_distance": float(grid.domain.boundary_distance(x)),
            "irregular": bool(np.isin(row, grid.irregular_rows)),
            "capped": bool(cap is not None and max(s.max(), -s.min())
                           / max(centre, floor) > cap)}
