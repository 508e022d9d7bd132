"""Executable property checks: the paper-level theorems at desk scale.

Each check consumes artifacts produced by the other modules (solver runs,
barriers, exact profiles) and returns a PropertyReport with the worst
signed violation margin, a plain max or min of finite fields (masked
with ``where=``, not taken over copies).  Comparison and sandwich
tolerances derive from the residual band of the fields involved; the
others are fixed: 1e-8 relative in the weak maximum principle, 1e-9 in
min propagation, 10% (DECAY_SLOPE_RTOL) on the decay slope, 1e-6
relative in the staircase bound, 1e-12 in the bump improvement (1e-7 in
its seam jet test) and 1e-9 in the large-ball surrogate.  Every check
has a negative control in the test suite: the harness must notice
corrupted inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
import numpy as np

from . import barriers as bar
from . import radial, solver, transforms
from .grids import (BoundaryData, Domain, GridField, build_grid,
                    sample_boundary_data)
from .quadrature import grow_table

__all__ = [
    "PropertyReport",
    "check_weak_max_principle",
    "check_comparison",
    "check_min_propagation",
    "check_decay_rate",
    "check_sandwich",
    "check_bump_improvement",
    "check_large_ball_surrogate",
    "reports_to_csv",
]

DECAY_SLOPE_RTOL = 0.10  # documented slope tolerance for decay fits


@dataclass
class PropertyReport:
    property_id: str
    instances_run: int
    worst_violation: float
    tolerance: float
    passed: bool
    vacuous: bool = False
    details: dict = dc_field(default_factory=dict)

    def to_json(self):
        """The report as a dict for grids.write_json."""
        return {
            "property_id": self.property_id,
            "instances_run": self.instances_run,
            "worst_violation": self.worst_violation,
            "tolerance": self.tolerance,
            "passed": bool(self.passed),
            "vacuous": bool(self.vacuous),
            "details": self.details,
        }


def _make(property_id, margin, tol, n, vacuous=False, **details):
    return PropertyReport(property_id, n, float(margin), float(tol),
                          bool(margin <= tol) or vacuous, vacuous, details)


def _field_band(fld):
    """Residual band of a field (used as the tolerance unit) and None, or
    the heuristic band and the reason no residual could be formed."""
    try:
        if fld.variable_tag == "phi" and fld.values.min() > 0:
            rep = transforms.residual_Gamma(transforms.to_eta(fld))
        else:
            rep = transforms.residual_Pi(fld)
        return rep.band, None
    except transforms.TransformError as e:
        return transforms.heuristic_band(fld.grid, fld.values), str(e)


# ---------------------------------------------------------------------------
# weak maximum principle
# ---------------------------------------------------------------------------

def check_weak_max_principle(fld):
    """sup over the interior <= sup over P_T (and the inf dual).

    Margin = the larger of (interior sup - P_T sup) and
    (P_T inf - interior inf); margins up to 1e-8 (1 + sup |P_T|) pass.
    """
    vals, grid = fld.values, fld.grid
    pt, inner = grid.pt_mask, grid.interior_mask[:, None]   # inner: t > 0
    pt_sup = vals.max(where=pt, initial=-np.inf)
    pt_inf = vals.min(where=pt, initial=np.inf)
    inner_sup = vals[:, 1:].max(where=inner, initial=-np.inf)
    inner_inf = vals[:, 1:].min(where=inner, initial=np.inf)
    sup_margin = float(inner_sup - pt_sup)
    inf_margin = float(pt_inf - inner_inf)
    # the monotone scheme preserves bounds up to rounding; do not derive
    # the tolerance from the field itself (a corrupted field would then
    # approve its own corruption)
    tol = 1e-8 * (1.0 + float(max(pt_sup, -pt_inf)))
    return _make("weak_max_principle", max(sup_margin, inf_margin), tol, 1,
                 sup_margin=sup_margin, inf_margin=inf_margin)


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------

def check_comparison(u_fld, v_fld, tol=None, ratio_mode=False):
    """u <= v everywhere given u <= v on P_T (ratio form optional).

    In ratio mode the statement is sup over the cylinder of u/v <= sup
    over P_T of u/v, the zero-boundary-safe version.
    """
    grid = u_fld.grid
    pt = grid.pt_mask
    fallback = {}
    if tol is None:
        bands = [_field_band(u_fld), _field_band(v_fld)]
        tol = max(band for band, _ in bands) + 1e-12
        reasons = [why for _, why in bands if why]
        if reasons:
            fallback["band_fallback"] = reasons
    u, v = u_fld.values, v_fld.values
    gap = u - v
    pre_gap = float(gap.max(where=pt, initial=-np.inf))
    if pre_gap > tol:
        return _make("comparison", np.nan, tol, 0, vacuous=True,
                     skipped="precondition u <= v on P_T fails",
                     precondition_gap=pre_gap, **fallback)
    if not ratio_mode:
        return _make("comparison", float(gap.max()), tol, 1,
                     precondition_gap=pre_gap, **fallback)
    # the ratio reuses the buffer of u - v: first |v|, for the tolerance's
    # min |v|, then u / v.  0/0 is NaN where v vanishes with u (zero
    # lateral data), and the sups skip it
    ratio = np.abs(v, out=gap)
    rtol = tol / max(float(ratio.min()), 1e-12)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(u, v, out=ratio)
    pt_sup = np.fmax.reduce(ratio, axis=None, where=pt, initial=-np.inf)
    inner_sup = np.fmax.reduce(ratio[:, 1:], axis=None,
                               where=grid.interior_mask[:, None],
                               initial=np.nan)
    margin = float(inner_sup - pt_sup)
    return _make("comparison_ratio", margin, rtol, 1,
                 pt_sup=float(pt_sup), inner_sup=float(inner_sup),
                 **fallback)


# ---------------------------------------------------------------------------
# strong minimum propagation
# ---------------------------------------------------------------------------

def check_min_propagation(fld, anchor=None):
    """If the P_T infimum is attained at an interior node (y, s), the value
    at y must equal it, within 1e-9, at every earlier positive time.

    The minm bump (sigma = 0) is the instrument: when constancy fails at
    (y, s - e) by 2*delta, a bump K(rho^2-|x-y|^2)^2 h(t) fits under
    (field - m) on the parabolic boundary of its little cylinder while
    poking above it at (y, s), certifying the violation.
    """
    tol = 1e-9
    grid = fld.grid
    m_pt = float(fld.values.min(where=grid.pt_mask, initial=np.inf))
    if anchor is None:
        inner = fld.values[grid.interior_idx, 1:]
        flat = np.argmin(inner)
        row, lev = np.unravel_index(flat, inner.shape)
        node = grid.interior_idx[row]
        level = lev + 1
        if fld.values[node, level] > m_pt + tol:
            return _make("min_propagation", 0.0, tol, 0, vacuous=True,
                         skipped="no interior node attains the P_T infimum",
                         interior_min=float(fld.values[node, level]),
                         pt_inf=m_pt)
    else:
        node, level = anchor
        if fld.values[node, level] > m_pt + tol:
            return _make("min_propagation", 0.0, tol, 0, vacuous=True,
                         skipped="anchor does not attain the P_T infimum")
    earlier = fld.values[node, 1:level + 1]
    margin = float(np.max(np.abs(earlier - m_pt)))
    details = {"node": int(node), "level": int(level), "pt_inf": m_pt}

    if margin > tol:
        # reproduce the contradiction: build the bump under zeta - m
        viol_level = 1 + int(np.argmax(np.abs(earlier - m_pt)))
        s_time = grid.t[level]
        eps_t = s_time - grid.t[viol_level]
        if eps_t > 0:
            delta = 0.5 * float(abs(fld.values[node, viol_level] - m_pt))
            rho = 2.0 * grid.h
            bump = bar.make_minm_bump(grid.sample_pos[node], s_time, eps_t,
                                      rho, 0.0, delta)
            anchor_gap = float(bump.eval(grid.sample_pos[[node]],
                                         s_time)[0])
            details["bump_pokes_above_by"] = anchor_gap
            details["bump_K"] = bump.K
    return _make("min_propagation", margin, tol, 1, **details)


# ---------------------------------------------------------------------------
# decay rate
# ---------------------------------------------------------------------------

def fit_decay_slope(result):
    """Least-squares slope of log sup phi over the trailing half of the
    levels (None if under 20 levels), and sup phi per level."""
    fld = result.field
    sup_t = fld.values.max(axis=0)
    L = fld.grid.time_levels
    idx = np.arange(L // 2, L)
    if idx.size < 20:
        return None, sup_t
    t = fld.grid.t[idx]
    y = np.log(sup_t[idx])
    slope = np.polyfit(t, y, 1)[0]
    return float(slope), sup_t


def check_decay_rate(result, lam_domain, data_kind="generic"):
    """Zero-lateral decay: sup phi decreasing, and log sup phi slope
    <= -lam/3 (+ DECAY_SLOPE_RTOL relative); two-sided for eigen initial
    data.  Vacuous when fit_decay_slope has too few levels to fit."""
    slope, sup_t = fit_decay_slope(result)
    if slope is None:
        return _make("decay_rate", np.nan, 0.0, 0, vacuous=True,
                     skipped="fit window shorter than 20 levels")
    target = -lam_domain / 3.0
    mono_margin = float(np.max(np.diff(sup_t)))
    if data_kind == "eigen":
        margin = abs(slope - target) - DECAY_SLOPE_RTOL * abs(target)
    else:
        margin = slope - (target + DECAY_SLOPE_RTOL * abs(target))
    margin = max(margin, mono_margin - 1e-12)
    return _make("decay_rate", margin, 0.0, 1, slope=slope, target=target,
                 monotone_margin=mono_margin, data_kind=data_kind)


def check_staircase_bound(result, staircase):
    """Solver field at T_(k+1) <= psi / 2^k for each slab, within
    1e-6 sup |field| + 1e-12."""
    grid, vals = result.field.grid, result.field.values
    tol = 1e-6 * float(max(vals.max(), -vals.min())) + 1e-12
    worst = -np.inf
    ks = []
    for k in range(1, staircase.n_slabs + 1):
        tk1 = staircase.times[k]
        if tk1 > grid.T + 1e-12:
            break
        j = int(np.argmin(np.abs(grid.t - tk1)))
        envelope = staircase.envelope_at(grid.sample_pos, k)
        worst = max(worst, float(np.max(vals[:, j] - envelope)))
        ks.append(k)
    if not ks:
        return _make("staircase_bound", np.nan, tol, 0, vacuous=True,
                     skipped="no slab end inside the run horizon")
    return _make("staircase_bound", worst, tol, len(ks), slabs=ks)


# ---------------------------------------------------------------------------
# Perron sandwich
# ---------------------------------------------------------------------------

def check_sandwich(grid, bd, config=None, eps_fracs=(0.1, 0.03, 0.01),
                   family_kw=None):
    """family sup <= solve <= family inf within band + 2 eps, and the
    boundary gap of the families shrinks as eps decreases.

    The band is the solve's residual summary band; a solve without a
    summary takes the band of its field, and details record why in
    band_fallback.
    """
    family_kw = family_kw or {}
    h = sample_boundary_data(bd, grid)
    span = bd.M - bd.m
    res = solver.solve(grid, bd, config)
    if res.residual_summary is not None:
        band, fallback = res.residual_summary.band, {}
    else:
        band, why = _field_band(res.field)
        reasons = ["the solve kept no residual summary", why]
        fallback = {"band_fallback": [r for r in reasons if r]}
    gaps = []
    worst = -np.inf
    for frac in eps_fracs:
        eps = frac * span
        subs = bar.build_sub_family(grid, bd, eps, **family_kw)
        sups = bar.build_sup_family(grid, bd, eps, **family_kw)
        lo = bar.perron_family_sup(subs, grid)
        hi = bar.perron_family_inf(sups, grid)
        tol = band + 2.0 * eps + 1e-9
        m1 = float(np.max(lo.values - res.field.values)) - tol
        m2 = float(np.max(res.field.values - hi.values)) - tol
        worst = max(worst, m1, m2)
        # sup over P_T of h - lo and of hi - h, on the record's two parts
        lo_slab, lo_ring = h.parts(lo.values)
        hi_slab, hi_ring = h.parts(hi.values)
        gaps.append(float(max(p.max(initial=-np.inf) for p in (
            h.slab - lo_slab, h.ring - lo_ring,
            hi_slab - h.slab, hi_ring - h.ring))))
    # relative slack: the gaps scale with the data (phi -> c phi)
    mono = all(a >= b - 1e-12 * max(1.0, abs(b))
               for a, b in zip(gaps, gaps[1:]))
    margin = worst if mono else max(worst, 1.0)
    return _make("perron_sandwich", margin, 0.0, len(eps_fracs),
                 boundary_gaps=gaps, gap_monotone=mono, band=band,
                 **fallback)


# ---------------------------------------------------------------------------
# bump improvement (Perron sup is a super-solution)
# ---------------------------------------------------------------------------

def check_bump_improvement(jet, w0, grid=None):
    """For a jet violating the super-solution inequality (margin mu > 0),
    the quadratic bump at the origin and time theta = 0.5 (nu = 0.01)
    strictly improves the host at the anchor and agrees with it outside
    D_(r,r), r = 0.4; the improvement stays a sub-solution at the max seam
    (numeric jet test when a grid is supplied)."""
    a, p, X = jet
    p = np.atleast_1d(np.asarray(p, dtype=float))
    X = np.atleast_2d(np.asarray(X, dtype=float))
    mu = float(p @ X @ p - 3.0 * a * w0 ** 2)
    if mu <= 0:
        return _make("bump_improvement", 0.0, 0.0, 0, vacuous=True,
                     skipped=f"jet margin mu={mu:.3g} <= 0 (no admissible "
                     "violation)")
    theta, r, nu = 0.5, 0.4, 0.01
    z = np.zeros(p.size)
    delta = min(mu / 4.0, r * r / 32.0 * nu)
    bump = bar.make_exist13_bump(z, theta, (a, p, X), w0, delta, nu)

    def host(pts, t):
        dx = np.atleast_2d(pts) - z
        quad = 0.5 * np.einsum("ni,ij,nj->n", dx, X, dx)
        return w0 + a * (t - theta) + dx @ p + quad

    improvement = float(bump.eval(z[None, :], theta)[0]
                        - host(z[None, :], theta)[0])
    rng = np.random.default_rng(1234)
    pts = rng.uniform(-1.5 * r, 1.5 * r, size=(4000, p.size)) + z
    agree_violation = 0.0
    for t in (theta - 0.45 * r, theta, theta + 0.45 * r):
        psi_v = bump.eval(pts, t)
        host_v = host(pts, t)
        outside = (np.linalg.norm(pts - z, axis=1) > r / 2.0) | \
            (abs(t - theta) > r / 4.0)
        agree_violation = max(agree_violation, float(np.max(
            np.abs(np.maximum(host_v, psi_v) - host_v)[outside], initial=0.0)))
    res_anchor = float(bump.pi_residual(z[None, :], theta)[0])
    margin = max(-improvement + 1e-15, agree_violation, -res_anchor)
    details = {"mu": mu, "improvement": improvement, "delta": delta,
               "residual_at_anchor": res_anchor}
    if grid is not None:
        merged = GridField(grid, np.maximum(
            GridField.from_function(grid, host).values,
            GridField.from_function(grid, bump.eval).values))
        node = int(np.argmin(np.linalg.norm(grid.sample_pos - z, axis=1)
                             + np.where(grid.interior_mask, 0, 1e9)))
        level = int(np.argmin(np.abs(grid.t - theta)))
        ok, val, _ = bar.jet_touch_test(merged, node, level, kind="sub")
        details["seam_jet_value"] = val
        if not ok:
            margin = max(margin, abs(val))
    return _make("bump_improvement", margin, 1e-12, 1, **details)


# ---------------------------------------------------------------------------
# large-ball surrogate for the unbounded-domain results
# ---------------------------------------------------------------------------

def check_large_ball_surrogate(radii=(2.0, 4.0, 8.0), T=0.25, bump_amp=1.0,
                               base=2.0):
    """Interior bounds inf f - tol_R <= phi <= sup f + tol_R on the
    half-radius subinterval, with tol_R decreasing in R; each interval
    [-R, R] is solved with h = R/16 on 6 time levels.

    Lateral data is set adversarially outside [inf f, sup f] on each side;
    the radial growing/eigen barriers provide the closed-form tol_R, which
    shrinks because the barrier parameter vanishes as R grows.
    """
    sup_f = base + bump_amp
    inf_f = base
    upper_lateral = sup_f + 1.0
    lower_lateral = inf_f - 1.0
    if lower_lateral <= 0:
        raise ValueError("base too small for a positive lower lateral datum")

    def f(x):
        return base + bump_amp * np.exp(-np.clip(x[:, 0] ** 2, 0, 50))

    # the margins read the fields only, so the solves skip their summaries
    config = solver.SolverConfig(summarize_residual=False)
    tol_hist = []
    margins = []
    barrier_margins = []
    for R in radii:
        dom = Domain.interval(-R, R)
        grid = build_grid(dom, R / 16.0, T, 6)
        half = np.abs(grid.sample_pos[:, 0]) <= R / 2.0

        # upper experiment: adversarial large lateral datum
        bd_up = BoundaryData(
            f=lambda x: np.where(np.abs(x[:, 0]) >= R * (1 - 1e-9),
                                 upper_lateral, f(x)),
            g=lambda x, t: np.full(len(x), upper_lateral))
        res_up = solver.solve(grid, bd_up, config)
        # barrier parameter: growing profile from sup_f at the half-ball
        # edge reaching the adversarial datum at distance R/2
        lam_up = (float(grow_table().value(upper_lateral / sup_f))
                  / (R / 2.0)) ** 4
        tol_up = sup_f * (math.exp(lam_up * T / 3.0) - 1.0)
        m_up = float(np.max(res_up.field.values[half]) - (sup_f + tol_up))

        # the growing barrier dominates the numeric field on the cylinder
        prof_up = radial.growing_profile(2.0 * R, lam_up, sup_f)
        barr_vals = prof_up.eval(np.abs(grid.sample_pos[:, 0]))[:, None] \
            * np.exp(lam_up * grid.t / 3.0)[None, :]
        barrier_margins.append(float(np.max(res_up.field.values
                                            - barr_vals)))

        # lower experiment: adversarial small lateral datum
        bd_lo = BoundaryData(
            f=lambda x: np.where(np.abs(x[:, 0]) >= R * (1 - 1e-9),
                                 lower_lateral, f(x)),
            g=lambda x, t: np.full(len(x), lower_lateral))
        res_lo = solver.solve(grid, bd_lo, config)
        lam_eig = radial.ball_eigenvalue(R / 2.0)
        tol_lo = inf_f * (1.0 - math.exp(-lam_eig * T / 3.0))
        m_lo = float((inf_f - tol_lo) - np.min(res_lo.field.values[half]))

        tol_hist.append((tol_up, tol_lo))
        margins.append(max(m_up, m_lo))

    tol_up_seq = [t[0] for t in tol_hist]
    tol_lo_seq = [t[1] for t in tol_hist]
    mono = all(a > b for a, b in zip(tol_up_seq, tol_up_seq[1:])) and \
        all(a > b for a, b in zip(tol_lo_seq, tol_lo_seq[1:]))
    margin = max(max(margins), max(barrier_margins),
                 0.0 if mono else 1.0)
    return _make("large_ball_surrogate", margin, 1e-9, len(radii),
                 tolerances=tol_hist, margins=margins,
                 barrier_margins=barrier_margins, tol_monotone=mono)


def reports_to_csv(reports, path):
    with open(path, "w") as fh:
        fh.write("property_id,instances_run,worst_violation,tolerance,"
                 "passed,vacuous\n")
        for r in reports:
            fh.write(f"{r.property_id},{r.instances_run},"
                     f"{r.worst_violation:.17g},{r.tolerance:.17g},"
                     f"{int(r.passed)},{int(r.vacuous)}\n")
