"""Change of variables phi <-> eta = log(phi) and residual evaluators.

Positive sub/super-solutions of Pi(phi) = D_inf(phi) - 3 phi^2 phi_t
correspond exactly to sub/super-solutions of
Gamma(eta) = D_inf(eta) + |D eta|^4 - 3 eta_t under eta = log(phi).
This module evaluates both residuals on grid fields with centered
second-order stencils (accuracy, not monotonicity: the monotone stencil
lives in the solver), provides the separable-solution factory
u(x) g(t), and the elementary log/exp expansion bounds used throughout
the comparison machinery.

Every ResidualReport carries a discretization band: 10x the a-posteriori
truncation estimate obtained by re-evaluating the residual on doubled
spacing (Richardson), used as the tolerance unit by the test harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .grids import GridField

__all__ = [
    "ResidualReport",
    "SeparableSolution",
    "TransformError",
    "to_eta",
    "to_phi",
    "residual_Pi",
    "residual_Gamma",
    "heuristic_band",
    "make_separable",
    "log_inequality_check",
    "LogIneqResult",
]


class TransformError(ValueError):
    """Raised for invalid variable transforms (nonpositive phi)."""


def to_eta(fld, floor=0.0):
    """eta = log(phi).  Requires positive phi wherever values are finite."""
    if fld.variable_tag != "phi":
        raise TransformError("to_eta expects a phi field")
    vals = fld.values
    finite = np.isfinite(vals)
    if np.any(vals[finite] <= floor):
        raise TransformError(
            f"phi must exceed {floor} everywhere for the log transform "
            f"(min {np.min(vals[finite]):.3g})"
        )
    out = np.where(finite, np.log(np.where(finite, vals, 1.0)), np.nan)
    return GridField(fld.grid, out, "eta", dict(fld.meta))


def to_phi(fld):
    """phi = exp(eta)."""
    if fld.variable_tag != "eta":
        raise TransformError("to_phi expects an eta field")
    return GridField(fld.grid, np.exp(fld.values), "phi", dict(fld.meta))


# ---------------------------------------------------------------------------
# centered discrete operators
# ---------------------------------------------------------------------------

def _diag_columns(grid, ax_i, ax_j):
    n = grid.dim

    def off(si, sj):
        z = [0] * n
        z[ax_i] += si
        z[ax_j] += sj
        return grid.offset_column(tuple(z))

    return off(1, 1), off(-1, -1), off(1, -1), off(-1, 1)


def _two_hop(grid):
    """Second-ring neighbor table (node indices; -1 where unavailable)."""
    row_of = np.full(grid.n_nodes, -1, dtype=np.int64)
    row_of[grid.interior_idx] = np.arange(grid.interior_idx.size)
    one = grid.nbr_index
    rows1 = row_of[one]
    valid = rows1 >= 0
    two = np.full_like(one, -1)
    k = one.shape[1]
    for col in range(k):
        ok = valid[:, col]
        two[ok, col] = grid.nbr_index[rows1[ok, col], col]
    return two, np.all(valid, axis=1)


def _infinity_laplacian_centered(grid, level_vals, spacing, nbr):
    """Sum_ij d_i(v) d_j(v) d2_ij(v) with centered differences.

    ``nbr`` maps (interior-row, offset-column) -> node index; ``spacing``
    is the effective axis spacing (h or 2h for the Richardson pass).
    Returns (delta_inf, grad_sq) over interior rows.
    """
    n = grid.dim
    plus, minus = grid.axis_columns
    c = level_vals[grid.interior_idx]
    vp = [level_vals[nbr[:, plus[a]]] for a in range(n)]
    vm = [level_vals[nbr[:, minus[a]]] for a in range(n)]
    p = [(vp[a] - vm[a]) / (2.0 * spacing) for a in range(n)]
    grad_sq = sum(pa * pa for pa in p)
    out = np.zeros_like(c)
    for a in range(n):
        h_aa = (vp[a] + vm[a] - 2.0 * c) / spacing ** 2
        out += p[a] * p[a] * h_aa
    for a in range(n):
        for b in range(a + 1, n):
            cpp, cmm, cpm, cmp_ = _diag_columns(grid, a, b)
            h_ab = (level_vals[nbr[:, cpp]] + level_vals[nbr[:, cmm]]
                    - level_vals[nbr[:, cpm]] - level_vals[nbr[:, cmp_]]
                    ) / (4.0 * spacing ** 2)
            out += 2.0 * p[a] * p[b] * h_ab
    return out, grad_sq


def _time_derivative(vals, dt, stride=1):
    """Centered d/dt per level (one-sided at the ends), shape preserved."""
    N, L = vals.shape
    out = np.full((N, L), np.nan)
    s = stride
    if L > 2 * s:
        out[:, s:L - s] = (vals[:, 2 * s:] - vals[:, :L - 2 * s]) / (2 * s * dt)
    if L >= 3:
        out[:, 0] = (-3 * vals[:, 0] + 4 * vals[:, 1] - vals[:, 2]) / (2 * dt)
        out[:, -1] = (3 * vals[:, -1] - 4 * vals[:, -2] + vals[:, -3]) / (2 * dt)
    elif L == 2:
        out[:, 0] = out[:, 1] = (vals[:, 1] - vals[:, 0]) / dt
    return out


@dataclass
class ResidualReport:
    """Residual of one equation form on the interior of a cylinder grid.

    values[row, level] follows grid.interior_idx ordering.  sup_norm is
    taken over "clean" rows (full lattice stencil, no projected ring
    corrections) and centered-in-time levels.  ``band`` is 10x the
    a-posteriori truncation estimate from a doubled-spacing pass; tests
    compare residual magnitudes against it.
    """

    operator_tag: str
    values: np.ndarray
    sup_norm: float
    band: float
    band_nodes: np.ndarray
    clean_rows: np.ndarray
    onesided_levels: np.ndarray
    sigma: float = 1.0
    meta: dict = field(default_factory=dict)

    def to_csv(self, grid, path):
        idx = grid.interior_idx
        with open(path, "w") as fh:
            fh.write(",".join(f"x{i}" for i in range(grid.dim))
                     + ",t,residual\n")
            for j, tj in enumerate(grid.t):
                for row, i in enumerate(idx):
                    coords = ",".join(f"{c:.17g}" for c in grid.sample_pos[i])
                    fh.write(f"{coords},{tj:.17g},{self.values[row, j]:.17g}\n")


def _residual_core(grid, vals, tag, sigma):
    dt = grid.dt_level
    L = grid.time_levels
    vt = _time_derivative(vals, dt)
    res = np.full((grid.interior_idx.size, L), np.nan)
    for j in range(L):
        dinf, gsq = _infinity_laplacian_centered(grid, vals[:, j], grid.h,
                                                 grid.nbr_index)
        if tag == "Pi":
            c = vals[grid.interior_idx, j]
            res[:, j] = dinf - 3.0 * c * c * vt[grid.interior_idx, j]
        else:
            res[:, j] = (dinf + sigma * gsq * gsq
                         - 3.0 * vt[grid.interior_idx, j])
    return res


def _residual_2h(grid, vals, tag, sigma):
    """Doubled-spacing residual on the eligible core (or None)."""
    two, ok1 = _two_hop(grid)
    row_of = np.full(grid.n_nodes, -1, dtype=np.int64)
    row_of[grid.interior_idx] = np.arange(grid.interior_idx.size)
    eligible = ok1 & np.all(two >= 0, axis=1)
    L = grid.time_levels
    if not np.any(eligible) or L < 5:
        return None, None
    dt = grid.dt_level
    res = np.full((grid.interior_idx.size, L), np.nan)
    vt = _time_derivative(vals, dt, stride=2)
    safe = np.where(two >= 0, two, 0)
    for j in range(2, L - 2):
        dinf, gsq = _infinity_laplacian_centered(grid, vals[:, j],
                                                 2.0 * grid.h, safe)
        if tag == "Pi":
            c = vals[grid.interior_idx, j]
            res[:, j] = dinf - 3.0 * c * c * vt[grid.interior_idx, j]
        else:
            res[:, j] = (dinf + sigma * gsq * gsq
                         - 3.0 * vt[grid.interior_idx, j])
    return res, eligible


def _clean_rows(grid):
    return np.all(grid.interior_mask[grid.nbr_index], axis=1) | (
        grid.domain.kind != "ball"
    )


def heuristic_band(grid, vals):
    """10 (h + dt) (1 + max |vals|)^3, the residual band used where no
    h-versus-2h band can be formed."""
    scale = 1.0 + float(np.nanmax(np.abs(vals)))
    return 10.0 * (grid.h + grid.dt_level) * scale ** 3


def _make_report(grid, vals, tag, sigma):
    res = _residual_core(grid, vals, tag, sigma)
    clean = _clean_rows(grid)
    L = grid.time_levels
    onesided = np.zeros(L, dtype=bool)
    onesided[0] = onesided[-1] = True
    centered = ~onesided
    body = res[clean][:, centered]
    sup = float(np.nanmax(np.abs(body))) if body.size else float("nan")
    res2, elig = _residual_2h(grid, vals, tag, sigma)
    nrows = res.shape[0]
    band_nodes = np.full(nrows, np.nan)
    if res2 is not None and L > 4:
        diff = np.abs(res[:, 2:L - 2] - res2[:, 2:L - 2])
        with np.errstate(invalid="ignore"):
            per_row = np.nanmax(diff, axis=1) / 3.0
        band_nodes[elig] = 10.0 * per_row[elig] + 1e-13
    usable = clean & np.isfinite(band_nodes)
    if np.any(usable):
        band = float(np.max(band_nodes[usable]))
    else:
        band = heuristic_band(grid, vals) + 1e-13
    return ResidualReport(tag, res, sup, band, band_nodes, clean, onesided,
                          sigma)


def residual_Pi(fld):
    """Residual of D_inf(phi) - 3 phi^2 phi_t on interior nodes."""
    if fld.variable_tag != "phi":
        raise TransformError("residual_Pi expects a phi field")
    if fld.grid.time_levels < 3:
        raise TransformError("need at least 3 time levels for phi_t")
    return _make_report(fld.grid, fld.values, "Pi", 1.0)


def residual_Gamma(fld, sigma=1.0):
    """Residual of D_inf(eta) + sigma |D eta|^4 - 3 eta_t on interior nodes."""
    if fld.variable_tag != "eta":
        raise TransformError("residual_Gamma expects an eta field")
    if fld.grid.time_levels < 3:
        raise TransformError("need at least 3 time levels for eta_t")
    return _make_report(fld.grid, fld.values, "Gamma", sigma)


# ---------------------------------------------------------------------------
# separable solutions u(x) g(t)
# ---------------------------------------------------------------------------

@dataclass
class SeparableSolution:
    """phi(x, t) = u(x) g(t) with D_inf(u) + lam u^3 = 0.

    For g = e^{kt} the sign of 3k + lam decides the class: 3k = -lam is an
    exact solution, 3k < -lam a sub-solution, 3k > -lam a super-solution
    (for u >= 0).  For general C^1 g the exact residual is
    Pi(phi) = -g(t)^2 u(x)^3 (lam g(t) + 3 g'(t)).
    """

    spatial: Callable
    lam: float
    k: Optional[float]
    g: Callable
    gprime: Callable
    classification: Optional[str]

    def eval(self, x, t):
        return np.asarray(self.spatial(x)) * self.g(t)

    def residual_exact(self, x, t):
        u = np.asarray(self.spatial(x))
        gv = self.g(t)
        return -gv * gv * u ** 3 * (self.lam * gv + 3.0 * self.gprime(t))

    def as_field(self, grid):
        vals = np.empty((grid.n_nodes, grid.time_levels))
        u = np.asarray(self.spatial(grid.sample_pos))
        for j, tj in enumerate(grid.t):
            vals[:, j] = u * self.g(tj)
        return GridField(grid, vals, "phi",
                         {"separable_k": self.k, "lam": self.lam})


def make_separable(spatial, k=None, g=None, gprime=None, lam=None,
                   center=None):
    """Build phi(x,t) = u(x) g(t) from a radial profile or a callable u.

    ``spatial`` is a RadialProfile (its equation parameter is read off,
    with the sign convention D_inf(u) + lam u^3 = 0, so a growing profile
    contributes lam = -profile.lam) or a callable x -> u(x) with ``lam``
    given.  If ``g`` is omitted, g(t) = e^{kt}.  With g given, supply its
    derivative ``gprime``; no classification is recorded in that case.
    """
    from .radial import RadialProfile

    if isinstance(spatial, RadialProfile):
        prof = spatial
        lam_eff = prof.lam if prof.kind == "eigen_decaying" else -prof.lam
        ctr = np.zeros(1) if center is None else np.atleast_1d(
            np.asarray(center, dtype=float))

        def u_of_x(x):
            x = np.atleast_2d(np.asarray(x, dtype=float))
            r = np.linalg.norm(x - ctr, axis=-1)
            return prof.eval(np.minimum(r, prof.R))

        spatial_fn = u_of_x
    else:
        if lam is None:
            raise ValueError("callable spatial part needs lam")
        lam_eff = float(lam)
        spatial_fn = spatial

    if g is None:
        if k is None:
            raise ValueError("give a rate k or an explicit time factor g")
        kk = float(k)
        g_fn = lambda t: np.exp(kk * t)
        gp_fn = lambda t: kk * np.exp(kk * t)
        gap = 3.0 * kk + lam_eff
        if abs(gap) <= 1e-12 * max(1.0, abs(lam_eff)):
            cls = "exact"
        elif gap < 0:
            cls = "sub"
        else:
            cls = "super"
        return SeparableSolution(spatial_fn, lam_eff, kk, g_fn, gp_fn, cls)
    if gprime is None:
        raise ValueError("general time factor g requires gprime")
    return SeparableSolution(spatial_fn, lam_eff, k, g, gprime, None)


# ---------------------------------------------------------------------------
# elementary expansion bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LogIneqResult:
    log_gap: float
    exp_gap: float
    log_ok: bool
    exp_ok: bool


def log_inequality_check(c):
    """Two-sided second-order expansion bounds for log(1+c) and e^c.

    For |c| <= 1/3:  0 <= log(1+c) - (c - c^2/2) <= c^3 when c >= 0 (gap in
    [c^3, 0] when c < 0), and the same bracket for e^c - (1 + c + c^2/2).
    Returns the two gaps and whether each lies in its bracket.
    """
    if abs(c) > 1.0 / 3.0:
        raise ValueError("log_inequality_check requires |c| <= 1/3")
    log_gap = np.log1p(c) - (c - c * c / 2.0)
    exp_gap = np.expm1(c) - (c + c * c / 2.0)
    c3 = c ** 3
    if c >= 0:
        log_ok = -1e-16 <= log_gap <= c3 + 1e-16
        exp_ok = -1e-16 <= exp_gap <= c3 + 1e-16
    else:
        log_ok = c3 - 1e-16 <= log_gap <= 1e-16
        exp_ok = c3 - 1e-16 <= exp_gap <= 1e-16
    return LogIneqResult(float(log_gap), float(exp_gap), bool(log_ok),
                         bool(exp_ok))
