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

The centred operator reads the grid's flat lattice (see grids): each
level's node values go on grid.lattice(), and the axis and diagonal
neighbours of the interior range are its slices at step * (+-s_a +- s_b),
s_a the stride of axis a.  Step 1 is the h pass; step 2, on 2 * flat_off,
is the Richardson pass, which the lattice's pad keeps inside the array.
One routine computes the residual for either step.  The 2h pass and the
clean rows of a ball use grid.inner_rows, the rows whose whole stencil is
interior.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .grids import GridField, write_csv

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

def _infinity_laplacian_centered(grid, level_vals, step=1):
    """Sum_ab d_a(v) d_b(v) d2_ab(v) with centered differences of spacing
    step * h (h for step 1, 2h for the Richardson pass, step 2).

    The node values go on grid.lattice(), and every neighbour column is
    the slice of the interior range shifted by step * (+-s_a +- s_b), s_a
    the stride of axis a.  The lattice's pad keeps the 2h slices inside
    the array; on rows whose stencil is not all interior they may cross a
    lattice row, and those rows have no 2h value.  Returns (delta_inf,
    grad_sq) over interior rows.
    """
    n = grid.dim
    spacing = step * grid.h
    lat = grid.lattice(level_vals)
    lo, size = grid.lo, grid.hi - grid.lo
    s = [step * stride for stride in grid.strides]

    def at(off):
        return lat[lo + off:lo + off + size]

    c = at(0)
    vp = [at(s[a]) for a in range(n)]
    vm = [at(-s[a]) for a in range(n)]
    p = [(vp[a] - vm[a]) / (2.0 * spacing) for a in range(n)]
    grad_sq = sum(pa * pa for pa in p)
    out = np.zeros_like(c)
    for a in range(n):
        h_aa = (vp[a] + vm[a] - 2.0 * c) / spacing ** 2
        out += p[a] * p[a] * h_aa
    for a in range(n):
        for b in range(a + 1, n):
            h_ab = (at(s[a] + s[b]) + at(-s[a] - s[b])
                    - at(s[a] - s[b]) - at(s[b] - s[a])
                    ) / (4.0 * spacing ** 2)
            out += 2.0 * p[a] * p[b] * h_ab
    rows = grid.interior_pos
    return out[rows], grad_sq[rows]


def _time_derivative(vals, dt, stride=1):
    """Centered d/dt per level at spacing stride * dt, one-sided at the two
    end levels (NaN at the other levels within stride of the ends), shape
    preserved; needs L > 2 stride."""
    N, L = vals.shape
    out = np.full((N, L), np.nan)
    s = stride
    out[:, s:L - s] = (vals[:, 2 * s:] - vals[:, :L - 2 * s]) / (2 * s * dt)
    out[:, 0] = (-3 * vals[:, 0] + 4 * vals[:, 1] - vals[:, 2]) / (2 * dt)
    out[:, -1] = (3 * vals[:, -1] - 4 * vals[:, -2] + vals[:, -3]) / (2 * dt)
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
        """CSV rows (x..., t, residual), level by level."""
        L, idx = grid.time_levels, grid.interior_idx
        write_csv(path,
                  ",".join(f"x{i}" for i in range(grid.dim)) + ",t,residual",
                  np.column_stack((np.tile(grid.sample_pos[idx], (L, 1)),
                                   np.repeat(grid.t, idx.size),
                                   self.values.T.ravel())))


def _residual(grid, vals, tag, sigma, step, levels):
    """Residual on the interior rows at the given levels (one column per
    level), with spacing step * h in space and step * dt in time."""
    inner = vals[grid.interior_idx]
    vt = _time_derivative(inner, grid.dt_level, step)
    res = np.empty((inner.shape[0], len(levels)))
    for col, j in enumerate(levels):
        dinf, gsq = _infinity_laplacian_centered(grid, vals[:, j], step)
        if tag == "Pi":
            c = inner[:, j]
            res[:, col] = dinf - 3.0 * c * c * vt[:, j]
        else:
            res[:, col] = dinf + sigma * gsq * gsq - 3.0 * vt[:, j]
    return res


def heuristic_band(grid, vals):
    """10 (h + dt) (1 + max |vals|)^3, the residual band used where no
    h-versus-2h band can be formed."""
    scale = 1.0 + float(np.nanmax(np.abs(vals)))
    return 10.0 * (grid.h + grid.dt_level) * scale ** 3


def _make_report(grid, vals, tag, sigma):
    L = grid.time_levels
    res = _residual(grid, vals, tag, sigma, 1, range(L))
    inner = grid.inner_rows
    clean = inner | (grid.domain.kind != "ball")
    onesided = np.zeros(L, dtype=bool)
    onesided[0] = onesided[-1] = True
    centered = ~onesided
    body = res[clean][:, centered]
    sup = float(np.nanmax(np.abs(body))) if body.size else float("nan")
    band_nodes = np.full(res.shape[0], np.nan)
    if L > 4 and np.any(inner):
        res2 = _residual(grid, vals, tag, sigma, 2, range(2, L - 2))
        diff = np.abs(res[inner, 2:L - 2] - res2[inner])
        with np.errstate(invalid="ignore"):
            per_row = np.nanmax(diff, axis=1) / 3.0
        band_nodes[inner] = 10.0 * per_row + 1e-13
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
