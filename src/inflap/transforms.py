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

The centred operator reads the grid's flat lattice (see grids): a
level's node values go on grid.lattice(), and the axis and diagonal
neighbours of the interior range are its slices at step * (+-s_a +- s_b),
s_a the stride of axis a.  Step 1 is the h pass; step 2, on 2 * flat_off,
is the Richardson pass, which the lattice's pad keeps inside the array.
A report runs one level at a time, so beyond its values it holds nothing
of (N, L) size.  The 2h pass and the clean rows of a ball use
grid.inner_rows, the rows whose whole stencil is interior.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def to_eta(fld):
    """eta = log(phi).  Requires positive phi."""
    if fld.variable_tag != "phi":
        raise TransformError("to_eta expects a phi field")
    low = fld.values.min()
    if not low > 0.0:
        raise TransformError(
            f"phi must exceed 0.0 everywhere for the log transform "
            f"(min {low:.3g})"
        )
    return GridField(fld.grid, np.log(fld.values), "eta", dict(fld.meta))


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
    lattice row, and those rows have no 2h value.  The terms are formed in
    place on two scratch arrays.  Returns (delta_inf, grad_sq) over
    interior rows.
    """
    n = grid.dim
    spacing = step * grid.h
    lat = grid.lattice(level_vals)
    lo, size = grid.lo, grid.hi - grid.lo
    s = [step * stride for stride in grid.strides]

    def at(off):
        return lat[lo + off:lo + off + size]

    p = [np.subtract(at(s[a]), at(-s[a])) for a in range(n)]
    for pa in p:
        pa /= 2.0 * spacing
    # sums start from zeros, as sum() does, so signed zeros come out alike
    out, grad_sq = np.zeros(size), np.zeros(size)
    tmp, w, c2 = np.empty(size), np.empty(size), 2.0 * at(0)
    for a in range(n):
        grad_sq += np.multiply(p[a], p[a], out=w)
        np.add(at(s[a]), at(-s[a]), out=tmp)
        tmp -= c2
        tmp /= spacing ** 2
        w *= tmp
        out += w
    del c2
    for a in range(n):
        for b in range(a + 1, n):
            np.add(at(s[a] + s[b]), at(-s[a] - s[b]), out=tmp)
            tmp -= at(s[a] - s[b])
            tmp -= at(s[b] - s[a])
            tmp /= 4.0 * spacing ** 2
            np.multiply(p[a], 2.0, out=w)
            w *= p[b]
            w *= tmp
            out += w
    rows = grid.interior_pos
    return out[rows], grad_sq[rows]


@dataclass
class ResidualReport:
    """Residual of one equation form on the interior of a cylinder grid.

    values[row, level] follows grid.interior_idx ordering.  sup_norm is
    taken over "clean" rows (full lattice stencil, no projected ring
    corrections) and centered-in-time levels.  ``band`` is 10x the
    a-posteriori truncation estimate from a doubled-spacing pass; tests
    compare residual magnitudes against it (heuristic_band's with fewer
    than 5 levels).  values is the one (Ni, L) array a report makes.
    """

    values: np.ndarray
    sup_norm: float
    band: float
    band_nodes: np.ndarray
    clean_rows: np.ndarray
    onesided_levels: np.ndarray
    sigma: float = 1.0

    def to_csv(self, grid, path):
        """CSV rows (x..., t, residual), level by level."""
        L, idx = grid.time_levels, grid.interior_idx
        write_csv(path,
                  ",".join(f"x{i}" for i in range(grid.dim)) + ",t,residual",
                  np.column_stack((np.tile(grid.sample_pos[idx], (L, 1)),
                                   np.repeat(grid.t, idx.size),
                                   self.values.T.ravel())))


def _level_residual(grid, vals, j, step, tag, sigma, rows=slice(None)):
    """Residual at level j on the interior rows ``rows``, with spacing
    step * h in space and step * dt in time (one-sided at spacing dt at the
    two end levels)."""
    L, dt, idx = grid.time_levels, grid.dt_level, grid.interior_idx[rows]
    if j == 0:
        vt = (-3 * vals[idx, 0] + 4 * vals[idx, 1] - vals[idx, 2]) / (2 * dt)
    elif j == L - 1:
        vt = (3 * vals[idx, -1] - 4 * vals[idx, -2] + vals[idx, -3]) / (2 * dt)
    else:
        vt = (vals[idx, j + step] - vals[idx, j - step]) / (2 * step * dt)
    dinf, gsq = _infinity_laplacian_centered(grid, vals[:, j], step)
    dinf, gsq = dinf[rows], gsq[rows]
    if tag == "Pi":
        c = vals[idx, j]
        return dinf - 3.0 * c * c * vt
    return dinf + sigma * gsq * gsq - 3.0 * vt


def heuristic_band(grid, vals):
    """10 (h + dt) (1 + max |vals|)^3, the residual band used where no
    h-versus-2h band can be formed."""
    scale = 1.0 + float(max(np.max(vals), -np.min(vals)))
    return 10.0 * (grid.h + grid.dt_level) * scale ** 3


def _make_report(grid, vals, tag, sigma):
    # one level at a time; the sup (clean rows, centred levels) and the 2h
    # band (inner rows, levels 2 .. L - 3) are running maxima that skip
    # NaN, as nanmax does
    L, inner = grid.time_levels, grid.inner_rows
    clean = inner | (grid.domain.kind != "ball")
    onesided = np.isin(np.arange(L), (0, L - 1))
    res = np.empty((inner.size, L))
    sup = np.nan
    top = np.full(np.count_nonzero(inner), np.nan)
    for j in range(L):
        res[:, j] = _level_residual(grid, vals, j, 1, tag, sigma)
        if not onesided[j]:
            sup = np.fmax(sup, np.fmax.reduce(np.abs(res[clean, j]),
                                              initial=np.nan))
        if 2 <= j < L - 2 and top.size:
            diff = res[inner, j] - _level_residual(grid, vals, j, 2, tag,
                                                   sigma, inner)
            np.fmax(top, np.abs(diff, out=diff), out=top)
    band_nodes = np.full(inner.size, np.nan)
    band_nodes[inner] = 10.0 * (top / 3.0) + 1e-13
    usable = clean & np.isfinite(band_nodes)
    band = (float(np.max(band_nodes[usable])) if np.any(usable)
            else heuristic_band(grid, vals) + 1e-13)
    return ResidualReport(res, float(sup), band, band_nodes, clean, onesided,
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


def make_separable(spatial, k=None, g=None, gprime=None, lam=None):
    """Build phi(x,t) = u(x) g(t) from a radial profile or a callable u.

    ``spatial`` is a RadialProfile centred at the origin (its equation
    parameter is read off, with the sign convention D_inf(u) + lam u^3 = 0,
    so a growing profile contributes lam = -profile.lam) or a callable
    x -> u(x) with ``lam`` given.  If ``g`` is omitted, g(t) = e^{kt}.
    With g given, supply its derivative ``gprime``; no classification is
    recorded in that case.
    """
    from .radial import RadialProfile

    if isinstance(spatial, RadialProfile):
        prof = spatial
        lam_eff = prof.lam if prof.kind == "eigen_decaying" else -prof.lam

        def u_of_x(x):
            x = np.atleast_2d(np.asarray(x, dtype=float))
            r = np.linalg.norm(x, axis=-1)
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
