"""Sub/super-solution barrier catalog and Perron family machinery.

Every barrier is pinned to the boundary datum h at an anchor point of the
parabolic boundary: sub-solutions sit below h on all of P_T and reach
h - 2 eps at the anchor, super-solutions sit above h and reach h + 2 eps.
The sides mirror each other, so each construction is written once and
takes the side ("sub" or "super") as data:

  alpha / beta (glue)     anchor y at t = 0 (interior for alpha, boundary
                          for beta): a radial profile on a small ball,
                          decaying (sub) or growing (super) from the center
                          h(y) -+ 2 eps, glued to the constant m - 2 eps
                          (M + 2 eps) and carried by exp(-+ k t/3); alpha
                          has k = lam, beta the faster k >= lam that passes
                          the glue value by time tau.
  gamma (time tent)       lateral anchor (y, s); in the log variable under
                          the tent k (tau - |t - s|): the sub cone
                          tent - c r + log(m-2eps) with c^4 = 3k (exact
                          below s), the super cusp c r^nu - tent
                          + log(M+2eps) with nu = 1/(1+2 Gamma),
                          Gamma = log((M+2eps)/(m+2eps)).
  staircase_sup           slab functions psi(x) g_k(t) / 2^(k-1) forcing
                          geometric decay under decaying lateral data.
  minm_bump               the strong-minimum instrument
                          K (rho^2-|x-y|^2)^2 h(t).
  exist13_bump            the quadratic jet improvement used to show the
                          Perron supremum is a super-solution.

The envelopes, the Perron sup/inf and the family builders are likewise
one body each, with max/min or the side's makers as data.  Neighborhood
sizes (delta, tau) come from a continuity modulus of h, read off its
samples on the grid's P_T with geometric back-off: the BoundarySamples
record of sample_boundary_data (once per grid), whose (N,) initial slab
and (Nb, L-2) ring block the back-off reduces directly.  Anchors with
h(anchor) = m (sub) or = M (super) return the constant barrier (the right
convention for flat data, where no pinned bump is available).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .grids import GridField, sample_boundary_data
from .quadrature import bisect_monotone, decay_table, grow_table
from .radial import RadialProfile, decaying_profile, growing_profile

__all__ = [
    "BarrierError",
    "BarrierSpec",
    "Barrier",
    "make_alpha_sub",
    "make_beta_sub",
    "make_gamma_sub_cone",
    "make_alpha_sup",
    "make_beta_sup",
    "make_gamma_sup_cusp",
    "StaircaseBarrier",
    "make_staircase_sup",
    "MinmBump",
    "make_minm_bump",
    "Asym01Barrier",
    "make_asym01_barrier",
    "QuadraticBump",
    "make_exist13_bump",
    "usc_envelope",
    "lsc_envelope",
    "perron_family_sup",
    "perron_family_inf",
    "build_sub_family",
    "build_sup_family",
    "jet_touch_test",
    "barrier_catalog_json",
]


class BarrierError(ValueError):
    """Barrier construction failure (bad anchor, data, or parameters)."""


@dataclass
class BarrierSpec:
    family: str
    anchor: tuple           # (y tuple, s)
    epsilon: float
    derived: dict = field(default_factory=dict)
    constant: bool = False


@dataclass
class Barrier:
    """Evaluable barrier on the closed cylinder; kind 'sub' or 'super'."""

    spec: BarrierSpec
    kind: str
    _eval: Callable
    region_residual: Optional[Callable] = None

    def eval(self, points, t):
        """Barrier values at points (N, n) and scalar time t."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return self._eval(pts, float(t))

    def eval_field(self, grid):
        fld = GridField.from_function(grid, self.eval)
        fld.meta = {"barrier": self.spec.family}
        return fld


# ---------------------------------------------------------------------------
# continuity modulus by geometric back-off
# ---------------------------------------------------------------------------

def _modulus_backoff(hs, anchor_pt, anchor_t, anchor_val, eps, delta0, tau0):
    """Shrink (delta, tau) until the oscillation of the P_T samples of h
    (hs, the BoundarySamples of sample_boundary_data) on the space-time
    neighborhood of the anchor is <= eps."""
    grid = hs.grid
    dev0, dev = np.abs(hs.slab - anchor_val), np.abs(hs.ring - anchor_val)
    dx = np.linalg.norm(grid.sample_pos - np.asarray(anchor_pt), axis=1)
    dx_ring = dx[grid.boundary_idx]
    dt0, dt_ring = abs(grid.t[0] - anchor_t), np.abs(grid.t[1:-1] - anchor_t)
    delta, tau = float(delta0), float(tau0)
    for _ in range(60):
        osc = dev[dx_ring <= delta][:, dt_ring <= tau].max(initial=0.0)
        if dt0 <= tau:   # the initial slab is in the neighborhood
            osc = max(osc, dev0[dx <= delta].max(initial=0.0))
        if osc <= eps:
            return delta, tau
        delta *= 0.5
        tau *= 0.5
    raise BarrierError(
        "no neighborhood size achieves the oscillation bound; "
        "data looks discontinuous at the anchor"
    )


# ---------------------------------------------------------------------------
# pinned sub/super barriers: one construction per family, side as data
# ---------------------------------------------------------------------------

def _sampled(bd, grid, eps, kind):
    """h on the P_T of grid (sampled once per grid), with room for a sub
    barrier below m."""
    hs = sample_boundary_data(bd, grid)
    if kind == "sub" and not bd.m - 2.0 * eps > 0:
        raise BarrierError(f"need m - 2 eps > 0 (m={bd.m}, eps={eps})")
    return hs


def _flat_barrier(family, anchor, eps, bd, kind, datum):
    """The constant barrier m (sub) or M (super) when the datum at the
    anchor already sits at that bound, else None."""
    if kind == "sub":
        flat, value = datum <= bd.m * (1.0 + 1e-12), bd.m
    else:
        flat, value = datum >= bd.M * (1.0 - 1e-12), bd.M
    if not flat:
        return None
    spec = BarrierSpec(family, anchor, eps, {"value": value}, constant=True)
    return Barrier(spec, kind, lambda pts, t: np.full(len(pts), value))


def _glued(kind, family, y, eps, bd, grid):
    """alpha (interior anchor) or beta (boundary anchor) barrier at t = 0.

    The radial profile on the ball B_delta(y) runs from the center
    h(y) -+ 2 eps to the glue value m - 2 eps (sub, decaying profile) or
    M + 2 eps (super, growing profile); its parameter lam inverts the
    profile table at glue/center directly, which is unique because the
    center is monotone in lam.
    """
    hs = _sampled(bd, grid, eps, kind)
    sub = kind == "sub"
    name = f"{family}_{'sub' if sub else 'sup'}"
    dom = grid.domain
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if family == "alpha" and not dom.contains(y[None, :])[0]:
        raise BarrierError("alpha anchor must be interior")
    fy = float(bd.f(y[None, :])[0])
    anchor = (tuple(y), 0.0)
    flat = _flat_barrier(name, anchor, eps, bd, kind, fy)
    if flat is not None:
        return flat
    if family == "alpha":
        delta0 = 0.98 * float(dom.boundary_distance(y[None, :])[0])
    else:
        delta0 = 0.5 * dom.diameter()
    delta, tau = _modulus_backoff(hs, y, 0.0, fy, eps, delta0, grid.T)
    if sub:
        glue, center = bd.m - 2.0 * eps, fy - 2.0 * eps
        low, high, table = glue, center, decay_table()
    else:
        glue, center = bd.M + 2.0 * eps, fy + 2.0 * eps
        low, high, table = center, glue, grow_table()
    if high <= low:
        raise BarrierError(f"{name}: the center {center} and the glue "
                           f"value {glue} are in the wrong order")
    lam = (float(table.value(glue / center)) / delta) ** 4
    prof = (decaying_profile(delta, lam, glue, fixed_which="delta") if sub
            else growing_profile(delta, lam, center))
    derived = {"lam": lam}
    rate = lam
    if family == "beta":
        rate = max(lam, 3.0 / tau * math.log(high / low))
        derived.update(k=rate, tau=tau)
    derived.update(delta_ball=delta, glue=glue,
                   center=prof.m if sub else center)

    # eval_field samples every time level at the same points, and only the
    # time factor changes, so the profile is kept for the last point set.
    # The match is by value, never by identity: a caller may mutate its
    # point array in place.
    last_pts, last_base = None, None

    def evaluate(pts, t):
        nonlocal last_pts, last_base
        if last_pts is None or not np.array_equal(last_pts, pts):
            r = np.linalg.norm(pts - y, axis=1)
            base = np.full(len(pts), glue)
            inside = r <= delta
            if inside.any():
                core = prof.eval(r[inside])
                base[inside] = core if sub else np.minimum(core, glue)
            last_pts, last_base = pts.copy(), base
        base = last_base
        if sub:
            return base * math.exp(-rate * t / 3.0)
        # super rates near the anchor can be enormous (lam ~ delta^-4); the
        # clipped e^700 ~ 1e304 still dominates any datum
        return base * math.exp(min(rate * t / 3.0, 700.0))

    return Barrier(BarrierSpec(name, anchor, eps, derived), kind, evaluate)


def make_alpha_sub(y, eps, bd, grid):
    """Sub barrier anchored at an interior point at t = 0."""
    return _glued("sub", "alpha", y, eps, bd, grid)


def make_beta_sub(y, eps, bd, grid):
    """Sub barrier anchored at a boundary point at t = 0."""
    return _glued("sub", "beta", y, eps, bd, grid)


def make_alpha_sup(y, eps, bd, grid):
    """Super barrier anchored at an interior point at t = 0."""
    return _glued("super", "alpha", y, eps, bd, grid)


def make_beta_sup(y, eps, bd, grid):
    """Super barrier anchored at a boundary point at t = 0."""
    return _glued("super", "beta", y, eps, bd, grid)


def _lateral_anchor(kind, family, y, s, eps, bd, grid):
    """Prologue of the gamma makers at the lateral anchor (y, s).

    Returns (y, h(y, s), flat, delta, tau): flat is the constant barrier
    where h(y, s) sits at m (sub) or M (super), and (delta, tau) the
    backed-off neighborhood otherwise.
    """
    hs = _sampled(bd, grid, eps, kind)
    if not 0.0 < s < grid.T:
        raise BarrierError("gamma anchor needs 0 < s < T")
    y = np.atleast_1d(np.asarray(y, dtype=float))
    hys = float(bd.g(y[None, :], s)[0])
    flat = _flat_barrier(family, (tuple(y), s), eps, bd, kind, hys)
    if flat is not None:
        return y, hys, flat, None, None
    delta, tau = _modulus_backoff(hs, y, s, hys, eps,
                                  0.5 * grid.domain.diameter(),
                                  min(s, grid.T - s))
    return y, hys, None, delta, tau


def _tent(k, s, tau, t):
    """(k (tau - |t - s|), t < s) on the tent [s - tau, s + tau], else
    None."""
    if s <= t <= s + tau:
        return k * (s + tau - t), False
    if s - tau <= t < s:
        return k * (t - s + tau), True
    return None


def make_gamma_sub_cone(y, s, eps, bd, grid):
    """Sub barrier at a lateral anchor (y, s), s > 0: the double cone bump.

    In the log variable the lower cone solves the equation exactly
    (c^4 = 3k); the region residual is c^4 - 3k = 0 below the anchor time
    and c^4 + 3k above it.
    """
    y, hys, flat, delta0, tau = _lateral_anchor("sub", "gamma_sub_cone", y,
                                                s, eps, bd, grid)
    if flat is not None:
        return flat
    log_ratio = math.log((hys - 2.0 * eps) / (bd.m - 2.0 * eps))
    for _ in range(200):
        delta_cone = (tau / 3.0) ** 0.25 * log_ratio ** 0.75
        if delta_cone <= delta0:
            break
        tau *= 0.5
    else:
        raise BarrierError("cone neighborhood shrink failed")
    k = log_ratio / tau
    c = (3.0 * k) ** 0.25
    delta = k * tau / c
    log_glue = math.log(bd.m - 2.0 * eps)

    def evaluate(pts, t):
        r = np.linalg.norm(pts - y, axis=1)
        eta = np.full(len(pts), log_glue)
        tent = _tent(k, s, tau, t)
        if tent is not None:
            lim = tent[0]
            mask = c * r <= lim
            eta[mask] = lim - c * r[mask] + log_glue
        return np.exp(eta)

    def region_residual(pts, t):
        """Closed-form Gamma residual inside the cones, NaN outside."""
        r = np.linalg.norm(np.atleast_2d(pts) - y, axis=1)
        out = np.full(len(r), np.nan)
        tent = _tent(k, s, tau, t)
        if tent is not None:
            lim, below = tent
            out[c * r < lim] = c ** 4 - 3.0 * k if below else c ** 4 + 3.0 * k
        return out

    spec = BarrierSpec("gamma_sub_cone", (tuple(y), s), eps,
                       {"k": k, "c": c, "tau": tau, "delta": delta,
                        "log_glue": log_glue})
    # defining relations (checked):
    assert abs(c ** 4 - 3.0 * k) < 1e-10 * max(1.0, k)
    assert abs(delta - k * tau / c) < 1e-12 * max(1.0, delta)
    return Barrier(spec, "sub", evaluate, region_residual)


def make_gamma_sup_cusp(y, s, eps, bd, grid):
    """Super barrier at a lateral anchor (y, s): the cusp bump."""
    y, hys, flat, delta1, tau = _lateral_anchor("super", "gamma_sup_cusp", y,
                                                s, eps, bd, grid)
    if flat is not None:
        return flat
    gam = math.log((bd.M + 2.0 * eps) / (bd.m + 2.0 * eps))
    nu = 1.0 / (1.0 + 2.0 * gam)
    k = math.log((bd.M + 2.0 * eps) / (hys + 2.0 * eps)) / tau
    delta = min(delta1, nu * (k * k * tau ** 3 * gam / 3.0) ** 0.25)
    c = k * tau / delta ** nu
    log_top = math.log(bd.M + 2.0 * eps)

    def evaluate(pts, t):
        r = np.linalg.norm(pts - y, axis=1)
        eta = np.full(len(pts), log_top)
        tent = _tent(k, s, tau, t)
        if tent is not None:
            lim = tent[0]
            mask = (c * r ** nu <= lim) & (r <= delta)
            eta[mask] = c * r[mask] ** nu - lim + log_top
        return np.exp(eta)

    def region_residual(pts, t):
        """Closed-form Gamma residual inside the cusps (r > 0), NaN outside.

        3k + c^3 nu^4 r^(3nu-4) (c r^nu - (1-nu)/nu) below the anchor time,
        -3k + (same spatial part) above it; both are <= 0 by construction.
        """
        r = np.linalg.norm(np.atleast_2d(pts) - y, axis=1)
        out = np.full(len(r), np.nan)
        spatial = np.full(len(r), np.nan)
        pos = r > 0
        spatial[pos] = c ** 3 * nu ** 4 * r[pos] ** (3.0 * nu - 4.0) * (
            c * r[pos] ** nu - (1.0 - nu) / nu)
        tent = _tent(k, s, tau, t)
        if tent is not None:
            lim, below = tent
            mask = pos & (c * r ** nu < lim) & (r <= delta)
            out[mask] = (3.0 * k if below else -3.0 * k) + spatial[mask]
        return out

    spec = BarrierSpec("gamma_sup_cusp", (tuple(y), s), eps,
                       {"k": k, "c": c, "nu": nu, "tau": tau, "delta": delta,
                        "Gamma": gam, "log_top": log_top})
    assert 0.0 < nu < 1.0
    assert abs(c - k * tau / delta ** nu) < 1e-10 * max(1.0, c)
    return Barrier(spec, "super", evaluate, region_residual)


# ---------------------------------------------------------------------------
# staircase super-solutions on time slabs
# ---------------------------------------------------------------------------

@dataclass
class StaircaseBarrier:
    """Slab functions psi(|x|) g_k(t) / 2^(k-1) on [T_k, T_(k+1)]."""

    psi: RadialProfile
    lam_bar: float
    eps: float
    times: np.ndarray       # T_1 .. T_(K+1)

    @property
    def n_slabs(self):
        return len(self.times) - 1

    def g_k(self, k, t):
        t1, t2 = self.times[k - 1], self.times[k]
        e = math.exp(self.lam_bar * (t2 - t1) / 3.0)
        num = np.exp(self.lam_bar * (t2 - np.asarray(t)) / 3.0) - 1.0
        return 0.5 * (1.0 + num / (e - 1.0))

    def slab_of(self, t):
        k = int(np.searchsorted(self.times, t, side="right"))
        if k < 1 or t > self.times[-1]:
            raise ValueError(f"t={t} outside staircase window "
                             f"[{self.times[0]}, {self.times[-1]}]")
        return min(k, self.n_slabs)

    def _psi_at(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        r = np.linalg.norm(pts, axis=1)
        return self.psi.eval(np.minimum(r, self.psi.R))

    def eval(self, points, t):
        k = self.slab_of(t)
        return self._psi_at(points) * self.g_k(k, t) / 2.0 ** (k - 1)

    def envelope_at(self, points, k):
        """The bound psi(x)/2^k valid at time T_(k+1)."""
        return self._psi_at(points) / 2.0 ** k

    def slab_residual(self, points, t):
        """Closed-form Pi residual of the active slab (nonpositive)."""
        k = self.slab_of(t)
        t1, t2 = self.times[k - 1], self.times[k]
        psi_v = self._psi_at(points)
        gk = self.g_k(k, t)
        e = math.exp(self.lam_bar * (t2 - t1) / 3.0)
        return (-self.lam_bar * psi_v ** 3 * gk ** 2
                / 2.0 ** (3 * (k - 1) + 1) * (e - 2.0) / (e - 1.0))


def make_staircase_sup(bd, psi, eps, n_slabs=5, lateral_sup=None):
    """Build the slab sequence below decaying lateral data.

    ``psi`` must be a decaying profile with boundary value eps (its
    equation parameter is the staircase rate lam_bar), centred at the
    origin.  ``lateral_sup`` maps t to sup over the lateral boundary of g;
    by default it is read off bd.params for catalog data.  The slab times
    satisfy exp(lam_bar (T_(k+1)-T_k)/3) >= 2, T_(k+1) >= T_k + 1, and
    lateral_sup(t) <= eps/2^(k+1) for t >= T_(k+1).  Raises BarrierError
    if lateral_sup does not fall to a level it needs before t = 1e6.
    """
    if abs(psi.delta - eps) > 1e-9 * max(1.0, eps):
        raise BarrierError("psi must have boundary value eps")
    lam_bar = psi.lam
    if lateral_sup is None:
        if bd.params.get("rate") is None:
            raise BarrierError("need lateral_sup or a 'rate' data parameter")
        g0 = bd.params.get("g0", 1.0)
        rate = bd.params["rate"]
        lateral_sup = lambda t: g0 * math.exp(-rate * t)
    if not lateral_sup(10.0) < lateral_sup(0.0):
        raise BarrierError("staircase needs decaying lateral data")

    def threshold(level):
        if lateral_sup(0.0) <= level:
            return 0.0
        lo, hi = 0.0, 1.0
        while lateral_sup(hi) > level:
            hi *= 2.0
            if hi > 1e6:
                raise BarrierError("lateral data does not decay below "
                                   f"{level:g} before t=1e+06")
        return bisect_monotone(lambda t: level - lateral_sup(t), lo, hi,
                               xtol=1e-10)

    min_gap = max(1.0, 3.0 * math.log(2.0) / lam_bar)
    times = [threshold(eps / 2.0)]
    for k in range(1, n_slabs + 1):
        t_next = max(times[-1] + min_gap, threshold(eps / 2.0 ** (k + 1)))
        times.append(t_next)
    return StaircaseBarrier(psi, lam_bar, eps, np.array(times))


# ---------------------------------------------------------------------------
# strong-minimum bump and jet-improvement bump
# ---------------------------------------------------------------------------

@dataclass
class MinmBump:
    """psi(x,t) = K (rho^2 - |x-y|^2)^2 h(t) on B_rho(y) x [s-e, s+e/3]."""

    y: np.ndarray
    s: float
    eps_t: float
    rho: float
    sigma: float
    delta: float
    K: float

    def h_t(self, t):
        return 1.0 - (np.asarray(t) - self.s + self.eps_t) / (2.0 * self.eps_t)

    def time_window(self):
        return self.s - self.eps_t, self.s + self.eps_t / 3.0

    def eval(self, points, t):
        lo, hi = self.time_window()
        if not lo - 1e-12 <= t <= hi + 1e-12:
            raise ValueError(f"t={t} outside bump window [{lo}, {hi}]")
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        r2 = np.sum((pts - self.y) ** 2, axis=1)
        core = np.clip(self.rho ** 2 - r2, 0.0, None)
        return self.K * core ** 2 * self.h_t(t)

    def residual_exact(self, points, t):
        """D_inf psi + sigma |D psi|^4 - 3 psi_t inside the ball."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        r2 = np.sum((pts - self.y) ** 2, axis=1)
        core = self.rho ** 2 - r2
        h = float(self.h_t(t))
        K = self.K
        dinf = -64.0 * K ** 3 * r2 * core ** 2 * (self.rho ** 2 - 3 * r2) \
            * h ** 3
        grad4 = (4.0 * K) ** 4 * r2 ** 2 * core ** 4 * h ** 4
        psi_t = -K * core ** 2 / (2.0 * self.eps_t)
        return dinf + self.sigma * grad4 - 3.0 * psi_t

    def residual_lower_bound(self, points):
        """The proof's bound K core^2 (3/(2e) - 64 K^2 rho^4 (1+4|s|rho^4))."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        r2 = np.sum((pts - self.y) ** 2, axis=1)
        core = np.clip(self.rho ** 2 - r2, 0.0, None)
        cap = 3.0 / (2.0 * self.eps_t) - 64.0 * self.K ** 2 * self.rho ** 4 \
            * (1.0 + 4.0 * abs(self.sigma) * self.rho ** 4)
        return self.K * core ** 2 * cap


def make_minm_bump(y, s, eps_t, rho, sigma, delta):
    """Strong-minimum instrument; K capped so the bump is a sub-solution
    of the sigma-log equation on its cylinder and tops out at delta."""
    if min(eps_t, rho, delta) <= 0:
        raise BarrierError("eps_t, rho, delta must be positive")
    K = min(
        math.sqrt(3.0 / (128.0 * eps_t * rho ** 4
                         * (1.0 + 4.0 * abs(sigma) * rho ** 4))),
        delta / rho ** 4,
        1.0,
    )
    if not K > 0:
        raise BarrierError("degenerate K cap")
    return MinmBump(np.atleast_1d(np.asarray(y, dtype=float)), float(s),
                    float(eps_t), float(rho), float(sigma), float(delta), K)


#: 3^4 / 4^3, the constant relating the 4/3-power profile to its D_inf
POWER_SIGMA = 81.0 / 64.0


@dataclass
class Asym01Barrier:
    """Stationary boundary barrier u_z(r) = delta + K_z (R_z^(4/3)
    - (R_z - r)^(4/3)), r = |x - z| from a boundary point z.

    With K_z = L max(R_z^(-4/3), (lam sigma)^(1/3)), sigma = 3^4/4^3, its
    infinity-Laplacian is the constant -K_z^3/sigma <= -lam L^3, it
    vanishes to delta at z, and it tops any function bounded by L at
    r = R_z; comparison then bounds positive solutions of the stationary
    problem by delta + C L dist(x, boundary) near the boundary."""

    z: np.ndarray
    delta: float
    lam: float
    L: float
    R_z: float
    K_z: float
    derived: dict = field(default_factory=dict)

    def eval(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        r = np.linalg.norm(pts - self.z, axis=1)
        core = np.clip(self.R_z - r, 0.0, None)
        return self.delta + self.K_z * (self.R_z ** (4.0 / 3.0)
                                        - core ** (4.0 / 3.0))

    def dinf(self, points):
        """Closed-form D_inf at r in (0, R_z): the constant -K_z^3/sigma."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        r = np.linalg.norm(pts - self.z, axis=1)
        out = np.full(len(r), -self.K_z ** 3 / POWER_SIGMA)
        out[(r <= 0.0) | (r >= self.R_z)] = np.nan
        return out


def _farthest_distance(domain, z):
    """sup over the closure of the domain of |x - z|."""
    if domain.kind == "ball":
        c, R = domain.bounds
        return float(np.linalg.norm(np.asarray(z) - np.asarray(c)) + R)
    corners = np.array(np.meshgrid(*[(a, b) for a, b in domain.bounds],
                                   indexing="ij")).reshape(domain.dim, -1).T
    return float(np.max(np.linalg.norm(corners - np.asarray(z), axis=1)))


def make_asym01_barrier(z, L, lam, delta, domain):
    """The 4/3-power boundary barrier anchored at z on the boundary.

    Also records the linear-in-distance constant
    C = (4 R_1^(1/3)/3) max(R_0^(-4/3), (lam sigma)^(1/3)) in
    ``derived`` (R_0, R_1 = extremes of R_z over the boundary), so that
    positive stationary solutions psi with boundary value delta obey
    psi - delta <= C (sup psi) dist(., boundary) near the boundary.
    """
    if lam <= 0 or L <= 0:
        raise BarrierError("asym01 barrier needs lam > 0 and L > 0")
    z = np.atleast_1d(np.asarray(z, dtype=float))
    R_z = _farthest_distance(domain, z)
    K_z = L * max(R_z ** (-4.0 / 3.0), (lam * POWER_SIGMA) ** (1.0 / 3.0))
    # boundary extremes of R_z for the distance constant
    if domain.kind == "ball":
        r0 = r1 = 2.0 * domain.bounds[1]
    else:   # an interval is a box of one axis
        full = np.array([b - a for a, b in domain.bounds])
        half = 0.5 * full
        # face centers, and corners (the diameter)
        r0 = float(np.min(np.sqrt(full ** 2 + np.sum(half ** 2) - half ** 2)))
        r1 = float(np.linalg.norm(full))
    C = (4.0 * r1 ** (1.0 / 3.0) / 3.0) * max(
        r0 ** (-4.0 / 3.0), (lam * POWER_SIGMA) ** (1.0 / 3.0))
    return Asym01Barrier(z, float(delta), float(lam), float(L), R_z, K_z,
                         {"K_z": K_z, "R_z": R_z, "R_0": r0, "R_1": r1,
                          "C": C, "sigma": POWER_SIGMA})


@dataclass
class QuadraticBump:
    """psi(x,t) = w0 + a(t-th) + <p,x-z> + <X(x-z),x-z>/2 + delta
    - nu (|x-z|^2 + |t-th|), the local improvement of a failed
    super-solution jet with margin mu = <Xp,p> - 3 a w0^2 > 0."""

    z: np.ndarray
    theta: float
    a: float
    p: np.ndarray
    X: np.ndarray
    w0: float
    delta: float
    nu: float

    @property
    def mu(self):
        return float(self.p @ self.X @ self.p - 3.0 * self.a * self.w0 ** 2)

    def eval(self, points, t):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        dx = pts - self.z
        quad = 0.5 * np.einsum("ni,ij,nj->n", dx, self.X, dx)
        return (self.w0 + self.a * (t - self.theta) + dx @ self.p + quad
                + self.delta
                - self.nu * (np.sum(dx ** 2, axis=1) + abs(t - self.theta)))

    def pi_residual(self, points, t):
        """Worst-case Pi over the two time-slope branches a -/+ nu."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        dx = pts - self.z
        grad = self.p + dx @ (self.X - 2.0 * self.nu * np.eye(len(self.z)))
        hess = self.X - 2.0 * self.nu * np.eye(len(self.z))
        second = np.einsum("ni,ij,nj->n", grad, hess, grad)
        val = self.eval(points, t)
        worst = np.minimum(second - 3.0 * (self.a - self.nu) * val ** 2,
                           second - 3.0 * (self.a + self.nu) * val ** 2)
        return worst


def make_exist13_bump(z, theta, jet, w0, delta, nu):
    """Quadratic improvement bump from a jet (a, p, X) violating the
    super-solution inequality at (z, theta) with w^(ls) value w0."""
    a, p, X = jet
    p = np.atleast_1d(np.asarray(p, dtype=float))
    X = np.atleast_2d(np.asarray(X, dtype=float))
    mu = float(p @ X @ p - 3.0 * a * w0 ** 2)
    if not mu > 0:
        raise BarrierError(f"jet margin mu={mu:.3g} must be positive")
    if delta >= mu / 2.0:
        raise BarrierError("delta must stay below mu/2")
    return QuadraticBump(np.atleast_1d(np.asarray(z, dtype=float)),
                         float(theta), float(a), p, X, float(w0),
                         float(delta), float(nu))


# ---------------------------------------------------------------------------
# discrete semicontinuous envelopes
# ---------------------------------------------------------------------------

def _sweep(grid, vals, frozen, op):
    """One space-time neighborhood reduction by op (np.maximum dilates,
    np.minimum erodes) with the frozen entries restored.

    The space neighbourhood of an interior node is the 3^n box around it,
    reduced over all levels at once by grid.box_reduce; the other nodes
    are frozen, so only the interior rows are reduced.  The box is the
    grid's, not the solver's stencil, so a wider kernel stencil leaves the
    envelopes as they are.
    """
    sp = vals.copy()
    sp[grid.interior_idx] = grid.box_reduce(grid.lattice(vals), op)
    out = sp.copy()
    out[:, 1:] = op(out[:, 1:], sp[:, :-1])
    out[:, :-1] = op(out[:, :-1], sp[:, 1:])
    out[frozen] = vals[frozen]
    return out


def _frozen_mask(grid):
    # prescribed entries: ring nodes at every level plus the initial slab;
    # envelopes regularize interior values only
    frozen = np.zeros((grid.n_nodes, grid.time_levels), dtype=bool)
    frozen[~grid.interior_mask, :] = True
    frozen[:, 0] = True
    return frozen


def _envelope(fld, max_sweeps, lift, other):
    """Iterate v <- lift(v, other-sweep(lift-sweep(v))) to a fixed point.

    Raises ValueError on non-finite entries: a NaN would spread over every
    free entry and keep the iteration from reaching its fixed point.
    """
    if not np.all(np.isfinite(fld.values)):
        raise ValueError("envelopes need a finite field")
    grid = fld.grid
    frozen = _frozen_mask(grid)
    vals = fld.values.copy()
    for _ in range(max_sweeps):
        cand = _sweep(grid, _sweep(grid, vals, frozen, lift), frozen, other)
        new = lift(vals, cand)
        if np.array_equal(new, vals):
            break
        vals = new
    return GridField(fld.grid, vals, fld.variable_tag, dict(fld.meta))


def usc_envelope(fld, max_sweeps=64):
    """Discrete upper semicontinuous envelope over the finest grid stencil.

    Iterates v <- max(v, erode(dilate(v))) with P_T-style entries frozen
    (ring nodes, initial slab) until a fixed point: >= field, idempotent,
    lifts isolated downward spikes to their neighborhood sup, and leaves
    smoothly varying samples unchanged.
    """
    return _envelope(fld, max_sweeps, np.maximum, np.minimum)


def lsc_envelope(fld, max_sweeps=64):
    """Discrete lower semicontinuous envelope (dual of usc_envelope)."""
    return _envelope(fld, max_sweeps, np.minimum, np.maximum)


# ---------------------------------------------------------------------------
# Perron families
# ---------------------------------------------------------------------------

def _perron(barrs, grid, op, label):
    if not barrs:
        raise BarrierError("empty barrier family")
    vals = barrs[0].eval_field(grid).values
    for b in barrs[1:]:
        vals = op(vals, b.eval_field(grid).values)
    return GridField(grid, vals, "phi", {"perron": label,
                                         "family_size": len(barrs)})


def perron_family_sup(barrs, grid):
    """Pointwise supremum of a finite sub-barrier family on the grid."""
    return _perron(barrs, grid, np.maximum, "sup")


def perron_family_inf(barrs, grid):
    """Pointwise infimum of a finite super-barrier family on the grid."""
    return _perron(barrs, grid, np.minimum, "inf")


def _build_family(makers, grid, bd, eps, space_stride, time_stride,
                  interior_stride):
    alpha, beta, gamma = makers
    fam = [alpha(grid.sample_pos[i], eps, bd, grid)
           for i in grid.interior_idx[::interior_stride]]
    fam += [beta(grid.sample_pos[i], eps, bd, grid)
            for i in grid.boundary_idx[::space_stride]]
    for j in range(1, grid.time_levels - 1, time_stride):
        fam += [gamma(grid.sample_pos[i], grid.t[j], eps, bd, grid)
                for i in grid.boundary_idx[::space_stride]]
    return fam


def build_sub_family(grid, bd, eps, space_stride=1, time_stride=4,
                     interior_stride=4):
    """Anchors on a P_T net: alpha at strided interior nodes (t=0), beta at
    boundary nodes (t=0), cones at strided lateral node-levels."""
    return _build_family((make_alpha_sub, make_beta_sub, make_gamma_sub_cone),
                         grid, bd, eps, space_stride, time_stride,
                         interior_stride)


def build_sup_family(grid, bd, eps, space_stride=1, time_stride=4,
                     interior_stride=4):
    """The super mirror of build_sub_family, with cusps at the lateral
    anchors."""
    return _build_family((make_alpha_sup, make_beta_sup, make_gamma_sup_cusp),
                         grid, bd, eps, space_stride, time_stride,
                         interior_stride)


def barrier_catalog_json(barrs):
    """Serializable description (family, anchor, derived constants)."""
    return [{
        "family": b.spec.family,
        "kind": b.kind,
        "anchor": [list(b.spec.anchor[0]), b.spec.anchor[1]],
        "epsilon": b.spec.epsilon,
        "constant": b.spec.constant,
        "derived": {k: float(v) for k, v in b.spec.derived.items()},
    } for b in barrs]


# ---------------------------------------------------------------------------
# numeric jet test at seams
# ---------------------------------------------------------------------------

def _two_ring(grid, node):
    """The nodes at most two steps from node, in increasing order, where a
    step joins two nodes at most one lattice step apart along every axis
    (the stencil of an interior node) of which at least one is interior."""
    z = np.rint((grid.pos - grid.pos[0]) / grid.h).astype(np.int64)
    inside = grid.interior_mask
    ring = [node]
    for _ in range(2):
        near = np.zeros(grid.n_nodes, dtype=bool)
        for i in ring:
            step = np.max(np.abs(z - z[i]), axis=1) <= 1
            near |= step if inside[i] else step & inside
            near[i] = True
        ring = np.flatnonzero(near)
    return ring.tolist()


def jet_touch_test(fld, node, level, kind="sub"):
    """Fit the closest quadratic-in-(x,t) touching the field at a node from
    above (sub case; from below for super) on the 2-ring space-time
    neighborhood, and evaluate the jet inequality <Xp,p> - 3 a w^2.

    Returns (passed, value, jet).  Sub-solutions need value >= -1e-7 at
    every node; super-solutions need value <= 1e-7.
    """
    from scipy.optimize import minimize

    grid = fld.grid
    nodes = _two_ring(grid, node)
    levels = range(max(0, level - 2), min(grid.time_levels, level + 3))
    x0 = grid.sample_pos[node]
    t0 = grid.t[level]
    w0 = fld.values[node, level]
    pts, dts, w = [], [], []
    for j in levels:
        for i in nodes:
            if i == node and j == level:
                continue
            if not np.isfinite(fld.values[i, j]):
                continue
            pts.append(grid.sample_pos[i] - x0)
            dts.append(grid.t[j] - t0)
            w.append(fld.values[i, j])
    pts = np.array(pts)
    dts = np.array(dts)
    w = np.array(w)
    n = grid.dim
    hs = grid.h
    ts = max(grid.dt_level, 1e-12)

    iu = np.triu_indices(n)

    def predict(params):
        a = params[0]
        p = params[1:1 + n]
        Xfull = np.zeros((n, n))
        Xfull[iu] = params[1 + n:]
        Xfull = Xfull + Xfull.T - np.diag(np.diag(Xfull))
        quad = 0.5 * np.einsum("ni,ij,nj->n", pts, Xfull, pts)
        return w0 + a * dts + pts @ p + quad, Xfull

    def objective(params):
        q, _ = predict(params)
        return float(np.sum((q - w) ** 2))

    sign = 1.0 if kind == "sub" else -1.0

    def constraint(params):
        q, _ = predict(params)
        return sign * (q - w)

    nparams = 1 + n + len(iu[0])
    guess = np.zeros(nparams)
    scale = max(float(np.max(np.abs(w - w0))), 1e-9)
    res = minimize(objective, guess, constraints=[{"type": "ineq",
                                                   "fun": constraint}],
                   method="SLSQP",
                   options={"maxiter": 300, "ftol": 1e-14 * scale ** 2})
    q, X = predict(res.x)
    a = res.x[0]
    p = res.x[1:1 + n]
    value = float(p @ X @ p - 3.0 * a * w0 ** 2)
    passed = value >= -1e-7 if kind == "sub" else value <= 1e-7
    return passed, value, (a, p, X)
