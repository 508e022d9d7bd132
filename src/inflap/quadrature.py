"""Closed forms of the two singular integrals behind the radial formulas.

F(q) = integral of (1-s^4)^(-1/4) over [q, 1], q in [0, 1] ("decay").  With
y = s/(1-s^4)^(1/4), 1-s^4 = 1/(1+y^4) and ds = (1+y^4)^(-5/4) dy, so F(q) is
the integral of dt/(1+t^4) over [y(q), inf): pi sqrt(2)/4 - (A+L)(y) for
y <= 1 and, by t -> 1/t, (A-L)(1/y) for y > 1, where A + L and A - L are the
integrals of 1/(1+s^4) and s^2/(1+s^4) over [0, t] (see _decay_residual).

G(v) = integral of (s^4-1)^(-1/4) over [1, v], v >= 1 ("grow").  With
y = (1-s^-4)^(1/4) the integrand is y^2 dy/(1-y^4), so G = artanh(y)/2 -
arctan(y)/2.  As 1-y = v^-4/((1+y)(1+y^2)), artanh(y)/2 = log1p(y)/2 +
log1p(y^2)/4 + log v, and y^4 = -expm1(-4 log v): nothing cancels badly.
"""

import math
import sys
from functools import partial

import numpy as np

__all__ = ["bisect_monotone", "cumulative_simpson", "f_decay", "g_grow",
           "F_DECAY_FULL", "GROW_SPLIT", "SingularIntegralTable",
           "decay_table", "grow_table"]


class QuadratureError(RuntimeError):
    """Raised when a quadrature or root-finding routine cannot meet tolerance."""


def bisect_monotone(f, lo, hi, xtol=1e-12):
    """Bisection for a root of a monotone scalar function with a sign change,
    stopped when the bracket is at most xtol wide or after 200 halvings."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise QuadratureError(f"bisection bracket [{lo}, {hi}] does not straddle "
                              f"a root (f={flo:.3e}, {fhi:.3e})")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if flo * fm < 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
        if hi - lo <= xtol:
            break
    return 0.5 * (lo + hi)


def cumulative_simpson(y, dx):
    """Cumulative integral of samples ``y`` on a uniform grid of spacing dx:
    composite Simpson at even indices, the quadratic through the three
    surrounding samples at odd ones.  O(dx^4) for smooth integrands."""
    y = np.asarray(y, dtype=float)
    n = y.size
    out = np.zeros(n)
    if n < 2:
        return out
    if n == 2:
        out[1] = 0.5 * dx * (y[0] + y[1])
        return out
    # integral over each pair [2k, 2k+2] and the two half-cells of each pair
    even_end = n - 1 if (n % 2) else n - 2
    i = np.arange(0, even_end - 1, 2)
    pair = dx / 3.0 * (y[i] + 4.0 * y[i + 1] + y[i + 2])
    first_half = dx / 12.0 * (5.0 * y[i] + 8.0 * y[i + 1] - y[i + 2])
    out[i + 1] = first_half
    out[i + 2] = pair - first_half
    out = np.cumsum(out)
    if even_end != n - 1:
        # trailing odd sample: the last half-cell, by the final three samples
        out[n - 1] = out[n - 2] + dx / 12.0 * (
            -y[n - 3] + 8.0 * y[n - 2] + 5.0 * y[n - 1])
    return out


_R2 = math.sqrt(2.0)
#: pi*sqrt(2)/4 = F(0), the full integral of (1-s^4)^(-1/4) over [0, 1].
F_DECAY_FULL = math.pi * _R2 / 4.0
_GROW_SHIFT = 0.75 * math.log(2.0) - math.pi / 8.0  # lim G(v) - log v


def _decay_residual(t, base, sign, target):
    """(F - target, t^2) at t = min(y, 1/y) <= 1: F = base + sign A - L, with
    (base, sign) = (F(0), -1) for y <= 1 and (0, 1) for y > 1."""
    t2 = t * t
    x = _R2 * t
    L = np.log1p(2.0 * x / (1.0 - x + t2)) / (4.0 * _R2)
    A = np.arctan2(x, 1.0 - t2) / (2.0 * _R2)
    return base + sign * A - L - target, t2


def _grow_residual(log_v, target):
    """(G - target, y) at v = exp(log_v), with y = (1 - v^-4)^(1/4)."""
    y = (-np.expm1(-4.0 * log_v)) ** 0.25
    return (0.5 * np.log1p(y) + 0.25 * np.log1p(y * y) + log_v
            - 0.5 * np.arctan(y) - target), y


_F_AT_Y1 = float(_decay_residual(1.0, 0.0, 1.0, 0.0)[0])  # F at q = 2^(-1/4)
_GROW_MAX = float(_grow_residual(math.log(sys.float_info.max), 0.0)[0])


class SingularIntegralTable:
    """Stateless closed-form evaluator of F (kind "decay") or G (kind "grow").
    It holds no table; the name and constructor stay because the benchmark's
    set-up (``benchmarks/run.py::timed_setup``) constructs both kinds."""

    def __init__(self, kind):
        if kind not in ("decay", "grow"):
            raise ValueError(f"unknown integral kind {kind!r}")
        self.kind = kind

    def value(self, x):
        """F(q) or G(v), vectorized; ValueError for q outside [0, 1], v < 1."""
        x = np.asarray(x, dtype=float)
        lo, hi = (1.0, np.inf) if self.kind == "grow" else (0.0, 1.0)
        if not ((x >= lo) & (x <= hi)).all():
            raise ValueError(f"{self.kind} integral needs x in [{lo}, {hi}]")
        if self.kind == "grow":
            return _grow_residual(np.log(x), 0.0)[0][()]
        r = ((1.0 - x) * (1.0 + x) * (1.0 + x * x)) ** 0.25  # (1-q^4)^(1/4)
        head = x <= r  # y = q/r <= 1
        t = np.where(head, x, r) / np.where(head, r, x)
        return _decay_residual(t, np.where(head, F_DECAY_FULL, 0.0),
                               np.where(head, -1.0, 1.0), 0.0)[0][()]

    def inverse(self, target):
        """Solve F(q) = target or G(v) = target by vectorized Newton; an element
        stops one step after |residual| <= 1e-8 of its scale (quadratic convergence
        makes that step exact).  QuadratureError for T < 0, T > F(0) or G(max float)."""
        T = np.asarray(target, dtype=float)
        top = F_DECAY_FULL if self.kind == "decay" else _GROW_MAX
        if not ((T >= 0.0) & (T <= top)).all():
            raise QuadratureError(f"{self.kind} target outside [0, {top!r}]")
        if self.kind == "grow":  # G ~ y^3/3 near v = 1, G ~ log v + c far out
            y0 = np.cbrt(3.0 * np.minimum(T, 0.25))
            t = np.where(T < 0.25, -0.25 * np.log1p(-y0 ** 4), T - _GROW_SHIFT)
            tol = 1e-8 * (T + y0)
        else:  # F ~ F(0) - y for y <= 1, F ~ w^3/3 in w = 1/y (floored: w^2 > 0)
            head = T > _F_AT_Y1
            base, sign = np.where(head, F_DECAY_FULL, 0.0), np.where(head, -1.0, 1.0)
            t = np.where(head, F_DECAY_FULL - T, np.maximum(np.cbrt(3.0 * T), 1e-100))
            tol = 1e-8 * (base + t)
        done = T < 1e-13  # the start is exact in double: q = 1, v = 1
        for _ in range(40):
            if self.kind == "grow":
                resid, y = _grow_residual(t, T)
                step = resid * y  # t = log v, dG/dt = 1/y
            else:  # dF/dy = -1/(1+y^4) on the head, dF/dw = w^2/(1+w^4)
                resid, t2 = _decay_residual(t, base, sign, T)
                step = resid * (1.0 + t2 * t2) / np.where(head, -1.0, t2)
            t = np.where(done, t, t - step)
            done = done | (np.abs(resid) <= tol)
            if done.all():
                if self.kind == "grow":
                    return np.exp(t)[()]
                return (np.where(head, t, 1.0) / (1.0 + t ** 4) ** 0.25)[()]
        raise QuadratureError(f"{self.kind} Newton inversion did not converge")


decay_table = partial(SingularIntegralTable, "decay")
grow_table = partial(SingularIntegralTable, "grow")
#: F(q) and G(v), scalar or vectorized; ValueError outside their domains.
f_decay, g_grow = decay_table().value, grow_table().value
#: A = G(2), the head term when the growing integral is split at twice the
#: center value; exp(-A) is the B constant of the growth sandwich.
GROW_SPLIT = g_grow(2.0)
