"""Built-in boundary-data generators.

Each entry builds a BoundaryData whose name and parameters round-trip
through configuration files.  Unless noted, the lateral datum is the
time-frozen trace of the initial datum, which makes h automatically
continuous at the corner of the parabolic boundary.
"""

from __future__ import annotations

import numpy as np

from .grids import BoundaryData
from .radial import ball_eigenvalue, decaying_profile, growing_profile

__all__ = ["CATALOG", "make_data", "catalog_entries"]


def _constant(params):
    c = float(params.get("value", 1.0))
    return BoundaryData(f=lambda x: np.full(len(x), c),
                        g=lambda x, t: np.full(len(x), c))


def _linear(params):
    base = float(params.get("base", 1.0))
    slope = float(params.get("slope", 1.0))

    def f(x):
        return base + slope * x[:, 0]

    return BoundaryData(f=f, g=lambda x, t: f(x))


def _gaussian_bump(params):
    base = float(params.get("base", 1.0))
    amp = float(params.get("amp", 0.5))
    width = float(params.get("width", 0.35))
    center = np.atleast_1d(np.asarray(params.get("center", [0.0]),
                                      dtype=float))

    def f(x):
        d2 = np.sum((x - center[: x.shape[1]]) ** 2, axis=1)
        return base + amp * np.exp(-d2 / width ** 2)

    return BoundaryData(f=f, g=lambda x, t: f(x))


def _eigen_profile(params):
    R = float(params.get("R", 1.0))
    m = float(params.get("m", 1.0))
    center = np.atleast_1d(np.asarray(params.get("center", [0.0]),
                                      dtype=float))
    psi = decaying_profile(R, ball_eigenvalue(R), m, fixed_which="m")

    def f(x):
        r = np.linalg.norm(x - center[: x.shape[1]], axis=1)
        return psi.eval(np.minimum(r, R))

    return BoundaryData(f=f, g=lambda x, t: np.zeros(len(x)),
                        zero_lateral_ok=True)


def _growing_profile_trace(params):
    R = float(params.get("R", 1.0))
    lam = float(params.get("lam", 1.0))
    delta = float(params.get("delta", 1.0))
    center = np.atleast_1d(np.asarray(params.get("center", [0.0]),
                                      dtype=float))
    prof = growing_profile(R, lam, delta)

    def u(x):
        r = np.linalg.norm(x - center[: x.shape[1]], axis=1)
        return prof.eval(np.minimum(r, R))

    # the solver asks for g at the same ring points on every substep, so
    # u is kept for the last point set.  The match is by shape and value,
    # never by identity: a caller may mutate its point array in place.
    last_x, last_u = None, None

    def g(x, t):
        nonlocal last_x, last_u
        if last_x is None or not np.array_equal(last_x, x):
            last_x, last_u = x.copy(), u(x)
        return last_u * np.exp(lam * t / 3.0)

    return BoundaryData(f=u, g=g)


def _decaying_lateral(params):
    g0 = float(params.get("g0", 1.0))
    rate = float(params.get("rate", 1.0))

    def f(x):
        return np.full(len(x), g0)

    return BoundaryData(f=f,
                        g=lambda x, t: np.full(len(x),
                                               g0 * np.exp(-rate * t)))


CATALOG = {
    "constant": (_constant, "h = value everywhere", {"value": 1.0}),
    "linear": (_linear, "f = base + slope x_0, lateral frozen in time",
               {"base": 1.0, "slope": 1.0}),
    "gaussian-bump": (_gaussian_bump,
                      "f = base + amp exp(-|x-center|^2/width^2), lateral "
                      "frozen", {"base": 1.0, "amp": 0.5, "width": 0.35,
                                 "center": [0.0]}),
    "eigen-profile": (_eigen_profile,
                      "first eigenfunction of the ball scaled to center "
                      "value m; zero lateral datum (decay experiments)",
                      {"R": 1.0, "m": 1.0, "center": [0.0]}),
    "growing-profile-trace": (_growing_profile_trace,
                              "exact growing separable solution trace "
                              "u(x) e^{lam t/3}",
                              {"R": 1.0, "lam": 1.0, "delta": 1.0,
                               "center": [0.0]}),
    "decaying-lateral": (_decaying_lateral,
                         "f = g0, lateral sup decays like g0 e^{-rate t}",
                         {"g0": 1.0, "rate": 1.0}),
}


def make_data(name, params=None):
    """Instantiate a catalog entry; records name+params for round-trips."""
    if name not in CATALOG:
        raise KeyError(f"unknown boundary-data generator {name!r}; "
                       f"available: {sorted(CATALOG)}")
    builder, _, defaults = CATALOG[name]
    merged = dict(defaults)
    merged.update(params or {})
    bd = builder(merged)
    bd.name = name
    bd.params = merged
    return bd


def catalog_entries():
    """(name, description, default parameters) for every generator."""
    return [(name, doc, dict(defaults))
            for name, (_, doc, defaults) in sorted(CATALOG.items())]
