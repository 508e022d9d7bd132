"""The barrier catalog and the Perron sandwich.

Builds the six barrier families pinned to a lateral-varying datum, shows
their pins and parabolic-boundary domination, then squeezes a solver run
between the sup of a sub-family and the inf of a super-family, with the
boundary gap shrinking as the pin tolerance decreases.
"""

import numpy as np

from inflap import barriers as B
from inflap import harness, solver
from inflap.catalog import make_data
from inflap.grids import (BoundaryData, Domain, build_grid,
                          sample_boundary_data)

grid = build_grid(Domain.interval(0.0, 1.0), 0.1, 0.5, 11)
bd = BoundaryData(
    f=lambda x: 1.0 + 0.5 * np.sin(np.pi * x[:, 0]),
    g=lambda x, t: 1.0 + 0.3 * np.sin(np.pi * x[:, 0] + 2 * t) ** 2
    * np.exp(-t))
hs = sample_boundary_data(bd, grid)     # h on P_T: f slab and g ring block
eps = 0.05 * (bd.M - bd.m)
ring = grid.sample_pos[grid.boundary_idx]
# P_T level by level: every node at t = 0, then the ring nodes at 0 < t < T
pt_levels = [(grid.sample_pos, grid.t[0], hs.slab)] + [
    (ring, t, h) for t, h in zip(grid.t[1:-1], hs.ring.T)]

print(f"data range on P_T: m={bd.m:.4f}, M={bd.M:.4f}; pin eps={eps:.4f}")
print("\n== the six families, pinned to h -/+ 2 eps at their anchors ==")
catalog = [
    ("alpha_sub ", B.make_alpha_sub(np.array([0.5]), eps, bd, grid)),
    ("alpha_sup ", B.make_alpha_sup(np.array([0.3]), eps, bd, grid)),
    ("beta_sub  ", B.make_beta_sub(np.array([0.0]), eps, bd, grid)),
    ("beta_sup  ", B.make_beta_sup(np.array([1.0]), eps, bd, grid)),
    ("cone_sub  ", B.make_gamma_sub_cone(np.array([0.0]), 0.25, eps, bd,
                                         grid)),
    ("cusp_sup  ", B.make_gamma_sup_cusp(np.array([0.0]), 0.25, eps, bd,
                                         grid)),
]
for name, b in catalog:
    y, s = np.array(b.spec.anchor[0]), b.spec.anchor[1]
    datum = float(bd.f(y[None, :])[0] if s == 0 else bd.g(y[None, :], s)[0])
    off = 2 * eps if b.kind == "sub" else -2 * eps
    pin = float(b.eval(y[None, :], s)[0])
    worst = -np.inf
    for pts, tj, h in pt_levels:
        v = b.eval(pts, tj)
        worst = max(worst, float(np.max(v - h if b.kind == "sub"
                                        else h - v)))
    print(f"{name} pin={pin:.6f} (target {datum - off:.6f})  "
          f"worst P_T margin={worst:+.2e}   constants: "
          f"{ {k: round(float(v), 4) for k, v in b.spec.derived.items()} }")

print("\n== cone/cusp interior residual signs (closed form) ==")
cone = catalog[4][1]
cusp = catalog[5][1]
rng = np.random.default_rng(0)
for b, want in ((cone, ">= 0 (sub; lower cone exactly 0)"),
                (cusp, "<= 0 (super)")):
    d = b.spec.derived
    vals = []
    for t in np.linspace(0.25 - 0.9 * d["tau"], 0.25 + 0.9 * d["tau"], 31):
        v = b.region_residual(rng.uniform(0, 1, size=(400, 1)), t)
        vals.append(v[np.isfinite(v)])
    vals = np.concatenate(vals)
    print(f"{b.spec.family:16s}: range [{vals.min():+.4f}, "
          f"{vals.max():+.4f}]  want {want}")

print("\n== Perron sandwich around the solver ==")
bd2 = make_data("gaussian-bump", {"base": 1.0, "amp": 0.6, "width": 0.3,
                                  "center": [0.5]})
rep = harness.check_sandwich(grid, bd2,
                             family_kw={"interior_stride": 1,
                                        "time_stride": 2})
print(f"family sup <= solve <= family inf: "
      f"{'PASS' if rep.passed else 'FAIL'} "
      f"(margin {rep.worst_violation:+.3e})")
print(f"boundary gaps over eps fractions 0.1 / 0.03 / 0.01: "
      f"{[round(g, 4) for g in rep.details['boundary_gaps']]} "
      f"(monotone: {rep.details['gap_monotone']})")
