"""The property harness end to end, including its negative controls.

Every theorem-level statement is a pass/fail check over computed
artifacts; each check must also detect deliberately corrupted inputs.
"""

import numpy as np

from inflap import barriers as B
from inflap import harness as H
from inflap import radial, solver
from inflap.grids import BoundaryData, Domain, GridField, build_grid

lam_b = radial.ball_eigenvalue(1.0)

print("== weak maximum principle ==")
g = build_grid(Domain.interval(0, 1), 0.1, 0.3, 5)
bd = BoundaryData(f=lambda x: 1.0 + 0.5 * np.sin(np.pi * x[:, 0]) ** 2,
                  g=lambda x, t: np.ones(len(x)))
res = solver.solve(g, bd)
print("solver field:", "PASS" if H.check_weak_max_principle(
    res.field).passed else "FAIL")
bad = res.field.copy()
bad.values[g.interior_idx[1], 2] = 9.0
print("corrupted field detected:", not H.check_weak_max_principle(
    bad).passed)

print("\n== ratio comparison against the stationary eigenfunction ==")
psi = radial.decaying_profile(1.0, lam_b, 1.0, fixed_which="m")
gi = build_grid(Domain.interval(-1, 1), 0.1, 0.5, 11)
bd0 = BoundaryData(f=lambda x: psi.eval(np.minimum(np.abs(x[:, 0]), 1.0)),
                   g=lambda x, t: np.zeros(len(x)), zero_lateral_ok=True)
run = solver.solve(gi, bd0, solver.SolverConfig(variable="phi",
                                                summarize_residual=False))
frozen = GridField.from_function(
    gi, lambda x, t: psi.eval(np.minimum(np.abs(x[:, 0]), 1.0)))
rep = H.check_comparison(run.field, frozen, tol=1e-9, ratio_mode=True)
print("decaying run stays under the frozen eigenfunction:",
      "PASS" if rep.passed else "FAIL")

print("\n== strong minimum propagation (bump instrument) ==")
vals = np.full((gi.n_nodes, gi.time_levels), 1.2)
vals[gi.boundary_idx[0], 5] = 1.0
node = gi.interior_idx[4]
vals[node, 8] = 1.0
vals[node, 4] = 1.5
bad_rep = H.check_min_propagation(GridField(gi, vals, "phi"),
                                  anchor=(node, 8))
print(f"synthetic violation detected: {not bad_rep.passed} "
      f"(bump pokes above by {bad_rep.details['bump_pokes_above_by']:.4f})")

print("\n== jet improvement of a failed super-solution ==")
g2 = build_grid(Domain.box([(-1, 1), (-1, 1)]), 0.2, 1.0, 6)
jet = (0.0, np.array([1.0, 0.0]), np.diag([2.0, 1.0]))
rep = H.check_bump_improvement(jet, 1.0, grid=g2)
print(f"margin mu={rep.details['mu']}, improvement at anchor "
      f"{rep.details['improvement']:.2e}, seam jet value "
      f"{rep.details['seam_jet_value']:.2e}: "
      f"{'PASS' if rep.passed else 'FAIL'}")

print("\n== large-ball surrogate for unbounded domains ==")
rep = H.check_large_ball_surrogate(radii=(2.0, 4.0, 8.0), T=0.25)
tols = rep.details["tolerances"]
print("adversarial lateral influence on the half-ball, tolerance per R:")
for R, (tu, tl) in zip((2.0, 4.0, 8.0), tols):
    print(f"  R={R}: upper tol {tu:.4f}, lower tol {tl:.4f}")
print("tolerances shrink with R and all bounds hold:",
      "PASS" if rep.passed else "FAIL")
