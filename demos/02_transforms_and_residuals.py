"""The phi <-> log(phi) equivalence and residual evaluation on grids.

Positive solutions of D_inf(phi) = 3 phi^2 phi_t correspond to solutions
of D_inf(eta) + |D eta|^4 = 3 eta_t under eta = log phi.  We sample exact
separable solutions u(x) g(t) on a ball cylinder, evaluate both discrete
residuals, and watch the sub/super classification survive the transform.
"""

import numpy as np

from inflap import radial, transforms as tf
from inflap.grids import Domain, build_grid

lam_b = radial.ball_eigenvalue(1.0)
grid = build_grid(Domain.ball((0.0, 0.0), 1.0), 0.1, 0.5, 17)

print("== exact separable solution: eigenfunction times e^(-lambda t/3) ==")
psi = radial.decaying_profile(1.0, lam_b, 1.0, fixed_which="m")
sep = tf.make_separable(psi, k=-lam_b / 3.0)
print("classification:", sep.classification)
rep = tf.residual_Pi(sep.as_field(grid))
r = np.linalg.norm(grid.sample_pos[grid.interior_idx], axis=1)
sel = rep.clean_rows & (r > 0.25)
print(f"discrete residual sup away from the center cusp: "
      f"{np.nanmax(np.abs(rep.values[sel][:, 1:-1])):.3e} "
      f"(band {rep.band:.3e})")

print("\n== general time factor: Pi(u g) = -g^2 u^3 (lam g + 3 g') ==")
prof = radial.decaying_profile(1.0, 0.5 * lam_b, 1.0, fixed_which="m")
sep2 = tf.make_separable(prof, g=lambda t: 1.0 + t, gprime=lambda t: 1.0)
pts = np.array([[0.3, 0.1], [0.0, -0.5]])
print("closed-form residual at two points, t=0.2:",
      np.round(sep2.residual_exact(pts, 0.2), 6))

print("\n== stationary eigenfunction: the decay counterexample ==")
frozen = tf.make_separable(psi, k=0.0)
print("classification:", frozen.classification,
      "(a strict super-solution: it never decays)")

print("\n== sub/super signs survive the log transform ==")
for k, label in ((-prof.lam / 3 - 0.8, "sub"), (-prof.lam / 3 + 0.8,
                                                "super")):
    s = tf.make_separable(prof, k=k)
    fld = s.as_field(grid)
    rp = tf.residual_Pi(fld)
    rg = tf.residual_Gamma(tf.to_eta(fld))
    sel = rp.clean_rows & np.isfinite(rp.band_nodes) & \
        np.isfinite(rg.band_nodes)
    bp = rp.values[:, 2:-2]
    bg = rg.values[:, 2:-2]
    above = (np.abs(bp) > rp.band_nodes[:, None]) & \
        (np.abs(bg) > rg.band_nodes[:, None]) & sel[:, None]
    agree = np.all(np.sign(bp[above]) == np.sign(bg[above]))
    print(f"k for {label:5s}: {above.sum():5d} nodes above band, "
          f"signs agree: {agree}")

print("\n== elementary expansion bounds ==")
for c in (0.3, -0.3, 0.01):
    r = tf.log_inequality_check(c)
    print(f"c={c:+.2f}: log gap {r.log_gap:+.5f} in bracket: {r.log_ok}; "
          f"exp gap {r.exp_gap:+.5f} in bracket: {r.exp_ok}")
