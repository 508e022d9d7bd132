"""Harness checks, including their own sensitivity (negative controls)."""

import numpy as np
import pytest

from inflap import barriers as B
from inflap import harness as H
from inflap import radial, solver, transforms
from inflap.grids import (
    BoundaryData,
    Domain,
    GridField,
    build_grid,
    sample_boundary_data,
)

LAMBDA_B1 = radial.ball_eigenvalue(1.0)


@pytest.fixture(scope="module")
def smooth_solve():
    g = build_grid(Domain.interval(0, 1), 0.1, 0.3, 5)
    bd = BoundaryData(f=lambda x: 1.0 + 0.5 * np.sin(np.pi * x[:, 0]) ** 2,
                      g=lambda x, t: np.ones(len(x)))
    return solver.solve(g, bd), bd, g


class TestWeakMaxPrinciple:
    def test_solver_field_passes(self, smooth_solve):
        res, _, _ = smooth_solve
        rep = H.check_weak_max_principle(res.field)
        assert rep.passed and rep.worst_violation <= rep.tolerance

    def test_constant_margin_zero(self):
        g = build_grid(Domain.interval(0, 1), 0.1, 0.3, 5)
        fld = GridField(g, np.full((g.n_nodes, g.time_levels), 2.0), "phi")
        rep = H.check_weak_max_principle(fld)
        assert rep.worst_violation == 0.0 and rep.passed

    def test_negative_control(self, smooth_solve):
        res, _, g = smooth_solve
        bad = res.field.copy()
        bad.values[g.interior_idx[1], 2] = 10.0
        rep = H.check_weak_max_principle(bad)
        assert not rep.passed and rep.worst_violation > 1.0


def test_weak_max_principle_makes_no_copy(traced_peak):
    # the margins and the tolerance equal those of np.max/np.min over
    # copies of the P_T and interior values bit for bit, and the check's
    # traced heap stays far below one (N, L) field: 0.05 of one on the
    # box3d-growth grid, the masked reductions' iteration buffers (the
    # copies took 1.3 fields)
    g = build_grid(Domain.box([(-0.5, 0.5)] * 3), 0.05, 1.0, 21)
    rng = np.random.default_rng(3)
    vals = rng.uniform(-2.0, 1.5, (g.n_nodes, g.time_levels))
    for v in (vals, np.abs(vals)):
        rep, peak = traced_peak(H.check_weak_max_principle, GridField(g, v))
        pt, inner = v[g.pt_mask], v[g.interior_idx, 1:]
        assert rep.details["sup_margin"] == float(np.max(inner)
                                                  - np.max(pt))
        assert rep.details["inf_margin"] == float(np.min(pt)
                                                  - np.min(inner))
        assert rep.tolerance == 1e-8 * (1.0 + float(np.max(np.abs(pt))))
        assert peak <= 0.1 * v.nbytes


def test_comparison_makes_one_field(traced_peak):
    # u - v is formed once and reduced with where=; ratio mode reuses its
    # buffer for |v| and then u / v.  The margins equal the nanmax/nanmin
    # of copies bit for bit, the ratio's 0/0 skipped on zero-lateral data,
    # and the traced heap stays within 1.05 (N, L) fields on the
    # box3d-growth grid (the copies took 1.28, 2.00 in ratio mode)
    g = build_grid(Domain.box([(-0.5, 0.5)] * 3), 0.05, 1.0, 21)
    rng = np.random.default_rng(5)
    u = rng.uniform(0.5, 1.0, (g.n_nodes, g.time_levels))
    v = u + rng.uniform(-0.01, 0.1, u.shape)
    u0, v0 = u.copy(), v.copy()
    u0[g.boundary_idx, 1:] = v0[g.boundary_idx, 1:] = 0.0
    pt = g.pt_mask
    for a, b in ((u, v), (u0, v0)):
        uf, vf = GridField(g, a), GridField(g, b)
        rep, peak = traced_peak(H.check_comparison, uf, vf, 1.0)
        assert rep.details["precondition_gap"] == float(
            np.nanmax((a - b)[pt]))
        assert rep.worst_violation == float(np.nanmax(a - b))
        assert peak <= 1.05 * a.nbytes
        rep, peak = traced_peak(H.check_comparison, uf, vf, 1.0, True)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = a / b
        pt_sup = np.nanmax(np.where(pt, ratio, -np.inf))
        inner_sup = np.nanmax(ratio[g.interior_idx, 1:])
        assert rep.details["pt_sup"] == float(pt_sup)
        assert rep.details["inner_sup"] == float(inner_sup)
        assert rep.worst_violation == float(inner_sup - pt_sup)
        assert rep.tolerance == 1.0 / max(float(np.nanmin(np.abs(b))), 1e-12)
        assert peak <= 1.05 * a.nbytes


class TestComparison:
    def test_barrier_pair(self, smooth_solve):
        _, bd, g = smooth_solve
        sample_boundary_data(bd, g)
        eps = 0.05 * (bd.M - bd.m)
        lo = B.make_alpha_sub(np.array([0.4]), eps, bd, g).eval_field(g)
        hi = B.make_alpha_sup(np.array([0.6]), eps, bd, g).eval_field(g)
        rep = H.check_comparison(lo, hi)
        assert rep.passed

    def test_equal_fields_zero_margin(self, smooth_solve):
        res, _, _ = smooth_solve
        rep = H.check_comparison(res.field, res.field)
        assert rep.worst_violation == 0.0 and rep.passed

    def test_precondition_violation_skipped(self, smooth_solve):
        res, _, _ = smooth_solve
        hi = res.field.copy()
        hi.values -= 1.0  # now u > v on P_T
        rep = H.check_comparison(res.field, hi, tol=1e-9)
        assert rep.vacuous and "precondition" in rep.details["skipped"]

    def test_two_level_grid_takes_the_heuristic_band(self):
        # no time derivative on two levels, so no residual band: the
        # heuristic band of transforms stands in and the reason is recorded
        g = build_grid(Domain.interval(0, 1), 0.1, 0.3, 2)
        lo = GridField.from_function(g, lambda x, t: 1.0 + x[:, 0])
        hi = GridField.from_function(g, lambda x, t: 2.0 + x[:, 0])
        rep = H.check_comparison(lo, hi)
        assert rep.passed
        assert rep.tolerance == transforms.heuristic_band(g, hi.values) \
            + 1e-12
        assert rep.details["band_fallback"] == [
            "need at least 3 time levels for eta_t"] * 2

    def test_field_band_of_a_nonpositive_phi_field(self):
        # phi with a nonpositive entry has no log, so the band is
        # residual_Pi's rather than residual_Gamma's of eta
        g = build_grid(Domain.interval(0, 1), 0.1, 0.3, 5)
        fld = GridField.from_function(g, lambda x, t: x[:, 0] - 0.5 + t)
        assert np.min(fld.values) <= 0.0
        band, why = H._field_band(fld)
        assert why is None and band == transforms.residual_Pi(fld).band

    def test_ratio_mode_stationary_eigenfunction(self):
        # eigen-decay solve vs the time-frozen eigenfunction (a strict
        # super-solution): ratio sup must sit on the parabolic boundary
        psi = radial.decaying_profile(1.0, LAMBDA_B1, 1.0, fixed_which="m")
        g = build_grid(Domain.interval(-1, 1), 0.1, 0.5, 11)
        bd = BoundaryData(
            f=lambda x: psi.eval(np.minimum(np.abs(x[:, 0]), 1.0)),
            g=lambda x, t: np.zeros(len(x)), zero_lateral_ok=True)
        res = solver.solve(g, bd, solver.SolverConfig(
            variable="phi", summarize_residual=False))
        frozen = GridField.from_function(
            g, lambda x, t: psi.eval(np.minimum(np.abs(x[:, 0]), 1.0)))
        rep = H.check_comparison(res.field, frozen, tol=1e-9,
                                 ratio_mode=True)
        assert rep.passed
        # and pointwise: solver field <= stationary eigenfunction
        assert np.all(res.field.values <= frozen.values + 1e-9)


class TestMinPropagation:
    def test_constant_passes(self):
        g = build_grid(Domain.interval(0, 1), 0.1, 0.4, 6)
        fld = GridField(g, np.ones((g.n_nodes, g.time_levels)), "phi")
        rep = H.check_min_propagation(fld, anchor=(g.interior_idx[2], 3))
        assert rep.passed and rep.worst_violation == 0.0

    def test_decay_solve_vacuous(self):
        psi = radial.decaying_profile(1.0, LAMBDA_B1, 1.0, fixed_which="m")
        g = build_grid(Domain.interval(-1, 1), 0.1, 0.5, 11)
        bd = BoundaryData(
            f=lambda x: psi.eval(np.minimum(np.abs(x[:, 0]), 1.0)),
            g=lambda x, t: np.zeros(len(x)), zero_lateral_ok=True)
        res = solver.solve(g, bd, solver.SolverConfig(
            variable="phi", summarize_residual=False))
        rep = H.check_min_propagation(res.field)
        assert rep.vacuous and rep.passed

    def test_synthetic_violation_fails_with_bump(self):
        g = build_grid(Domain.interval(0, 1), 0.1, 1.0, 11)
        vals = np.full((g.n_nodes, g.time_levels), 1.2)
        vals[g.boundary_idx[0], 5] = 1.0      # P_T infimum is 1.0
        node = g.interior_idx[4]
        vals[node, 8] = 1.0                   # attained at interior (y, s)
        vals[node, 4] = 1.5                   # but not constant before
        rep = H.check_min_propagation(GridField(g, vals, "phi"),
                                      anchor=(node, 8))
        assert not rep.passed
        assert rep.worst_violation > 0.4
        assert rep.details["bump_pokes_above_by"] > 0.0


@pytest.fixture(scope="module")
def eigen_run():
    psi = radial.decaying_profile(1.0, LAMBDA_B1, 1.0, fixed_which="m")
    g = build_grid(Domain.interval(-1, 1), 0.05, 4.0, 81)
    bd = BoundaryData(
        f=lambda x: psi.eval(np.minimum(np.abs(x[:, 0]), 1.0)),
        g=lambda x, t: np.zeros(len(x)), zero_lateral_ok=True)
    return solver.solve(g, bd, solver.SolverConfig(
        variable="phi", summarize_residual=False))


class TestDecayRate:

    def test_eigen_two_sided(self, eigen_run):
        rep = H.check_decay_rate(eigen_run, LAMBDA_B1, data_kind="eigen")
        assert rep.passed
        assert abs(rep.details["slope"] - rep.details["target"]) \
            <= 0.1 * abs(rep.details["target"])

    def test_sup_monotone(self, eigen_run):
        sup_t = np.nanmax(eigen_run.field.values, axis=0)
        assert np.all(np.diff(sup_t) <= 1e-12)

    def test_short_run_inconclusive(self):
        g = build_grid(Domain.interval(0, 1), 0.2, 0.2, 4)
        bd = BoundaryData(f=lambda x: np.ones(len(x)),
                          g=lambda x, t: np.ones(len(x)))
        res = solver.solve(g, bd)
        rep = H.check_decay_rate(res, LAMBDA_B1)
        assert rep.vacuous

    def test_wrong_rate_fails(self, eigen_run):
        rep = H.check_decay_rate(eigen_run, 2.5 * LAMBDA_B1,
                                 data_kind="eigen")
        assert not rep.passed


class TestStaircase:
    def test_solver_under_staircase(self):
        # data decaying laterally; run long enough to cross 4 slab ends
        g0, rate, eps = 1.0, 2.0, 0.25
        lam_bar = 0.8 * LAMBDA_B1
        psi = radial.decaying_profile(1.0, lam_bar, eps, fixed_which="delta")
        bd = BoundaryData(f=lambda x: np.full(len(x), g0),
                          g=lambda x, t: np.full(len(x),
                                                 g0 * np.exp(-rate * t)),
                          name="decaying-lateral",
                          params={"g0": g0, "rate": rate})
        st = B.make_staircase_sup(bd, psi, eps, n_slabs=5)
        T = float(st.times[-1]) + 0.1
        grid = build_grid(Domain.interval(-1, 1), 0.1, T, 101)
        res = solver.solve(grid, bd, solver.SolverConfig(
            variable="phi", summarize_residual=False))
        # the slab argument needs phi(., T_1) <= psi; check then verify
        j1 = int(np.argmin(np.abs(grid.t - st.times[0])))
        psi_vals = psi.eval(np.minimum(np.abs(grid.sample_pos[:, 0]), 1.0))
        assert np.all(res.field.values[:, j1] <= psi_vals + 1e-9)
        rep = H.check_staircase_bound(res, st)
        assert rep.passed, rep.to_json()

    def test_negative_control(self):
        lam_bar = 0.8 * LAMBDA_B1
        eps = 0.25
        psi = radial.decaying_profile(1.0, lam_bar, eps, fixed_which="delta")
        bd = BoundaryData(f=lambda x: np.ones(len(x)),
                          g=lambda x, t: np.exp(-2.0 * t) + 0 * x[:, 0],
                          name="decaying-lateral",
                          params={"g0": 1.0, "rate": 2.0})
        st = B.make_staircase_sup(bd, psi, eps, n_slabs=3)
        grid = build_grid(Domain.interval(-1, 1), 0.2,
                          float(st.times[-1]) + 0.1, 21)
        vals = np.full((grid.n_nodes, grid.time_levels), 0.9)  # too big
        res = solver.SolveResult(GridField(grid, vals, "phi"), [], None,
                                 {}, solver.SolverConfig())
        rep = H.check_staircase_bound(res, st)
        assert not rep.passed


class TestSandwich:
    def test_constant_data_everything_coincides(self):
        g = build_grid(Domain.interval(0, 1), 0.1, 0.4, 6)
        bd = BoundaryData(f=lambda x: np.full(len(x), 2.0),
                          g=lambda x, t: np.full(len(x), 2.0))
        rep = H.check_sandwich(g, bd, eps_fracs=(0.1,),
                               family_kw={"interior_stride": 3})
        # constant data: families are the constant barrier; margins <= 0
        assert rep.passed

    def test_gaussian_bump_sandwich_and_gap_monotone(self):
        g = build_grid(Domain.interval(0, 1), 0.1, 0.4, 9)
        from inflap.catalog import make_data

        bd = make_data("gaussian-bump", {"base": 1.0, "amp": 0.6,
                                         "width": 0.25, "center": [0.5]})
        rep = H.check_sandwich(g, bd,
                               family_kw={"interior_stride": 1,
                                          "time_stride": 2})
        assert rep.passed
        assert rep.details["gap_monotone"]

    def test_verdict_is_scale_invariant(self):
        # the equation is invariant under phi -> c phi: the full-suite
        # sandwich gives the same verdict at base 1 and scaled by 1e5,
        # where its three equal boundary gaps (0.41633 base) sit above
        # 2^14 and an absolute 1e-12 slack rounds away
        from inflap.catalog import make_data

        g = build_grid(Domain.interval(0, 1), 0.1, 0.4, 6)
        for base in (1.0, 1e5):
            bd = make_data("gaussian-bump", {"base": base, "amp": base / 2,
                                             "width": 0.3, "center": [0.5]})
            rep = H.check_sandwich(g, bd, family_kw={"interior_stride": 2,
                                                     "time_stride": 2})
            gaps = rep.details["boundary_gaps"]
            assert gaps[0] == gaps[-1] > 0.4 * base
            assert rep.passed and rep.details["gap_monotone"]

    def test_no_residual_summary_takes_the_field_band(self):
        # summarize_residual=False leaves the solve without a summary: the
        # band is then the solved field's, and details say why
        g = build_grid(Domain.interval(0, 1), 0.1, 0.4, 6)
        from inflap.catalog import make_data

        bd = make_data("gaussian-bump", {"base": 1.0, "amp": 0.6,
                                         "width": 0.25, "center": [0.5]})
        cfg = solver.SolverConfig(summarize_residual=False)
        rep = H.check_sandwich(g, bd, config=cfg, eps_fracs=(0.1,),
                               family_kw={"interior_stride": 3})
        band, why = H._field_band(solver.solve(g, bd, cfg).field)
        assert why is None and rep.details["band"] == band
        assert rep.details["band_fallback"] == [
            "the solve kept no residual summary"]
        assert rep.passed


class TestBumpImprovement:
    def test_seeded_jet(self):
        g = build_grid(Domain.box([(-1, 1), (-1, 1)]), 0.2, 1.0, 6)
        jet = (0.0, np.array([1.0, 0.0]), np.diag([2.0, 1.0]))
        rep = H.check_bump_improvement(jet, 1.0, grid=g)
        assert rep.passed
        assert rep.details["mu"] == 2.0
        assert rep.details["improvement"] > 0.0
        assert rep.details["residual_at_anchor"] > 0.0

    def test_mu_nonpositive_vacuous(self):
        # p = 0 makes <Xp, p> = 0: no admissible violation
        jet = (0.0, np.zeros(2), np.eye(2))
        rep = H.check_bump_improvement(jet, 1.0)
        assert rep.vacuous and rep.passed


class TestLargeBallSurrogate:
    def test_radius_sweep(self):
        rep = H.check_large_ball_surrogate(radii=(2.0, 4.0), T=0.2)
        assert rep.passed
        tols = rep.details["tolerances"]
        assert tols[0][0] > tols[1][0]
        assert tols[0][1] > tols[1][1]


def test_reports_csv(tmp_path, ):
    reps = [H.PropertyReport("a", 1, 0.0, 1e-9, True),
            H.PropertyReport("b", 2, 0.5, 1e-9, False)]
    H.reports_to_csv(reps, tmp_path / "summary.csv")
    lines = (tmp_path / "summary.csv").read_text().strip().splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("a,1,")


def test_surrogate_constant_initial_data():
    # f constant: the interior bound reduces to the adversarial-lateral
    # influence alone and still shrinks with R
    rep = H.check_large_ball_surrogate(radii=(2.0, 4.0), T=0.2,
                                       bump_amp=0.0, base=2.0)
    assert rep.passed


def test_sandwich_constant_data_exact_coincidence():
    g = build_grid(Domain.interval(0, 1), 0.1, 0.4, 6)
    bd = BoundaryData(f=lambda x: np.full(len(x), 2.0),
                      g=lambda x, t: np.full(len(x), 2.0))
    res = solver.solve(g, bd, solver.SolverConfig(summarize_residual=False))
    sample_boundary_data(bd, g)
    sub = B.build_sub_family(g, bd, 0.01, interior_stride=3)
    sup = B.build_sup_family(g, bd, 0.01, interior_stride=3)
    lo = B.perron_family_sup(sub, g)
    hi = B.perron_family_inf(sup, g)
    assert np.all(lo.values == 2.0)
    assert np.all(hi.values == 2.0)
    assert np.max(np.abs(res.field.values - 2.0)) < 1e-12
