"""Evolution solver tests: exactness, monotonicity, CFL behavior, oracles.

The exact separable solutions from the radial module serve as oracles;
ordering and maximum-principle properties are exercised on seeded random
data, and the stencil kernel on hypothesis-drawn fields.  Keep grids
small here; the full acceptance configuration runs in test_acceptance.py.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from inflap import catalog, radial, solver, transforms
from inflap.grids import BoundaryData, DataError, Domain, GridField, \
    build_grid, sample_boundary_data

LAMBDA_B1 = radial.ball_eigenvalue(1.0)  # interval half-width 1 or unit ball


def const_bd(c):
    return BoundaryData(f=lambda x: np.full(len(x), c),
                        g=lambda x, t: np.full(len(x), c))


def eigen_bd(psi):
    return BoundaryData(
        f=lambda x: psi.eval(np.minimum(np.linalg.norm(x, axis=-1), psi.R)),
        g=lambda x, t: np.zeros(len(x)),
        zero_lateral_ok=True,
    )


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="variable"):
            solver.SolverConfig(variable="psi")
        for flag in ("false", 0, 1, None):
            with pytest.raises(ValueError, match="summarize_residual"):
                solver.SolverConfig(summarize_residual=flag)
        # the step constants are fixed, not options
        assert [f.name for f in dataclasses.fields(solver.SolverConfig)] \
            == ["variable", "summarize_residual"]
        for name in ("cfl", "grad_cap", "auto_cap_scale", "max_steps",
                     "positivity_floor"):
            with pytest.raises(TypeError, match=name):
                solver.SolverConfig(**{name: 1})


class TestDiscreteOperator:
    # both modes: the monotone operator and the centered one of the
    # residuals
    def test_linear_field_both_modes(self):
        g = build_grid(Domain.box([(0, 1), (0, 1)]), 0.1, 0.5, 5)
        vals = 0.7 * g.sample_pos[:, 0] - 0.2 * g.sample_pos[:, 1] + 1.0
        for out in (solver.discrete_infinity_laplacian(g, vals),
                    transforms._infinity_laplacian_centered(g, vals)[0]):
            assert np.max(np.abs(out)) < 1e-10

    def test_quadratic_both_modes(self):
        g = build_grid(Domain.box([(-1, 1), (-1, 1)]), 0.1, 0.5, 5)
        vals = 0.5 * np.sum(g.sample_pos ** 2, axis=1)
        r2 = np.sum(g.sample_pos[g.interior_idx] ** 2, axis=1)
        cen = transforms._infinity_laplacian_centered(g, vals)[0]
        assert np.max(np.abs(cen - r2)) < 1e-10
        mono = solver.discrete_infinity_laplacian(g, vals)
        # wide-stencil monotone form carries an O(h + angular) error
        assert np.max(np.abs(mono - r2)) < 0.35 * np.max(r2) + 0.05

    def test_radial_profile_centered_matches_ode(self):
        g = build_grid(Domain.ball((0.0, 0.0), 1.0), 0.05, 0.5, 5)
        prof = radial.decaying_profile(1.0, 0.6 * LAMBDA_B1, 1.0,
                                       fixed_which="m")
        r = np.minimum(np.linalg.norm(g.sample_pos, axis=1), 1.0)
        vals = prof.eval(r)
        cen = transforms._infinity_laplacian_centered(g, vals)[0]
        target = -prof.lam * vals[g.interior_idx] ** 3
        ri = r[g.interior_idx]
        # away from both the center cusp and the projected boundary ring
        sel = g.inner_rows & (ri > 0.4) & (ri < 0.85)
        assert np.max(np.abs(cen - target)[sel]) < 2e-2

    def test_cusp_branch_value_at_peak(self):
        # discrete local max of u = m - c r^(4/3) must see ~ -(64/81) c^3
        g = build_grid(Domain.interval(-1, 1), 0.05, 0.5, 5)
        c = 1.3
        vals = 2.0 - c * np.abs(g.sample_pos[:, 0]) ** (4.0 / 3.0)
        out = solver.discrete_infinity_laplacian(g, vals)
        center_row = np.argmin(np.abs(g.sample_pos[g.interior_idx, 0]))
        assert abs(out[center_row] + 64.0 / 81.0 * c ** 3) < 1e-10


class TestExactness:
    @pytest.mark.parametrize("variable", ["eta", "phi"])
    def test_constant_data_stays_constant(self, variable):
        g = build_grid(Domain.interval(0, 1), 0.1, 0.4, 5)
        cfg = solver.SolverConfig(variable=variable, summarize_residual=False)
        res = solver.solve(g, const_bd(2.5), cfg)
        assert np.max(np.abs(res.field.values - 2.5)) < 1e-12
        assert res.residual_summary is None
        assert res.flags["positivity_ok"]

    def test_eigen_decay_tracks_exact(self):
        psi = radial.decaying_profile(1.0, LAMBDA_B1, 1.0, fixed_which="m")
        g = build_grid(Domain.interval(-1, 1), 0.05, 0.5, 11)
        cfg = solver.SolverConfig(variable="phi", summarize_residual=False)
        res = solver.solve(g, eigen_bd(psi), cfg)
        r = np.abs(g.sample_pos[:, 0])
        exact = psi.eval(np.minimum(r, 1.0))[:, None] * \
            np.exp(-LAMBDA_B1 * g.t / 3.0)[None, :]
        assert np.max(np.abs(res.field.values - exact)) < 1e-2

    def test_growing_separable_tracks_exact(self):
        prof = radial.growing_profile(1.0, 1.0, 1.0)
        sep = transforms.make_separable(prof, k=1.0 / 3.0)
        g = build_grid(Domain.interval(-1, 1), 0.05, 0.4, 9)
        bd = BoundaryData(
            f=lambda x: prof.eval(np.minimum(np.abs(x[:, 0]), 1.0)),
            g=lambda x, t: prof.eval(np.minimum(np.abs(x[:, 0]), 1.0))
            * np.exp(t / 3.0),
        )
        res = solver.solve(g, bd, solver.SolverConfig(
            variable="eta", summarize_residual=False))
        exact = sep.as_field(g).values
        assert np.max(np.abs(res.field.values - exact)) < 2e-2

    def test_eta_and_phi_modes_agree_on_positive_data(self):
        # variable consistency: solve in eta, solve in phi, same solution
        # within a few discretization bands
        g = build_grid(Domain.interval(0, 1), 0.05, 0.3, 7)
        bd = BoundaryData(f=lambda x: 1.0 + 0.5 * np.sin(np.pi * x[:, 0]),
                          g=lambda x, t: np.ones(len(x)))
        out = {}
        for var in ("eta", "phi"):
            cfg = solver.SolverConfig(variable=var)
            out[var] = solver.solve(g, bd, cfg)
        gap = np.max(np.abs(out["eta"].field.values - out["phi"].field.values))
        band = max(out["eta"].residual_summary.band,
                   out["phi"].residual_summary.band)
        assert gap <= 3.0 * band + 1e-9


class TestOrderingAndBounds:
    def test_ordered_data_ordered_solutions(self):
        rng = np.random.default_rng(11)
        g = build_grid(Domain.interval(0, 1), 0.1, 0.3, 4)
        xs = g.sample_pos[:, 0]
        for trial in range(10):
            a = rng.uniform(0.5, 1.0)
            b = a + rng.uniform(0.1, 0.5)
            w = rng.uniform(1.0, 3.0)
            f1 = lambda x, a=a, w=w: a * (1.0 + 0.3 * np.sin(w * x[:, 0]))
            f2 = lambda x, b=b, w=w: b * (1.0 + 0.3 * np.sin(w * x[:, 0]) ** 2)
            lo = BoundaryData(f=f1, g=lambda x, t, a=a, w=w: f1(x))
            hi = BoundaryData(f=f2, g=lambda x, t, b=b, w=w: f2(x))
            if not np.all(f1(g.sample_pos) <= f2(g.sample_pos)):
                continue
            r1 = solver.solve(g, lo, solver.SolverConfig(
                summarize_residual=False))
            r2 = solver.solve(g, hi, solver.SolverConfig(
                summarize_residual=False))
            assert np.all(r1.field.values <= r2.field.values + 1e-10)

    def test_discrete_maximum_principle_random(self):
        rng = np.random.default_rng(5)
        g = build_grid(Domain.interval(0, 1), 0.1, 0.3, 4)
        for trial in range(8):
            a0 = rng.uniform(0.5, 2.0)
            amp = rng.uniform(0.0, 0.4) * a0
            w = rng.uniform(1.0, 6.0)
            bd = BoundaryData(
                f=lambda x: a0 + amp * np.sin(w * x[:, 0]),
                g=lambda x, t: a0 + amp * np.sin(w * x[:, 0]) * np.exp(-t),
            )
            res = solver.solve(g, bd, solver.SolverConfig(
                summarize_residual=False))
            assert np.max(res.field.values) <= bd.M + 1e-9
            assert np.min(res.field.values) >= bd.m - 1e-9


class TestCfl:
    def test_flat_field_steps_land_on_levels(self):
        g = build_grid(Domain.interval(0, 1), 0.1, 0.4, 5)
        res = solver.solve(g, const_bd(1.0), solver.SolverConfig(
            summarize_residual=False))
        # gradient terms vanish: each substep is the full level gap
        assert len(res.dt_history) == g.time_levels - 1
        assert np.allclose(res.dt_history, g.dt_level)
        assert list(res.flags) == ["positivity_ok"]

    def test_steep_field_shrinks_dt(self):
        g = build_grid(Domain.interval(0, 1), 0.1, 0.4, 5)
        flat = solver.cfl_dt(g, np.log(np.full(g.n_nodes, 2.0)),
                             solver.SolverConfig())
        steep = solver.cfl_dt(g, 3.0 * g.sample_pos[:, 0],
                              solver.SolverConfig())
        assert steep < flat / 10.0

    def test_clipped_last_substep_is_not_a_collapse(self):
        # two CFL steps of just under T/2 leave a last substep of ~5e-14 T,
        # clipped to land on the level: dt collapses only if the CFL step
        # itself does.  The linear datum is stationary, so the CFL step
        # stays the first one (up to rounding), which does not depend on T.
        datum = lambda x: 1.0 + 0.5 * x[:, 0]
        bd = BoundaryData(f=datum, g=lambda x, t: datum(x))
        cfg = solver.SolverConfig(variable="phi", summarize_residual=False)
        probe = build_grid(Domain.interval(0, 1), 0.1, 1.0, 2)
        dt = solver.cfl_dt(probe, datum(probe.sample_pos), cfg)
        g = build_grid(Domain.interval(0, 1), 0.1, 2.0 * dt / (1.0 - 5e-14),
                       2)
        res = solver.solve(g, bd, cfg)
        assert len(res.dt_history) == 3
        assert res.dt_history[-1] < 1e-13 * g.T
        assert sum(res.dt_history) == pytest.approx(g.T, rel=1e-15)

    def test_diffusive_scaling_under_refinement(self):
        cfg = solver.SolverConfig()
        dts = []
        for h in (0.1, 0.05):
            g = build_grid(Domain.interval(0, 1), h, 0.4, 5)
            eta = np.log(1.0 + 0.5 * g.sample_pos[:, 0])
            dts.append(solver.cfl_dt(g, eta, cfg))
        ratio = dts[0] / dts[1]
        assert 2.5 < ratio < 6.0


class TestErrors:
    def test_positivity_breach_advises_eta(self):
        # clamped zero lateral data in phi mode without the decay flag
        g = build_grid(Domain.interval(0, 1), 0.1, 0.3, 4)
        bd = BoundaryData(f=lambda x: 0.5 + x[:, 0] * 0,
                          g=lambda x, t: np.full(len(x), 1e-12))
        with pytest.raises(Exception):
            # data error (nonpositive-ish corner mismatch) or solver error;
            # either way the run must not return silently
            solver.solve(g, bd, solver.SolverConfig(variable="phi"))

    def test_negative_data_rejected(self):
        g = build_grid(Domain.interval(0, 1), 0.1, 0.3, 4)
        bd = BoundaryData(f=lambda x: -np.ones(len(x)),
                          g=lambda x, t: -np.ones(len(x)))
        with pytest.raises(Exception):
            solver.solve(g, bd)

    def test_eta_rejects_zero_lateral_data(self):
        # log phi is singular at a zero lateral datum: an eta march of it
        # is off by ~0.92 with positivity_ok set, so eta mode refuses it
        psi = radial.decaying_profile(1.0, LAMBDA_B1, 1.0, fixed_which="m")
        for dom in (Domain.interval(-1, 1), Domain.ball((0.0, 0.0), 1.0)):
            g = build_grid(dom, 0.1, 0.5, 6)
            with pytest.raises(solver.SolverError, match="variable='phi'"):
                solver.solve(g, eigen_bd(psi), solver.SolverConfig())
            res = solver.solve(g, eigen_bd(psi), solver.SolverConfig(
                variable="phi", summarize_residual=False))
            assert res.field.meta["grad_cap"] is not None
        # the gradient cap is phi-only
        vals = np.log(1.0 + 0.5 * g.sample_pos[:, 0] ** 2)
        with pytest.raises(ValueError, match="phi mode only"):
            solver.cfl_dt(g, vals, solver.SolverConfig(), cap=1.0)

    def test_max_steps_guard(self, monkeypatch):
        psi = radial.decaying_profile(1.0, LAMBDA_B1, 1.0, fixed_which="m")
        g = build_grid(Domain.interval(-1, 1), 0.05, 0.5, 11)
        monkeypatch.setattr(solver.SolverConfig, "max_steps", 10)
        cfg = solver.SolverConfig(variable="phi", summarize_residual=False)
        with pytest.raises(solver.StiffnessError, match="max_steps=10"):
            solver.solve(g, eigen_bd(psi), cfg)

    def test_collapsed_step_guard(self, monkeypatch):
        psi = radial.decaying_profile(1.0, LAMBDA_B1, 1.0, fixed_which="m")
        g = build_grid(Domain.interval(-1, 1), 0.05, 0.5, 11)
        monkeypatch.setattr(solver.SolverConfig, "cfl", 1e-20)
        cfg = solver.SolverConfig(variable="phi", summarize_residual=False)
        with pytest.raises(solver.StiffnessError,
                           match="time step collapsed"):
            solver.solve(g, eigen_bd(psi), cfg)

    def test_nonfinite_substep_raises(self):
        # a lateral datum that is NaN between the stored levels spreads
        # NaN into the march; its CFL step is NaN and the solve raises
        # instead of returning NaN values with positivity_ok set
        g = build_grid(Domain.interval(0, 1), 0.1, 0.1, 3)

        def lateral(x, t):
            return np.full(len(x), 1.0 if np.isclose(t, g.t).any()
                           else np.nan)

        bd = BoundaryData(f=lambda x: 1.0 + 0.5 * np.sin(np.pi * x[:, 0]),
                          g=lateral)
        cfg = solver.SolverConfig(variable="eta", summarize_residual=False)
        with pytest.raises(solver.SolverError, match="no longer finite"):
            solver.solve(g, bd, cfg)
        # a NaN initial datum stops at the sampling, before the march
        bd = BoundaryData(
            f=lambda x: np.where(np.isclose(x[:, 0], 0.5), np.nan, 1.0),
            g=lambda x, t: np.ones(len(x)))
        with pytest.raises(DataError, match="finite"):
            solver.solve(g, bd, cfg)


def test_solve_result_metadata():
    g = build_grid(Domain.interval(0, 1), 0.1, 0.3, 4)
    res = solver.solve(g, const_bd(1.5), solver.SolverConfig())
    assert res.field.variable_tag == "phi"
    assert res.field.meta["solved_in"] == "eta"
    assert res.grid is g
    assert res.config.variable == "eta"


def test_ordered_initial_data_same_lateral():
    # same lateral datum, ordered initial data: order persists level by level
    g = build_grid(Domain.interval(0, 1), 0.1, 0.3, 4)
    shared = lambda x, t: np.ones(len(x))
    lo = BoundaryData(f=lambda x: 1.0 + 0.4 * np.sin(np.pi * x[:, 0]) ** 2,
                      g=shared)
    hi = BoundaryData(f=lambda x: 1.0 + 0.8 * np.sin(np.pi * x[:, 0]) ** 2,
                      g=shared)
    r1 = solver.solve(g, lo, solver.SolverConfig(summarize_residual=False))
    r2 = solver.solve(g, hi, solver.SolverConfig(summarize_residual=False))
    assert np.all(r1.field.values <= r2.field.values + 1e-10)


def reference_march(grid, bd, cfg):
    """solve()'s march in node order through the node-ordered kernel entry
    point: (values in the marched variable, dt_history, flags, positivity
    clamps taken)."""
    floor, eta = cfg.positivity_floor, cfg.variable == "eta"
    cap = solver._resolve_cap(grid, bd, cfg)
    ii, bi = grid.interior_idx, grid.boundary_idx

    def to_variable(phi):
        return np.log(np.maximum(phi, floor)) if eta else phi

    work = to_variable(np.asarray(bd.f(grid.sample_pos), dtype=float))
    values, dts, ok, clamps = [work.copy()], [], True, 0
    for j in range(1, grid.time_levels):
        t = grid.t[j - 1]
        while t < grid.t[j] - 1e-14 * grid.T:
            rhs, coef = solver._rhs_and_coef(grid, work, cfg, cap)
            dt = min(cfg.cfl / max(float(np.max(coef)), 1e-300),
                     grid.t[j] - t)
            work[ii] += dt * rhs
            work[bi] = to_variable(bd.g(grid.sample_pos[bi], t + dt))
            if not eta and work[ii].min() < floor:
                ok, clamps = ok and bool(work[ii].min() >= 0.0), clamps + 1
                work = np.maximum(work, 0.0)
            t += dt
            dts.append(dt)
        values.append(work.copy())
    values = np.stack(values, axis=1)
    flags = {"positivity_ok": ok}
    return values, dts, flags, clamps


def _collar_data():
    # zero lateral data and a datum that vanishes on the annulus r >= 1/2,
    # so the auto cap is on and the positivity clamp fires
    psi = radial.decaying_profile(1.0, LAMBDA_B1, 1.0, fixed_which="m")
    top = psi.eval(np.array([0.5]))[0]
    return BoundaryData(
        f=lambda x: np.maximum(psi.eval(np.minimum(
            np.linalg.norm(x, axis=-1), 1.0)) - top, 0.0),
        g=lambda x, t: np.zeros(len(x)), zero_lateral_ok=True)


def _growing_data():
    prof = radial.growing_profile(1.0, 1.0, 1.0)
    u = lambda x: prof.eval(np.minimum(np.linalg.norm(x, axis=-1), 1.0))
    return BoundaryData(f=u, g=lambda x, t: u(x) * np.exp(t / 3.0))


@pytest.mark.parametrize("case", ["disk-phi", "box3d-eta", "interval-eta",
                                  "ball1d-phi", "ball3d-eta"])
def test_solve_matches_node_ordered_march(case):
    domain, h, variable, bd = {
        "disk-phi": (Domain.ball((0.0, 0.0), 1.0), 0.125, "phi",
                     _collar_data()),
        "ball1d-phi": (Domain.ball((0.0,), 1.0), 0.1, "phi", _collar_data()),
        "ball3d-eta": (Domain.ball((0.0,) * 3, 1.0), 0.25, "eta",
                       _growing_data()),
        "box3d-eta": (Domain.box([(-0.5, 0.5)] * 3), 0.125, "eta",
                      _growing_data()),
        "interval-eta": (Domain.interval(-1, 1), 0.1, "eta",
                         _growing_data()),
    }[case]
    g = build_grid(domain, h, 0.1, 4)
    cfg = solver.SolverConfig(variable=variable, summarize_residual=False)
    res = solver.solve(g, bd, cfg)
    values, dts, flags, clamps = reference_march(g, bd, cfg)
    eta = variable == "eta"
    assert np.array_equal(res.field.values, np.exp(values) if eta else values)
    assert res.dt_history == dts and res.flags == flags
    if eta:
        # the summary reads the eta values before solve() turns them into
        # phi in place: the field is the same, and so is every report entry
        summed = solver.solve(g, bd, dataclasses.replace(
            cfg, summarize_residual=True))
        assert np.array_equal(summed.field.values, res.field.values)
        expect = transforms.residual_Gamma(GridField(g, values, "eta"))
        for f in dataclasses.fields(expect):
            assert np.array_equal(getattr(summed.residual_summary, f.name),
                                  getattr(expect, f.name), equal_nan=True)
    # the cap is on for zero-lateral data only
    if bd.zero_lateral_ok:
        assert res.field.meta["grad_cap"] == \
            solver.SolverConfig.auto_cap_scale / np.sqrt(g.h)
    else:
        assert res.field.meta["grad_cap"] is None
    if case.endswith("phi"):   # one and two classes, irregular rows
        assert g.irregular_rows.size and bd.zero_lateral_ok
        assert clamps > 0
    if case == "ball3d-eta":
        assert g.irregular_rows.size and len(g.stencil_classes) == 3


def test_solve_records_its_binding_step():
    # the zero-lateral disk binds at its first irregular row, inside the
    # capped collar (dt ~ 3.75 h^3); the 3-D box in eta takes no cap
    psi = radial.decaying_profile(1.0, LAMBDA_B1, 1.0, fixed_which="m")
    for domain, h, bd, variable, irregular, capped in (
            (Domain.ball((0.0, 0.0), 1.0), 0.05, eigen_bd(psi), "phi",
             True, True),
            (Domain.box([(-0.5, 0.5)] * 3), 0.125, _growing_data(), "eta",
             False, False)):
        g = build_grid(domain, h, 0.01, 2)
        cfg = solver.SolverConfig(variable=variable, summarize_residual=False)
        res = solver.solve(g, bd, cfg)
        binding = res.binding
        assert binding["irregular"] is irregular
        assert binding["capped"] is capped
        assert binding["t"] == 0.0
        v0 = sample_boundary_data(bd, g).slab
        v0 = np.log(v0) if variable == "eta" else v0
        assert binding["dt"] == solver.cfl_dt(g, v0, cfg,
                                              res.field.meta["grad_cap"])
        x = np.array(binding["position"])
        assert np.array_equal(x, g.sample_pos[g.interior_idx[binding["row"]]])
        assert binding["boundary_distance"] == domain.boundary_distance(x)
        if capped:
            assert binding["row"] == 0
            assert binding["boundary_distance"] == pytest.approx(h)
            assert binding["dt"] == pytest.approx(3.75 * h ** 3, rel=1e-3)


def test_box3d_growth_solve_memory():
    # the box3d-growth benchmark solve: eta mode with its residual summary,
    # on data sampled beforehand; its traced heap peak is at most five
    # (N, L) fields (2.55 measured, the march alone 2.24: the rest is
    # headroom for a (Ni, K) slope block), and the grid holds no (Ni, K)
    # neighbour table
    grid = build_grid(Domain.box([(-0.5, 0.5)] * 3), 0.05, 1.0, 21)
    bd = catalog.make_data("growing-profile-trace",
                           {"R": 1.0, "lam": 1.0, "delta": 1.0,
                            "center": [0.0, 0.0, 0.0]})
    sample_boundary_data(bd, grid)
    cfg = solver.SolverConfig(variable="eta", summarize_residual=True)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        res = solver.solve(grid, bd, cfg)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert res.residual_summary is not None
    assert "nbr_index" not in vars(grid) and "nbr_dist" not in vars(grid)
    assert peak <= 5 * grid.n_nodes * grid.time_levels * 8


# ---------------------------------------------------------------------------
# kernel properties on random positive fields
# ---------------------------------------------------------------------------

# the balls have irregular rows (ring arms at projected lengths), the box
# and the interval none; the 3-D grids have three distance classes, the
# disk two and the 1-D grids one, so no cross-class ties
KERNEL_GRIDS = {
    "disk": build_grid(Domain.ball((0.0, 0.0), 1.0), 0.25, 0.5, 3),  # K = 8
    "box": build_grid(Domain.box([(0, 1)] * 3), 0.25, 0.5, 3),      # K = 26
    "ball3d": build_grid(Domain.ball((0.0,) * 3, 1.0), 0.25, 0.5, 3),  # 26
    "interval": build_grid(Domain.interval(0, 1), 0.125, 0.5, 3),    # K = 2
    "ball1d": build_grid(Domain.ball((0.0,), 0.9), 0.25, 0.5, 3),    # K = 2
}


@st.composite
def kernel_inputs(draw):
    """(grid, config, field in the solved variable, gradient cap); the cap
    only in phi mode, the one mode that takes it."""
    g = KERNEL_GRIDS[draw(st.sampled_from(sorted(KERNEL_GRIDS)))]
    variable = draw(st.sampled_from(["eta", "phi"]))
    phi = draw(hnp.arrays(float, g.n_nodes, elements=st.floats(0.2, 3.0),
                          fill=st.nothing()))   # every node drawn
    vals = np.log(phi) if variable == "eta" else phi
    cap = draw(st.none() | st.floats(0.5, 5.0)) if variable == "phi" else None
    return g, solver.SolverConfig(variable=variable), vals, cap


def argmax_reference(grid, vals):
    """(dinf, g, coef_c, axis slope pairs) of the monotone kernel in
    row-major argmax form."""
    nbr = vals[grid.nbr_index]
    c = vals[grid.interior_idx][:, None]
    slopes = (nbr - c) / grid.nbr_dist
    rows = np.arange(slopes.shape[0])
    kp, km = np.argmax(slopes, axis=1), np.argmin(slopes, axis=1)
    sp, sm = slopes[rows, kp], slopes[rows, km]
    dp, dm = grid.nbr_dist[rows, kp], grid.nbr_dist[rows, km]
    g = np.maximum(np.maximum(sp, -sm), 0.0)
    dinf = (0.5 * (sp - sm)) ** 2 * (2.0 * (sp + sm) / (dp + dm))
    coef = 2.0 * (0.5 * (sp - sm)) ** 2 / (dp * dm)
    d43 = grid.nbr_dist ** (4.0 / 3.0)
    dmin43 = np.min(grid.nbr_dist, axis=1) ** (4.0 / 3.0)
    for sel, cusp, sign in ((sp <= 0.0, np.max((c - nbr) / d43, axis=1), -1),
                            (sm >= 0.0, np.max((nbr - c) / d43, axis=1), 1)):
        cusp = np.maximum(cusp[sel], 0.0)
        dinf[sel] = sign * solver.CUSP * cusp ** 3
        coef[sel] = 3.0 * solver.CUSP * cusp ** 2 / dmin43[sel]
    axes = np.eye(grid.dim, dtype=int)
    pairs = [(slopes[:, column(grid, e)], slopes[:, column(grid, -e)])
             for e in axes]
    return dinf, g, coef, pairs


def column(grid, off):
    """The stencil column of the offset off."""
    return int(np.flatnonzero(np.all(grid.offsets == off, axis=1))[0])


def assert_kernel_matches_reference(grid, vals):
    # the kernel returns 2 dinf and 2 coef_c; halving them is exact
    c = vals[grid.interior_idx]
    ref = argmax_reference(grid, vals)
    for upwind in (False, True):
        dinf2, g, coef2, axis_up = solver._lattice_parts(
            grid, grid.lattice(vals), c, upwind)
        for a, b in zip((0.5 * dinf2, g, 0.5 * coef2), ref[:3]):
            assert np.array_equal(a, b)
    assert np.array_equal(solver.discrete_infinity_laplacian(grid, vals),
                          ref[0])
    assert len(axis_up) == len(ref[3]) == grid.dim
    for up, (ref_up, ref_dn) in zip(axis_up, ref[3]):
        assert np.array_equal(up, np.maximum(ref_up, ref_dn))


@given(kernel_inputs())
@settings(max_examples=100, deadline=None)
def test_kernel_matches_argmax_reference(inputs):
    g, _, vals, _ = inputs
    assert_kernel_matches_reference(g, vals)


@pytest.mark.parametrize("name", sorted(KERNEL_GRIDS))
@pytest.mark.parametrize("pattern", ["linear", "checkerboard"])
def test_kernel_extremum_rows(name, pattern):
    # linear: no discrete extremum, so the cusp branch takes no row;
    # checkerboard: every interior node is a discrete maximum or minimum
    g = KERNEL_GRIDS[name]
    if pattern == "linear":
        vals = 2.0 + g.sample_pos @ np.linspace(0.3, 0.7, g.dim)
    else:
        parity = np.rint(g.pos / g.h).astype(int).sum(axis=1) % 2
        vals = 1.0 + 0.5 * parity
    slopes = (vals[g.nbr_index] - vals[g.interior_idx][:, None]) / g.nbr_dist
    extremum = (slopes.max(axis=1) <= 0.0) | (slopes.min(axis=1) >= 0.0)
    assert np.all(extremum) if pattern == "checkerboard" \
        else not np.any(extremum)
    assert_kernel_matches_reference(g, vals)


def equal_slopes(da, db, slope):
    """Values va, vb near slope * (da, db) with va / da == vb / db exactly:
    equal slopes of arms of lengths da and db from a centre value 0."""
    while (slope * da) / da != (slope * db) / db:
        slope = np.nextafter(slope, np.inf)
    return slope * da, slope * db


@pytest.mark.parametrize("name", sorted(KERNEL_GRIDS))
def test_kernel_cross_class_tie_and_flat_field(name):
    g = KERNEL_GRIDS[name]
    # flat: every slope is 0, every row a discrete maximum and minimum
    assert_kernel_matches_reference(g, np.full(g.n_nodes, 1.7))
    if len(g.stencil_classes) == 1:
        return   # one arm length: no tie across classes
    # a regular row whose largest, and then smallest, slope is reached
    # exactly by a short arm and by every arm of the longest class, the
    # last column among them; the short arm is -e_0 of class 1, and on the
    # 3-D grids also -e_0 - e_1 of class 2.  The classes keep the shorter
    # length, and so does argmax, which keeps the first column: the class
    # order puts the short arm first, product order would put (-1, ..., -1)
    rng = np.random.default_rng(7)
    row = np.setdiff1d(np.arange(g.interior_idx.size), g.irregular_rows)[0]
    nbr, d = g.nbr_index[row], g.nbr_dist[row]
    long = np.flatnonzero(d == d.max())
    assert long[-1] == d.size - 1
    short = [-np.eye(g.dim, dtype=int)[0]]
    if g.dim == 3:
        short.append((-1, -1, 0))
    for off in short:
        k = column(g, off)
        assert d[k] < d[-1]
        # the other arms' slopes spread over [-1, 1], in a random order
        rest = np.setdiff1d(np.arange(d.size), np.r_[k, long])
        for tie, first in ((1.6, np.argmax), (-1.6, np.argmin)):
            vals = rng.uniform(0.5, 1.5, g.n_nodes)
            vals[g.interior_idx[row]] = 0.0
            vals[nbr[rest]] = rng.permutation(
                np.linspace(-1.0, 1.0, rest.size)) * d[rest]
            vals[nbr[k]], vals[nbr[long]] = equal_slopes(d[k], d[-1], tie)
            slopes = vals[nbr] / d
            assert np.all(slopes[long] == slopes[k]) and first(slopes) == k
            assert slopes.max() > 0.0 > slopes.min()
            assert_kernel_matches_reference(g, vals)


@given(kernel_inputs())
@settings(max_examples=100, deadline=None)
def test_cfl_dt_is_the_stepper_rule(inputs):
    g, cfg, vals, cap = inputs
    _, coef = solver._rhs_and_coef(g, vals, cfg, cap)
    assert solver.cfl_dt(g, vals, cfg, cap=cap) == \
        cfg.cfl / max(np.max(coef), 1e-300)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "known defect: G^2 = ((s+ - s-)/2)^2 comes from the same slopes as the "
    "curvature, so D_inf falls as s+ rises where 3 s+ + s- < 0 (and as s- "
    "rises where s+ + 3 s- > 0); random fields hit this"))
@given(kernel_inputs(), st.data())
@settings(max_examples=200, deadline=None, derandomize=True,
          phases=(Phase.generate,))   # no shrinking: the defect is known
def test_update_non_decreasing_in_each_neighbour(inputs, data):
    g, cfg, vals, cap = inputs
    row = data.draw(st.integers(0, g.interior_idx.size - 1))
    col = data.draw(st.integers(0, g.nbr_index.shape[1] - 1))
    raised = vals.copy()
    raised[g.nbr_index[row, col]] += data.draw(st.floats(1e-3, 1.0))
    dt = solver.cfl_dt(g, vals, cfg, cap=cap)
    node = g.interior_idx[row]
    before = vals[node] + dt * solver._rhs_and_coef(g, vals, cfg, cap)[0][row]
    after = raised[node] + dt * solver._rhs_and_coef(
        g, raised, cfg, cap)[0][row]
    assert after >= before - 1e-12 * abs(before)


def centre_raise(name, data):
    """(grid, config, values, raised values, interior row): a random phi
    field on a kernel grid and a copy with one interior value raised by
    1e-6."""
    g, cfg = KERNEL_GRIDS[name], solver.SolverConfig(variable="phi")
    vals = data.draw(hnp.arrays(float, g.n_nodes, elements=st.floats(0.2, 3.0),
                                fill=st.nothing()))
    row = data.draw(st.integers(0, g.interior_idx.size - 1))
    raised = vals.copy()
    raised[g.interior_idx[row]] += 1e-6
    return g, cfg, vals, raised, row


def assert_update_non_decreasing(g, cfg, vals, raised, row, dt):
    node = g.interior_idx[row]
    before = vals[node] + dt * solver._rhs_and_coef(g, vals, cfg, None)[0][row]
    after = raised[node] + dt * solver._rhs_and_coef(
        g, raised, cfg, None)[0][row]
    assert after >= before - 1e-12 * abs(before)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "known defect: the update jumps where the raise moves a row between the "
    "minmax and the cusp branch (ball1d [1, 1, 2, 1, 1, 1, 1], row 0), and "
    "on a flat field cfl_dt is 0.9 / 1e-300, so any rhs the raise makes is "
    "multiplied by ~1e300"))
@given(st.sampled_from(sorted(KERNEL_GRIDS)), st.data())
@settings(max_examples=200, deadline=None, derandomize=True,
          phases=(Phase.generate,))   # no shrinking: the defect is known
def test_update_non_decreasing_in_the_centre(name, data):
    g, cfg, vals, raised, row = centre_raise(name, data)
    assert_update_non_decreasing(g, cfg, vals, raised, row,
                                 solver.cfl_dt(g, vals, cfg))


def stencil_branch(grid, vals, row):
    """The row's extremum flags (max slope <= 0, min slope >= 0) and its
    argmax and argmin arms."""
    s = (vals[grid.nbr_index[row]] - vals[grid.interior_idx[row]]) \
        / grid.nbr_dist[row]
    return bool(s.max() <= 0.0), bool(s.min() >= 0.0), s.argmax(), s.argmin()


@given(st.sampled_from(sorted(KERNEL_GRIDS)), st.data())
@settings(max_examples=600, deadline=None, derandomize=True)
def test_update_non_decreasing_in_the_centre_within_a_branch(name, data):
    # uncapped phi mode: the CFL coef carries the 2 max(rhs, 0) / phi of the
    # lagged 1 / phi^2, so a substep (at most a level gap) keeps the update
    # non-decreasing in the centre value while the row keeps its branch
    g, cfg, vals, raised, row = centre_raise(name, data)
    assume(stencil_branch(g, vals, row) == stencil_branch(g, raised, row))
    assert_update_non_decreasing(g, cfg, vals, raised, row,
                                 min(solver.cfl_dt(g, vals, cfg), g.dt_level))


def parent_formulas(grid, vals, cfg, cap):
    """(rhs, coef, scale of rhs) from argmax_reference by the formulas
    dinf fac / 3 and coef_c fac / 3, fac = (1 / phi^2) shrink^2, in phi mode
    (plus 2 max(rhs, 0) / phi in coef without a cap), and (dinf + Q^4) / 3
    and (coef_c + 4 sqrt(n) Q^3 / dmin) / 3 in eta mode."""
    dinf, g, coef_c, pairs = argmax_reference(grid, vals)
    if cfg.variable == "eta":
        q2 = sum(np.maximum(np.maximum(a, b), 0.0) ** 2 for a, b in pairs)
        coef = (coef_c + 4.0 * np.sqrt(grid.dim) * q2 * np.sqrt(q2)
                / grid.dmin) / 3.0
        return (dinf + q2 ** 2) / 3.0, coef, (np.abs(dinf) + q2 ** 2) / 3.0
    phi = np.maximum(vals[grid.interior_idx], cfg.positivity_floor)
    fac = 1.0 / phi ** 2
    if cap is not None:
        shrink = np.minimum(cap / np.maximum(g / phi, 1e-300), 1.0)
        fac = fac * shrink * shrink
    rhs, coef = dinf * fac / 3.0, coef_c * fac / 3.0
    if cap is None:
        coef += 2.0 * np.maximum(rhs, 0.0) / phi
    return rhs, coef, np.abs(rhs)


@given(kernel_inputs())
@settings(max_examples=200, deadline=None)
def test_finishing_matches_the_formulas(inputs):
    # the kernel folds the constants into one factor per row, which rounds
    # differently from the formulas by a few ulps at most
    g, cfg, vals, cap = inputs
    rhs, coef = solver._rhs_and_coef(g, vals, cfg, cap)
    ref_rhs, ref_coef, scale = parent_formulas(g, vals, cfg, cap)
    assert np.all(np.abs(rhs - ref_rhs) <= 2e-15 * scale)
    assert np.all(np.abs(coef - ref_coef) <= 2e-15 * ref_coef)
