"""Evolution solver tests: exactness, monotonicity, CFL behavior, oracles.

The exact separable solutions from the radial module serve as oracles;
ordering and maximum-principle properties are exercised on seeded random
data, and the stencil kernel on hypothesis-drawn fields.  Keep grids
small here; the full acceptance configuration runs in test_acceptance.py.
"""

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from inflap import radial, solver, transforms
from inflap.grids import BoundaryData, Domain, build_grid

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
        with pytest.raises(ValueError):
            solver.SolverConfig(cfl=0.0)
        with pytest.raises(ValueError):
            solver.SolverConfig(variable="psi")
        with pytest.raises(ValueError):
            solver.SolverConfig(positivity_floor=0.0)


class TestDiscreteOperator:
    def test_linear_field_both_modes(self):
        g = build_grid(Domain.box([(0, 1), (0, 1)]), 0.1, 0.5, 5)
        vals = 0.7 * g.sample_pos[:, 0] - 0.2 * g.sample_pos[:, 1] + 1.0
        for mode in ("monotone_minmax", "centered_diagnostic"):
            out = solver.discrete_infinity_laplacian(g, vals, mode)
            assert np.max(np.abs(out)) < 1e-10

    def test_quadratic_both_modes(self):
        g = build_grid(Domain.box([(-1, 1), (-1, 1)]), 0.1, 0.5, 5)
        vals = 0.5 * np.sum(g.sample_pos ** 2, axis=1)
        r2 = np.sum(g.sample_pos[g.interior_idx] ** 2, axis=1)
        cen = solver.discrete_infinity_laplacian(g, vals, "centered_diagnostic")
        assert np.max(np.abs(cen - r2)) < 1e-10
        mono = solver.discrete_infinity_laplacian(g, vals, "monotone_minmax")
        # wide-stencil monotone form carries an O(h + angular) error
        assert np.max(np.abs(mono - r2)) < 0.35 * np.max(r2) + 0.05

    def test_radial_profile_centered_matches_ode(self):
        g = build_grid(Domain.ball((0.0, 0.0), 1.0), 0.05, 0.5, 5)
        prof = radial.decaying_profile(1.0, 0.6 * LAMBDA_B1, 1.0,
                                       fixed_which="m")
        r = np.minimum(np.linalg.norm(g.sample_pos, axis=1), 1.0)
        vals = prof.eval(r)
        cen = solver.discrete_infinity_laplacian(g, vals, "centered_diagnostic")
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
        out = solver.discrete_infinity_laplacian(g, vals, "monotone_minmax")
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
        sep = transforms.make_separable(prof, k=1.0 / 3.0, center=(0.0,))
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
        assert not res.flags["cfl_shrunk"]

    def test_steep_field_shrinks_dt(self):
        g = build_grid(Domain.interval(0, 1), 0.1, 0.4, 5)
        flat = solver.cfl_dt(g, np.log(np.full(g.n_nodes, 2.0)),
                             solver.SolverConfig())
        steep = solver.cfl_dt(g, 3.0 * g.sample_pos[:, 0],
                              solver.SolverConfig())
        assert steep < flat / 10.0

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

    def test_max_steps_guard(self):
        psi = radial.decaying_profile(1.0, LAMBDA_B1, 1.0, fixed_which="m")
        g = build_grid(Domain.interval(-1, 1), 0.05, 0.5, 11)
        cfg = solver.SolverConfig(variable="phi", max_steps=10,
                                  summarize_residual=False)
        with pytest.raises(solver.StiffnessError):
            solver.solve(g, eigen_bd(psi), cfg)


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
    point: (values, dt_history, flags, positivity clamps taken)."""
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
    flags = {"positivity_ok": ok, "cfl_shrunk": len(dts) > len(grid.t) - 1}
    return np.exp(values) if eta else values, dts, flags, clamps


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


@pytest.mark.parametrize("case", ["disk-phi", "box3d-eta", "interval-eta"])
def test_solve_matches_node_ordered_march(case):
    domain, h, variable, bd = {
        "disk-phi": (Domain.ball((0.0, 0.0), 1.0), 0.125, "phi",
                     _collar_data()),
        "box3d-eta": (Domain.box([(-0.5, 0.5)] * 3), 0.125, "eta",
                      _growing_data()),
        "interval-eta": (Domain.interval(-1, 1), 0.1, "eta",
                         _growing_data()),
    }[case]
    g = build_grid(domain, h, 0.1, 4)
    cfg = solver.SolverConfig(variable=variable, summarize_residual=False)
    res = solver.solve(g, bd, cfg)
    values, dts, flags, clamps = reference_march(g, bd, cfg)
    assert np.array_equal(res.field.values, values)
    assert res.dt_history == dts and res.flags == flags
    if case == "disk-phi":
        assert g.irregular_rows.size and res.field.meta["grad_cap"]
        assert clamps > 0


def test_explicit_grad_cap_matches_the_auto_cap():
    # zero lateral data turns the auto cap scale / sqrt(h) on; the same cap
    # given as SolverConfig(grad_cap=...) gives the same run bit for bit
    g = build_grid(Domain.ball((0.0, 0.0), 1.0), 0.125, 0.1, 4)
    auto_cfg = solver.SolverConfig(variable="phi")
    cap = auto_cfg.auto_cap_scale / np.sqrt(g.h)
    auto = solver.solve(g, _collar_data(), auto_cfg)
    given = solver.solve(g, _collar_data(),
                         solver.SolverConfig(variable="phi", grad_cap=cap))
    assert auto.field.meta["grad_cap"] == given.field.meta["grad_cap"] == cap
    assert np.array_equal(given.field.values, auto.field.values)
    assert given.dt_history == auto.dt_history


# ---------------------------------------------------------------------------
# kernel properties on random positive fields
# ---------------------------------------------------------------------------

# the balls have irregular rows (ring arms at projected lengths), the box
# none; the 3-D grids have three distance classes, the disk two
KERNEL_GRIDS = {
    "disk": build_grid(Domain.ball((0.0, 0.0), 1.0), 0.25, 0.5, 3),  # K = 8
    "box": build_grid(Domain.box([(0, 1)] * 3), 0.25, 0.5, 3),      # K = 26
    "ball3d": build_grid(Domain.ball((0.0,) * 3, 1.0), 0.25, 0.5, 3),  # 26
}


@st.composite
def kernel_inputs(draw):
    """(grid, config, field in the solved variable, gradient cap)."""
    g = KERNEL_GRIDS[draw(st.sampled_from(sorted(KERNEL_GRIDS)))]
    variable = draw(st.sampled_from(["eta", "phi"]))
    phi = draw(hnp.arrays(float, g.n_nodes, elements=st.floats(0.2, 3.0),
                          fill=st.nothing()))   # every node drawn
    vals = np.log(phi) if variable == "eta" else phi
    cap = draw(st.none() | st.floats(0.5, 5.0))
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
    pairs = [(slopes[:, grid.offset_column(e)],
              slopes[:, grid.offset_column(-e)]) for e in axes]
    return dinf, g, coef, pairs


def assert_kernel_matches_reference(grid, vals):
    c = vals[grid.interior_idx]
    ref = argmax_reference(grid, vals)
    for upwind in (False, True):
        dinf, g, coef, axis_up = solver._lattice_parts(
            grid, grid.lattice(vals), c, upwind)
        for a, b in zip((dinf, g, coef), ref[:3]):
            assert np.array_equal(a, b)
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


@pytest.mark.parametrize("name", sorted(KERNEL_GRIDS))
def test_kernel_cross_class_tie_and_flat_field(name):
    g = KERNEL_GRIDS[name]
    # flat: every slope is 0, every row a discrete maximum and minimum
    assert_kernel_matches_reference(g, np.full(g.n_nodes, 1.7))
    # a regular row whose largest slope is reached exactly by column 0
    # (the longest arm) and by the -e_0 arm, of length h = 2^-2, so that
    # argmax keeps the long arm while the classes meet shortest first
    rng = np.random.default_rng(7)
    vals = rng.uniform(0.5, 1.5, g.n_nodes)
    row = np.setdiff1d(np.arange(g.interior_idx.size), g.irregular_rows)[0]
    nbr, d = g.nbr_index[row], g.nbr_dist[row]
    axis = g.offset_column(-np.eye(g.dim, dtype=int)[0])
    vals[g.interior_idx[row]] = 0.0
    vals[nbr] = rng.uniform(-1.0, 0.5, d.size) * d
    vals[nbr[0]] = 0.8 * d[0]
    vals[nbr[axis]] = g.h * (vals[nbr[0]] / d[0])
    slopes = vals[nbr] / d
    assert slopes[0] == slopes[axis] == slopes.max() > 0.0 > slopes.min()
    assert d[0] > d[axis]
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
