"""Transform, residual, and separable-solution tests.

Residual assertions compare against closed forms (planes, the separable
identity) nodewise, using the per-node a-posteriori band; the radial
profiles have an r^(4/3) cusp at their center where the classical
residual is meaningless, so convergence statements exclude a fixed
neighborhood of the center.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from inflap import radial
from inflap import transforms as tf
from inflap.grids import Domain, GridField, build_grid

LAMBDA_B = radial.ball_eigenvalue(1.0)


def ball_grid(h=0.1, T=0.5, levels=9):
    return build_grid(Domain.ball((0.0, 0.0), 1.0), h, T, levels)


def box_grid(h=0.1, T=0.5, levels=9):
    return build_grid(Domain.box([(0, 1), (0, 1)]), h, T, levels)


class TestVariableChange:
    def test_round_trip_machine_precision(self):
        g = box_grid()
        rng = np.random.default_rng(0)
        vals = np.exp(rng.normal(size=(g.n_nodes, g.time_levels)))
        fld = GridField(g, vals, "phi")
        back = tf.to_phi(tf.to_eta(fld))
        assert np.max(np.abs(back.values - vals)) < 1e-14 * np.max(vals)

    def test_constant_maps_to_log_constant(self):
        g = box_grid()
        fld = GridField(g, np.full((g.n_nodes, g.time_levels), 3.0), "phi")
        eta = tf.to_eta(fld)
        assert np.allclose(eta.values, math.log(3.0))
        assert tf.residual_Pi(fld).sup_norm == 0.0
        assert tf.residual_Gamma(eta).sup_norm == 0.0

    def test_nonpositive_rejected(self):
        g = box_grid()
        vals = np.ones((g.n_nodes, g.time_levels))
        vals[0, 0] = -1.0
        with pytest.raises(tf.TransformError):
            tf.to_eta(GridField(g, vals, "phi"))
        with pytest.raises(tf.TransformError):
            tf.to_eta(GridField(g, np.zeros_like(vals), "eta"))


class TestResidualClosedForms:
    def test_plane_eta_residual_exact(self):
        # eta = a t + <p, x>: Delta_inf = 0, so Gamma = |p|^4 - 3a exactly
        g = box_grid()
        a, p = 0.7, np.array([0.3, -0.4])
        eta = GridField.from_function(g, lambda x, t: a * t + x @ p, "eta")
        rep = tf.residual_Gamma(eta)
        expected = float(np.sum(p ** 2) ** 2 - 3 * a)
        body = rep.values[:, ~rep.onesided_levels]
        assert np.nanmax(np.abs(body - expected)) < 1e-12

    def test_sigma_coefficient(self):
        g = box_grid()
        a, p = 0.1, np.array([0.5, 0.2])
        eta = GridField.from_function(g, lambda x, t: a * t + x @ p, "eta")
        for sigma in (0.0, -2.0, 3.5):
            rep = tf.residual_Gamma(eta, sigma=sigma)
            expected = sigma * float(np.sum(p ** 2)) ** 2 - 3 * a
            body = rep.values[:, ~rep.onesided_levels]
            assert np.nanmax(np.abs(body - expected)) < 1e-12
            assert rep.sigma == sigma

    def test_quadratic_infinity_laplacian(self):
        # u = |x|^2/2 has D u = x, D^2 u = I, so Delta_inf u = |x|^2
        g = ball_grid(h=0.1)
        vals = 0.5 * np.sum(g.sample_pos ** 2, axis=1)
        dinf, gsq = tf._infinity_laplacian_centered(g, vals)
        r2 = np.sum(g.sample_pos[g.interior_idx] ** 2, axis=1)
        clean = g.inner_rows
        assert np.max(np.abs(dinf - r2)[clean]) < 1e-12
        assert np.max(np.abs(gsq - r2)[clean]) < 1e-12


def _gather_centered(grid, level_vals, spacing, nbr):
    """Oracle: the centered contraction gathered through a node table
    nbr[row, column] (the stencil, or its second ring for the 2h pass)."""
    n = grid.dim
    plus, minus = grid.axis_columns
    c = level_vals[grid.interior_idx]
    vp = [level_vals[nbr[:, plus[a]]] for a in range(n)]
    vm = [level_vals[nbr[:, minus[a]]] for a in range(n)]
    p = [(vp[a] - vm[a]) / (2.0 * spacing) for a in range(n)]
    grad_sq = sum(pa * pa for pa in p)
    out = np.zeros_like(c)
    for a in range(n):
        h_aa = (vp[a] + vm[a] - 2.0 * c) / spacing ** 2
        out += p[a] * p[a] * h_aa
    for a in range(n):
        for b in range(a + 1, n):
            e_a, e_b = np.eye(n, dtype=int)[[a, b]]
            cpp, cmm, cpm, cmp_ = (
                int(np.flatnonzero(np.all(grid.offsets == z, axis=1))[0])
                for z in (e_a + e_b, -e_a - e_b, e_a - e_b, e_b - e_a))
            h_ab = (level_vals[nbr[:, cpp]] + level_vals[nbr[:, cmm]]
                    - level_vals[nbr[:, cpm]] - level_vals[nbr[:, cmp_]]
                    ) / (4.0 * spacing ** 2)
            out += 2.0 * p[a] * p[b] * h_ab
    return out, grad_sq


def _second_ring(grid):
    """Oracle: the node two steps along each stencil column (node 0 where
    there is none), and the rows that have all of them."""
    row_of = np.full(grid.n_nodes, -1)
    row_of[grid.interior_idx] = np.arange(grid.interior_idx.size)
    rows1 = row_of[grid.nbr_index]
    valid = rows1 >= 0
    two = np.full_like(grid.nbr_index, -1)
    for col in range(two.shape[1]):
        ok = valid[:, col]
        two[ok, col] = grid.nbr_index[rows1[ok, col], col]
    eligible = np.all(valid, axis=1) & np.all(two >= 0, axis=1)
    return np.where(two >= 0, two, 0), eligible


def _time_derivative(vals, dt, stride=1):
    """Oracle: centered d/dt per level at spacing stride * dt, one-sided at
    the two end levels (NaN at the other levels within stride of the
    ends), shape preserved; needs L > 2 stride."""
    N, L = vals.shape
    out = np.full((N, L), np.nan)
    s = stride
    mid = out[:, s:L - s]
    np.subtract(vals[:, 2 * s:], vals[:, :L - 2 * s], out=mid)
    mid /= 2 * s * dt
    out[:, 0] = (-3 * vals[:, 0] + 4 * vals[:, 1] - vals[:, 2]) / (2 * dt)
    out[:, -1] = (3 * vals[:, -1] - 4 * vals[:, -2] + vals[:, -3]) / (2 * dt)
    return out


def _gather_report(grid, vals, tag, sigma):
    """Oracle: (values, sup_norm, band, band_nodes, clean_rows) of a
    residual report gathered through nbr_index and its second ring; with
    L <= 4 there is no 2h pass and the band is the heuristic one."""
    idx, L, dt = grid.interior_idx, grid.time_levels, grid.dt_level
    two, eligible = _second_ring(grid)

    def residual(spacing, nbr, stride, levels):
        vt = _time_derivative(vals, dt, stride)
        res = np.full((idx.size, L), np.nan)
        for j in levels:
            dinf, gsq = _gather_centered(grid, vals[:, j], spacing, nbr)
            if tag == "Pi":
                c = vals[idx, j]
                res[:, j] = dinf - 3.0 * c * c * vt[idx, j]
            else:
                res[:, j] = dinf + sigma * gsq * gsq - 3.0 * vt[idx, j]
        return res

    res = residual(grid.h, grid.nbr_index, 1, range(L))
    clean = np.all(grid.interior_mask[grid.nbr_index], axis=1) | (
        grid.domain.kind != "ball")
    sup = float(np.nanmax(np.abs(res[clean][:, 1:-1])))
    band_nodes = np.full(idx.size, np.nan)
    if L > 4:
        res2 = residual(2.0 * grid.h, two, 2, range(2, L - 2))
        per_row = np.nanmax(np.abs(res[:, 2:L - 2] - res2[:, 2:L - 2]),
                            axis=1)
        band_nodes[eligible] = 10.0 * (per_row / 3.0)[eligible] + 1e-13
    usable = clean & np.isfinite(band_nodes)
    if usable.any():
        band = float(np.max(band_nodes[usable]))
    else:
        band = tf.heuristic_band(grid, vals) + 1e-13
    return res, sup, band, band_nodes, clean


@pytest.mark.parametrize("dom,h", [
    (Domain.interval(-1.0, 1.0), 0.1),
    (Domain.box([(0.0, 1.0), (0.0, 0.8)]), 0.1),
    (Domain.box([(-0.5, 0.5)] * 3), 0.1),
    (Domain.ball((0.0, 0.0), 1.0), 0.05),
    (Domain.ball((0.1, 0.0, -0.2), 1.0), 0.125),
], ids=["interval", "box2d", "box3d", "disk", "ball3d"])
def test_lattice_residual_matches_gather_oracle(dom, h):
    # the slice operator, the lattice row mask and the level-by-level report
    # reproduce the gather-based report bit for bit, band included: with no
    # 2h pass (3 levels), the fewest levels with one (5) and 7 levels, and
    # on a field with NaN samples, one inner row NaN at every level
    rng = np.random.default_rng(3)
    for levels in (3, 5, 7):
        g = build_grid(dom, h, 0.5, levels)
        x = g.sample_pos
        vals = np.exp(0.4 * g.t + (x @ np.linspace(0.5, -0.3, g.dim))[:, None]
                      + 0.05 * rng.normal(size=(g.n_nodes, g.time_levels)))
        holed = vals.copy()
        holed[g.interior_idx[::5], levels // 2] = np.nan
        holed[g.interior_idx[np.flatnonzero(g.inner_rows)[0]]] = np.nan
        for v in (vals, holed):
            fld = GridField(g, v, "phi")
            eta = tf.to_eta(fld)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                reps = (tf.residual_Pi(fld), tf.residual_Gamma(eta, sigma=0.7))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                refs = (_gather_report(g, v, "Pi", 1.0),
                        _gather_report(g, eta.values, "Gamma", 0.7))
            for rep, ref in zip(reps, refs):
                got = (rep.values, rep.sup_norm, rep.band, rep.band_nodes,
                       rep.clean_rows)
                for a, b in zip(got, ref):
                    assert np.array_equal(a, b, equal_nan=True)
    # the operator itself at h and at 2h, on the rows of the 2h pass
    two, eligible = _second_ring(g)
    assert np.array_equal(g.inner_rows, eligible) and eligible.any()
    for step, nbr in ((1, g.nbr_index), (2, two)):
        got = tf._infinity_laplacian_centered(g, vals[:, 3], step)
        ref = _gather_centered(g, vals[:, 3], step * g.h, nbr)
        for a, b in zip(got, ref):
            assert np.array_equal(a[eligible], b[eligible])


@pytest.mark.parametrize("dom,h", [
    (Domain.box([(-0.5, 0.5)] * 3), 0.05),
    (Domain.ball((0.0, 0.0), 1.0), 0.025),
], ids=["box3d", "disk"])
def test_residual_report_working_set(dom, h, traced_peak):
    # a report holds one level at a time: beyond its own values its traced
    # heap peak stays within one (N, L) field, and the heuristic band's
    # within 0.05 of one (the box3d-growth grid and the ball-decay disk;
    # 1-D fields are too small to measure)
    g = build_grid(dom, h, 1.0, 21)
    x = g.sample_pos
    phi = GridField(g, np.exp(0.3 * g.t + (x @ np.linspace(0.4, -0.2, g.dim))
                              [:, None]), "phi")
    eta = tf.to_eta(phi)
    field_bytes = g.n_nodes * g.time_levels * 8
    for report, fld in ((tf.residual_Pi, phi), (tf.residual_Gamma, eta)):
        rep, peak = traced_peak(report, fld)
        assert np.isfinite(rep.band)
        assert peak <= rep.values.nbytes + field_bytes
    # the heuristic band reads the extremes of the values without a copy
    band, peak = traced_peak(tf.heuristic_band, g, phi.values)
    assert np.isfinite(band)
    assert peak <= 0.05 * field_bytes


class TestSeparable:
    def test_smooth_exponential_solution_within_band(self):
        # phi = exp(at + <p,x>) with 3a = |p|^4 solves the equation and is
        # C-infinity, so the nodewise a-posteriori band must cover the
        # discrete residual everywhere
        p = np.array([0.6, -0.3])
        a = float(np.sum(p ** 2) ** 2 / 3.0)
        for h, lv in ((0.2, 9), (0.1, 17)):
            g = ball_grid(h=h, levels=lv)
            fld = GridField.from_function(g, lambda x, t: np.exp(a * t + x @ p))
            rep = tf.residual_Pi(fld)
            ok = rep.clean_rows & np.isfinite(rep.band_nodes)
            body = np.nanmax(np.abs(rep.values[:, 2:-2]), axis=1)
            assert np.all(body[ok] <= rep.band_nodes[ok])

    def test_eigen_exact_solution_band_and_refinement(self):
        psi = radial.decaying_profile(1.0, LAMBDA_B, 1.0, fixed_which="m")
        sep = tf.make_separable(psi, k=-LAMBDA_B / 3.0)
        assert sep.classification == "exact"
        sups = []
        for h, lv in ((0.2, 9), (0.1, 17), (0.05, 33)):
            g = ball_grid(h=h, levels=lv)
            rep = tf.residual_Pi(sep.as_field(g))
            r = np.linalg.norm(g.sample_pos[g.interior_idx], axis=1)
            # nodewise band holds outside the cusp influence zone (a few
            # cells around the center, where the profile is only C^1 and
            # the equation holds in the viscosity sense only)
            far = rep.clean_rows & np.isfinite(rep.band_nodes) & (r >= 3.5 * h)
            if far.any():
                body = np.nanmax(np.abs(rep.values[:, 2:-2]), axis=1)
                assert np.all(body[far] <= rep.band_nodes[far])
            sel = rep.clean_rows & (r >= 0.25)
            sups.append(float(np.nanmax(np.abs(rep.values[sel][:, 1:-1]))))
        assert sups[0] > sups[1] > sups[2]

    def test_growing_separable_exact(self):
        prof = radial.growing_profile(1.0, 1.0, 1.0)
        sep = tf.make_separable(prof, k=1.0 / 3.0)
        assert sep.classification == "exact"
        t = 0.4
        x = np.array([[0.3, 0.1]])
        assert abs(sep.eval(x, t)[0]
                   - prof.eval(np.hypot(0.3, 0.1)) * math.exp(t / 3)) < 1e-12

    def test_classification_directions(self):
        # for D_inf u + lam u^3 = 0 with u >= 0: 3k < -lam gives Pi >= 0
        # (sub-solution), 3k > -lam gives Pi <= 0 (super-solution)
        prof = radial.decaying_profile(1.0, 0.5 * LAMBDA_B, 1.0,
                                       fixed_which="delta")
        lam = prof.lam
        sub = tf.make_separable(prof, k=-lam / 3.0 - 0.5)
        sup = tf.make_separable(prof, k=-lam / 3.0 + 0.5)
        assert sub.classification == "sub"
        assert sup.classification == "super"
        x = np.array([[0.2], [0.6]])
        assert np.all(sub.residual_exact(x, 0.3) >= 0)
        assert np.all(sup.residual_exact(x, 0.3) <= 0)

    def test_stationary_eigenfunction_is_strict_supersolution(self):
        # g = 1 (k = 0): Pi = -lam u^3 <= 0, the decay counterexample
        psi = radial.decaying_profile(1.0, LAMBDA_B, 1.0, fixed_which="m")
        sep = tf.make_separable(psi, k=0.0)
        assert sep.classification == "super"
        x = np.array([[0.0], [0.4]])
        res = sep.residual_exact(x, 1.0)
        u = psi.eval(np.array([0.0, 0.4]))
        assert np.allclose(res, -LAMBDA_B * u ** 3)

    @pytest.mark.parametrize("gname", ["exp", "linear_up", "linear_down"])
    def test_general_time_factor_identity(self, gname):
        # Pi(u g) = -g^2 u^3 (lam g + 3 g') against the discrete residual
        T = 0.5
        gmap = {
            "exp": (lambda t: np.exp(-0.4 * t), lambda t: -0.4 * np.exp(-0.4 * t)),
            "linear_up": (lambda t: 1.0 + t, lambda t: 1.0),
            "linear_down": (lambda t: 2.0 - t / T, lambda t: -1.0 / T),
        }
        gfun, gp = gmap[gname]
        prof = radial.decaying_profile(1.0, 0.5 * LAMBDA_B, 1.0,
                                       fixed_which="m")
        sep = tf.make_separable(prof, g=gfun, gprime=gp)
        grid = ball_grid(h=0.1, T=T, levels=17)
        rep = tf.residual_Pi(sep.as_field(grid))
        closed = np.empty_like(rep.values)
        pts = grid.sample_pos[grid.interior_idx]
        for j, tj in enumerate(grid.t):
            closed[:, j] = sep.residual_exact(pts, tj)
        r = np.linalg.norm(pts, axis=1)
        ok = rep.clean_rows & np.isfinite(rep.band_nodes) & (r >= 0.35)
        diff = np.nanmax(np.abs(rep.values - closed)[:, 2:-2], axis=1)
        assert ok.sum() > 50
        assert np.all(diff[ok] <= rep.band_nodes[ok])

    def test_as_field_positive_and_tagged(self):
        prof = radial.decaying_profile(1.0, 0.7 * LAMBDA_B, 1.0,
                                       fixed_which="delta")
        sep = tf.make_separable(prof, k=-prof.lam / 3.0)
        fld = sep.as_field(ball_grid())
        assert fld.variable_tag == "phi"
        assert np.all(fld.values > 0)


class TestTransformEquivalence:
    def test_sign_agreement_above_band(self):
        # sub/super classification is preserved by the log transform:
        # wherever both discrete residuals clear their own bands, the signs
        # agree
        prof = radial.decaying_profile(1.0, 0.6 * LAMBDA_B, 1.0,
                                       fixed_which="m")
        grid = ball_grid(h=0.1, levels=17)
        for k in (-prof.lam / 3.0 - 0.8, -prof.lam / 3.0 + 0.8):
            sep = tf.make_separable(prof, k=k)
            fld = sep.as_field(grid)
            rp = tf.residual_Pi(fld)
            rg = tf.residual_Gamma(tf.to_eta(fld))
            sel = (rp.clean_rows & np.isfinite(rp.band_nodes)
                   & np.isfinite(rg.band_nodes))
            body_p = rp.values[:, 2:-2]
            body_g = rg.values[:, 2:-2]
            above = (np.abs(body_p) > rp.band_nodes[:, None]) & \
                (np.abs(body_g) > rg.band_nodes[:, None]) & sel[:, None]
            assert above.sum() > 0
            assert np.all(np.sign(body_p[above]) == np.sign(body_g[above]))


class TestLogInequality:
    def test_zero_gap(self):
        r = tf.log_inequality_check(0.0)
        assert r.log_gap == 0.0 and r.exp_gap == 0.0
        assert r.log_ok and r.exp_ok

    def test_known_values(self):
        r = tf.log_inequality_check(0.3)
        assert 0.0 <= r.log_gap <= 0.027
        assert abs(r.log_gap - (math.log(1.3) - 0.3 + 0.045)) < 1e-15
        rn = tf.log_inequality_check(-0.3)
        assert (-0.3) ** 3 <= rn.log_gap <= 0.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            tf.log_inequality_check(0.4)

    @given(st.floats(min_value=-1.0 / 3.0, max_value=1.0 / 3.0))
    @settings(max_examples=300, deadline=None)
    def test_bounds_hold_property(self, c):
        r = tf.log_inequality_check(c)
        assert r.log_ok and r.exp_ok

    def test_seeded_sweep(self):
        rng = np.random.default_rng(2024)
        for c in rng.uniform(-1.0 / 3.0, 1.0 / 3.0, size=1000):
            r = tf.log_inequality_check(float(c))
            assert r.log_ok and r.exp_ok


def test_residual_report_csv_export(tmp_path):
    g = box_grid(h=0.25, levels=5)
    fld = GridField(g, np.full((g.n_nodes, g.time_levels), 2.0), "phi")
    rep = tf.residual_Pi(fld)
    rep.to_csv(g, tmp_path / "residual.csv")
    lines = (tmp_path / "residual.csv").read_text().strip().splitlines()
    assert lines[0] == "x0,x1,t,residual"
    assert len(lines) == 1 + g.interior_idx.size * g.time_levels
    # the bytes are those of a sample-by-sample writer, special values too
    rep.values[:4, 1] = [np.nan, -0.0, 1e300, 1.0 / 3.0]
    rep.to_csv(g, tmp_path / "residual.csv")
    ref = ["x0,x1,t,residual\n"]
    for j, tj in enumerate(g.t):
        for row, i in enumerate(g.interior_idx):
            coords = ",".join(f"{c:.17g}" for c in g.sample_pos[i])
            ref.append(f"{coords},{tj:.17g},{rep.values[row, j]:.17g}\n")
    assert (tmp_path / "residual.csv").read_text() == "".join(ref)
