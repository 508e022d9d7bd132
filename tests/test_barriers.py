"""Barrier catalog tests: pins, domination, residual signs, instruments."""

import numpy as np
import pytest

from inflap import barriers as B
from inflap import radial
from inflap.grids import (
    BoundaryData,
    Domain,
    GridField,
    build_grid,
    sample_boundary_data,
)


@pytest.fixture(scope="module")
def setup_1d():
    g = build_grid(Domain.interval(0.0, 1.0), 0.1, 0.5, 11)
    bd = BoundaryData(f=lambda x: 1.0 + 0.8 * np.sin(np.pi * x[:, 0]) ** 2,
                      g=lambda x, t: np.ones(len(x)))
    hfield = sample_boundary_data(bd, g)
    eps = 0.05 * (bd.M - bd.m)
    return g, bd, hfield, eps


@pytest.fixture(scope="module")
def setup_lateral():
    # time-varying lateral data so cone/cusp anchors are non-degenerate
    g = build_grid(Domain.interval(0.0, 1.0), 0.1, 0.5, 11)
    bd = BoundaryData(
        f=lambda x: 1.0 + 0.5 * np.sin(np.pi * x[:, 0]),
        g=lambda x, t: 1.0 + 0.3 * np.sin(np.pi * x[:, 0] + 2 * t) ** 2
        * np.exp(-t),
    )
    hfield = sample_boundary_data(bd, g)
    eps = 0.05 * (bd.M - bd.m)
    return g, bd, hfield, eps


def pt_worst_violation(b, grid, hfield):
    worst = -np.inf
    for j, tj in enumerate(grid.t):
        mask = grid.pt_mask[:, j]
        if not mask.any():
            continue
        vals = b.eval(grid.sample_pos[mask], tj)
        h = hfield.values[mask, j]
        gap = vals - h if b.kind == "sub" else h - vals
        worst = max(worst, float(np.max(gap)))
    return worst


def pin_error(b, bd):
    y, s = np.array(b.spec.anchor[0]), b.spec.anchor[1]
    target = float(bd.f(y[None, :])[0] if s == 0.0 else bd.g(y[None, :], s)[0])
    off = 2 * b.spec.epsilon if b.kind == "sub" else -2 * b.spec.epsilon
    return abs(float(b.eval(y[None, :], s)[0]) - (target - off))


class TestCatalogPinsAndDomination:
    def test_alpha_beta_families(self, setup_1d):
        g, bd, hfield, eps = setup_1d
        makers = [
            (B.make_alpha_sub, np.array([0.5])),
            (B.make_alpha_sup, np.array([0.2])),
            (B.make_beta_sub, np.array([0.0])),
            (B.make_beta_sup, np.array([1.0])),
        ]
        for maker, y in makers:
            b = maker(y, eps, bd, g)
            assert pt_worst_violation(b, g, hfield) <= 1e-12
            if not b.spec.constant:
                assert pin_error(b, bd) <= 1e-9

    def test_glued_profile_evaluated_once_per_point_set(self, setup_1d,
                                                       monkeypatch):
        # every level of eval_field shares one profile evaluation; a point
        # array changed in place is evaluated afresh
        g, bd, _, eps = setup_1d
        calls = []
        profile_eval = radial.RadialProfile.eval
        monkeypatch.setattr(radial.RadialProfile, "eval", lambda self, r:
                            calls.append(r.size) or profile_eval(self, r))
        for maker, y in ((B.make_alpha_sub, np.array([0.5])),
                         (B.make_beta_sup, np.array([1.0]))):
            b = maker(y, eps, bd, g)
            calls.clear()
            pts = g.sample_pos.copy()
            fld = b.eval_field(g).values
            assert len(calls) == 1
            assert np.array_equal(b.eval(pts, g.t[3]), fld[:, 3])
            assert len(calls) == 1
            pts += 0.05
            fresh = maker(y, eps, bd, g).eval(pts, g.t[3])
            assert np.array_equal(b.eval(pts, g.t[3]), fresh)
            assert not np.array_equal(fresh, fld[:, 3])

    def test_gamma_families(self, setup_lateral):
        g, bd, hfield, eps = setup_lateral
        for maker in (B.make_gamma_sub_cone, B.make_gamma_sup_cusp):
            b = maker(np.array([0.0]), 0.25, eps, bd, g)
            assert not b.spec.constant
            assert pin_error(b, bd) <= 1e-9
            assert pt_worst_violation(b, g, hfield) <= 1e-12

    def test_constant_conventions(self, setup_1d):
        g, bd, hfield, eps = setup_1d
        # anchors where the datum equals m (sub) or M (super) return the
        # constant barrier
        sub = B.make_beta_sub(np.array([0.0]), eps, bd, g)
        assert sub.spec.constant and np.all(
            sub.eval(g.sample_pos, 0.3) == bd.m)
        sup = B.make_alpha_sup(np.array([0.5]), eps, bd, g)
        assert sup.spec.constant and np.all(
            sup.eval(g.sample_pos, 0.3) == bd.M)
        cone = B.make_gamma_sub_cone(np.array([0.0]), 0.25, eps, bd, g)
        assert cone.spec.constant

    def test_constant_data_alpha_is_m(self, setup_1d):
        g, *_ = setup_1d
        bdc = BoundaryData(f=lambda x: np.full(len(x), 2.0),
                           g=lambda x, t: np.full(len(x), 2.0))
        sample_boundary_data(bdc, g)
        b = B.make_alpha_sub(np.array([0.5]), 0.01, bdc, g)
        assert b.spec.constant
        assert np.all(b.eval(g.sample_pos, 0.1) == 2.0)

    def test_eps_too_large_rejected(self, setup_1d):
        g, bd, _, _ = setup_1d
        with pytest.raises(B.BarrierError):
            B.make_alpha_sub(np.array([0.5]), 0.6 * bd.m, bd, g)

    def test_beta_sub_rate_relation(self):
        g = build_grid(Domain.interval(0.0, 1.0), 0.1, 0.5, 11)
        bd = BoundaryData(f=lambda x: 1.0 + 0.5 * x[:, 0],
                          g=lambda x, t: 1.0 + 0.5 * x[:, 0])
        sample_boundary_data(bd, g)
        eps = 0.05 * (bd.M - bd.m)
        # the super mirror rises from its center to M + 2 eps by time tau
        for maker, y, glue in ((B.make_beta_sub, 1.0, bd.m - 2 * eps),
                               (B.make_beta_sup, 0.0, bd.M + 2 * eps)):
            b = maker(np.array([y]), eps, bd, g)
            assert not b.spec.constant
            d = b.spec.derived
            fy = float(bd.f(np.array([[y]]))[0])
            center = fy - 2 * eps if b.kind == "sub" else fy + 2 * eps
            k_eq = 3.0 / d["tau"] * abs(np.log(center / glue))
            assert d["k"] >= d["lam"] - 1e-12
            assert d["k"] >= k_eq - 1e-12
            if d["k"] == pytest.approx(k_eq):
                v = float(b.eval(np.array([[y]]), d["tau"])[0])
                assert abs(v - glue) < 1e-9

    def test_anchor_rejections(self, setup_1d):
        g, bd, _, eps = setup_1d
        for maker in (B.make_alpha_sub, B.make_alpha_sup):
            with pytest.raises(B.BarrierError, match="interior"):
                maker(np.array([0.0]), eps, bd, g)
        for maker in (B.make_gamma_sub_cone, B.make_gamma_sup_cusp):
            for s in (0.0, g.T, -0.1, 0.7):
                with pytest.raises(B.BarrierError, match="0 < s < T"):
                    maker(np.array([0.0]), s, eps, bd, g)

    def test_cusp_constant_where_lateral_datum_is_max(self, setup_1d):
        g, *_ = setup_1d
        bd = BoundaryData(f=lambda x: 2.0 - 0.5 * np.sin(np.pi * x[:, 0]),
                          g=lambda x, t: np.full(len(x), 2.0))
        sample_boundary_data(bd, g)
        b = B.make_gamma_sup_cusp(np.array([1.0]), 0.25, 0.01, bd, g)
        assert b.spec.constant and b.spec.derived == {"value": bd.M}
        assert bd.M == 2.0
        assert np.all(b.eval(g.sample_pos, 0.3) == 2.0)


class TestRegionResiduals:
    def test_cone_signs_lower_exact_zero(self, setup_lateral):
        g, bd, _, eps = setup_lateral
        cone = B.make_gamma_sub_cone(np.array([0.0]), 0.25, eps, bd, g)
        d = cone.spec.derived
        assert abs(d["c"] ** 4 - 3 * d["k"]) < 1e-10
        rng = np.random.default_rng(3)
        pts = rng.uniform(0.0, 1.0, size=(2000, 1))
        lower, upper = [], []
        for t in np.linspace(0.25 - 0.99 * d["tau"], 0.25 + 0.99 * d["tau"],
                             33):
            v = cone.region_residual(pts, t)
            (lower if t < 0.25 else upper).append(v[np.isfinite(v)])
        lower = np.concatenate(lower)
        upper = np.concatenate(upper)
        assert lower.size > 100 and upper.size > 100
        assert np.max(np.abs(lower)) < 1e-12          # c^4 = 3k branch
        assert np.all(upper >= 0)                     # c^4 + 3k branch

    def test_cusp_nonpositive_on_samples(self, setup_lateral):
        g, bd, _, eps = setup_lateral
        cusp = B.make_gamma_sup_cusp(np.array([0.0]), 0.25, eps, bd, g)
        d = cusp.spec.derived
        assert 0.0 < d["nu"] < 1.0
        rng = np.random.default_rng(4)
        pts = rng.uniform(0.0, 1.0, size=(2000, 1))
        count = 0
        for t in np.linspace(0.25 - 0.99 * d["tau"], 0.25 + 0.99 * d["tau"],
                             33):
            v = cusp.region_residual(pts, t)
            v = v[np.isfinite(v)]
            count += v.size
            assert np.all(v <= 1e-12)
        assert count > 1000

    def test_seam_continuity(self, setup_lateral):
        g, bd, _, eps = setup_lateral
        cone = B.make_gamma_sub_cone(np.array([0.0]), 0.25, eps, bd, g)
        d = cone.spec.derived
        for t in (0.25 - 0.4 * d["tau"], 0.25 + 0.6 * d["tau"]):
            lim = d["k"] * ((t - 0.25 + d["tau"]) if t < 0.25
                            else (0.25 + d["tau"] - t))
            rstar = lim / d["c"]
            xs = (rstar + np.linspace(-1e-10, 1e-10, 9))[:, None]
            vals = cone.eval(np.clip(xs, 0.0, 1.0), t)
            assert np.max(np.abs(np.diff(vals))) < 1e-9

    def test_jet_touch_test_at_glue_seams(self, setup_1d):
        g5 = build_grid(Domain.interval(0.0, 1.0), 0.05, 0.5, 21)
        bd = BoundaryData(f=lambda x: 1.0 + 0.8 * np.sin(np.pi * x[:, 0]) ** 2,
                          g=lambda x, t: np.ones(len(x)))
        sample_boundary_data(bd, g5)
        eps = 0.05 * (bd.M - bd.m)
        a = B.make_alpha_sub(np.array([0.5]), eps, bd, g5)
        fld = a.eval_field(g5)
        delta = a.spec.derived["delta_ball"]
        seam = int(np.argmin(np.abs(np.abs(g5.sample_pos[:, 0] - 0.5)
                                    - delta)))
        ok, val, _ = B.jet_touch_test(fld, seam, 10, kind="sub")
        assert ok, f"jet value {val}"
        asup = B.make_alpha_sup(np.array([0.3]), eps, bd, g5)
        ds = asup.spec.derived["delta_ball"]
        seam2 = int(np.argmin(np.abs(np.abs(g5.sample_pos[:, 0] - 0.3) - ds)))
        ok2, val2, _ = B.jet_touch_test(asup.eval_field(g5), seam2, 10,
                                        kind="super")
        assert ok2, f"jet value {val2}"


class TestStaircase:
    @pytest.fixture()
    def staircase(self):
        lamb = radial.ball_eigenvalue(1.0)
        eps = 0.2
        psi = radial.decaying_profile(1.0, 0.8 * lamb, eps,
                                      fixed_which="delta")
        bd = BoundaryData(f=lambda x: np.ones(len(x)),
                          g=lambda x, t: np.exp(-2.0 * t),
                          name="decaying-lateral",
                          params={"g0": 1.0, "rate": 2.0})
        return B.make_staircase_sup(bd, psi, eps, n_slabs=5)

    def test_gk_endpoints(self, staircase):
        st = staircase
        for k in range(1, st.n_slabs + 1):
            assert abs(float(st.g_k(k, st.times[k - 1])) - 1.0) < 1e-12
            assert abs(float(st.g_k(k, st.times[k])) - 0.5) < 1e-12
            mid = 0.5 * (st.times[k - 1] + st.times[k])
            assert 0.5 <= float(st.g_k(k, mid)) <= 1.0

    def test_slab_rule(self, staircase):
        st = staircase
        gaps = np.diff(st.times)
        assert np.all(np.exp(st.lam_bar * gaps / 3.0) >= 2.0 - 1e-12)
        assert np.all(gaps >= 1.0 - 1e-12)

    def test_slab_residual_nonpositive(self, staircase):
        st = staircase
        pts = np.linspace(-1.0, 1.0, 41)[:, None]
        for k in range(1, st.n_slabs + 1):
            for frac in (0.1, 0.5, 0.9):
                t = st.times[k - 1] + frac * (st.times[k] - st.times[k - 1])
                assert np.all(st.slab_residual(pts, t) <= 1e-14)

    def test_envelope_halving(self, staircase):
        st = staircase
        pts = np.linspace(-1.0, 1.0, 21)[:, None]
        for k in range(1, st.n_slabs):
            end = st.eval(pts, st.times[k])
            np.testing.assert_allclose(end, st.envelope_at(pts, k),
                                       rtol=1e-12)

    def test_nondecaying_rejected(self):
        lamb = radial.ball_eigenvalue(1.0)
        psi = radial.decaying_profile(1.0, 0.8 * lamb, 0.2,
                                      fixed_which="delta")
        bd = BoundaryData(f=lambda x: np.ones(len(x)),
                          g=lambda x, t: np.ones(len(x)))
        with pytest.raises(B.BarrierError):
            B.make_staircase_sup(bd, psi, 0.2,
                                 lateral_sup=lambda t: 1.0)


class TestMinmBump:
    def test_anchor_and_lateral_values(self):
        mb = B.make_minm_bump(np.array([0.5]), 0.3, 0.05, 0.2, 1.0, 0.1)
        assert abs(float(mb.eval(np.array([[0.5]]), 0.3)[0])
                   - mb.K * mb.rho ** 4 / 2.0) < 1e-15
        assert mb.K * mb.rho ** 4 / 2.0 <= mb.delta / 2.0 + 1e-15
        # zero outside and on the lateral cylinder boundary, exactly
        outside = mb.eval(np.array([[0.75], [0.21]]), 0.31)
        assert np.all(outside == 0.0)

    def test_residual_bound_at_samples(self):
        mb = B.make_minm_bump(np.array([0.0, 0.0]), 1.0, 0.1, 0.3, -2.0, 0.2)
        rng = np.random.default_rng(12)
        pts = rng.uniform(-0.3, 0.3, size=(1000, 2))
        lo, hi = mb.time_window()
        for t in np.linspace(lo + 1e-9, hi - 1e-9, 7):
            res = mb.residual_exact(pts, t)
            bound = mb.residual_lower_bound(pts)
            assert np.all(bound >= -1e-14)
            assert np.all(res >= bound - 1e-12)

    def test_parameter_validation(self):
        with pytest.raises(B.BarrierError):
            B.make_minm_bump(np.array([0.0]), 0.5, -0.1, 0.2, 0.0, 0.1)


class TestExist13Bump:
    def test_mu_positive_required(self):
        with pytest.raises(B.BarrierError):
            B.make_exist13_bump(np.zeros(2), 0.5,
                                (0.0, np.zeros(2), np.eye(2)), 1.0,
                                0.001, 0.01)

    def test_seeded_jet_residual_positive_near_anchor(self):
        jet = (0.0, np.array([1.0, 0.0]), np.diag([2.0, 1.0]))
        qb = B.make_exist13_bump(np.zeros(2), 0.5, jet, 1.0, 0.005, 0.01)
        assert qb.mu == 2.0
        res = qb.pi_residual(np.zeros((1, 2)), 0.5)
        assert res[0] > 1.5  # 2 + O(nu + delta)
        rng = np.random.default_rng(9)
        pts = rng.uniform(-0.05, 0.05, size=(200, 2))
        for t in (0.48, 0.5, 0.52):
            assert np.all(qb.pi_residual(pts, t) > 0)

    def test_max_construction_agrees_outside(self):
        # host field w = the jet quadratic itself; with
        # delta = min(delta0, r^2 nu / 32) the improvement is confined to
        # D_(r/2, r/2) and max(w, psi) == w node-exactly outside
        jet = (0.0, np.array([1.0, 0.0]), np.diag([2.0, 1.0]))
        r = 0.4
        nu = 0.01
        delta = min(0.005, r * r / 32.0 * nu)
        qb = B.make_exist13_bump(np.zeros(2), 0.5, jet, 1.0, delta, nu)

        def w(pts, t):
            dx = np.atleast_2d(pts)
            quad = 0.5 * np.einsum("ni,ij,nj->n", dx, jet[2], dx)
            return 1.0 + jet[0] * (t - 0.5) + dx @ jet[1] + quad

        rng = np.random.default_rng(10)
        pts = rng.uniform(-1.0, 1.0, size=(4000, 2))
        for t in (0.2, 0.45, 0.5, 0.62):
            psi = qb.eval(pts, t)
            host = w(pts, t)
            outside = (np.linalg.norm(pts, axis=1) > r / 2.0) | \
                (abs(t - 0.5) > r / 4.0)
            assert np.all(np.maximum(host, psi)[outside] == host[outside])
        gap = float(qb.eval(np.zeros((1, 2)), 0.5)[0]) - w(np.zeros((1, 2)),
                                                           0.5)[0]
        assert gap == pytest.approx(delta, rel=1e-9)


def _space_adjacency(grid):
    """Oracle: row i lists node i, then every node that shares a stencil
    with it (an interior row's stencil, or the interior rows whose stencil
    holds node i), padded with i."""
    nbrs = [[i] for i in range(grid.n_nodes)]
    for row, i in enumerate(grid.interior_idx):
        for j in grid.nbr_index[row]:
            nbrs[i].append(int(j))
            nbrs[int(j)].append(i)
    deg = max(len(v) for v in nbrs)
    return np.array([v + [i] * (deg - len(v)) for i, v in enumerate(nbrs)])


def _envelope_oracle(fld, lift, other, max_sweeps=64):
    """Oracle: the envelope iteration with gathered neighbourhoods."""
    adj = _space_adjacency(fld.grid)
    frozen = B._frozen_mask(fld.grid)

    def sweep(vals, op):
        sp = op.reduce(vals[adj], axis=1)
        out = sp.copy()
        out[:, 1:] = op(out[:, 1:], sp[:, :-1])
        out[:, :-1] = op(out[:, :-1], sp[:, 1:])
        out[frozen] = vals[frozen]
        return out

    vals = fld.values.copy()
    for _ in range(max_sweeps):
        new = lift(vals, sweep(sweep(vals, lift), other))
        if np.array_equal(new, vals):
            break
        vals = new
    return vals


@pytest.mark.parametrize("dom,h", [
    (Domain.interval(-1.0, 1.0), 0.1),
    (Domain.box([(0.0, 1.0), (0.0, 0.8)]), 0.1),
    (Domain.box([(-0.5, 0.5)] * 3), 0.1),
    (Domain.ball((0.0, 0.0), 1.0), 0.05),
    (Domain.ball((0.1, 0.0, -0.2), 1.0), 0.125),
], ids=["interval", "box2d", "box3d", "disk", "ball3d"])
def test_envelopes_match_adjacency_oracle(dom, h):
    # box_reduce over all levels reproduces the gathered sweep, run to its
    # fixed point and cut after 4 sweeps; a NaN entry is rejected
    g = build_grid(dom, h, 0.5, 6)
    rng = np.random.default_rng(8)
    vals = np.exp(rng.normal(scale=0.3, size=(g.n_nodes, g.time_levels)))
    fld = GridField(g, vals, "phi")
    holed = vals.copy()
    holed[g.interior_idx[g.interior_idx.size // 3], 3] = np.nan
    for env, lift, other in ((B.usc_envelope, np.maximum, np.minimum),
                             (B.lsc_envelope, np.minimum, np.maximum)):
        for sweeps in (64, 4):
            got = env(fld, max_sweeps=sweeps).values
            assert np.array_equal(got, _envelope_oracle(fld, lift, other,
                                                        sweeps))
            assert not np.array_equal(got, vals)
        with pytest.raises(ValueError, match="finite"):
            env(GridField(g, holed, "phi"))


def test_two_ring_matches_adjacency_oracle():
    g = build_grid(Domain.ball((0.0, 0.0), 1.0), 0.25, 0.5, 5)
    adj = _space_adjacency(g)
    for node in range(g.n_nodes):
        ring1 = set(adj[node])
        ring2 = set().union(*(adj[i] for i in ring1))
        assert B._two_ring(g, node) == sorted(ring2 | ring1 | {node})


class TestEnvelopes:
    def test_continuous_field_unchanged(self):
        g = build_grid(Domain.interval(0.0, 1.0), 0.1, 0.5, 6)
        fld = GridField.from_function(g, lambda x, t: 1.0 + x[:, 0] + 0 * t)
        up = B.usc_envelope(fld)
        np.testing.assert_allclose(up.values, fld.values, atol=1e-14)
        lo = B.lsc_envelope(fld)
        np.testing.assert_allclose(lo.values, fld.values, atol=1e-14)

    def test_depressed_node_lifted(self):
        g = build_grid(Domain.interval(0.0, 1.0), 0.1, 0.5, 6)
        vals = np.ones((g.n_nodes, g.time_levels))
        vals[5, 3] = 0.2
        fld = GridField(g, vals, "phi")
        up = B.usc_envelope(fld)
        assert up.values[5, 3] == 1.0
        assert np.all(up.values >= vals)

    def test_idempotence_and_order(self):
        g = build_grid(Domain.interval(0.0, 1.0), 0.1, 0.5, 6)
        rng = np.random.default_rng(21)
        vals = np.exp(rng.normal(size=(g.n_nodes, g.time_levels)))
        fld = GridField(g, vals, "phi")
        up1 = B.usc_envelope(fld)
        up2 = B.usc_envelope(up1)
        np.testing.assert_allclose(up2.values, up1.values, atol=1e-14)
        lo1 = B.lsc_envelope(fld)
        lo2 = B.lsc_envelope(lo1)
        np.testing.assert_allclose(lo2.values, lo1.values, atol=1e-14)
        assert np.all(up1.values >= vals - 1e-15)
        assert np.all(lo1.values <= vals + 1e-15)

    def test_lsc_is_the_mirror_of_usc(self):
        g = build_grid(Domain.interval(0.0, 1.0), 0.1, 0.5, 6)
        vals = np.exp(np.random.default_rng(22).normal(
            size=(g.n_nodes, g.time_levels)))
        lo = B.lsc_envelope(GridField(g, vals, "phi"))
        up = B.usc_envelope(GridField(g, -vals, "phi"))
        assert not np.array_equal(lo.values, vals)
        assert np.array_equal(lo.values, -up.values)


class TestPerronFamilies:
    def test_single_constant_barrier(self, setup_1d):
        g, bd, _, eps = setup_1d
        bdc = BoundaryData(f=lambda x: np.full(len(x), 2.0),
                           g=lambda x, t: np.full(len(x), 2.0))
        sample_boundary_data(bdc, g)
        b = B.make_alpha_sub(np.array([0.5]), 0.01, bdc, g)
        sup = B.perron_family_sup([b], g)
        assert np.all(sup.values == 2.0)

    def test_empty_family_rejected(self, setup_1d):
        g, *_ = setup_1d
        with pytest.raises(B.BarrierError):
            B.perron_family_sup([], g)

    def test_monotone_in_family_and_sandwich_order(self, setup_1d):
        g, bd, _, eps = setup_1d
        subs = B.build_sub_family(g, bd, eps, interior_stride=3)
        sups = B.build_sup_family(g, bd, eps, interior_stride=3)
        part = B.perron_family_sup(subs[: len(subs) // 2], g)
        full = B.perron_family_sup(subs, g)
        assert np.all(full.values >= part.values - 1e-15)
        inf_f = B.perron_family_inf(sups, g)
        assert np.all(full.values <= inf_f.values + 1e-12)

    def test_boundary_gap_shrinks_with_eps(self, setup_1d):
        g, bd, hfield, _ = setup_1d
        gaps = []
        for frac in (0.1, 0.03, 0.01):
            eps = frac * (bd.M - bd.m)
            sup = B.perron_family_sup(
                B.build_sub_family(g, bd, eps, interior_stride=1,
                                   time_stride=2), g)
            gap = np.nanmax((hfield.values - sup.values)[g.pt_mask])
            gaps.append(float(gap))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] <= 2 * 0.01 * (bd.M - bd.m) + 0.05 * (bd.M - bd.m)


def test_catalog_serialization(tmp_path, setup_1d=None):
    g = build_grid(Domain.interval(0.0, 1.0), 0.1, 0.5, 6)
    bd = BoundaryData(f=lambda x: 1.0 + 0.8 * np.sin(np.pi * x[:, 0]) ** 2,
                      g=lambda x, t: np.ones(len(x)))
    sample_boundary_data(bd, g)
    fam = B.build_sub_family(g, bd, 0.02, interior_stride=4)
    entries = B.barrier_catalog_json(fam, tmp_path / "catalog.json")
    assert len(entries) == len(fam)
    assert (tmp_path / "catalog.json").exists()
    families = {e["family"] for e in entries}
    assert "alpha_sub" in families and "beta_sub" in families


class TestAsym01Barrier:
    def test_endpoint_values_and_dinf(self):
        dom = Domain.ball((0.0, 0.0), 1.0)
        z = np.array([1.0, 0.0])
        L, lam, delta = 2.0, 0.7, 0.1
        b = B.make_asym01_barrier(z, L, lam, delta, dom)
        assert abs(float(b.eval(z[None, :])[0]) - delta) < 1e-14
        far = np.array([[-1.0, 0.0]])  # r = R_z = 2
        assert float(b.eval(far)[0]) >= L + delta - 1e-12
        rng = np.random.default_rng(5)
        pts = z + rng.uniform(-1, 1, size=(500, 2))
        r = np.linalg.norm(pts - z, axis=1)
        pts = pts[(r > 1e-3) & (r < b.R_z - 1e-3)]
        vals = b.dinf(pts)
        assert np.all(vals <= -lam * L ** 3 + 1e-12)

    def test_dinf_matches_finite_differences(self):
        dom = Domain.interval(0.0, 1.0)
        b = B.make_asym01_barrier(np.array([0.0]), 1.5, 1.0, 0.2, dom)
        eps = 1e-5
        for r in (0.2, 0.5, 0.8):
            x = np.array([[r]])
            up = (b.eval(np.array([[r + eps]]))[0]
                  - b.eval(np.array([[r - eps]]))[0]) / (2 * eps)
            upp = (b.eval(np.array([[r + eps]]))[0]
                   + b.eval(np.array([[r - eps]]))[0]
                   - 2 * b.eval(x)[0]) / eps ** 2
            assert abs(up ** 2 * upp - float(b.dinf(x)[0])) < 1e-4

    def test_linear_distance_bound_on_profiles(self):
        # psi - delta <= C sup(psi) dist(., boundary): exercised on actual
        # decaying profiles over the unit ball
        from inflap import radial

        dom = Domain.ball((0.0,), 1.0)
        lam = 0.8 * radial.ball_eigenvalue(1.0)
        psi = radial.decaying_profile(1.0, lam, 0.3, fixed_which="delta")
        b = B.make_asym01_barrier(np.array([1.0]), psi.m, lam, 0.3, dom)
        C = b.derived["C"]
        r = np.linspace(0.7, 0.999, 50)
        lhs = psi.eval(r) - 0.3
        assert np.all(lhs <= C * psi.m * (1.0 - r) + 1e-12)

    def test_parameter_validation(self):
        with pytest.raises(B.BarrierError):
            B.make_asym01_barrier(np.array([1.0, 0.0]), -1.0, 1.0, 0.0,
                                  Domain.ball((0.0, 0.0), 1.0))
