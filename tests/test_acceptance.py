"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Criterion 5 solves the unit-ball problem at three resolutions
and dominates the runtime (about a minute on a laptop-class machine).
"""

import json
import math
import time

import numpy as np
import pytest

from inflap import barriers as B
from inflap import cli
from inflap import harness as H
from inflap import radial, solver, transforms
from inflap.catalog import make_data
from inflap.grids import (
    BoundaryData,
    Domain,
    GridField,
    build_grid,
    sample_boundary_data,
)

LAMBDA_B1 = radial.ball_eigenvalue(1.0)


def record(num, desc, ok, detail=""):
    tail = f"  [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {desc}{tail}")
    assert ok, f"criterion {num} failed: {desc} {tail}"


def eigen_data(psi):
    return BoundaryData(
        f=lambda x: psi.eval(np.minimum(np.linalg.norm(x, axis=-1), psi.R)),
        g=lambda x, t: np.zeros(len(x)),
        zero_lateral_ok=True,
    )


def test_criterion_01_eigenvalue_closed_form():
    t0 = time.time()
    closed = (math.pi * math.sqrt(2.0) / 4.0) ** 4
    rel = abs(radial.ball_eigenvalue(1.0) - closed) / closed
    prods = [radial.ball_eigenvalue(R) * R ** 4 for R in (0.5, 1.0, 2.0, 4.0)]
    scat = max(abs(p / prods[0] - 1.0) for p in prods)
    elapsed = time.time() - t0
    record(1, "ball eigenvalue closed form and R^-4 scaling",
           rel <= 1e-8 and scat <= 1e-10 and elapsed < 1.0,
           f"rel={rel:.2e} scaling_scatter={scat:.2e} t={elapsed:.2f}s")


def test_criterion_02_ode_residual_and_picard():
    t0 = time.time()
    r = np.linspace(0.05, 0.95, 181)
    worst = 0.0
    for prof in (
        radial.decaying_profile(1.0, LAMBDA_B1, 1.0, fixed_which="m"),
        radial.decaying_profile(1.0, 0.6 * LAMBDA_B1, 1.0,
                                fixed_which="delta"),
        radial.growing_profile(1.0, 1.0, 1.0),
    ):
        scale = prof.lam * max(prof.m if prof.kind == "eigen_decaying"
                               else prof.sup, 1e-300) ** 3
        worst = max(worst, float(np.max(np.abs(prof.ode_residual(r))))
                    / scale)
    grow = radial.growing_profile(1.0, 1.0, 1.0)
    rg, ug, _ = radial.picard_growing(1.0, 1.0, 1.0)
    pic_gap = float(np.max(np.abs(ug - grow.eval(rg))))
    dec = radial.decaying_profile(1.0, 0.5 * LAMBDA_B1, 1.0, fixed_which="m")
    rd, ud, _ = radial.picard_decaying(1.0, dec.lam, 1.0)
    pic_gap = max(pic_gap, float(np.max(np.abs(ud - dec.eval(rd)))))
    elapsed = time.time() - t0
    record(2, "radial ODE residual <= 1e-6 and Picard agreement <= 1e-8",
           worst <= 1e-6 and pic_gap <= 1e-8 and elapsed < 10.0,
           f"residual={worst:.2e} picard={pic_gap:.2e} t={elapsed:.1f}s")


def test_criterion_03_dm_dlambda_finite_difference():
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(10):
        lam = float(rng.uniform(0.15, 0.9)) * LAMBDA_B1
        delta = float(rng.uniform(0.3, 2.0))
        m = radial.decaying_profile(1.0, lam, delta, fixed_which="delta").m
        closed = radial.dm_dlambda(1.0, lam, delta, m)
        eps = 1e-5
        fd = (radial.decaying_profile(1.0, lam + eps, delta).m
              - radial.decaying_profile(1.0, lam - eps, delta).m) / (2 * eps)
        worst = max(worst, abs(closed / fd - 1.0))
    record(3, "dm/dlambda closed form matches finite differences (1e-4 rel)",
           worst <= 1e-4, f"worst rel gap={worst:.2e}")


def test_criterion_04_growth_sandwich():
    ok = True
    gaps = []
    for R in (5.0, 10.0, 20.0):
        gb = radial.growth_bounds(R, 1.0, 1.0)
        uR = radial.growing_profile(R, 1.0, 1.0).sup
        ok = ok and (gb.lower < uR < gb.upper)
        gaps.append((uR - gb.lower, gb.upper - uR))
    record(4, "growth sandwich strict at R in {5, 10, 20}", ok,
           f"min strictness={min(min(g) for g in gaps):.3g}")


@pytest.fixture(scope="module")
def ball_convergence():
    psi = radial.decaying_profile(1.0, LAMBDA_B1, 1.0, fixed_which="m")
    dom = Domain.ball((0.0, 0.0), 1.0)
    errs, times, steps = [], [], []
    for h, lv in ((0.05, 11), (0.025, 21), (0.0125, 41)):
        grid = build_grid(dom, h, 0.5, lv)
        cfg = solver.SolverConfig(variable="phi", summarize_residual=False)
        t0 = time.time()
        res = solver.solve(grid, eigen_data(psi), cfg)
        times.append(time.time() - t0)
        steps.append(len(res.dt_history))
        r = np.minimum(np.linalg.norm(grid.sample_pos, axis=1), 1.0)
        exact = psi.eval(r)[:, None] * np.exp(-LAMBDA_B1 * grid.t / 3.0)
        errs.append(float(np.max(np.abs(res.field.values - exact))))
    return errs, times, steps


def test_criterion_05_solver_convergence(ball_convergence):
    errs, times, _ = ball_convergence
    ok = (errs[0] <= 5e-2 and errs[0] > errs[1] > errs[2]
          and times[-1] < 120.0)
    record(5, "unit-ball eigen solve: sup error <= 5e-2, monotone "
           "refinement, finest < 2 min", ok,
           f"errors={[f'{e:.3e}' for e in errs]} "
           f"times={[f'{t:.0f}s' for t in times]}")


def test_criterion_05_pinned_steps_and_errors(ball_convergence):
    # the figures ROADMAP tracks; a change that moves results restates them
    errs, _, steps = ball_convergence
    assert steps == [1070, 8540, 68280]
    assert errs == pytest.approx(
        [2.2615401009e-2, 1.6487556709e-2, 1.4019749011e-2], rel=1e-9)


def test_criterion_06_discrete_max_principle():
    rng = np.random.default_rng(606)
    g = build_grid(Domain.interval(0.0, 1.0), 0.1, 0.3, 5)
    worst = -np.inf
    for _ in range(30):
        a0 = float(rng.uniform(0.5, 2.0))
        amp = float(rng.uniform(0.0, 0.45)) * a0
        w = float(rng.uniform(0.5, 6.0))
        ph = float(rng.uniform(0, 2 * np.pi))
        rt = float(rng.uniform(0.0, 2.0))

        def f(x, a0=a0, amp=amp, w=w, ph=ph):
            return a0 + amp * np.sin(w * x[:, 0] + ph)

        bd = BoundaryData(
            f=f, g=lambda x, t, f=f, rt=rt: f(x) * np.exp(-rt * t)
            + (1.0 - np.exp(-rt * t)) * f(x).mean())
        res = solver.solve(g, bd, solver.SolverConfig(
            summarize_residual=False))
        rep = H.check_weak_max_principle(res.field)
        worst = max(worst, rep.worst_violation - rep.tolerance)
    bad = res.field.copy()
    bad.values[g.interior_idx[1], 2] = 99.0
    control_fails = not H.check_weak_max_principle(bad).passed
    record(6, "discrete maximum principle on 30 seeded solves "
           "(+ negative control)", worst <= 0.0 and control_fails,
           f"worst margin={worst:.2e} control_fails={control_fails}")


def test_criterion_07_discrete_comparison():
    rng = np.random.default_rng(707)
    dom = Domain.ball((0.0, 0.0), 1.0)
    grid = build_grid(dom, 0.1, 0.4, 9)
    bd = make_data("gaussian-bump", {"base": 1.0, "amp": 0.6, "width": 0.4,
                                     "center": [0.0, 0.0]})
    sample_boundary_data(bd, grid)
    eps = 0.05 * (bd.M - bd.m)
    worst_barrier = -np.inf
    for _ in range(20):
        kind = int(rng.integers(0, 3))
        ii = grid.interior_idx[rng.integers(0, grid.interior_idx.size)]
        bi = grid.boundary_idx[rng.integers(0, grid.boundary_idx.size)]
        s = grid.t[int(rng.integers(1, grid.time_levels - 1))]
        if kind == 0:
            lo = B.make_alpha_sub(grid.sample_pos[ii], eps, bd, grid)
            hi = B.make_alpha_sup(grid.sample_pos[ii], eps, bd, grid)
        elif kind == 1:
            lo = B.make_beta_sub(grid.sample_pos[bi], eps, bd, grid)
            hi = B.make_beta_sup(grid.sample_pos[bi], eps, bd, grid)
        else:
            lo = B.make_gamma_sub_cone(grid.sample_pos[bi], s, eps, bd, grid)
            hi = B.make_gamma_sup_cusp(grid.sample_pos[bi], s, eps, bd, grid)
        gap = float(np.max(lo.eval_field(grid).values
                           - hi.eval_field(grid).values))
        worst_barrier = max(worst_barrier, gap)

    g1 = build_grid(Domain.interval(0.0, 1.0), 0.1, 0.3, 5)
    worst_solver = -np.inf
    for _ in range(10):
        a0 = float(rng.uniform(0.5, 1.5))
        gapsz = float(rng.uniform(0.1, 0.5))
        w = float(rng.uniform(1.0, 4.0))

        def f_lo(x, a0=a0, w=w):
            return a0 * (1.0 + 0.3 * np.sin(w * x[:, 0]) ** 2)

        def f_hi(x, a0=a0, g=gapsz, w=w):
            return (a0 + g) * (1.0 + 0.3 * np.sin(w * x[:, 0]) ** 2)

        lo_bd = BoundaryData(f=f_lo, g=lambda x, t, f=f_lo: f(x))
        hi_bd = BoundaryData(f=f_hi, g=lambda x, t, f=f_hi: f(x))
        r_lo = solver.solve(g1, lo_bd)
        r_hi = solver.solve(g1, hi_bd)
        band = max(r_lo.residual_summary.band, r_hi.residual_summary.band)
        gap = float(np.max(r_lo.field.values - r_hi.field.values))
        worst_solver = max(worst_solver, gap - band)
    ok = worst_barrier <= 1e-12 and worst_solver <= 1e-12
    record(7, "discrete comparison: 20 barrier pairs + 10 ordered solves",
           ok, f"barrier margin={worst_barrier:.2e} "
           f"solver margin={worst_solver:.2e}")


def test_criterion_08_barrier_pins_and_signs():
    grid = build_grid(Domain.interval(0.0, 1.0), 0.1, 0.5, 11)
    bd = BoundaryData(
        f=lambda x: 1.0 + 0.5 * np.sin(np.pi * x[:, 0]),
        g=lambda x, t: 1.0 + 0.3 * np.sin(np.pi * x[:, 0] + 2 * t) ** 2
        * np.exp(-t),
    )
    hs = sample_boundary_data(bd, grid)
    eps = 0.05 * (bd.M - bd.m)
    rng = np.random.default_rng(808)
    # P_T level by level: every node at t = 0 with the record's slab, then
    # the ring nodes with each column of its ring block
    ring = grid.sample_pos[grid.boundary_idx]
    pt_levels = [(grid.sample_pos, grid.t[0], hs.slab)] + [
        (ring, t, h) for t, h in zip(grid.t[1:-1], hs.ring.T)]

    barrs = [
        B.make_alpha_sub(np.array([0.5]), eps, bd, grid),
        B.make_alpha_sup(np.array([0.3]), eps, bd, grid),
        B.make_beta_sub(np.array([0.0]), eps, bd, grid),
        B.make_beta_sup(np.array([1.0]), eps, bd, grid),
        B.make_gamma_sub_cone(np.array([0.0]), 0.25, eps, bd, grid),
        B.make_gamma_sup_cusp(np.array([0.0]), 0.25, eps, bd, grid),
    ]
    pin_worst, dom_worst, seam_worst = 0.0, -np.inf, 0.0
    sign_ok, cone_zero = True, 0.0
    for b in barrs:
        if not b.spec.constant:
            y, s = np.array(b.spec.anchor[0]), b.spec.anchor[1]
            target = float(bd.f(y[None, :])[0] if s == 0.0
                           else bd.g(y[None, :], s)[0])
            off = 2 * eps if b.kind == "sub" else -2 * eps
            pin_worst = max(pin_worst, abs(
                float(b.eval(y[None, :], s)[0]) - (target - off)))
        for pts, tj, h in pt_levels:
            vals = b.eval(pts, tj)
            gap = vals - h if b.kind == "sub" else h - vals
            dom_worst = max(dom_worst, float(np.max(gap)))
        if b.region_residual is not None:
            d = b.spec.derived
            s0 = b.spec.anchor[1]
            samples = []
            lower_branch = []
            for t in np.linspace(s0 - 0.99 * d["tau"], s0 + 0.99 * d["tau"],
                                 25):
                lim = d["k"] * ((t - s0 + d["tau"]) if t < s0
                                else (s0 + d["tau"] - t))
                if b.spec.family == "gamma_sub_cone":
                    rmax = lim / d["c"]
                else:
                    rmax = min((lim / d["c"]) ** (1.0 / d["nu"]), d["delta"])
                pts = rng.uniform(1e-6 * rmax, 0.999 * rmax,
                                  size=(45, 1))
                v = b.region_residual(pts, t)
                fin = v[np.isfinite(v)]
                samples.append(fin)
                if t < s0 and b.spec.family == "gamma_sub_cone":
                    lower_branch.append(fin)
            samples = np.concatenate(samples)
            assert samples.size >= 1000
            if b.kind == "sub":
                sign_ok = sign_ok and bool(np.all(samples >= -1e-12))
            else:
                sign_ok = sign_ok and bool(np.all(samples <= 1e-12))
            if lower_branch:
                cone_zero = max(cone_zero, float(np.max(np.abs(
                    np.concatenate(lower_branch)))))
            # seam continuity by straddling samples
            for t in (s0 - 0.4 * d["tau"], s0 + 0.6 * d["tau"]):
                lim = d["k"] * ((t - s0 + d["tau"]) if t < s0
                                else (s0 + d["tau"] - t))
                if b.spec.family == "gamma_sub_cone":
                    rstar = lim / d["c"]
                else:
                    rstar = (lim / d["c"]) ** (1.0 / d["nu"])
                xs = (rstar + np.linspace(-1e-10, 1e-10, 9))[:, None]
                vals = b.eval(np.clip(xs, 0.0, 1.0), t)
                seam_worst = max(seam_worst,
                                 float(np.max(np.abs(np.diff(vals)))))
    ok = (pin_worst <= 1e-9 and dom_worst <= 1e-12 and sign_ok
          and cone_zero <= 1e-12 and seam_worst <= 1e-9)
    record(8, "barrier pins, P_T domination, residual signs, seams", ok,
           f"pin={pin_worst:.1e} dom={dom_worst:.1e} "
           f"cone_zero={cone_zero:.1e} seam={seam_worst:.1e}")


def test_criterion_09_perron_sandwich():
    grid = build_grid(Domain.ball((0.0, 0.0), 1.0), 0.1, 0.4, 9)
    bd = make_data("gaussian-bump", {"base": 1.0, "amp": 0.6, "width": 0.4,
                                     "center": [0.0, 0.0]})
    rep = H.check_sandwich(grid, bd,
                           family_kw={"interior_stride": 4,
                                      "space_stride": 2, "time_stride": 2})
    record(9, "Perron sandwich with shrinking-eps boundary gap",
           rep.passed and rep.details["gap_monotone"],
           f"margin={rep.worst_violation:.2e} "
           f"gaps={[round(g, 4) for g in rep.details['boundary_gaps']]}")


def test_criterion_10_decay_rates_and_staircase():
    psi = radial.decaying_profile(1.0, LAMBDA_B1, 1.0, fixed_which="m")
    grid = build_grid(Domain.interval(-1.0, 1.0), 0.05, 4.0, 81)
    cfg = solver.SolverConfig(variable="phi", summarize_residual=False)
    res_eig = solver.solve(grid, eigen_data(psi), cfg)
    rep_eig = H.check_decay_rate(res_eig, LAMBDA_B1, data_kind="eigen")

    bump = BoundaryData(
        f=lambda x: 0.8 * np.exp(-3.0 * x[:, 0] ** 2)
        * np.cos(0.5 * np.pi * x[:, 0]) ** 2 + 0.2 * psi.eval(
            np.minimum(np.abs(x[:, 0]), 1.0)),
        g=lambda x, t: np.zeros(len(x)), zero_lateral_ok=True)
    res_gen = solver.solve(grid, bump, cfg)
    rep_gen = H.check_decay_rate(res_gen, LAMBDA_B1, data_kind="generic")
    sup_eig = np.nanmax(res_eig.field.values, axis=0)
    mono = bool(np.all(np.diff(sup_eig) <= 1e-12))

    lam_bar = 0.8 * LAMBDA_B1
    eps = 0.25
    psi_st = radial.decaying_profile(1.0, lam_bar, eps, fixed_which="delta")
    bd_st = BoundaryData(f=lambda x: np.ones(len(x)),
                         g=lambda x, t: np.exp(-2.0 * t) + 0 * x[:, 0],
                         name="decaying-lateral",
                         params={"g0": 1.0, "rate": 2.0})
    st = B.make_staircase_sup(bd_st, psi_st, eps, n_slabs=5)
    grid_st = build_grid(Domain.interval(-1.0, 1.0), 0.1,
                         float(st.times[4]) + 0.2, 101)
    res_st = solver.solve(grid_st, bd_st, cfg)
    rep_st = H.check_staircase_bound(res_st, st)
    ok = (rep_eig.passed and rep_gen.passed and mono and rep_st.passed
          and rep_st.instances_run >= 4)
    record(10, "decay rates (eigen two-sided, generic one-sided) and "
           "staircase bound k<=4", ok,
           f"eigen slope={rep_eig.details['slope']:.4f} "
           f"target={-LAMBDA_B1 / 3:.4f} "
           f"generic slope={rep_gen.details['slope']:.4f} "
           f"staircase margin={rep_st.worst_violation:.2e}")


def test_criterion_11_minm_bump_instrument():
    mb = B.make_minm_bump(np.array([0.0, 0.0]), 1.0, 0.1, 0.3, -2.0, 0.2)
    rng = np.random.default_rng(1111)
    pts = rng.uniform(-0.3, 0.3, size=(1000, 2))
    lo, hi = mb.time_window()
    res_ok = True
    for t in np.linspace(lo + 1e-9, hi - 1e-9, 5):
        res = mb.residual_exact(pts, t)
        bound = mb.residual_lower_bound(pts)
        res_ok = res_ok and bool(np.all(bound >= -1e-14)) \
            and bool(np.all(res >= bound - 1e-12))
    ring = np.array([[0.31, 0.0], [0.0, -0.35], [0.3001, 0.0]])
    vanishes = bool(np.all(mb.eval(ring, 0.95) == 0.0))

    g = build_grid(Domain.interval(0.0, 1.0), 0.1, 1.0, 11)
    vals = np.full((g.n_nodes, g.time_levels), 1.2)
    vals[g.boundary_idx[0], 5] = 1.0
    node = g.interior_idx[4]
    vals[node, 8] = 1.0
    vals[node, 4] = 1.5
    rep = H.check_min_propagation(GridField(g, vals, "phi"),
                                  anchor=(node, 8))
    record(11, "strong-minimum bump: residual bound, exact lateral zero, "
           "violation detected", res_ok and vanishes and not rep.passed,
           f"bound_ok={res_ok} lateral_zero={vanishes} "
           f"violation margin={rep.worst_violation:.2f}")


def test_criterion_12_bump_improvement():
    g = build_grid(Domain.box([(-1, 1), (-1, 1)]), 0.2, 1.0, 6)
    jet = (0.0, np.array([1.0, 0.0]), np.diag([2.0, 1.0]))
    rep = H.check_bump_improvement(jet, 1.0, grid=g)
    ok = (rep.passed and rep.details["mu"] == 2.0
          and rep.details["improvement"] > 0.0)
    record(12, "jet improvement bump: mu=2, strict gain at anchor, "
           "node-exact agreement outside", ok,
           f"improvement={rep.details['improvement']:.2e} "
           f"residual@anchor={rep.details['residual_at_anchor']:.2f}")


def test_criterion_13_log_inequalities():
    rng = np.random.default_rng(1313)
    cs = rng.uniform(-1.0 / 3.0, 1.0 / 3.0, size=1000)
    ok = all(transforms.log_inequality_check(float(c)).log_ok
             and transforms.log_inequality_check(float(c)).exp_ok
             for c in cs)
    record(13, "log/exp expansion bounds on 1000 seeded samples", ok)


def test_criterion_14_determinism(tmp_path):
    cfg = tmp_path / "suite.json"
    cfg.write_text(json.dumps({"experiment": "full-suite", "seed": 42}))
    assert cli.run(cfg, out_dir=tmp_path / "a", seed=42) == 0
    assert cli.run(cfg, out_dir=tmp_path / "b", seed=42) == 0
    identical = True
    compared = 0
    for p in sorted((tmp_path / "a").rglob("*")):
        if not p.is_file() or p.name == "run_info.json":
            continue
        q = tmp_path / "b" / p.relative_to(tmp_path / "a")
        identical = identical and q.exists() and \
            p.read_bytes() == q.read_bytes()
        compared += 1
    record(14, "full-suite rerun is byte-identical (timestamps aside)",
           identical and compared >= 10, f"files compared={compared}")
