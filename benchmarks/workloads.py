"""The benchmark workloads: seeded inputs, one instance, output checks.

Each workload is a ``Workload`` with

* ``setup(seed) -> state``: build the grid and the data (timed as set-up);
* ``instance(state) -> Outcome``: one unit of work plus its output checks;
* ``probes(state) -> dict``: per-layer probes run after the timed loop.

The seed picks data parameters inside narrow fixed ranges, so run-to-run
spread comes from the machine, not from the inputs.  Layer functions are
always called through their module (``solver.solve``, ``grids.build_grid``)
so the shims in ``spans.py`` see every call.  See README.md for why each
workload was chosen.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Callable, Optional

import numpy as np

from inflap import barriers, catalog, cli, grids, harness, radial, solver, \
    transforms

#: sup-error ceilings: the values measured on the initial import (ball
#: 0.01649 m; box at most 0.0449 over the seed range; the CLI decay field
#: 0.003973) plus about 10%
BALL_ERR_PER_M = 0.0182
BOX_ERR_MAX = 0.050
CLI_ERR_MAX = 0.0044


@dataclass
class Outcome:
    max_abs_err: float
    checks: dict
    artifact_files: int = 0
    artifact_bytes: int = 0


@dataclass
class Workload:
    name: str
    why: str
    setup: Callable
    instance: Callable
    probes: Optional[Callable] = None


# ---------------------------------------------------------------------------
# solve workloads: ball-decay and box3d-growth
# ---------------------------------------------------------------------------

@dataclass
class SolveCase:
    grid: object
    bd: object
    config: solver.SolverConfig
    exact: np.ndarray
    err_max: float
    last: object = None   # most recent SolveResult (the probes read its cap)


def solution_checks(fld, case):
    """Sup error against the exact solution, and the output checks."""
    err = float(np.max(np.abs(fld.values - case.exact)))
    wmp = harness.check_weak_max_principle(fld)
    return err, {"max_abs_err_bound": err <= case.err_max,
                 "weak_max_principle": bool(wmp.passed)}


def solve_instance(case):
    res = solver.solve(case.grid, case.bd, case.config)
    case.last = res
    err, checks = solution_checks(res.field, case)
    return Outcome(err, checks)


def ball_setup(seed):
    m = float(np.random.default_rng(seed).uniform(0.98, 1.02))
    grid = grids.build_grid(grids.Domain.ball((0.0, 0.0), 1.0), 0.025, 0.5,
                            21)
    bd = catalog.make_data("eigen-profile",
                           {"R": 1.0, "m": m, "center": [0.0, 0.0]})
    grids.sample_boundary_data(bd, grid)
    lam = radial.ball_eigenvalue(1.0)
    psi = radial.decaying_profile(1.0, lam, m, fixed_which="m")
    r = np.minimum(np.linalg.norm(grid.sample_pos, axis=1), 1.0)
    exact = psi.eval(r)[:, None] * np.exp(-lam * grid.t / 3.0)[None, :]
    cfg = solver.SolverConfig(variable="phi", summarize_residual=False)
    return SolveCase(grid, bd, cfg, exact, BALL_ERR_PER_M * m)


def box_setup(seed):
    rng = np.random.default_rng(seed)
    lam = float(rng.uniform(0.98, 1.02))
    delta = float(rng.uniform(0.98, 1.02))
    grid = grids.build_grid(grids.Domain.box([(-0.5, 0.5)] * 3), 0.05, 1.0,
                            21)
    bd = catalog.make_data("growing-profile-trace",
                           {"R": 1.0, "lam": lam, "delta": delta,
                            "center": [0.0, 0.0, 0.0]})
    grids.sample_boundary_data(bd, grid)
    prof = radial.growing_profile(1.0, lam, delta)
    r = np.minimum(np.linalg.norm(grid.sample_pos, axis=1), 1.0)
    exact = prof.eval(r)[:, None] * np.exp(lam * grid.t / 3.0)[None, :]
    cfg = solver.SolverConfig(variable="eta", summarize_residual=True)
    return SolveCase(grid, bd, cfg, exact, BOX_ERR_MAX)


def _per_call(fn, min_seconds=0.1, min_calls=3):
    """Median seconds per call of fn(), repeated for at least min_seconds."""
    times = []
    t_end = perf_counter() + min_seconds
    while len(times) < min_calls or perf_counter() < t_end:
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return median(times)


def solve_probes(case):
    """Kernel probes on the workload's grid and initial datum.

    The byte figures are computed from array sizes, not measured: the
    neighbour index and distance rows of one node, its K gathered values,
    the centre value, and the rhs/coef/value writes.
    """
    grid, cfg, bd = case.grid, case.config, case.bd
    f0 = np.asarray(bd.f(grid.sample_pos), dtype=float)
    vals = np.log(np.maximum(f0, cfg.positivity_floor)) \
        if cfg.variable == "eta" else f0
    cap = case.last.field.meta.get("grad_cap") if case.last else None
    n_int, K = grid.nbr_index.shape
    table_bytes = grid.nbr_index.nbytes + grid.nbr_dist.nbytes
    out = {
        "solver.bytes_per_node_step": table_bytes / n_int + 8 * K + 32,
        "solver.working_set_bytes": table_bytes + 8 * grid.n_nodes,
    }
    probes = {
        "solver.dinf_ns_per_node": ("discrete_infinity_laplacian",
                                    lambda fn: fn(grid, vals)),
        "solver.cfl_ns_per_node": ("cfl_dt",
                                   lambda fn: fn(grid, vals, cfg, cap=cap)),
        "solver.step_ns_per_node": (
            "step", lambda fn: fn(grid, vals, bd, 0.0, 1e-9, cfg, cap=cap)),
    }
    for metric, (name, call) in probes.items():
        fn = getattr(solver, name, None)
        # 0 = the public function is gone from the solver module
        out[metric] = 1e9 * _per_call(lambda: call(fn)) / n_int if fn else 0.0
    bpts = grid.sample_pos[grid.boundary_idx]
    t_mid = 0.5 * grid.T
    out["catalog.lateral_eval_us"] = 1e6 * _per_call(
        lambda: bd.g(bpts, t_mid), min_seconds=0.05)
    return out


# ---------------------------------------------------------------------------
# perron-sandwich
# ---------------------------------------------------------------------------

@dataclass
class SandwichCase:
    grid: object
    bd: object


SANDWICH_STRIDES = {"interior_stride": 4, "space_stride": 2, "time_stride": 2}
SANDWICH_EPS = (0.1, 0.03, 0.01)


def sandwich_setup(seed):
    rng = np.random.default_rng(seed)
    params = {"base": float(rng.uniform(0.98, 1.02)),
              "amp": float(rng.uniform(0.59, 0.61)),
              "width": float(rng.uniform(0.395, 0.405)),
              "center": [float(c) for c in rng.uniform(-0.01, 0.01, 2)]}
    grid = grids.build_grid(grids.Domain.ball((0.0, 0.0), 1.0), 0.1, 0.4, 9)
    bd = catalog.make_data("gaussian-bump", params)
    grids.sample_boundary_data(bd, grid)
    return SandwichCase(grid, bd)


def sandwich_instance(case):
    rep = harness.check_sandwich(case.grid, case.bd, eps_fracs=SANDWICH_EPS,
                                 family_kw=SANDWICH_STRIDES)
    # the Perron envelopes' sup distance to the datum on P_T, finest eps
    err = float(rep.details["boundary_gaps"][-1])
    return Outcome(err, {"sandwich_passed": bool(rep.passed),
                         "gap_monotone": bool(rep.details["gap_monotone"])})


# ---------------------------------------------------------------------------
# cli-full-suite
# ---------------------------------------------------------------------------

@dataclass
class CliCase:
    seed: int
    config_path: Path
    out_root: Path
    exact_decay: Callable
    runs: int = 0
    first_hashes: Optional[dict] = None


#: where instances write their artifacts; removed by cleanup()
OUT_ROOT = Path(__file__).resolve().parent / "out"


def cli_setup(seed):
    out_root = OUT_ROOT / f"cli-{seed}"
    shutil.rmtree(out_root, ignore_errors=True)
    out_root.mkdir(parents=True)
    cfg_path = out_root / "full-suite.json"
    cfg_path.write_text(json.dumps({"experiment": "full-suite"}))
    # the full-suite decay experiment: eigen datum on [-1, 1], R = m = 1
    lam = radial.ball_eigenvalue(1.0)
    psi = radial.decaying_profile(1.0, lam, 1.0, fixed_which="m")

    def exact(x, t):
        return psi.eval(np.minimum(np.abs(x), 1.0)) * np.exp(-lam * t / 3.0)

    return CliCase(seed, cfg_path, out_root, exact)


def cli_instance(case):
    out = case.out_root / f"run-{case.runs}"
    case.runs += 1
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.run(str(case.config_path), str(out), seed=case.seed)
    files = [p for p in out.rglob("*") if p.is_file()]
    hashes = json.loads((out / "manifest.json").read_text())[
        "artifact_sha256"]
    if case.first_hashes is None:
        case.first_hashes = hashes
    x, t, v = np.loadtxt(out / "fields" / "decay_field.csv", delimiter=",",
                         skiprows=1, unpack=True)
    err = float(np.max(np.abs(v - case.exact_decay(x, t))))
    outcome = Outcome(err, {"exit_code_0": code == 0,
                            "sha256_repeatable": hashes == case.first_hashes,
                            "decay_field_err_bound": err <= CLI_ERR_MAX},
                      len(files), sum(p.stat().st_size for p in files))
    shutil.rmtree(out)
    return outcome


def cleanup():
    shutil.rmtree(OUT_ROOT, ignore_errors=True)


#: BENCHMARK.json measures all but perron-sandwich, which is run by hand
#: (README.md says why)
WORKLOADS = {w.name: w for w in (
    Workload("ball-decay",
             "criterion 5 middle level, phi variable, gradient-cap collar; "
             "almost all solver kernel",
             ball_setup, solve_instance, solve_probes),
    Workload("box3d-growth",
             "3-D box, eta variable, K = 26, lateral datum re-evaluated each "
             "step, residual summary on",
             box_setup, solve_instance, solve_probes),
    Workload("perron-sandwich",
             "criterion 9: barrier families and Perron sup/inf around a "
             "small solve",
             sandwich_setup, sandwich_instance),
    Workload("cli-full-suite",
             "the user-facing runner: oracles, Picard, a small Perron "
             "sandwich, comparison sweep, artifact writing and hashing",
             cli_setup, cli_instance),
)}


# ---------------------------------------------------------------------------
# span targets (see spans.installed)
# ---------------------------------------------------------------------------

def _solve_info(res):
    steps = len(res.dt_history)
    return {"steps": steps, "dts": res.dt_history,
            "node_updates": int(res.grid.interior_mask.sum()) * steps}


def _grid_info(grid):
    return {"n_interior": grid.nbr_index.shape[0],
            "stencil_k": grid.nbr_index.shape[1],
            "table_bytes": grid.nbr_index.nbytes + grid.nbr_dist.nbytes}


def _members(family):
    return {"members": len(family)}


#: (owner, attribute, span name, info) -- owner is a module or a class
COUNTED = [(solver, "solve", "solver.solve", _solve_info)]

TRACED = COUNTED + [
    (transforms, "residual_Pi", "transforms.residual_Pi", None),
    (transforms, "residual_Gamma", "transforms.residual_Gamma", None),
    (barriers, "build_sub_family", "barriers.build_sub_family", _members),
    (barriers, "build_sup_family", "barriers.build_sup_family", _members),
    (barriers, "perron_family_sup", "barriers.perron_family_sup", None),
    (barriers, "perron_family_inf", "barriers.perron_family_inf", None),
    (barriers.Barrier, "eval", "barriers.Barrier.eval", None),
    (radial.RadialProfile, "eval", "radial.RadialProfile.eval", None),
    (grids, "build_grid", "grids.build_grid", _grid_info),
    (grids, "sample_boundary_data", "grids.sample_boundary_data", None),
    (catalog, "make_data", "catalog.make_data", None),
    (cli, "run", "cli.run", None),
    (cli.Emitter, "finish", "cli.Emitter.finish", None),
] + [(harness, n, f"harness.{n}", None)
     for n in sorted(vars(harness)) if n.startswith("check_")]
