"""Tests of the benchmark's own machinery: output checks, spans, exit codes.

Small grids only; the timed workloads themselves run through run.py.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402
from inflap import catalog, cli, grids, harness, radial, solver  # noqa: E402


@pytest.fixture(scope="module")
def small_case():
    """The ball-decay recipe on a coarse interval, so it solves in ~0.1 s."""
    lam = radial.ball_eigenvalue(1.0)
    psi = radial.decaying_profile(1.0, lam, 1.0, fixed_which="m")
    grid = grids.build_grid(grids.Domain.interval(-1.0, 1.0), 0.1, 0.5, 11)
    bd = catalog.make_data("eigen-profile", {"R": 1.0, "m": 1.0})
    r = np.minimum(np.abs(grid.sample_pos[:, 0]), 1.0)
    exact = psi.eval(r)[:, None] * np.exp(-lam * grid.t / 3.0)[None, :]
    cfg = solver.SolverConfig(variable="phi", summarize_residual=False)
    return workloads.SolveCase(grid, bd, cfg, exact, err_max=0.05)


def test_solution_checks_pass_and_corrupted_field_fails(small_case):
    outcome = workloads.solve_instance(small_case)
    assert all(outcome.checks.values()), outcome.checks
    bad = small_case.last.field.copy()
    bad.values[small_case.grid.interior_idx[3], 4] += 1.0
    err, checks = workloads.solution_checks(bad, small_case)
    assert err > 0.9
    assert not checks["max_abs_err_bound"]
    assert not checks["weak_max_principle"]


def test_self_times_add_up_to_the_root():
    rec = spans.Recorder()

    def leaf():
        return sum(range(2000))

    leaf_traced = spans.shim(rec, "radial.leaf", leaf)

    def mid():
        return leaf_traced() + leaf_traced()

    mid_traced = spans.shim(rec, "solver.mid", mid)
    root = rec.open("bench.instance")
    mid_traced()
    leaf_traced()
    rec.close(root)
    got = rec.take()
    assert [s.name for s in got] == ["bench.instance", "solver.mid",
                                     "radial.leaf", "radial.leaf",
                                     "radial.leaf"]
    self_s = spans.self_times(got)
    assert sum(self_s.values()) == pytest.approx(got[0].dur, abs=1e-12)
    assert spans.inclusive(got, lambda n: n == "radial.leaf") == \
        pytest.approx(sum(s.dur for s in got[2:]))


def test_shims_reach_name_bound_copies_and_restore():
    originals = (grids.build_grid, grids.sample_boundary_data,
                 radial.RadialProfile.eval)
    rec = spans.Recorder()
    with spans.installed(rec, workloads.TRACED):
        assert cli.build_grid is grids.build_grid
        assert harness.sample_boundary_data is grids.sample_boundary_data
        assert grids.build_grid.__wrapped__ is originals[0]
        radial.growing_profile(1.0, 1.0, 1.0).eval(np.array([0.5]))
    assert [s.name for s in rec.take()] == ["radial.RadialProfile.eval"]
    assert (cli.build_grid, harness.sample_boundary_data,
            radial.RadialProfile.eval) == originals


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "ball-decay",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
