"""The benchmark still runs against the package: one short traced run of
box3d-growth through benchmarks/run.py, in a subprocess.

The traced run reads the names the benchmark relies on (``nbr_index``,
``cfl_dt``, ``discrete_infinity_laplacian``, ``SolverConfig(variable=...)``,
``positivity_floor``, ``SingularIntegralTable``); a probe whose function is
gone reports 0, so the per-layer figures below must be positive.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_box3d_growth_traced_run():
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "box3d-growth",
         "--seed", "3", "--seconds", "2", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    for name in ("grids.n_interior", "grids.stencil_k",
                 "solver.cfl_ns_per_node", "solver.dinf_ns_per_node"):
        assert metrics[name]["value"] > 0, name
