"""inflap benchmark: time one workload from outside the package.

    python3 benchmarks/run.py --workload ball-decay --seed 1 --seconds 38 \
        --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The process is a closed loop: one thread runs one workload
instance after another for about ``--seconds``: untimed warm-up
instances for WARMUP_S, then at least two timed ones.  ``--trace 0``
prints the end-to-end metrics, ``--trace 1`` the per-layer metrics from a
traced run (see README.md).  The last line of standard output is one JSON
object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import os

#: one process, one thread: pin the BLAS/OpenMP pools before numpy loads
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402
from time import perf_counter  # noqa: E402

import spans as sp  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
#: untimed instances at the start of a run last at least this long
WARMUP_S = 3.0

#: (name, unit) of every metric, in print order
END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("node_updates_per_s", "1/s"),
              ("max_abs_err", "phi"), ("peak_rss_mb", "MB")]

#: span layers; "bench" is the benchmark's own code (the instance root)
LAYERS = ("bench", "grids", "solver", "transforms", "barriers", "radial",
          "harness", "catalog", "cli")

PER_LAYER = [
    ("grids.build_s", "s"), ("grids.sample_data_s", "s"),
    ("grids.n_interior", "count"), ("grids.stencil_k", "count"),
    ("grids.table_bytes", "B"),
    ("solver.solve_s", "s"), ("solver.steps", "count"),
    ("solver.ns_per_node_step", "ns"), ("solver.dt_min", "s"),
    ("solver.dt_median", "s"), ("solver.dt_max", "s"),
    ("solver.dinf_ns_per_node", "ns"), ("solver.cfl_ns_per_node", "ns"),
    ("solver.step_ns_per_node", "ns"),
    ("solver.bytes_per_node_step", "B_computed"),
    ("solver.working_set_bytes", "B_computed"),
    ("catalog.lateral_eval_us", "us"), ("catalog.lateral_share", "fraction"),
    ("transforms.residual_s", "s"),
    ("barriers.family_s", "s"), ("barriers.envelope_s", "s"),
    ("barriers.n_members", "count"), ("barriers.eval_calls", "count"),
    ("radial.profile_eval_calls", "count"), ("radial.profile_eval_s", "s"),
    ("harness.check_s", "s"),
    ("cli.run_s", "s"), ("cli.emit_s", "s"), ("cli.artifact_files", "count"),
    ("cli.artifact_bytes", "B"),
    ("trace.wall_s", "s"), ("trace.overhead_s", "s"),
] + [(f"{layer}.self_s", "s") for layer in LAYERS] \
  + [(f"{layer}.share", "fraction") for layer in LAYERS]

IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import inflap.cli; "
                "print(time.perf_counter() - t)")


def import_seconds():
    """Import time of the whole package, in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                         capture_output=True, text=True, check=True,
                         timeout=120, cwd=ROOT)
    return float(out.stdout.strip().splitlines()[-1])


def timed_setup(wl, seed):
    """Median over SETUP_REPEATS of: imports, fresh quadrature tables and
    the workload's grid and data.  Returns (setup_s, state)."""
    from inflap import quadrature

    samples = []
    for _ in range(SETUP_REPEATS):
        t_import = import_seconds()
        t0 = perf_counter()
        quadrature.SingularIntegralTable("decay")
        quadrature.SingularIntegralTable("grow")
        state = wl.setup(seed)
        samples.append(t_import + perf_counter() - t0)
    return median(samples), state


def warm_up(wl, state):
    """Untimed instances for at least WARMUP_S, at least one.

    The first two solves of a box3d-growth process make about 300 000
    minor page faults each and run 30-60% slower; after them, about 2000.
    Returns the instances' outcomes, whose checks still count.
    """
    outcomes = []
    t_end = perf_counter() + WARMUP_S
    while not outcomes or perf_counter() < t_end:
        outcomes.append(wl.instance(state))
    return outcomes


def measure(wl, state, t_end, rec):
    """Run at least two instances, and more while one more instance of
    median length still ends by ``t_end``; one row per instance:
    (wall_s, Outcome, spans of the instance)."""
    rows = []
    while len(rows) < 2 or \
            perf_counter() + median(r[0] for r in rows) <= t_end:
        root = rec.open("bench.instance")
        outcome = wl.instance(state)
        rec.close(root)
        spans_ = rec.take()
        rows.append((spans_[0].dur, outcome, spans_))
    return rows


def solve_rate(spans_):
    """Interior nodes x explicit steps of every solve in one instance,
    divided by the time those solves took."""
    solves = sp.outermost(spans_, lambda n: n == "solver.solve")
    solve_s = sum(s.dur for s in solves)
    return sum(s.info["node_updates"] for s in solves) / solve_s


def end_to_end(rows, setup_s):
    return {
        "wall_s": median(r[0] for r in rows),
        "setup_s": setup_s,
        "node_updates_per_s": median(solve_rate(r[2]) for r in rows),
        "max_abs_err": median(r[1].max_abs_err for r in rows),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def instance_layers(spans_, outcome):
    """Per-layer metrics of one traced instance."""
    def incl(pred):
        return sp.inclusive(spans_, pred)

    def calls(name):
        return sum(1 for s in spans_ if s.name == name)

    wall = spans_[0].dur
    solves = sp.outermost(spans_, lambda n: n == "solver.solve")
    solve_s = sum(s.dur for s in solves)
    steps = sum(s.info["steps"] for s in solves)
    work = sum(s.info["node_updates"] for s in solves)
    dts = sorted(dt for s in solves for dt in s.info["dts"])
    families = sp.outermost(spans_, lambda n: n.endswith("_family"))
    out = {
        "trace.wall_s": wall,
        "solver.solve_s": solve_s,
        "solver.steps": steps,
        "solver.ns_per_node_step": 1e9 * solve_s / work if work else 0.0,
        "solver.dt_min": dts[0] if dts else 0.0,
        "solver.dt_median": median(dts) if dts else 0.0,
        "solver.dt_max": dts[-1] if dts else 0.0,
        "transforms.residual_s": incl(
            lambda n: n.startswith("transforms.residual_")),
        "barriers.family_s": sum(s.dur for s in families),
        "barriers.envelope_s": incl(
            lambda n: n.startswith("barriers.perron_family_")),
        "barriers.n_members": sum(s.info["members"] for s in families),
        "barriers.eval_calls": calls("barriers.Barrier.eval"),
        "radial.profile_eval_calls": calls("radial.RadialProfile.eval"),
        "radial.profile_eval_s": incl(
            lambda n: n == "radial.RadialProfile.eval"),
        "harness.check_s": incl(lambda n: n.startswith("harness.check_")),
        "cli.run_s": incl(lambda n: n == "cli.run"),
        "cli.emit_s": incl(lambda n: n == "cli.Emitter.finish"),
        "cli.artifact_files": outcome.artifact_files,
        "cli.artifact_bytes": outcome.artifact_bytes,
    }
    self_s = sp.self_times(spans_)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
        out[f"{layer}.share"] = self_s.get(layer, 0.0) / wall
    return out


def grid_layers(all_spans):
    """grids.* metrics from every build/sample span of a traced run."""
    builds = [s for s in all_spans if s.name == "grids.build_grid"]
    samples = [s for s in all_spans if s.name == "grids.sample_boundary_data"]
    largest = max((s.info for s in builds if s.info),
                  key=lambda i: i["n_interior"], default=None)
    out = {
        "grids.build_s": median(s.dur for s in builds) if builds else 0.0,
        "grids.sample_data_s": median(s.dur for s in samples)
        if samples else 0.0,
    }
    for key in ("n_interior", "stencil_k", "table_bytes"):
        out[f"grids.{key}"] = largest[key] if largest else 0
    return out


def per_layer(wl, state, seed, seconds, rec, plain_rows, targets):
    """Traced phase: traced set-up, traced instances, then the probes."""
    with sp.installed(rec, targets):
        root = rec.open("bench.setup")
        wl.setup(seed)
        rec.close(root)
        setup_spans = rec.take()
        rows = measure(wl, state, perf_counter() + seconds, rec)
    metrics = {}
    per_instance = [instance_layers(r[2], r[1]) for r in rows]
    for key in per_instance[0]:
        metrics[key] = median(m[key] for m in per_instance)
    metrics.update(grid_layers(setup_spans + [s for r in rows for s in r[2]]))
    probes = wl.probes(state) if wl.probes else {}
    for key in ("solver.dinf_ns_per_node", "solver.cfl_ns_per_node",
                "solver.step_ns_per_node", "solver.bytes_per_node_step",
                "solver.working_set_bytes", "catalog.lateral_eval_us"):
        metrics[key] = probes.get(key, 0.0)
    metrics["catalog.lateral_share"] = (
        1e-6 * metrics["catalog.lateral_eval_us"] * metrics["solver.steps"]
        / metrics["solver.solve_s"]) if metrics["solver.solve_s"] else 0.0
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - median(
        r[0] for r in plain_rows)
    return metrics, rows


def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def machine_facts(seed):
    """Read-only facts about this machine and interpreter."""
    model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = []
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob(
            "index*")):
        caches.append({k: _read(idx / k) for k in ("level", "type", "size")})

    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": version("scipy"),
        "numba": version("numba")
        if importlib.util.find_spec("numba") else "absent",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "seed": seed,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "inflap" / "__init__.py").is_file():
        print(f"no inflap sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    try:
        setup_s, state = timed_setup(wl, args.seed)
        rec = sp.Recorder()
        seconds = args.seconds / 2 if args.trace else args.seconds
        t_end = perf_counter() + seconds
        warm = warm_up(wl, state)   # inside the run's time
        with sp.installed(rec, workloads.COUNTED):
            rows = measure(wl, state, t_end, rec)
        if args.trace:
            metrics, traced = per_layer(wl, state, args.seed, seconds, rec,
                                        rows, workloads.TRACED)
            rows = rows + traced
            units = dict(PER_LAYER)
        else:
            metrics = end_to_end(rows, setup_s)
            units = dict(END_TO_END)
    finally:
        workloads.cleanup()
    if set(metrics) != set(units):
        raise RuntimeError(f"metric set mismatch: {set(metrics) ^ set(units)}")
    checks = [ok for o in warm + [r[1] for r in rows]
              for ok in o.checks.values()]
    failed = sum(1 for ok in checks if not ok)
    print("machine " + json.dumps(machine_facts(args.seed), sort_keys=True))
    print(f"workload {wl.name}: {len(warm)} warm-up and {len(rows)} timed "
          f"instances; {wl.why}")
    for key, unit in units.items():
        print(f"  {key:28s} {metrics[key]:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": unit}
                    for k, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
