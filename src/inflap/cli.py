"""Experiment runner: wires configs to solver/barriers/harness and emits
reproducible artifacts.

Usage:
    inflap run <config.json> [--out DIR] [--seed N]
    inflap catalog

A config is a JSON object with an "experiment" key (one of decay,
sandwich, comparison, radial-oracle, growth-bounds, surrogate-unbounded,
full-suite) plus domain/grid/data/solver tables; see README for the
schema and demos/ for worked files.  Artifacts: manifest.json (config
echo, content hashes, versions; no timestamps), run_info.json (wall-clock
stamps only), fields/*.csv, reports/*.json, summary.csv.  Exit code 0
iff every non-vacuous property passed, 2 for unusable configs.

All floating-point output uses 17 significant digits, so identical
config+seed reproduces identical bytes (timestamps live in their own
file).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, harness, radial, solver
from . import barriers as bar
from .catalog import CATALOG, catalog_entries, make_data
from .grids import (BoundaryData, DataError, Domain, GridConfigError,
                    build_grid, field_to_csv, grid_to_json,
                    sample_boundary_data, write_csv)
from .quadrature import QuadratureError
from .radial import RadialParameterError


class ConfigError(ValueError):
    pass


EXPERIMENTS = ("decay", "sandwich", "comparison", "radial-oracle",
               "growth-bounds", "surrogate-unbounded", "full-suite")


def _domain_from(cfg):
    kind = cfg.get("kind", "interval")
    if kind == "interval":
        return Domain.interval(cfg.get("a", -1.0), cfg.get("b", 1.0))
    if kind == "box":
        if "bounds" not in cfg:
            raise ConfigError("domain kind 'box' needs 'bounds'")
        return Domain.box(cfg["bounds"])
    if kind == "ball":
        return Domain.ball(cfg.get("center", [0.0, 0.0]),
                           cfg.get("radius", 1.0))
    raise ConfigError(f"unknown domain kind {kind!r}")


def _grid_and_data(cfg, h, T, time_levels, data):
    """Grid and sampled boundary data of an experiment config; the
    arguments are the defaults of its grid keys and data name.  A problem
    in the domain, grid or data table is a ConfigError that names it."""
    gcfg = cfg.get("grid", {})
    try:
        grid = build_grid(_domain_from(cfg.get("domain", {})),
                          gcfg.get("h", h), gcfg.get("T", T),
                          gcfg.get("time_levels", time_levels))
    except GridConfigError as e:
        raise ConfigError(f"domain/grid: {e}") from e
    data_cfg = cfg.get("data", {"name": data})
    name = data_cfg.get("name", data)
    if name not in CATALOG:
        raise ConfigError(f"unknown data name {name!r}; "
                          f"available: {sorted(CATALOG)}")
    try:
        bd = make_data(name, data_cfg.get("params"))
        sample_boundary_data(bd, grid)
    except (DataError, RadialParameterError) as e:
        raise ConfigError(f"data {name!r}: {e}") from e
    return grid, bd


def _solver_config(cfg):
    known = {f.name for f in dataclasses.fields(solver.SolverConfig)}
    unknown = sorted(set(cfg) - known)
    if unknown:
        raise ConfigError(f"unknown solver key(s) {unknown}; "
                          f"known keys are {sorted(known)}")
    try:
        return solver.SolverConfig(**cfg)
    except ValueError as e:
        raise ConfigError(f"solver config: {e}") from e


def _load_config(path):
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file {path} not found")
    try:
        cfg = json.loads(p.read_text())
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from e
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    exp = cfg.get("experiment")
    if exp not in EXPERIMENTS:
        raise ConfigError(
            f"config field 'experiment' must be one of {EXPERIMENTS}, "
            f"got {exp!r}")
    return cfg


class Emitter:
    def __init__(self, out_dir):
        self.out = Path(out_dir)
        (self.out / "fields").mkdir(parents=True, exist_ok=True)
        (self.out / "reports").mkdir(parents=True, exist_ok=True)
        self.reports = []

    def add_report(self, rep):
        self.reports.append(rep)
        rep.to_json(self.out / "reports" / f"{rep.property_id}.json")

    def write_csv(self, name, header, rows):
        path = self.out / "fields" / name
        write_csv(path, header, rows)
        return path

    def finish(self, cfg, seed):
        harness.reports_to_csv(self.reports, self.out / "summary.csv")
        hashes = {}
        for p in sorted(self.out.rglob("*")):
            if p.is_file() and p.name not in ("manifest.json",
                                              "run_info.json"):
                hashes[str(p.relative_to(self.out))] = hashlib.sha256(
                    p.read_bytes()).hexdigest()
        manifest = {
            "config": cfg,
            "seed": seed,
            "version": __version__,
            "artifact_sha256": hashes,
        }
        with open(self.out / "manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=1, sort_keys=True)
        with open(self.out / "run_info.json", "w") as fh:
            json.dump({"finished_unix": time.time()}, fh)
        failed = [r.property_id for r in self.reports
                  if not r.vacuous and not r.passed]
        return failed


# ---------------------------------------------------------------------------
# experiment bodies
# ---------------------------------------------------------------------------

def _exp_decay(cfg, em, rng):
    grid, bd = _grid_and_data(cfg, 0.05, 4.0, 81, "eigen-profile")
    dom = grid.domain
    scfg = _solver_config(cfg.get("solver", {"variable": "phi",
                                             "summarize_residual": False}))
    res = solver.solve(grid, bd, scfg)
    if dom.kind == "ball":
        lam_dom = radial.ball_eigenvalue(dom.bounds[1])
    else:
        half = 0.5 * (dom.bounds[0][1] - dom.bounds[0][0])
        lam_dom = radial.ball_eigenvalue(half)
    kind = "eigen" if bd.name == "eigen-profile" else "generic"
    rep = harness.check_decay_rate(res, lam_dom, data_kind=kind)
    em.add_report(rep)
    slope, sup_t = harness.fit_decay_slope(res)
    em.write_csv("decay_history.csv", "t,sup_phi,log_sup_phi",
                 [(t, s, np.log(s)) for t, s in zip(grid.t, sup_t)])
    field_to_csv(res.field, em.out / "fields" / "decay_field.csv")
    # run manifest: config hash, grid hash, full dt history
    grid_blob = json.dumps(grid_to_json(grid), sort_keys=True).encode()
    run_manifest = {
        "config_sha256": hashlib.sha256(
            json.dumps(cfg, sort_keys=True).encode()).hexdigest(),
        "grid_sha256": hashlib.sha256(grid_blob).hexdigest(),
        "steps": len(res.dt_history),
        "dt_history": [float(d) for d in res.dt_history],
        "flags": res.flags,
    }
    with open(em.out / "reports" / "solver_run.json", "w") as fh:
        json.dump(run_manifest, fh, indent=1, sort_keys=True)
    return rep


def _exp_sandwich(cfg, em, rng):
    grid, bd = _grid_and_data(cfg, 0.1, 0.5, 11, "gaussian-bump")
    rep = harness.check_sandwich(
        grid, bd, _solver_config(cfg.get("solver", {})),
        eps_fracs=tuple(cfg.get("eps_fracs", (0.1, 0.03, 0.01))),
        family_kw=cfg.get("family", {"interior_stride": 2,
                                     "time_stride": 2}))
    em.add_report(rep)
    return rep


def _exp_comparison(cfg, em, rng):
    grid, bd = _grid_and_data(cfg, 0.1, 0.4, 6, "gaussian-bump")
    n_barrier = int(cfg.get("barrier_pairs", 10))
    n_solver = int(cfg.get("solver_pairs", 5))
    eps = 0.05 * (bd.M - bd.m)
    worst = -np.inf
    count = 0
    interior = grid.interior_idx
    for _ in range(n_barrier):
        i = int(rng.integers(0, interior.size))
        j = int(rng.integers(0, interior.size))
        lo = bar.make_alpha_sub(grid.sample_pos[interior[i]], eps, bd, grid)
        hi = bar.make_alpha_sup(grid.sample_pos[interior[j]], eps, bd, grid)
        rep = harness.check_comparison(lo.eval_field(grid),
                                       hi.eval_field(grid))
        worst = max(worst, rep.worst_violation - rep.tolerance)
        count += 1
    for _ in range(n_solver):
        a0 = float(rng.uniform(0.5, 1.5))
        gap = float(rng.uniform(0.1, 0.5))
        w = float(rng.uniform(1.0, 4.0))

        def f_lo(x, a0=a0, w=w):
            return a0 * (1.0 + 0.3 * np.sin(w * x[:, 0]) ** 2)

        def f_hi(x, a0=a0, gap=gap, w=w):
            return (a0 + gap) * (1.0 + 0.3 * np.sin(w * x[:, 0]) ** 2)

        lo_bd = BoundaryData(f=f_lo, g=lambda x, t, f=f_lo: f(x))
        hi_bd = BoundaryData(f=f_hi, g=lambda x, t, f=f_hi: f(x))
        scfg = _solver_config(cfg.get("solver", {}))
        r_lo = solver.solve(grid, lo_bd, scfg)
        r_hi = solver.solve(grid, hi_bd, scfg)
        rep = harness.check_comparison(r_lo.field, r_hi.field)
        worst = max(worst, rep.worst_violation - rep.tolerance)
        count += 1
    out = harness.PropertyReport("comparison_sweep", count, float(worst),
                                 0.0, worst <= 0.0)
    em.add_report(out)
    return out


def _exp_radial_oracle(cfg, em, rng):
    lam_b = radial.ball_eigenvalue(1.0)
    closed = (np.pi * np.sqrt(2.0) / 4.0) ** 4
    margin = abs(lam_b - closed) / closed
    scaling = [radial.ball_eigenvalue(R) * R ** 4 for R in (0.5, 1, 2, 4)]
    margin = max(margin, float(np.max(np.abs(np.array(scaling) / scaling[0]
                                             - 1.0))))
    prof = radial.decaying_profile(1.0, 0.7 * lam_b, 1.0, fixed_which="m")
    grow = radial.growing_profile(1.0, 1.0, 1.0)
    r = np.linspace(0.05, 0.95, 61)
    margin = max(margin, float(np.max(np.abs(prof.ode_residual(r))))
                 / (prof.lam * prof.m ** 3))
    rgrid, upic, _ = radial.picard_growing(1.0, 1.0, 1.0)
    margin = max(margin, float(np.max(np.abs(upic - grow.eval(rgrid)))))
    em.write_csv("eigenvalue_table.csv", "R,lambda_B",
                 [(R, radial.ball_eigenvalue(R))
                  for R in cfg.get("radii", (0.5, 1.0, 2.0, 4.0))])
    radial.profile_to_csv(prof, em.out / "fields" / "decaying_profile.csv")
    radial.profile_to_csv(grow, em.out / "fields" / "growing_profile.csv")
    rep = harness.PropertyReport("radial_oracle", 4, float(margin), 1e-6,
                                 margin <= 1e-6)
    em.add_report(rep)
    return rep


def _exp_growth_bounds(cfg, em, rng):
    lam = float(cfg.get("lam", 1.0))
    delta = float(cfg.get("delta", 1.0))
    radii = cfg.get("radii", (5.0, 10.0, 20.0))
    rows = []
    worst = -np.inf
    for R in radii:
        gb = radial.growth_bounds(R, lam, delta)
        uR = radial.growing_profile(R, lam, delta).sup
        rows.append((R, gb.lower, uR, gb.upper))
        worst = max(worst, gb.lower - uR, uR - gb.upper)
    em.write_csv("growth_bounds.csv", "R,lower,uR,upper", rows)
    rep = harness.PropertyReport("growth_bounds", len(list(radii)),
                                 float(worst), 0.0, worst < 0.0)
    em.add_report(rep)
    return rep


def _exp_surrogate(cfg, em, rng):
    rep = harness.check_large_ball_surrogate(
        radii=tuple(cfg.get("radii", (2.0, 4.0, 8.0))),
        T=cfg.get("T", 0.25))
    em.add_report(rep)
    return rep


def _exp_full_suite(cfg, em, rng):
    sub = dict(cfg)
    reps = []
    reps.append(_exp_radial_oracle(sub, em, rng))
    reps.append(_exp_growth_bounds(sub, em, rng))
    small = {
        "domain": {"kind": "interval", "a": 0.0, "b": 1.0},
        "grid": {"h": 0.1, "T": 0.4, "time_levels": 6},
        "data": {"name": "gaussian-bump",
                 "params": {"base": 1.0, "amp": 0.5, "width": 0.3,
                            "center": [0.5]}},
        "solver": {},
        "barrier_pairs": 5, "solver_pairs": 3,
    }
    reps.append(_exp_comparison(small, em, rng))
    reps.append(_exp_sandwich({**small,
                               "eps_fracs": (0.1, 0.03, 0.01),
                               "family": {"interior_stride": 2,
                                          "time_stride": 2}}, em, rng))
    decay_cfg = {
        "domain": {"kind": "interval", "a": -1.0, "b": 1.0},
        "grid": {"h": 0.1, "T": 3.0, "time_levels": 61},
        "data": {"name": "eigen-profile", "params": {"R": 1.0, "m": 1.0}},
        "solver": {"variable": "phi", "summarize_residual": False},
    }
    reps.append(_exp_decay(decay_cfg, em, rng))
    reps.append(_exp_surrogate({"radii": (2.0, 4.0), "T": 0.2}, em, rng))
    return reps


_BODIES = {
    "decay": _exp_decay,
    "sandwich": _exp_sandwich,
    "comparison": _exp_comparison,
    "radial-oracle": _exp_radial_oracle,
    "growth-bounds": _exp_growth_bounds,
    "surrogate-unbounded": _exp_surrogate,
    "full-suite": _exp_full_suite,
}


def run(config_path, out_dir=None, seed=None):
    """Execute one experiment config; returns the process exit code."""
    try:
        cfg = _load_config(config_path)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    seed = int(cfg.get("seed", 0) if seed is None else seed)
    out = Path(out_dir or cfg.get("out_dir", "out"))
    em = Emitter(out)
    rng = np.random.default_rng(seed)
    try:
        _BODIES[cfg["experiment"]](cfg, em, rng)
    except (ConfigError, QuadratureError) as e:
        print(f"run failed: {e}", file=sys.stderr)
        return 2
    failed = em.finish(cfg, seed)
    if failed:
        print(f"FAILED properties: {', '.join(failed)}", file=sys.stderr)
        return 1
    print(f"all properties passed; artifacts in {out}")
    return 0


def catalog_main():
    print("built-in boundary-data generators:")
    for name, doc, defaults in catalog_entries():
        print(f"  {name:24s} {doc}")
        print(f"  {'':24s} defaults: {json.dumps(defaults, sort_keys=True)}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="inflap",
        description="numerical laboratory for the parabolic "
        "infinity-Laplacian equation")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config", help="JSON experiment file")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--seed", type=int, default=None)
    sub.add_parser("catalog", help="list boundary-data generators")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.config, args.out, args.seed)
    return catalog_main()


if __name__ == "__main__":
    sys.exit(main())
