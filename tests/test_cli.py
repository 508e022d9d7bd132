"""CLI and catalog tests: config handling, artifacts, determinism."""

import json

import numpy as np
import pytest

from inflap import cli, radial, solver
from inflap.catalog import catalog_entries, make_data
from inflap.grids import Domain, build_grid, sample_boundary_data


class TestCatalog:
    def test_contains_required_entries(self):
        names = {n for n, _, _ in catalog_entries()}
        assert {"constant", "linear", "gaussian-bump", "eigen-profile",
                "growing-profile-trace", "decaying-lateral"} <= names

    def test_round_trip_through_serialization(self):
        for name, _, defaults in catalog_entries():
            blob = json.dumps({"name": name, "params": defaults})
            back = json.loads(blob)
            bd = make_data(back["name"], back["params"])
            assert bd.name == name
            assert bd.params == defaults

    def test_decaying_lateral_rate(self):
        bd = make_data("decaying-lateral", {"g0": 2.0, "rate": 1.5})
        x = np.zeros((3, 1))
        for t in (0.0, 0.7, 2.0):
            np.testing.assert_allclose(bd.g(x, t),
                                       2.0 * np.exp(-1.5 * t), rtol=1e-15)

    def test_growing_trace_lateral_matches_uncached(self):
        # g keeps u for the last point set; every call must still equal
        # u(x) e^{lam t/3} with u evaluated afresh, bit for bit
        lam = 1.3
        bd = make_data("growing-profile-trace",
                       {"lam": lam, "center": [0.0, 0.0]})
        rng = np.random.default_rng(5)
        a = rng.uniform(-0.7, 0.7, (6, 2))
        b = rng.uniform(-0.7, 0.7, (6, 2))
        short = a[:4].copy()
        moving = a.copy()
        calls = [(a, 0.0), (b, 0.3), (a, 0.3), (a, 0.9), (short, 0.9),
                 (moving, 0.2), (moving, 0.4)]
        for x, t in calls:
            assert np.array_equal(bd.g(x, t),
                                  bd.f(x.copy()) * np.exp(lam * t / 3.0))
            moving[1, 0] += 0.05   # same array object, new values
        for t in (0.1, 0.5):
            assert np.array_equal(bd.g(moving, t),
                                  bd.f(moving.copy()) * np.exp(lam * t / 3.0))
            moving *= 0.9

    def test_eigen_profile_zero_lateral(self):
        bd = make_data("eigen-profile", {"R": 1.0, "m": 2.0})
        assert bd.zero_lateral_ok
        assert np.all(bd.g(np.ones((2, 1)), 1.0) == 0.0)
        assert abs(bd.f(np.zeros((1, 1)))[0] - 2.0) < 1e-12

    def test_generators_positive_on_sample_grid(self):
        # eigen-profile's zero boundary lives on the symmetric interval
        g01 = build_grid(Domain.interval(0, 1), 0.25, 0.5, 4)
        gsym = build_grid(Domain.interval(-1, 1), 0.25, 0.5, 4)
        dom_for = {"eigen-profile": gsym}
        for name, _, _ in catalog_entries():
            bd = make_data(name)
            sample_boundary_data(bd, dom_for.get(name, g01))
            assert bd.M >= bd.m >= 0.0

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            make_data("chebyshev-hat")


class TestRunner:
    def write_cfg(self, tmp_path, payload, name="cfg.json"):
        p = tmp_path / name
        p.write_text(json.dumps(payload))
        return p

    def test_malformed_config_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.run(bad) == 2
        missing = tmp_path / "nope.json"
        assert cli.run(missing) == 2
        wrong = self.write_cfg(tmp_path, {"experiment": "nonsense"})
        assert cli.run(wrong) == 2
        capsys.readouterr()
        for key, value in (("use_jit", True), ("stencil", "monotone_minmax"),
                           ("cfl", 0.0), ("grad_cap", 0.0),
                           ("auto_cap_scale", 0.0), ("auto_cap_scale", "0.6"),
                           ("max_steps", 0), ("max_steps", True),
                           ("max_steps", 2.5), ("positivity_floor", 1e-8),
                           ("summarize_residual", "false")):
            stale = self.write_cfg(tmp_path, {
                "experiment": "decay",
                "solver": {"variable": "phi", key: value},
                "out_dir": str(tmp_path / "out")})
            assert cli.run(stale) == 2
            assert key in capsys.readouterr().err
        # a fraction, a string, a bool or a negative number is no pair
        # count (int() would run 2, 3, 1 and 0 pairs and exit 0)
        for key, value in (("barrier_pairs", 2.5), ("barrier_pairs", "3"),
                           ("barrier_pairs", True), ("barrier_pairs", -1),
                           ("solver_pairs", 2.5), ("solver_pairs", -1)):
            pairs = self.write_cfg(tmp_path, {
                "experiment": "comparison", key: value,
                "out_dir": str(tmp_path / "out")})
            assert cli.run(pairs) == 2
            assert f"{key} must be a non-negative integer" in \
                capsys.readouterr().err
        for table, problem in (
                ({"grid": {"h": 0.3}}, "does not tile"),
                ({"grid": {"time_levels": 1}}, "2 time levels"),
                ({"data": {"name": "constant", "params": {"value": -1}}},
                 "must be positive"),
                ({"data": {"name": "eigen-profile", "params": {"R": -1}}},
                 "radius must be positive"),
                ({"domain": {"kind": "box"}}, "'bounds'"),
                # a string, a bool, NaN or a fraction where a number or an
                # integer belongs raised TypeError or ValueError (exit 1)
                ({"grid": {"h": "0.1"}}, "h must be a finite number"),
                ({"grid": {"h": float("nan")}}, "h must be a finite"),
                ({"grid": {"T": "1"}}, "T must be a finite number"),
                ({"grid": {"time_levels": 2.5}}, "time_levels must be an"),
                ({"grid": {"time_levels": True}}, "time_levels must be an"),
                ({"domain": {"kind": "ball", "radius": "1"}}, "radius"),
                ({"domain": {"kind": "ball", "center": [0.0, True]}},
                 "center"),
                ({"domain": {"kind": "box", "bounds": [[-1.0, "0.5"]]}},
                 "bounds"),
                ({"domain": {"kind": "box", "bounds": [[-1.0, 0.5, 1.0]]}},
                 "bounds"),
                ({"domain": {"kind": "box", "bounds": []}}, "bounds"),
                ({"domain": {"kind": "ball", "center": []}}, "center"),
                ({"domain": {"a": float("inf")}}, "interval end a")):
            broken = self.write_cfg(tmp_path, {
                "experiment": "decay", **table,
                "out_dir": str(tmp_path / "out")})
            assert cli.run(broken) == 2
            assert problem in capsys.readouterr().err
        # no partial artifact tree with a summary is produced
        assert not (tmp_path / "out" / "summary.csv").exists()

    def test_eta_on_zero_lateral_data_exit_2(self, tmp_path, capsys):
        # eta = log phi cannot march zero lateral data: a run failure
        cfg = self.write_cfg(tmp_path, {
            "experiment": "decay",
            "grid": {"h": 0.1, "T": 0.5, "time_levels": 11},
            "solver": {"variable": "eta", "summarize_residual": False},
            "out_dir": str(tmp_path / "out")})
        assert cli.run(cfg) == 2
        assert "run failed: zero-lateral data needs variable='phi'" in \
            capsys.readouterr().err
        assert not (tmp_path / "out" / "summary.csv").exists()

    def test_collapsed_step_exit_2(self, tmp_path, capsys, monkeypatch):
        # a StiffnessError is a run failure too
        monkeypatch.setattr(solver.SolverConfig, "cfl", 1e-20)
        cfg = self.write_cfg(tmp_path, {"experiment": "decay",
                                        "out_dir": str(tmp_path / "out")})
        assert cli.run(cfg) == 2
        assert "run failed: time step collapsed" in capsys.readouterr().err
        assert not (tmp_path / "out" / "summary.csv").exists()

    def test_decay_target_independent_of_axis_order(self, tmp_path):
        # a box and its transpose decay alike, and both are held to the
        # rate of the ball around them
        reps = []
        for name, bounds in (("wide", [[-1.0, 1.0], [-0.5, 0.5]]),
                             ("tall", [[-0.5, 0.5], [-1.0, 1.0]])):
            cfg = self.write_cfg(tmp_path, {
                "experiment": "decay",
                "domain": {"kind": "box", "bounds": bounds},
                "grid": {"h": 0.1, "T": 2.0},
                "data": {"name": "decaying-lateral", "params": {"rate": 5.0}},
                "out_dir": str(tmp_path / name)})
            assert cli.run(cfg) == 0
            reps.append(json.loads((tmp_path / name / "reports" /
                                    "decay_rate.json").read_text()))
        wide, tall = (r["details"] for r in reps)
        assert wide["target"] == tall["target"] == pytest.approx(
            -radial.ball_eigenvalue(0.5 * np.sqrt(5.0)) / 3.0, rel=1e-12)
        assert wide["slope"] == tall["slope"]
        assert reps[0]["passed"] and reps[1]["passed"]

    def test_error_inside_an_experiment_propagates(self, tmp_path,
                                                   monkeypatch):
        def body(cfg, em, rng):
            raise KeyError("bug")

        monkeypatch.setitem(cli._BODIES, "growth-bounds", body)
        cfg = self.write_cfg(tmp_path, {"experiment": "growth-bounds",
                                        "out_dir": str(tmp_path / "out")})
        with pytest.raises(KeyError, match="bug"):
            cli.run(cfg)

    def test_growth_bounds_experiment(self, tmp_path):
        cfg = self.write_cfg(tmp_path, {
            "experiment": "growth-bounds", "radii": [5.0, 10.0],
            "out_dir": str(tmp_path / "out")})
        assert cli.run(cfg) == 0
        rows = (tmp_path / "out" / "fields" / "growth_bounds.csv"
                ).read_text().strip().splitlines()
        assert rows[0] == "R,lower,uR,upper"
        assert len(rows) == 3
        rep = json.loads((tmp_path / "out" / "reports" /
                          "growth_bounds.json").read_text())
        assert rep["passed"]

    def test_decay_experiment_artifacts(self, tmp_path):
        cfg = self.write_cfg(tmp_path, {
            "experiment": "decay",
            "domain": {"kind": "interval", "a": -1.0, "b": 1.0},
            "grid": {"h": 0.1, "T": 3.0, "time_levels": 61},
            "data": {"name": "eigen-profile",
                     "params": {"R": 1.0, "m": 1.0}},
            "solver": {"variable": "phi", "summarize_residual": False},
            "out_dir": str(tmp_path / "out")})
        assert cli.run(cfg) == 0
        run = json.loads((tmp_path / "out" / "reports" /
                          "solver_run.json").read_text())
        binding = run["binding"]
        assert binding["dt"] in run["dt_history"] and binding["t"] == 0.0
        assert binding["capped"] and not binding["irregular"]
        assert binding["boundary_distance"] == pytest.approx(0.1)
        hist = (tmp_path / "out" / "fields" / "decay_history.csv"
                ).read_text().splitlines()
        assert hist[0] == "t,sup_phi,log_sup_phi"
        assert len(hist) == 62
        rep = json.loads((tmp_path / "out" / "reports" /
                          "decay_rate.json").read_text())
        assert rep["passed"]
        assert abs(rep["details"]["slope"] - rep["details"]["target"]) \
            < 0.1 * abs(rep["details"]["target"])

    def test_full_suite_deterministic(self, tmp_path):
        cfg = self.write_cfg(tmp_path, {"experiment": "full-suite",
                                        "seed": 3})
        assert cli.run(cfg, out_dir=tmp_path / "a", seed=3) == 0
        assert cli.run(cfg, out_dir=tmp_path / "b", seed=3) == 0
        files_a = sorted(p.relative_to(tmp_path / "a")
                         for p in (tmp_path / "a").rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(tmp_path / "b")
                         for p in (tmp_path / "b").rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            if rel.name == "run_info.json":
                continue
            assert (tmp_path / "a" / rel).read_bytes() == \
                (tmp_path / "b" / rel).read_bytes(), rel

    def test_manifest_hashes_match_artifacts(self, tmp_path):
        cfg = self.write_cfg(tmp_path, {
            "experiment": "radial-oracle",
            "out_dir": str(tmp_path / "out")})
        assert cli.run(cfg) == 0
        import hashlib

        man = json.loads((tmp_path / "out" / "manifest.json").read_text())
        for rel, digest in man["artifact_sha256"].items():
            data = (tmp_path / "out" / rel).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest

    def test_cli_main_catalog(self, capsys):
        assert cli.main(["catalog"]) == 0
        out = capsys.readouterr().out
        assert "eigen-profile" in out
        assert "decaying-lateral" in out
