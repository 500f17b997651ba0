import csv
import json
from pathlib import Path

import numpy as np
import pytest
from rscontrol.cli import example_bond_config, main


def _write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True))
    return str(path)


def _toy_config(outdir, steps=12, scenarios=40, drift_level=None, k_const=10.0,
                quad=1.0, gx1=0.5, max_iter=10, seed=3):
    pts = np.linspace(-1.0, 1.0, 5)
    return {
        "schema": "rscontrol-scenario/1",
        "problem": {
            "kind": "canonical",
            "x0": 1.0,
            "y0": 1.0,
            "brownian_dim": 1,
            "action_grid": {"points": pts.tolist()},
            "coefficients": {
                "model": "deterministic-constant",
                "drift_level": (drift_level if drift_level is not None else pts.tolist()),
                "vol_level": [0.2],
            },
            "stock": {"inert": True},
            "running_cost": {"family": "affine_quadratic", "quad": quad},
            "terminal_cost": {"family": "linear_quadratic", "gx1": gx1},
            "singular_cost": {"constant": [k_const]},
            "tv_cap": 10.0,
        },
        "time": {"horizon": 1.0, "steps": steps},
        "scenarios": scenarios,
        "seed": seed,
        "optimizer": {"max_iter": max_iter},
        "output_dir": str(outdir),
    }


def _read_tree(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


class TestValidation:
    def test_missing_field(self, tmp_path):
        cfg = _toy_config(tmp_path / "out")
        del cfg["scenarios"]
        rc = main(["simulate", "--config", _write(tmp_path / "c.json", cfg)])
        assert rc == 2

    def test_unknown_key_rejected(self, tmp_path):
        cfg = _toy_config(tmp_path / "out")
        cfg["surprise"] = 1
        rc = main(["simulate", "--config", _write(tmp_path / "c.json", cfg)])
        assert rc == 2

    def test_bad_schema(self, tmp_path):
        cfg = _toy_config(tmp_path / "out")
        cfg["schema"] = "other/9"
        rc = main(["simulate", "--config", _write(tmp_path / "c.json", cfg)])
        assert rc == 2

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        assert main(["simulate", "--config", str(path)]) == 2

    def test_missing_file(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "absent.json")]) == 2

    @pytest.mark.parametrize("section, key, value", [
        ("time", "steps", 0),
        ("time", "horizon", -1.0),
        (None, "scenarios", "many"),
        ("optimizer", "max_iter", "x"),
        (None, "seed", -3),
        ("tolerances", "gap_se_multiplier", -1),
    ])
    def test_malformed_scalar(self, tmp_path, capsys, section, key, value):
        cfg = _toy_config(tmp_path / "out")
        (cfg.setdefault(section, {}) if section else cfg)[key] = value
        rc = main(["optimize", "--config", _write(tmp_path / "c.json", cfg)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error: ")

    def test_invalid_grid(self, tmp_path):
        cfg = _toy_config(tmp_path / "out")
        cfg["problem"]["action_grid"]["points"] = [1.0, 1.0]
        rc = main(["simulate", "--config", _write(tmp_path / "c.json", cfg)])
        assert rc == 2


class TestSimulate:
    def test_zero_coefficients_constant_paths(self, tmp_path):
        out = tmp_path / "out"
        cfg = _toy_config(out, drift_level=0.0)
        cfg["problem"]["coefficients"]["vol_level"] = [0.0]
        rc = main(["simulate", "--config", _write(tmp_path / "c.json", cfg),
                   "--no-timestamp"])
        assert rc == 0
        with open(out / "trajectories.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert all(float(r["x"]) == 1.0 for r in rows)
        moments = json.loads((out / "moments.json").read_text())
        assert not moments["exploded"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["scenarios"] == 40
        assert manifest["timestamp"] is None

    def test_explosion_exit_code(self, tmp_path):
        cfg = _toy_config(tmp_path / "out", drift_level=0.0)
        cfg["problem"]["x0"] = 1e308
        cfg["problem"]["coefficients"]["drift_level"] = 1e308
        rc = main(["simulate", "--config", _write(tmp_path / "c.json", cfg)])
        assert rc == 3

    def test_seed_override_changes_output(self, tmp_path):
        cfg = _toy_config(tmp_path / "out")
        path = _write(tmp_path / "c.json", cfg)
        main(["simulate", "--config", path, "--no-timestamp", "--out", str(tmp_path / "a")])
        main(["simulate", "--config", path, "--no-timestamp", "--out", str(tmp_path / "b"),
              "--seed", "99"])
        a = (tmp_path / "a" / "trajectories.csv").read_bytes()
        b = (tmp_path / "b" / "trajectories.csv").read_bytes()
        assert a != b


class TestOptimize:
    def test_toy_converges(self, tmp_path):
        out = tmp_path / "out"
        cfg = _toy_config(out, scenarios=300, max_iter=30)
        rc = main(["optimize", "--config", _write(tmp_path / "c.json", cfg),
                   "--no-timestamp"])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["converged"]
        assert report["passed"]
        controls = json.loads((out / "controls.json").read_text())
        weights = np.asarray(controls["relaxed_weights"])
        assert np.argmax(weights[0]) == 1  # grid point -0.5
        assert (out / "iterations.csv").exists()
        assert (out / "adjoints.csv").exists()

    def test_stdout_names_stop_reason(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = _toy_config(out)
        rc = main(["optimize", "--config", _write(tmp_path / "c.json", cfg),
                   "--no-timestamp"])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        line = capsys.readouterr().out.strip().splitlines()[-1]
        assert line.startswith(f"optimize: {report['convergence_reason']} after "
                               f"{report['iterations']} iterations")

    def test_max_iter_zero_reports_initial_state(self, tmp_path):
        out = tmp_path / "out"
        cfg = _toy_config(out, max_iter=0)
        rc = main(["optimize", "--config", _write(tmp_path / "c.json", cfg),
                   "--no-timestamp"])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["converged"] is False
        assert report["iterations"] == 0

    def test_large_singular_cost_keeps_xi_zero(self, tmp_path):
        out = tmp_path / "out"
        cfg = _toy_config(out, scenarios=200, k_const=100.0)
        rc = main(["optimize", "--config", _write(tmp_path / "c.json", cfg),
                   "--no-timestamp"])
        assert rc == 0
        controls = json.loads((out / "controls.json").read_text())
        assert np.all(np.asarray(controls["singular_increments"]) == 0.0)

    def test_large_singular_cost_finance_instance(self, tmp_path):
        out = tmp_path / "out"
        cfg = example_bond_config()
        cfg["output_dir"] = str(out)
        cfg["scenarios"] = 200
        cfg["time"]["steps"] = 20
        cfg["optimizer"]["max_iter"] = 6
        cfg["problem"]["singular_cost"] = {"constant": [100.0, 100.0]}
        rc = main(["optimize", "--config", _write(tmp_path / "c.json", cfg),
                   "--no-timestamp"])
        assert rc == 0
        controls = json.loads((out / "controls.json").read_text())
        assert np.all(np.asarray(controls["singular_increments"]) == 0.0)


class TestVerify:
    def _optimize_then(self, tmp_path, mutate=None):
        out = tmp_path / "out"
        cfg = _toy_config(out, scenarios=400, max_iter=30)
        cfg_path = _write(tmp_path / "c.json", cfg)
        assert main(["optimize", "--config", cfg_path, "--no-timestamp"]) == 0
        controls_path = out / "controls.json"
        if mutate is not None:
            doc = json.loads(controls_path.read_text())
            mutate(doc)
            controls_path = tmp_path / "mutated.json"
            controls_path.write_text(json.dumps(doc))
        return cfg_path, controls_path, tmp_path / "verify_out"

    def test_optimum_passes(self, tmp_path):
        cfg_path, controls_path, vout = self._optimize_then(tmp_path)
        rc = main(["verify", "--config", cfg_path, "--controls", str(controls_path),
                   "--out", str(vout), "--no-timestamp"])
        assert rc == 0
        report = json.loads((vout / "report.json").read_text())
        assert report["passed"]

    def test_perturbed_optimum_fails(self, tmp_path):
        def worsen(doc):
            w = np.asarray(doc["relaxed_weights"])
            w[:] = 0.0
            w[:, -1] = 1.0  # mass on the most expensive action
            doc["relaxed_weights"] = w.tolist()
        cfg_path, controls_path, vout = self._optimize_then(tmp_path, worsen)
        rc = main(["verify", "--config", cfg_path, "--controls", str(controls_path),
                   "--out", str(vout), "--no-timestamp"])
        assert rc == 1

    def test_malformed_controls(self, tmp_path):
        def corrupt(doc):
            doc["relaxed_weights"] = [[0.5, 0.6]]
        cfg_path, controls_path, vout = self._optimize_then(tmp_path, corrupt)
        rc = main(["verify", "--config", cfg_path, "--controls", str(controls_path),
                   "--out", str(vout), "--no-timestamp"])
        assert rc == 2

    def test_missing_controls_file(self, tmp_path):
        cfg = _toy_config(tmp_path / "out")
        rc = main(["verify", "--config", _write(tmp_path / "c.json", cfg),
                   "--controls", str(tmp_path / "absent.json")])
        assert rc == 2


class TestExampleBond:
    def test_packaged_scenario_matches_generator(self):
        packaged = json.loads(Path("scenarios/example_bond.json").read_text())
        assert packaged == example_bond_config()

    def test_writes_file(self, tmp_path):
        rc = main(["example-bond", "--out", str(tmp_path / "scen.json")])
        assert rc == 0
        doc = json.loads((tmp_path / "scen.json").read_text())
        assert doc["schema"] == "rscontrol-scenario/1"

    def test_example_bond_simulates_at_default_size(self, tmp_path):
        import time

        cfg = example_bond_config()
        cfg["output_dir"] = str(tmp_path / "out")
        started = time.perf_counter()
        rc = main(["simulate", "--config", _write(tmp_path / "c.json", cfg),
                   "--no-timestamp"])
        elapsed = time.perf_counter() - started
        assert rc == 0
        assert elapsed < 60.0
        assert (tmp_path / "out" / "trajectories.csv").exists()
        moments = json.loads((tmp_path / "out" / "moments.json").read_text())
        assert not moments["exploded"]
        assert "clamp_events" in moments


class TestReproducibility:
    def test_simulate_byte_identical(self, tmp_path):
        out = tmp_path / "out"
        cfg = _toy_config(out)
        path = _write(tmp_path / "c.json", cfg)
        assert main(["simulate", "--config", path, "--no-timestamp"]) == 0
        first = _read_tree(out)
        assert main(["simulate", "--config", path, "--no-timestamp"]) == 0
        assert _read_tree(out) == first

    def test_optimize_byte_identical(self, tmp_path):
        out = tmp_path / "out"
        cfg = _toy_config(out, scenarios=150, max_iter=8)
        path = _write(tmp_path / "c.json", cfg)
        assert main(["optimize", "--config", path, "--no-timestamp"]) == 0
        first = _read_tree(out)
        assert main(["optimize", "--config", path, "--no-timestamp"]) == 0
        assert _read_tree(out) == first
