import csv
import dataclasses
import io
import json
from pathlib import Path

import numpy as np
import pytest
import rscontrol as rc
from rscontrol.cli import (
    _SCHEMA,
    _build_problem,
    _Number,
    _Required,
    _validate,
    _write_npz,
    adjoints_to_csv,
    example_bond_config,
    main,
)
from rscontrol.measures import RelaxedControl, SingularControl, controls_to_json, load_controls
from rscontrol.finance import PortfolioParams
from rscontrol.optimizer import IterationRecord, OptimizerOptions


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


def _load_npz(path) -> dict:
    with np.load(path, allow_pickle=False) as tables:
        return {name: tables[name] for name in tables.files}


def _read_tree(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


class TestPathTables:
    """Exact bytes of the per-(scenario, step) tables on 2 scenarios x 2 steps,
    with values whose shortest round-trip text is easy to get wrong."""

    tg = rc.TimeGrid(0.2, 2)   # times 0.0, 0.1, 0.2

    def test_adjoints_bytes(self, tmp_path):
        adj = rc.AdjointSolution(
            px=np.array([[0.1, -2.5, 1e-05], [1e16, 0.30000000000000004, -2.5]]),
            Px=np.array([[[0.1, 1e-05], [-2.5, 1e16]], [[0.30000000000000004, 0.1], [1e-05, -2.5]]]),
            py=np.array([[1e-05, 0.1, 0.30000000000000004], [-2.5, 1e16, 0.1]]),
            Py=np.array([[[1e16, -2.5], [0.30000000000000004, 0.1]], [[1e-05, 1e16], [0.1, 0.30000000000000004]]]),
            method="regression",
        )
        adjoints_to_csv(adj, self.tg, tmp_path / "adjoints.csv")
        assert (tmp_path / "adjoints.csv").read_bytes() == (
            b"scenario,step,t,px,py,Px0,Px1,Py0,Py1\r\n"
            b"0,0,0.0,0.1,1e-05,0.1,1e-05,1e+16,-2.5\r\n"
            b"0,1,0.1,-2.5,0.1,-2.5,1e+16,0.30000000000000004,0.1\r\n"
            b"0,2,0.2,1e-05,0.30000000000000004,,,,\r\n"
            b"1,0,0.0,1e+16,-2.5,0.30000000000000004,0.1,1e-05,1e+16\r\n"
            b"1,1,0.1,0.30000000000000004,1e+16,1e-05,-2.5,0.1,0.30000000000000004\r\n"
            b"1,2,0.2,-2.5,0.1,,,,\r\n"
        )

    def test_npz_members_and_bits(self, tmp_path):
        """The CLI's binary tables: the documented members in order, float64
        values bit for bit (signed zero and the smallest subnormal included),
        and the same bytes on every write."""
        paths = [np.array([[0.1, -0.0, 5e-324], [1e16, 0.30000000000000004, 1e-05]]),
                 np.array([[5e-324, 0.1, 1e16], [-0.0, 1e-05, 0.30000000000000004]])]
        loads = [np.array([[[1e-05, -0.0], [1e16, 5e-324]], [[0.30000000000000004, 0.1],
                                                              [-2.5, 1e-05]]]),
                 np.array([[[-0.0, 1e16], [5e-324, 0.1]], [[1e-05, -2.5],
                                                          [0.30000000000000004, 1e16]]])]
        step_major = [np.asfortranarray(a) for a in paths + loads]   # as the CLI holds them
        tables = {
            "trajectories.npz": dict(zip(("x", "y", "dW"), step_major[:3])),
            "adjoints.npz": dict(zip(("px", "py", "Px", "Py"), step_major)),
        }
        for name, arrays in tables.items():
            _write_npz(tmp_path / name, self.tg, **arrays)
            first = (tmp_path / name).read_bytes()
            _write_npz(tmp_path / name, self.tg, **arrays)
            assert (tmp_path / name).read_bytes() == first
            loaded = _load_npz(tmp_path / name)
            assert list(loaded) == ["t", *arrays]
            for key, expected in {"t": self.tg.times(), **arrays}.items():
                assert loaded[key].dtype == np.float64
                assert loaded[key].shape == expected.shape
                assert np.array_equal(loaded[key], expected)
                assert np.array_equal(loaded[key].view(np.int64), expected.view(np.int64))

    # shortest round-trip texts that are easy to get wrong: signed zero, the
    # smallest subnormal, exponent switch-overs and a non-terminating sum
    SPECIAL = (-0.0, 5e-324, 1e16, 1e-05, 1e-04, 0.30000000000000004)

    @staticmethod
    def _values(rng, shape):
        """Random finite floats over the whole exponent range, one in four a
        special value."""
        values = rng.standard_normal(shape) * 10.0 ** rng.integers(-320, 300, shape)
        special = rng.random(shape) < 0.25
        values[special] = rng.choice(TestPathTables.SPECIAL, int(special.sum()))
        return values

    @staticmethod
    def _reference(tg, states, groups):
        """The table written cell by cell through ``csv.writer``."""
        buffer = io.StringIO(newline="")
        writer = csv.writer(buffer)
        writer.writerow(["scenario", "step", "t"] + [name for name, _ in states]
                        + [f"{name}{i}" for name, arr in groups for i in range(arr.shape[2])])
        times = tg.times()
        for s in range(states[0][1].shape[0]):
            for k in range(tg.steps + 1):
                row = [s, k, float(times[k])] + [float(arr[s, k]) for _, arr in states]
                for _, arr in groups:
                    row += ([float(v) for v in arr[s, k]] if k < tg.steps
                            else [""] * arr.shape[2])
                writer.writerow(row)
        return buffer.getvalue().encode()

    @pytest.mark.parametrize("scenarios, steps, dim, horizon", [
        (1, 7, 1, 0.7), (1, 1, 3, 1.0), (5, 1, 1, 0.3), (4, 9, 3, 2.5), (6, 13, 1, 1.0 / 3.0),
    ])
    def test_matches_csv_module_reference(self, tmp_path, scenarios, steps, dim, horizon):
        rng = np.random.default_rng(1000 * steps + dim)
        tg = rc.TimeGrid(horizon, steps)
        paths = {name: self._values(rng, (scenarios, steps + 1)) for name in ("px", "py")}
        loads = {name: self._values(rng, (scenarios, steps, dim)) for name in ("Px", "Py")}
        adj = rc.AdjointSolution(px=paths["px"], Px=loads["Px"], py=paths["py"], Py=loads["Py"],
                                 method="regression")
        adjoints_to_csv(adj, tg, tmp_path / "adjoints.csv")
        assert (tmp_path / "adjoints.csv").read_bytes() == self._reference(
            tg, (("px", paths["px"]), ("py", paths["py"])),
            (("Px", loads["Px"]), ("Py", loads["Py"])))


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

    def test_missing_file(self, tmp_path, capsys):
        # an absent path, a directory and a file that is not UTF-8
        (tmp_path / "latin1.json").write_bytes(b'{"schema": "\xe9"}')
        for name in ("absent.json", ".", "latin1.json"):
            code = main(["simulate", "--config", str(tmp_path / name), "--out", str(tmp_path / "mf")])
            assert code == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and "Traceback" not in err
            assert not (tmp_path / "mf").exists()

    @pytest.mark.parametrize("section, key, value", [
        ("time", "steps", 0),
        ("time", "horizon", -1.0),
        (None, "scenarios", "many"),
        ("optimizer", "max_iter", "x"),
        (None, "seed", -3),
        ("optimizer", "phi_check_every", 1),
        ("optimizer", "singular_rate", 1.0),
        ("optimizer", "armijo_c1", 1e-4),
        ("optimizer", "gap_tol", None),
        ("optimizer", "gap_floor", 1e-10),
        (None, "tolerances", {"gap_se_multiplier": 3.0}),
        (None, "moment_order", 2.0),
        # numbers beyond float range, and noise arrays beyond the address space
        pytest.param("time", "horizon", 10**400, id="time-horizon-beyond-float"),
        pytest.param("problem", "x0", 10**400, id="problem-x0-beyond-float"),
        pytest.param("problem", "tv_cap", -10**400, id="problem-tv_cap-beyond-float"),
        pytest.param(None, "scenarios", 10**19, id="scenarios-1e19"),
        pytest.param(None, "scenarios", 2**62, id="scenarios-2**62"),
        pytest.param(None, "scenarios", 1e20, id="scenarios-1e20-float"),
    ])
    def test_malformed_scalar(self, tmp_path, capsys, section, key, value):
        cfg = _toy_config(tmp_path / "out")
        (cfg.setdefault(section, {}) if section else cfg)[key] = value
        rc = main(["optimize", "--config", _write(tmp_path / "c.json", cfg)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and key in err

    @pytest.mark.parametrize("command", ["simulate", "optimize"])
    @pytest.mark.parametrize("kind, path, value, named", [
        ("finance", "time.horizon", 10**400, "time.horizon"),
        ("finance", "problem.x0", 10**400, "problem.x0"),
        ("finance", "problem.tv_cap", 10**400, "problem.tv_cap"),
        ("finance", "problem.stock_vol", 10**400, "problem.stock_vol"),
        ("finance", "problem.discount", -10**400, "problem.discount"),
        ("finance", "scenarios", 10**19, "scenarios"),
        ("finance", "scenarios", 2**62, "scenarios"),
        ("finance", "scenarios", 1e20, "scenarios"),
        ("finance", "problem.singular_cost.constant", [10**400, 0.0], "singular cost"),
        ("finance", "problem.market.maturities", [1.0, 10**400], "maturities"),
        ("finance", "problem.market.short_rate", {"kind": "tabulated", "values": [10**400]},
         "short_rate"),
        ("canonical", "problem.coefficients.drift_level", [10**400] * 5, "drift_level"),
        ("canonical", "problem.running_cost.lin", [10**400], "running_cost"),
        ("canonical", "problem.action_grid.points", [0.0, 10**400], "grid points"),
        ("canonical", "controls.relaxed", {"weights": [[10**400] * 5] * 12}, "weights"),
    ], ids=lambda v: v if isinstance(v, str) else str(v)[:10])
    def test_unrepresentable_number(self, tmp_path, capsys, command, kind, path, value, named):
        # a number no float holds, or noise no array index can address, is
        # refused before anything is allocated, with one config error line
        cfg = _toy_config(tmp_path / "out")
        if kind == "finance":
            cfg = {**example_bond_config(), "scenarios": 20, "output_dir": str(tmp_path / "out")}
        *sections, key = path.split(".")
        block = cfg
        for section in sections:
            block = block.setdefault(section, {})
        block[key] = value
        assert main([command, "--config", _write(tmp_path / "c.json", cfg)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: ") and named in lines[0]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("threads", [0, -1])
    def test_threads_below_one(self, tmp_path, capsys, threads):
        cfg = _toy_config(tmp_path / "out")
        rc = main(["simulate", "--config", _write(tmp_path / "c.json", cfg),
                   "--threads", str(threads)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize("mutate, member", [
        (lambda doc: [], "object"),
        (lambda doc: {**doc, "grid": None}, "grid"),
        (lambda doc: {**doc, "horizon": None}, "horizon"),
        (lambda doc: {key: value for key, value in doc.items() if key != "relaxed_weights"},
         "relaxed_weights"),
        (lambda doc: {**doc, "tv_cap": "x"}, "tv_cap"),
    ], ids=["top-level-list", "null-grid", "null-horizon", "no-relaxed-weights", "text-tv-cap"])
    def test_malformed_controls_document(self, tmp_path, capsys, mutate, member):
        cfg = _toy_config(tmp_path / "out")
        problem_grid = rc.ActionGrid(np.asarray(cfg["problem"]["action_grid"]["points"]))
        steps = cfg["time"]["steps"]
        doc = controls_to_json(problem_grid, RelaxedControl.uniform(steps, problem_grid.count),
                               SingularControl.zero(steps, 1), cfg["time"]["horizon"])
        controls = _write(tmp_path / "controls.json", mutate(doc))
        code = main(["verify", "--config", _write(tmp_path / "c.json", cfg),
                     "--controls", controls])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error: malformed controls file" in err and member in err

    @pytest.mark.parametrize("target, key", [
        ("controls", "horizon"),
        ("controls", "tv_cap"),
        ("config", "tv_cap"),
    ])
    def test_nan_horizon_or_cap(self, tmp_path, capsys, target, key):
        cfg = _toy_config(tmp_path / "out")
        grid = rc.ActionGrid(np.asarray(cfg["problem"]["action_grid"]["points"]))
        steps = cfg["time"]["steps"]
        doc = controls_to_json(grid, RelaxedControl.uniform(steps, grid.count),
                               SingularControl.zero(steps, 1), cfg["time"]["horizon"])
        (doc if target == "controls" else cfg["problem"])[key] = float("nan")
        code = main(["verify", "--config", _write(tmp_path / "c.json", cfg),
                     "--controls", _write(tmp_path / "controls.json", doc)])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize("command", ["simulate", "optimize", "verify"])
    @pytest.mark.parametrize("key, value", [
        ("model", "bogus"),
        ("model", "finance"),
        ("drift_level", [0.0, 1.0]),
        ("drift_level", [0.0, float("nan"), 0.0, 0.0, 0.0]),
        ("dim", 3),
    ], ids=["unknown-model", "finance-model", "short-table", "nan-entry", "dim-mismatch"])
    def test_malformed_coefficients(self, tmp_path, capsys, command, key, value):
        cfg = _toy_config(tmp_path / "out")
        cfg["problem"]["coefficients"][key] = value
        argv = [command, "--config", _write(tmp_path / "c.json", cfg)]
        if command == "verify":
            argv += ["--controls", str(tmp_path / "absent.json")]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("config error: problem")

    @pytest.mark.parametrize("command", ["simulate", "optimize"])
    @pytest.mark.parametrize("key, value", [
        ("short_rate", {"kind": "vasicek", "r0": 0.03}),
        ("short_rate", {"kind": "ou", "r0": 0.03, "speed": "x"}),
        ("short_rate", {"kind": "tabulated", "values": [0.03] * 7}),
        ("short_rate", {"kind": "tabulated", "values": [[0.03] * 10] * 3}),
        ("market_price_of_risk", {"kind": "bogus"}),
        ("clamp_quantile", "x"),
        ("clamp_quantile", 0.7),
        ("maturities", [-1.0, 2.0, 5.0]),
        ("maturities", [5.0, 2.0, 1.0]),
        ("consumption", [-0.05, 0.0, 0.1]),
        ("maturities", "a"),
    ], ids=["rate-kind", "ou-speed", "rate-table-length", "rate-table-rows", "mpr-kind",
            "clamp-text", "clamp-above-half", "negative-maturity", "unsorted-maturities",
            "negative-consumption-sqrt", "text-maturities"])
    def test_malformed_market(self, tmp_path, capsys, command, key, value):
        cfg = example_bond_config()
        cfg.update(scenarios=20, output_dir=str(tmp_path / "out"), optimizer={"max_iter": 1})
        cfg["time"]["steps"] = 10
        cfg["problem"]["market"][key] = value
        assert main([command, "--config", _write(tmp_path / "c.json", cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and key in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("case", ["controls-file-weight", "controls-block-weight",
                                      "grid-point", "grid-box", "x0", "y0"])
    def test_nan_input(self, tmp_path, capsys, case):
        # each is rejected before the output directory is made
        cfg = _toy_config(tmp_path / "out")
        steps = cfg["time"]["steps"]
        weights = np.full((steps, 5), 0.2)
        weights[3, 1] = float("nan")
        argv = ["simulate"]
        if case == "controls-file-weight":
            doc = controls_to_json(rc.ActionGrid(np.linspace(-1.0, 1.0, 5)),
                                   RelaxedControl.uniform(steps, 5), SingularControl.zero(steps, 1),
                                   cfg["time"]["horizon"])
            doc["relaxed_weights"] = weights.tolist()
            argv = ["verify", "--controls", _write(tmp_path / "controls.json", doc)]
        elif case == "controls-block-weight":
            cfg["controls"] = {"relaxed": {"weights": weights.tolist()}}
        elif case == "grid-point":
            cfg["problem"]["action_grid"]["points"][2] = float("nan")
        elif case == "grid-box":
            cfg["problem"]["action_grid"]["box_lo"] = [float("nan")]
        else:
            cfg["problem"][case] = float("nan")
        assert main(argv + ["--config", _write(tmp_path / "c.json", cfg)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind, path, value", [
        ("canonical", "stock.drift", "abc"), ("canonical", "stock.vol", [1, 2]),
        ("canonical", "running_cost.cx", "a"), ("canonical", "running_cost.quad", None),
        ("canonical", "running_cost.lin", [1, 2]), ("canonical", "terminal_cost.gx1", [1, 2]),
        ("canonical", "brownian_dim", 1.5), ("canonical", "brownian_dim", "1"),
        ("canonical", "stock.component", "0"), ("canonical", "stock.component", 0.5),
        ("canonical", "x0", True), ("finance", "stock_drift", "a"),
        ("finance", "terminal_cost.weight", "a"), ("finance", "stock_vol", [1]),
        ("canonical", "", []), ("canonical", "action_grid.box_lo", "a"),
    ])
    def test_malformed_problem(self, tmp_path, capsys, kind, path, value):
        # each exits 2 before the output directory is made, without a traceback
        cfg = _toy_config(tmp_path / "out")
        cfg["problem"]["stock"] = {"drift": 0.05, "vol": 0.2}
        if kind == "finance":
            cfg = {**example_bond_config(), "scenarios": 20, "output_dir": str(tmp_path / "out")}
        *sections, key = ["problem", *filter(None, path.split("."))]
        block = cfg
        for section in sections:
            block = block[section]
        block[key] = value
        assert main(["simulate", "--config", _write(tmp_path / "c.json", cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "Traceback" not in err
        assert key in err
        assert not (tmp_path / "out").exists()

    def test_invalid_grid(self, tmp_path):
        cfg = _toy_config(tmp_path / "out")
        cfg["problem"]["action_grid"]["points"] = [1.0, 1.0]
        rc = main(["simulate", "--config", _write(tmp_path / "c.json", cfg)])
        assert rc == 2

    @pytest.mark.parametrize("command", ["simulate", "optimize", "verify"])
    @pytest.mark.parametrize("case", ["out-is-a-file", "non-string-output-dir"])
    def test_bad_output_path(self, tmp_path, capsys, command, case):
        cfg = _toy_config(tmp_path / "out")
        argv = [command]
        if case == "out-is-a-file":
            taken = tmp_path / "taken"
            taken.write_text("not a directory")
            argv += ["--out", str(taken)]
        else:
            cfg["output_dir"] = 5
        if command == "verify":
            grid = rc.ActionGrid(np.asarray(cfg["problem"]["action_grid"]["points"]))
            steps = cfg["time"]["steps"]
            doc = controls_to_json(grid, RelaxedControl.uniform(steps, grid.count),
                                   SingularControl.zero(steps, 1), cfg["time"]["horizon"])
            argv += ["--controls", _write(tmp_path / "controls.json", doc)]
        assert main(argv + ["--config", _write(tmp_path / "c.json", cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert "output" in err
        assert "Traceback" not in err


def _schema_cases():
    """(kind, dotted path, wrong value) for each typed leaf and each block of
    the config schema, under both problem kinds; top-level paths once."""
    def walk(entry, path):
        spec = entry.spec if isinstance(entry, _Required) else entry
        if isinstance(spec, dict):
            if path:
                yield path, []
            for key, item in spec.items():
                yield from walk(item, f"{path}.{key}" if path else key)
        elif isinstance(spec, tuple):
            yield path, []
        elif isinstance(spec, _Number):
            yield path, "a"
        elif spec is not None:
            yield path, {bool: "yes", str: 1}[spec]

    for kind, block in _SCHEMA["problem"].spec.blocks.items():
        for path, value in walk({**_SCHEMA, "problem": block}, ""):
            if kind == "canonical" or path.split(".")[0] == "problem":
                yield kind, path, value


class TestSchema:
    @pytest.mark.parametrize("kind, path, value", list(_schema_cases()), ids=str)
    def test_wrong_type_names_its_path(self, tmp_path, capsys, kind, path, value):
        cfg = _toy_config(tmp_path / "out")
        if kind == "finance":
            cfg = {**example_bond_config(), "scenarios": 20, "output_dir": str(tmp_path / "out")}
        *sections, key = path.split(".")
        block = cfg
        for section in sections:
            block = block.setdefault(section, {})
        block[key] = value
        assert main(["simulate", "--config", _write(tmp_path / "c.json", cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and path in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_schema_declares_every_option(self, tmp_path):
        def fields(cls):
            return {field.name for field in dataclasses.fields(cls)}

        finance = _SCHEMA["problem"].spec.blocks["finance"]
        assert set(_SCHEMA["optimizer"]) == fields(OptimizerOptions)
        assert (set(finance) - {"kind", "market", "terminal_cost", "singular_cost"}
                == fields(PortfolioParams) - {"terminal_weight", "terminal_scale"})
        for cfg in (json.loads(Path("scenarios/example_bond.json").read_text()),
                    _toy_config(tmp_path / "out")):
            _validate(cfg, _SCHEMA, "")


class TestSimulate:
    def test_zero_coefficients_constant_paths(self, tmp_path):
        out = tmp_path / "out"
        cfg = _toy_config(out, drift_level=0.0)
        cfg["problem"]["coefficients"]["vol_level"] = [0.0]
        rc = main(["simulate", "--config", _write(tmp_path / "c.json", cfg),
                   "--no-timestamp"])
        assert rc == 0
        tables = _load_npz(out / "trajectories.npz")
        assert list(tables) == ["t", "x", "y", "dW"]
        assert tables["x"].shape == (40, 13) and tables["dW"].shape == (40, 12, 1)
        assert np.all(tables["x"] == 1.0)
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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_cost_is_strict_json(self, tmp_path):
        # every cost sample is finite but their mean overflows
        out = tmp_path / "out"
        cfg = _toy_config(out)
        cfg["problem"]["terminal_cost"]["gx2"] = 1e308
        assert main(["simulate", "--config", _write(tmp_path / "c.json", cfg)]) == 0

        def refuse(constant):
            raise ValueError(f"cost.json holds {constant}")

        cost = json.loads((out / "cost.json").read_text(), parse_constant=refuse)
        assert cost["value"] is None and cost["excluded"] == 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_every_cost_sample_non_finite_exit_code(self, tmp_path, capsys):
        # each terminal cost overflows, so no sample is left to average
        cfg = _toy_config(tmp_path / "out")
        cfg["problem"]["x0"] = 10.0
        cfg["problem"]["terminal_cost"]["gx2"] = 1e308
        assert main(["simulate", "--config", _write(tmp_path / "c.json", cfg)]) == 3
        lines = capsys.readouterr().err.splitlines()
        assert lines == ["numeric error: every cost sample is non-finite"]
        assert not (tmp_path / "out" / "manifest.json").exists()

    @pytest.mark.parametrize("command", ["simulate", "optimize"])
    def test_zero_running_cost(self, tmp_path, command):
        out = tmp_path / "out"
        cfg = _toy_config(out, max_iter=2)
        cfg["problem"]["running_cost"] = {"family": "zero"}
        tg = rc.TimeGrid(cfg["time"]["horizon"], cfg["time"]["steps"])
        running = _build_problem(cfg, tg).running
        assert running.dx is None and running.dy is None
        assert main([command, "--config", _write(tmp_path / "c.json", cfg), "--no-timestamp"]) == 0
        if command == "simulate":   # no control: the cost is the mean terminal cost 0.5 x_T
            x = _load_npz(out / "trajectories.npz")["x"]
            cost = json.loads((out / "cost.json").read_text())
            assert cost["value"] == pytest.approx(0.5 * x[:, -1].mean(), rel=1e-12)
        else:
            assert json.loads((out / "report.json").read_text())["iterations"] >= 1

    def test_config_singular_increments(self, tmp_path, capsys):
        cfg = _toy_config(tmp_path / "zero")
        cfg["problem"]["coefficients"]["jump_gain_x"] = [1.0]
        steps = cfg["time"]["steps"]
        assert main(["simulate", "--config", _write(tmp_path / "zero.json", cfg)]) == 0
        increments = np.zeros((steps, 1))
        increments[5] = 0.5
        cfg.update(controls={"singular": {"increments": increments.tolist()}},
                   output_dir=str(tmp_path / "jump"))
        assert main(["simulate", "--config", _write(tmp_path / "jump.json", cfg)]) == 0
        x0, x1 = (_load_npz(tmp_path / name / "trajectories.npz")["x"] for name in ("zero", "jump"))
        assert np.array_equal(x1[:, :6], x0[:, :6])
        assert np.allclose(x1[:, 6:] - x0[:, 6:], 0.5, rtol=0.0, atol=1e-12)
        # one row per step, or the config is refused
        cfg["controls"]["singular"]["increments"] = np.zeros((steps + 1, 1)).tolist()
        cfg["output_dir"] = str(tmp_path / "bad")
        assert main(["simulate", "--config", _write(tmp_path / "bad.json", cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: controls: singular control does not match")
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize("utility, code", [("log1p", 0), ("cubic", 2)])
    def test_finance_utility(self, tmp_path, capsys, utility, code):
        out = tmp_path / "out"
        cfg = {**example_bond_config(), "scenarios": 20, "output_dir": str(out)}
        cfg["problem"]["utility"] = utility
        assert main(["simulate", "--config", _write(tmp_path / "c.json", cfg)]) == code
        err = capsys.readouterr().err
        if code:
            assert err.startswith("config error: ") and "'cubic'" in err
            assert not out.exists()
        else:
            assert err == "" and json.loads((out / "cost.json").read_text())["value"] < 0.0

    def test_seed_override_changes_output(self, tmp_path):
        cfg = _toy_config(tmp_path / "out")
        path = _write(tmp_path / "c.json", cfg)
        main(["simulate", "--config", path, "--no-timestamp", "--out", str(tmp_path / "a")])
        main(["simulate", "--config", path, "--no-timestamp", "--out", str(tmp_path / "b"),
              "--seed", "99"])
        a = (tmp_path / "a" / "trajectories.npz").read_bytes()
        b = (tmp_path / "b" / "trajectories.npz").read_bytes()
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
        with open(out / "iterations.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all(int(row["halvings"]) >= 0 for row in rows)
        assert list(rows[0]) == [field.name for field in dataclasses.fields(IterationRecord)]
        assert (out / "adjoints.npz").exists()

    def test_adjoints_npz_round_trips_to_csv(self, tmp_path):
        # the binary table loses nothing: loaded back into an AdjointSolution,
        # it writes the CSV the library solver's own solution writes
        out = tmp_path / "out"
        cfg = _toy_config(out, scenarios=60, max_iter=3)
        assert main(["optimize", "--config", _write(tmp_path / "c.json", cfg),
                     "--no-timestamp"]) == 0
        tables = _load_npz(out / "adjoints.npz")
        assert list(tables) == ["t", "px", "py", "Px", "Py"]
        tg = rc.TimeGrid(cfg["time"]["horizon"], cfg["time"]["steps"])
        assert np.array_equal(tables["t"], tg.times())
        loaded = rc.AdjointSolution(px=tables["px"], Px=tables["Px"], py=tables["py"],
                                    Py=tables["Py"], method="regression")
        problem = _build_problem(cfg, tg)
        _, mu, xi, _ = load_controls(out / "controls.json")
        noise = problem.noise(cfg["scenarios"], cfg["seed"])
        field = problem.sample_field(cfg["scenarios"], cfg["seed"], noise)
        bundle = problem.simulate(field, mu, xi, noise)
        options = OptimizerOptions()
        direct = rc.solve_adjoint_regression(field, mu, bundle, problem.running,
                                             problem.terminal, problem.stock,
                                             options.adjoint_degree, options.ridge)
        adjoints_to_csv(loaded, tg, tmp_path / "loaded.csv")
        adjoints_to_csv(direct, tg, tmp_path / "direct.csv")
        assert (tmp_path / "loaded.csv").read_bytes() == (tmp_path / "direct.csv").read_bytes()

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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_adjoint_overflow_exit_code(self, tmp_path, capsys):
        cfg = _toy_config(tmp_path / "out")
        cfg["problem"]["terminal_cost"]["gx2"] = 1e308
        assert main(["optimize", "--config", _write(tmp_path / "c.json", cfg)]) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numeric error: ")
        assert not (tmp_path / "out" / "manifest.json").exists()

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
        assert main(["optimize", "--config", _write(tmp_path / "c.json", cfg),
                     "--no-timestamp"]) == 0
        controls = json.loads((out / "controls.json").read_text())
        assert np.all(np.asarray(controls["singular_increments"]) == 0.0)
        # a scalar `constant` and a (dim,) `values` row build the same cost path
        tg = rc.TimeGrid(cfg["time"]["horizon"], cfg["time"]["steps"])
        k_path = _build_problem(cfg, tg).k_path
        for spec in ({"constant": 100.0}, {"values": [100.0]}):
            cfg["problem"]["singular_cost"] = spec
            assert np.array_equal(_build_problem(cfg, tg).k_path, k_path)

    def test_large_singular_cost_finance_instance(self, tmp_path):
        out = tmp_path / "out"
        cfg = example_bond_config()
        cfg["output_dir"] = str(out)
        cfg["scenarios"] = 200
        cfg["time"]["steps"] = 20
        cfg["optimizer"]["max_iter"] = 6
        cfg["problem"]["singular_cost"] = {"constant": [100.0, 100.0]}
        cfg["problem"]["market"]["clamp_quantile"] = 0.01
        path = _write(tmp_path / "c.json", cfg)
        rc = main(["optimize", "--config", path, "--no-timestamp"])
        assert rc == 0
        controls = json.loads((out / "controls.json").read_text())
        assert np.all(np.asarray(controls["singular_increments"]) == 0.0)
        # both reports count the rate-clamp events of the field they ran on
        vout = tmp_path / "verify"
        main(["verify", "--config", path, "--controls", str(out / "controls.json"),
              "--out", str(vout), "--no-timestamp"])
        clamped = [json.loads((d / "report.json").read_text())["clamp_events"] for d in (out, vout)]
        assert clamped[0] == clamped[1] > 0


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

    def test_uses_configured_regression(self, tmp_path):
        # verify solves the adjoint with the optimizer's degree and ridge, so
        # it writes the same costates as optimize for the same controls
        out = tmp_path / "out"
        cfg = _toy_config(out, scenarios=200, max_iter=3)
        cfg["optimizer"]["adjoint_degree"] = 1
        cfg_path = _write(tmp_path / "c.json", cfg)
        assert main(["optimize", "--config", cfg_path, "--no-timestamp"]) == 0
        vout = tmp_path / "verify_out"
        main(["verify", "--config", cfg_path, "--controls", str(out / "controls.json"),
              "--out", str(vout), "--no-timestamp"])
        assert (vout / "adjoints.npz").read_bytes() == (out / "adjoints.npz").read_bytes()

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

    def test_controls_file_grid_must_match(self, tmp_path, capsys):
        cfg = _toy_config(tmp_path / "out")
        steps = cfg["time"]["steps"]
        shifted = rc.ActionGrid(np.asarray(cfg["problem"]["action_grid"]["points"]) + 0.25)
        doc = controls_to_json(shifted, RelaxedControl.uniform(steps, shifted.count),
                               SingularControl.zero(steps, 1), cfg["time"]["horizon"])
        code = main(["verify", "--config", _write(tmp_path / "c.json", cfg),
                     "--controls", _write(tmp_path / "controls.json", doc)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "config error: controls file grid does not match the scenario action grid\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case", ["missing", "mismatched", "directory"])
    def test_bad_controls_file_creates_no_output(self, tmp_path, capsys, case):
        cfg = _toy_config(tmp_path / "out")
        controls = tmp_path / "controls.json"
        if case == "directory":
            controls.mkdir()
        if case == "mismatched":   # one step more than the scenario's time grid
            grid = rc.ActionGrid(np.asarray(cfg["problem"]["action_grid"]["points"]))
            steps = cfg["time"]["steps"] + 1
            _write(controls, controls_to_json(grid, RelaxedControl.uniform(steps, grid.count),
                                              SingularControl.zero(steps, 1),
                                              cfg["time"]["horizon"]))
        code = main(["verify", "--config", _write(tmp_path / "c.json", cfg),
                     "--controls", str(controls), "--out", str(tmp_path / "mf")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "Traceback" not in err
        assert not (tmp_path / "mf").exists()


class TestExampleBond:
    def test_packaged_scenario_matches_generator(self):
        packaged = json.loads(Path("scenarios/example_bond.json").read_text())
        assert packaged == example_bond_config()

    def test_writes_file(self, tmp_path):
        rc = main(["example-bond", "--out", str(tmp_path / "scen.json")])
        assert rc == 0
        doc = json.loads((tmp_path / "scen.json").read_text())
        assert doc["schema"] == "rscontrol-scenario/1"

    def test_unwritable_out(self, tmp_path, capsys):
        # the parent of the output file is a regular file
        (tmp_path / "f").write_text("")
        assert main(["example-bond", "--out", str(tmp_path / "f" / "scen.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "Traceback" not in err
        assert (tmp_path / "f").is_file()

    @pytest.mark.parametrize("flag", [["--threads", "0"], ["--seed", "3"], ["--no-timestamp"]])
    def test_takes_only_out(self, tmp_path, flag):
        with pytest.raises(SystemExit) as exc:
            main(["example-bond", "--out", str(tmp_path / "scen.json")] + flag)
        assert exc.value.code == 2
        assert not (tmp_path / "scen.json").exists()

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
        assert (tmp_path / "out" / "trajectories.npz").exists()
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
