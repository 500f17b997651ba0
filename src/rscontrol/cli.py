"""Command-line front end: simulate, optimize and verify scenario configs.

Configs are strict JSON documents, checked against ``_SCHEMA`` before anything
is built; every run that exits 0 or 1 writes, as its last file, a manifest
echoing the fully resolved config.  With ``--no-timestamp`` repeated runs
produce byte-identical outputs.

Exit codes: 0 success (verify: conditions pass), 1 verify failure, 2 invalid
config or controls (a run too large for memory included), 3 numeric overflow
(a simulated path, the adjoint or every cost sample non-finite).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime
import functools
import json
import math
import reprlib
import shutil
import sys
from dataclasses import MISSING, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .adjoint import solve_adjoint_regression
from .dynamics import (
    COEFFICIENT_TABLES,
    NonFiniteStateError,
    TimeGrid,
    inert_stock,
    linear_stock,
    moment_diagnostics,
    sample_coefficients,
)
from .finance import MarketModel, PortfolioParams, build_portfolio_problem
from .maxprinciple import check_max_principle
from .measures import (
    DEFAULT_TV_CAP,
    ActionGrid,
    RelaxedControl,
    SingularControl,
    load_controls,
    save_controls,
)
from .optimizer import IterationRecord, OptimizerOptions, evaluate_cost, optimize_problem
from .problems import (
    ControlProblem,
    affine_quadratic_running,
    linear_quadratic_terminal,
    tanh_wealth_terminal,
    zero_running,
)

SCENARIO_SCHEMA = "rscontrol-scenario/1"
MANIFEST_SCHEMA = "rscontrol-manifest/1"


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class _Number:
    """A JSON number in [low, high] (inclusive), integral if ``integer``."""

    low: float = -math.inf
    high: float = math.inf
    integer: bool = False


@dataclass(frozen=True)
class _Required:
    spec: object


@dataclass(frozen=True)
class _ByKind:
    """An object whose ``kind`` names the block of ``blocks`` it must match."""

    blocks: dict


# The config schema, walked by ``_validate`` before anything is built.  A
# block is a dict of key -> spec, its required keys wrapped in ``_Required``.
# A spec is a block, a ``_ByKind``, a ``_Number``, ``bool`` or ``str`` (that
# JSON type), a tuple (one of its strings, or an object matching the block
# among them), or None: checked by the object built from it (tables, point
# lists, market generators).
_REAL = _Number()
_TERMINAL = {"family": _Required(("linear_quadratic", "tanh_wealth")),
             **dict.fromkeys(("gx1", "gx2", "gy1", "gy2", "gxy", "weight", "scale"), _REAL)}
_PROBLEM = {"kind": _Required(str), "x0": _Required(_REAL), "y0": _Required(_REAL),
            "singular_cost": {"constant": None, "values": None}, "tv_cap": _Number(0.0)}
_SCHEMA = {
    "schema": _Required((SCENARIO_SCHEMA,)),
    "problem": _Required(_ByKind({
        "canonical": {
            **_PROBLEM,
            "brownian_dim": _Required(_Number(1, integer=True)),
            "action_grid": _Required({"points": _Required(None), "box_lo": None, "box_hi": None}),
            "coefficients": _Required({
                "model": _Required(("deterministic-constant", "tabulated")),
                "dim": _Number(1, integer=True), **dict.fromkeys(COEFFICIENT_TABLES)}),
            "stock": {"drift": _REAL, "vol": _REAL, "component": _Number(0, integer=True),
                      "inert": bool},
            "running_cost": _Required({"family": _Required(("zero", "affine_quadratic")),
                                       "cx": _REAL, "cy": _REAL, "quad": _REAL, "lin": None}),
            "terminal_cost": _Required(_TERMINAL),
        },
        "finance": {
            **_PROBLEM,
            "market": _Required({  # required: the fields of MarketModel without a default
                field.name: _Required(None) if field.default is field.default_factory is MISSING
                else None for field in dataclasses.fields(MarketModel)}),
            "stock_drift": _REAL, "stock_vol": _REAL,
            "cost_buy": _Number(0.0, 1.0), "cost_sell": _Number(0.0, 1.0),
            "discount": _REAL, "utility": str, "utility_sign": _REAL,
            "terminal_cost": _TERMINAL,
        },
    })),
    "time": _Required({"horizon": _Required(_Number(0.0)),
                       "steps": _Required(_Number(1, integer=True))}),
    "scenarios": _Required(_Number(1, integer=True)),
    "seed": _Required(_Number(0, integer=True)),
    "controls": {"relaxed": ("uniform", {"weights": _Required(None)}),
                 "singular": ("zero", {"increments": _Required(None)})},
    "optimizer": {**dict.fromkeys(("max_iter", "max_halvings"), _Number(0, integer=True)),
                  "adjoint_degree": _Number(0, 2, integer=True), "ridge": _Number(0.0)},
    "output_dir": _Required(str),
}


def _validate(value, spec, path: str) -> None:
    """Raise ConfigError, naming the dotted path of the fault, unless ``value``
    matches ``spec`` (see ``_SCHEMA``); ``path`` is empty for the whole config."""
    if isinstance(spec, _Number):
        number = (not isinstance(value, bool) and isinstance(value, (int, float))
                  and abs(value) <= sys.float_info.max   # converts to a finite float
                  and (float(value).is_integer() or not spec.integer))
        if not (number and spec.low <= value <= spec.high):
            kind = "an integer" if spec.integer else "a number"
            raise ConfigError(f"{path} must be {kind} in [{spec.low}, {spec.high}], "
                              f"got {reprlib.repr(value)}")
    elif spec is bool or spec is str:
        if not isinstance(value, spec):
            kind = "true or false" if spec is bool else "a string"
            raise ConfigError(f"{path} must be {kind}, got {reprlib.repr(value)}")
    elif isinstance(spec, tuple):
        block = next((alt for alt in spec if isinstance(alt, dict)), None)
        if isinstance(value, dict) and block is not None:
            _validate(value, block, path)
        elif not (isinstance(value, str) and value in spec):
            choices = " or ".join(repr(alt) if isinstance(alt, str) else "an object" for alt in spec)
            raise ConfigError(f"{path} must be {choices}, got {reprlib.repr(value)}")
    elif spec is not None:   # a block, or a _ByKind
        if not isinstance(value, dict):
            raise ConfigError(f"{path or 'config'} must be an object, got {reprlib.repr(value)}")
        if isinstance(spec, _ByKind):
            _validate(value.get("kind"), tuple(spec.blocks), f"{path}.kind")
            spec = spec.blocks[value["kind"]]
        unknown = sorted(set(value) - set(spec))
        if unknown:
            raise ConfigError(f"{path or 'config'}: unknown keys {unknown}")
        missing = sorted(key for key, entry in spec.items()
                         if isinstance(entry, _Required) and key not in value)
        if missing:
            raise ConfigError(f"{path or 'config'}: missing required keys {missing}")
        for key, item in value.items():
            entry = spec[key]
            _validate(item, entry.spec if isinstance(entry, _Required) else entry,
                      f"{path}.{key}" if path else key)


def _build_running(spec: dict):
    if spec["family"] == "zero":
        return zero_running()
    return affine_quadratic_running(**{key: spec[key] for key in spec.keys() - {"family"}})


def _build_terminal(spec: dict):
    if spec["family"] == "tanh_wealth":
        return tanh_wealth_terminal(spec.get("weight", 1.0), spec.get("scale", 1.0))
    return linear_quadratic_terminal(**{key: spec[key] for key in
                                        spec.keys() & {"gx1", "gx2", "gy1", "gy2", "gxy"}})


def _build_problem(cfg: dict, tg: TimeGrid) -> ControlProblem:
    """The config's problem; ``cfg`` has passed ``_validate``."""
    spec = cfg["problem"]
    costs = spec.get("singular_cost", {})   # ControlProblem checks them; 0 when absent
    k_path = costs["constant"] if "constant" in costs else costs.get("values", 0.0)
    if spec["kind"] == "finance":
        market = MarketModel.from_dict(spec["market"])
        market.check_tables(tg.steps, int(cfg["scenarios"]))
        terminal = _build_terminal(spec["terminal_cost"]) if "terminal_cost" in spec else None
        params = PortfolioParams(**{
            key: float(spec[key]) if key in ("x0", "y0", "tv_cap") else spec[key]
            for key in spec.keys() & {field.name for field in dataclasses.fields(PortfolioParams)}})
        return build_portfolio_problem(market, params, tg, terminal=terminal, k_path=k_path).problem
    dim = int(spec["brownian_dim"])
    grid = ActionGrid(**spec["action_grid"])
    stock_spec = spec.get("stock", {"inert": True})
    if stock_spec.get("inert"):
        stock = inert_stock(dim)
    else:
        stock = linear_stock(
            stock_spec.get("drift", 0.0), stock_spec.get("vol", 0.0),
            dim, component=int(stock_spec.get("component", dim - 1)),
        )
    coefficients = dict(spec["coefficients"])
    if coefficients.setdefault("dim", dim) != dim:
        raise ConfigError(f"problem.coefficients.dim must equal brownian_dim {dim}, "
                          f"got {coefficients['dim']!r}")
    try:   # tables of the wrong shape or with non-finite entries fail here, not mid-run
        sample_coefficients(coefficients, tg, grid, int(cfg["scenarios"]))
    except ValueError as exc:
        raise ConfigError(f"problem.coefficients: {exc}") from exc
    running = _build_running(spec["running_cost"])
    try:   # and malformed running-cost parameters, on the action grid
        if not np.isfinite(running.value(np.zeros(1), np.zeros((1, 1)), np.zeros((1, 1)), grid.points)).all():
            raise ValueError("not finite on the action grid")
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"problem.running_cost: {exc}") from exc
    return ControlProblem(
        tg=tg, grid=grid, dim=dim,
        x0=float(spec["x0"]), y0=float(spec["y0"]),
        coefficients=coefficients,
        stock=stock,
        running=running,
        terminal=_build_terminal(spec["terminal_cost"]),
        k_path=k_path,
        tv_cap=float(spec.get("tv_cap", DEFAULT_TV_CAP)),
    )


def _build_controls(cfg: dict, problem: ControlProblem, path: str | None):
    """The controls of the controls file at ``path`` if given, else of the
    config's ``controls`` block, else the defaults."""
    mu, xi = problem.default_controls()
    spec = cfg.get("controls", {})
    if spec.get("relaxed", "uniform") != "uniform":
        mu = RelaxedControl(**spec["relaxed"])
    if spec.get("singular", "zero") != "zero":
        xi = SingularControl(**spec["singular"], tv_cap=problem.tv_cap)
    source = "controls"
    if path is not None:
        source = "controls file"
        try:
            grid, mu, xi, horizon = load_controls(path)
        except FileNotFoundError:
            raise ConfigError(f"controls file not found: {path}")
        except OSError as exc:
            raise ConfigError(f"cannot read controls file {path}: {exc}") from exc
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"malformed controls file: {exc}") from exc
        if not math.isfinite(horizon) or abs(horizon - problem.tg.horizon) > 1e-12:
            raise ConfigError("controls file does not match the scenario time grid")
        if grid.points.shape != problem.grid.points.shape or not np.allclose(
            grid.points, problem.grid.points, atol=1e-12
        ):
            raise ConfigError("controls file grid does not match the scenario action grid")
    if mu.steps != problem.tg.steps or mu.count != problem.grid.count:
        raise ConfigError(f"{source}: relaxed control does not match the problem shape")
    if xi.steps != problem.tg.steps or xi.dim != problem.dim:
        raise ConfigError(f"{source}: singular control does not match the problem shape")
    return mu, xi


def _resolve_config(path: str, args) -> dict:
    try:
        cfg = json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    _validate(cfg, _SCHEMA, "")
    for key, value in (("seed", args.seed), ("output_dir", args.out)):
        if value is not None:   # an override passes the check of the value it replaces
            _validate(value, _SCHEMA[key].spec, key)
            cfg[key] = value
    return cfg


def _optimizer_options(cfg: dict) -> OptimizerOptions:
    """The config's optimizer block; absent keys keep the class defaults.

    Integer keys may arrive as integral floats (``3.0``), so they are cast.
    """
    return OptimizerOptions(**{key: int(value) if _SCHEMA["optimizer"][key].integer else value
                               for key, value in cfg.get("optimizer", {}).items()})


def _write_json(path: Path, doc: dict) -> None:
    """``doc`` as strict JSON: a top-level non-finite number is written as null."""
    doc = {key: None if isinstance(value, float) and not math.isfinite(value) else value
           for key, value in doc.items()}
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def adjoints_to_csv(adj, tg: TimeGrid, path) -> None:
    """``adjoints.csv``, one row per (scenario, step): ``scenario, step, t``,
    px, py, then the diffusion loadings Px and Py, blank on the terminal row."""
    dim = adj.Px.shape[2]
    times = tg.times().tolist()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scenario", "step", "t", "px", "py"]
                        + [f"{name}{i}" for name in ("Px", "Py") for i in range(dim)])
        for s in range(adj.px.shape[0]):
            loads = np.concatenate([adj.Px[s], adj.Py[s]], axis=1).tolist() + [[""] * (2 * dim)]
            rows = zip(times, adj.px[s].tolist(), adj.py[s].tolist(), loads)
            for k, (t, px, py, load) in enumerate(rows):
                writer.writerow([s, k, t, px, py, *load])


def _write_npz(path: Path, tg: TimeGrid, **tables) -> None:
    """Uncompressed ``.npz`` of ``t`` (n+1,) and then ``tables`` in the given
    order, each float64 array saved as is (NPY format, no pickles)."""
    np.savez(path, t=tg.times(), **tables)


def _write_manifest(outdir: Path, cfg: dict, args) -> None:
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "command": args.command,
        "config": cfg,
        "package_version": __version__,
        "threads": args.threads,
        "timestamp": None if args.no_timestamp
        else datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    _write_json(outdir / "manifest.json", manifest)


def _prepare(args):
    if args.threads < 1:
        raise ConfigError(f"--threads must be at least 1, got {args.threads}")
    cfg = _resolve_config(args.config, args)
    try:
        tg = TimeGrid(float(cfg["time"]["horizon"]), int(cfg["time"]["steps"]))
        problem = _build_problem(cfg, tg)
        if int(cfg["scenarios"]) * tg.steps * problem.dim * 8 > np.iinfo(np.intp).max:   # bytes
            raise ConfigError(f"scenarios: {cfg['scenarios']!r} scenarios of {tg.steps} steps on "
                              f"{problem.dim} Brownian axes are more noise than memory can address")
        mu, xi = _build_controls(cfg, problem, getattr(args, "controls", None))
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc
    outdir = Path(cfg["output_dir"])
    # the top directory this run makes, which ``main`` removes if numpy refuses the run for memory
    args.made = next((p for p in reversed((outdir, *outdir.parents)) if not p.exists()), None)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {str(outdir)!r}: {exc}") from exc
    return cfg, problem, mu, xi, outdir


def _simulate(cfg: dict, problem: ControlProblem, mu, xi, threads: int):
    """The config's noise and coefficient field, and the paths of (mu, xi)."""
    scenarios = int(cfg["scenarios"])
    seed = int(cfg["seed"])
    noise = problem.noise(scenarios, seed)
    field = problem.sample_field(scenarios, seed, noise)
    return field, problem.simulate(field, mu, xi, noise, threads=threads)


def _check(cfg: dict, problem: ControlProblem, field, bundle, outdir: Path):
    """Regression adjoint on the configured degree and ridge, written to
    ``adjoints.npz``, then the max-principle report."""
    options = _optimizer_options(cfg)
    adj = solve_adjoint_regression(
        field, bundle.mu, bundle, problem.running, problem.terminal, problem.stock,
        options.adjoint_degree, options.ridge,
    )
    _write_npz(outdir / "adjoints.npz", problem.tg, px=adj.px, py=adj.py, Px=adj.Px, Py=adj.Py)
    return check_max_principle(field, bundle, adj, problem.running, problem.k_path)


def cmd_simulate(args) -> int:
    cfg, problem, mu, xi, outdir = _prepare(args)
    field, bundle = _simulate(cfg, problem, mu, xi, args.threads)
    _write_npz(outdir / "trajectories.npz", problem.tg, x=bundle.x, y=bundle.y, dW=bundle.noise)
    report = moment_diagnostics(bundle, field)
    doc = report.to_json()
    doc["clamp_events"] = int(getattr(field, "clamp_events", 0))
    _write_json(outdir / "moments.json", doc)
    cost = evaluate_cost(bundle, problem.running, problem.k_path, problem.terminal, fieldref=field)
    _write_json(outdir / "cost.json",
                {"value": cost.value, "stderr": cost.stderr, "excluded": cost.excluded})
    _write_manifest(outdir, cfg, args)
    print(f"simulate: wrote {outdir / 'trajectories.npz'} "
          f"({bundle.scenarios} scenarios x {problem.tg.steps} steps)")
    return 0


def cmd_optimize(args) -> int:
    cfg, problem, mu, xi, outdir = _prepare(args)
    scenarios = int(cfg["scenarios"])
    seed = int(cfg["seed"])
    options = _optimizer_options(cfg)
    result = optimize_problem(
        problem, scenarios, seed, mu0=mu, xi0=xi, options=options, threads=args.threads
    )
    state = result.state

    with open(outdir / "iterations.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(field.name for field in dataclasses.fields(IterationRecord))
        for rec in result.records:   # booleans as 0/1
            writer.writerow(int(v) if isinstance(v, bool) else v for v in dataclasses.astuple(rec))

    save_controls(outdir / "controls.json", problem.grid, state.mu, state.xi,
                  problem.tg.horizon)
    report = _check(cfg, problem, result.fieldref, state.bundle, outdir)
    doc = report.to_json()
    doc["converged"] = state.converged
    doc["convergence_reason"] = state.reason
    doc["iterations"] = state.iteration
    doc["final_cost"] = state.cost
    doc["final_cost_stderr"] = state.cost_stderr
    doc["final_gap"] = state.gap
    doc["clamp_events"] = int(getattr(result.fieldref, "clamp_events", 0))
    _write_json(outdir / "report.json", doc)
    _write_manifest(outdir, cfg, args)
    print(f"optimize: {state.reason} after {state.iteration} iterations, "
          f"cost {state.cost:.6g} (gap {state.gap:.3g})")
    return 0


def cmd_verify(args) -> int:
    cfg, problem, mu, xi, outdir = _prepare(args)
    field, bundle = _simulate(cfg, problem, mu, xi, args.threads)
    report = _check(cfg, problem, field, bundle, outdir)
    doc = report.to_json()
    doc["clamp_events"] = int(getattr(field, "clamp_events", 0))
    _write_json(outdir / "report.json", doc)
    _write_manifest(outdir, cfg, args)
    print(report.render_table())
    return 0 if report.passed else 1


def example_bond_config() -> dict:
    """The packaged bond-portfolio scenario (Ho-Lee volatility, two assets)."""
    return {
        "schema": SCENARIO_SCHEMA,
        "problem": {
            "kind": "finance",
            "x0": 1.0,
            "y0": 1.0,
            "market": {
                "volatility": "ho-lee",
                "sigma": 0.02,
                "mean_reversion": 0.1,
                "maturities": [1.0, 2.0, 3.0, 5.0, 10.0],
                "consumption": [0.0, 0.05, 0.1, 0.2],
                "short_rate": {"kind": "gaussian", "r0": 0.03, "drift": 0.0},
                "market_price_of_risk": {"kind": "constant", "value": 0.1},
                "clamp_quantile": None,
            },
            "stock_drift": 0.05,
            "stock_vol": 0.2,
            "cost_buy": 0.01,
            "cost_sell": 0.01,
            "discount": 0.05,
            "utility": "sqrt",
            "utility_sign": -1.0,
            "terminal_cost": {"family": "tanh_wealth", "weight": 1.0, "scale": 4.0},
            "singular_cost": {"constant": [0.0, 0.0]},
            "tv_cap": 10.0,
        },
        "time": {"horizon": 1.0, "steps": 50},
        "scenarios": 2000,
        "seed": 7,
        "optimizer": {"max_iter": 25},
        "output_dir": "out",
    }


def cmd_example_bond(args) -> int:
    path = Path(args.out if args.out is not None else "example_bond.json")
    if path.is_dir():
        path = path / "example_bond.json"
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        _write_json(path, example_bond_config())
    except OSError as exc:
        raise ConfigError(f"cannot write {str(path)!r}: {exc}") from exc
    print(f"example-bond: wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rscontrol",
        description="Simulate, optimize and verify mixed relaxed-singular control scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="scenario config JSON")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--threads", type=int, default=1, help="scenario-chunk worker cap")
        p.add_argument("--out", default=None, help="override the output directory")
        p.add_argument("--no-timestamp", action="store_true",
                       help="omit the manifest timestamp for byte-stable outputs")

    p_sim = sub.add_parser("simulate", help="simulate trajectories and diagnostics")
    common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_opt = sub.add_parser("optimize", help="run the conditional-gradient optimizer")
    common(p_opt)
    p_opt.set_defaults(func=cmd_optimize)

    p_ver = sub.add_parser("verify", help="check the optimality conditions for given controls")
    common(p_ver)
    p_ver.add_argument("--controls", required=True, help="controls JSON to verify")
    p_ver.set_defaults(func=cmd_verify)

    p_ex = sub.add_parser("example-bond", help="write the packaged bond-portfolio scenario")
    p_ex.add_argument("--out", default=None, help="output file or directory")
    p_ex.set_defaults(func=cmd_example_bond)
    return parser


_parser = functools.cache(build_parser)   # main's parser, built on its first call, not at import


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:   # overflow is reported by exit code 3 or as null, not by numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:   # numpy refuses an array beyond memory before filling it
        if getattr(args, "made", None) is not None:   # leave no directory of the run's own
            shutil.rmtree(args.made, ignore_errors=True)
        print(f"config error: scenarios: the run does not fit in memory ({exc})", file=sys.stderr)
        return 2
    except (NonFiniteStateError, FloatingPointError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
