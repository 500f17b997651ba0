"""Command-line front end: simulate, optimize and verify scenario configs.

Configs are strict JSON documents (unknown keys rejected, versioned schema
field); every run writes a manifest echoing the fully resolved config.  With
``--no-timestamp`` repeated runs produce byte-identical outputs.

Exit codes: 0 success (verify: conditions pass), 1 verify failure, 2 invalid
config or controls, 3 numeric explosion during simulation.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .adjoint import adjoints_to_csv, solve_adjoint_regression
from .dynamics import NonFiniteStateError, TimeGrid, bundle_to_csv, inert_stock, linear_stock, moment_diagnostics
from .finance import MarketModel, PortfolioParams, build_portfolio_problem
from .maxprinciple import MaxPrincipleTolerances, check_max_principle
from .measures import (
    ActionGrid,
    RelaxedControl,
    SingularControl,
    load_controls,
    save_controls,
)
from .optimizer import OptimizerOptions, evaluate_cost, optimize_problem
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


def _check_keys(obj: dict, allowed: set, required: set, path: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ConfigError(f"{path}: missing required keys {sorted(missing)}")


_TOP_KEYS = {"schema", "problem", "time", "scenarios", "seed", "controls",
             "optimizer", "tolerances", "output_dir", "moment_order"}
_TIME_KEYS = {"horizon", "steps"}
_CANONICAL_KEYS = {"kind", "x0", "y0", "brownian_dim", "action_grid", "coefficients",
                   "stock", "running_cost", "terminal_cost", "singular_cost", "tv_cap"}
_FINANCE_KEYS = {"kind", "x0", "y0", "market", "stock_drift", "stock_vol", "cost_buy",
                 "cost_sell", "discount", "utility", "utility_sign", "terminal_cost",
                 "singular_cost", "tv_cap"}
_GRID_KEYS = {"points", "box_lo", "box_hi"}
_COEFF_KEYS = {"model", "dim", "drift_level", "drift_slope", "vol_level", "vol_slope",
               "jump_gain_x", "jump_gain_y"}
_STOCK_KEYS = {"drift", "vol", "component", "inert"}
_RUNNING_KEYS = {"family", "cx", "cy", "quad", "lin"}
_TERMINAL_KEYS = {"family", "gx1", "gx2", "gy1", "gy2", "gxy", "weight", "scale"}
_SINGULAR_COST_KEYS = {"constant", "values"}
_MARKET_KEYS = {"volatility", "sigma", "mean_reversion", "maturities", "consumption",
                "short_rate", "market_price_of_risk", "clamp_quantile"}
_OPTIMIZER_KEYS = {"max_iter", "singular_rate", "armijo_c1", "max_halvings", "gap_tol",
                   "gap_floor", "adjoint_degree", "ridge", "phi_check_every"}
_TOLERANCE_KEYS = {"gap_se_multiplier", "gap_floor", "slack_scale", "comp_scale"}
_CONTROLS_KEYS = {"relaxed", "singular"}

# (path, integer, lowest, highest) of every plain scalar in a config, bounds
# inclusive.  The horizon's positivity is left to TimeGrid.
_SCALARS = (
    ("scenarios", True, 1, math.inf),
    ("seed", True, 0, math.inf),
    ("moment_order", False, 1.0, math.inf),
    ("time.horizon", False, 0.0, math.inf),
    ("time.steps", True, 1, math.inf),
    ("optimizer.max_iter", True, 0, math.inf),
    ("optimizer.max_halvings", True, 0, math.inf),
    ("optimizer.adjoint_degree", True, 0, 2),
    ("optimizer.phi_check_every", True, 0, math.inf),
    ("optimizer.singular_rate", False, 0.0, math.inf),
    ("optimizer.armijo_c1", False, 0.0, math.inf),
    ("optimizer.gap_tol", False, 0.0, math.inf),
    ("optimizer.gap_floor", False, 0.0, math.inf),
    ("optimizer.ridge", False, 0.0, math.inf),
    ("tolerances.gap_se_multiplier", False, 0.0, math.inf),
    ("tolerances.gap_floor", False, 0.0, math.inf),
    ("tolerances.slack_scale", False, 0.0, math.inf),
    ("tolerances.comp_scale", False, 0.0, math.inf),
)


def _check_scalars(cfg: dict) -> None:
    for path, integer, low, high in _SCALARS:
        section, _, key = path.rpartition(".")
        value = (cfg.get(section, {}) if section else cfg).get(key, low)  # absent passes
        if value is None and path == "optimizer.gap_tol":
            continue
        number = not isinstance(value, bool) and (isinstance(value, int) or (
            isinstance(value, float) and math.isfinite(value)
            and (value.is_integer() or not integer)))
        if not (number and low <= value <= high):
            kind = "an integer" if integer else "a number"
            raise ConfigError(f"{path} must be {kind} in [{low}, {high}], got {value!r}")


def _build_running(spec: dict):
    _check_keys(spec, _RUNNING_KEYS, {"family"}, "problem.running_cost")
    family = spec["family"]
    if family == "zero":
        return zero_running()
    if family == "affine_quadratic":
        return affine_quadratic_running(
            cx=spec.get("cx", 0.0), cy=spec.get("cy", 0.0),
            quad=spec.get("quad", 0.0), lin=spec.get("lin"),
        )
    raise ConfigError(f"problem.running_cost: unknown family {family!r}")


def _build_terminal(spec: dict):
    _check_keys(spec, _TERMINAL_KEYS, {"family"}, "problem.terminal_cost")
    family = spec["family"]
    if family == "linear_quadratic":
        return linear_quadratic_terminal(
            gx1=spec.get("gx1", 0.0), gx2=spec.get("gx2", 0.0),
            gy1=spec.get("gy1", 0.0), gy2=spec.get("gy2", 0.0),
            gxy=spec.get("gxy", 0.0),
        )
    if family == "tanh_wealth":
        return tanh_wealth_terminal(spec.get("weight", 1.0), spec.get("scale", 1.0))
    raise ConfigError(f"problem.terminal_cost: unknown family {family!r}")


def _build_singular_cost(spec: dict | None, steps: int, dim: int) -> np.ndarray:
    if spec is None:
        return np.zeros((steps, dim))
    _check_keys(spec, _SINGULAR_COST_KEYS, set(), "problem.singular_cost")
    if "constant" in spec:
        row = np.asarray(spec["constant"], float)
        if row.shape != (dim,):
            raise ConfigError(f"problem.singular_cost.constant must have {dim} entries")
        return np.broadcast_to(row, (steps, dim)).copy()
    values = np.asarray(spec.get("values"), float)
    if values.shape != (steps, dim):
        raise ConfigError(f"problem.singular_cost.values must have shape ({steps}, {dim})")
    return values


def _build_problem(cfg: dict, tg: TimeGrid) -> ControlProblem:
    spec = cfg["problem"]
    kind = spec.get("kind")
    if kind == "canonical":
        _check_keys(spec, _CANONICAL_KEYS,
                    {"kind", "x0", "y0", "brownian_dim", "action_grid", "coefficients",
                     "running_cost", "terminal_cost"}, "problem")
        _check_keys(spec["action_grid"], _GRID_KEYS, {"points"}, "problem.action_grid")
        _check_keys(spec["coefficients"], _COEFF_KEYS, {"model"}, "problem.coefficients")
        dim = int(spec["brownian_dim"])
        grid = ActionGrid(
            np.asarray(spec["action_grid"]["points"], float),
            box_lo=spec["action_grid"].get("box_lo"),
            box_hi=spec["action_grid"].get("box_hi"),
        )
        stock_spec = spec.get("stock", {"inert": True})
        _check_keys(stock_spec, _STOCK_KEYS, set(), "problem.stock")
        if stock_spec.get("inert"):
            stock = inert_stock(dim)
        else:
            stock = linear_stock(
                stock_spec.get("drift", 0.0), stock_spec.get("vol", 0.0),
                dim, component=int(stock_spec.get("component", dim - 1)),
            )
        coefficients = dict(spec["coefficients"])
        coefficients.setdefault("dim", dim)
        return ControlProblem(
            tg=tg, grid=grid, dim=dim,
            x0=float(spec["x0"]), y0=float(spec["y0"]),
            coefficients=coefficients,
            stock=stock,
            running=_build_running(spec["running_cost"]),
            terminal=_build_terminal(spec["terminal_cost"]),
            k_path=_build_singular_cost(spec.get("singular_cost"), tg.steps, dim),
            tv_cap=float(spec.get("tv_cap", 10.0)),
        )
    if kind == "finance":
        _check_keys(spec, _FINANCE_KEYS, {"kind", "x0", "y0", "market"}, "problem")
        _check_keys(spec["market"], _MARKET_KEYS,
                    {"volatility", "sigma", "maturities", "consumption"}, "problem.market")
        market = MarketModel.from_dict(spec["market"])
        params = PortfolioParams(
            x0=float(spec["x0"]), y0=float(spec["y0"]),
            stock_drift=spec.get("stock_drift", 0.05),
            stock_vol=spec.get("stock_vol", 0.2),
            cost_buy=spec.get("cost_buy", 0.01),
            cost_sell=spec.get("cost_sell", 0.01),
            discount=spec.get("discount", 0.05),
            utility=spec.get("utility", "sqrt"),
            utility_sign=spec.get("utility_sign", -1.0),
            terminal_weight=spec.get("terminal_cost", {}).get("weight", 1.0),
            terminal_scale=spec.get("terminal_cost", {}).get("scale", 4.0),
            tv_cap=float(spec.get("tv_cap", 10.0)),
        )
        terminal = _build_terminal(spec["terminal_cost"]) if "terminal_cost" in spec else None
        built = build_portfolio_problem(market, params, tg, terminal=terminal)
        problem = built.problem
        k_path = _build_singular_cost(spec.get("singular_cost"), tg.steps, 2)
        return ControlProblem(
            tg=problem.tg, grid=problem.grid, dim=problem.dim,
            x0=problem.x0, y0=problem.y0, coefficients=problem.coefficients,
            stock=problem.stock, running=problem.running, terminal=problem.terminal,
            k_path=k_path, tv_cap=problem.tv_cap,
        )
    raise ConfigError(f"problem.kind must be 'canonical' or 'finance', got {kind!r}")


def _build_controls(cfg: dict, problem: ControlProblem):
    mu, xi = problem.default_controls()
    spec = cfg.get("controls")
    if spec is None:
        return mu, xi
    _check_keys(spec, _CONTROLS_KEYS, set(), "controls")
    relaxed = spec.get("relaxed", "uniform")
    if relaxed != "uniform":
        mu = RelaxedControl(np.asarray(relaxed["weights"], float))
    singular = spec.get("singular", "zero")
    if singular != "zero":
        xi = SingularControl(
            np.asarray(singular["increments"], float), tv_cap=problem.tv_cap
        )
    if mu.steps != problem.tg.steps or mu.count != problem.grid.count:
        raise ConfigError("controls.relaxed does not match the problem shape")
    if xi.steps != problem.tg.steps or xi.dim != problem.dim:
        raise ConfigError("controls.singular does not match the problem shape")
    return mu, xi


def _resolve_config(path: str, args) -> dict:
    try:
        cfg = json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    _check_keys(cfg, _TOP_KEYS, {"schema", "problem", "time", "scenarios", "seed", "output_dir"},
                "config")
    if cfg["schema"] != SCENARIO_SCHEMA:
        raise ConfigError(f"unsupported schema {cfg['schema']!r}; expected {SCENARIO_SCHEMA!r}")
    _check_keys(cfg["time"], _TIME_KEYS, _TIME_KEYS, "time")
    if "optimizer" in cfg:
        _check_keys(cfg["optimizer"], _OPTIMIZER_KEYS, set(), "optimizer")
    if "tolerances" in cfg:
        _check_keys(cfg["tolerances"], _TOLERANCE_KEYS, set(), "tolerances")
    if getattr(args, "seed", None) is not None:
        cfg["seed"] = args.seed
    if getattr(args, "out", None) is not None:
        cfg["output_dir"] = args.out
    _check_scalars(cfg)
    return cfg


def _optimizer_options(cfg: dict) -> OptimizerOptions:
    spec = cfg.get("optimizer", {})
    return OptimizerOptions(
        max_iter=int(spec.get("max_iter", 50)),
        singular_rate=spec.get("singular_rate", 1.0),
        armijo_c1=spec.get("armijo_c1", 1e-4),
        max_halvings=int(spec.get("max_halvings", 12)),
        gap_tol=spec.get("gap_tol"),
        gap_floor=spec.get("gap_floor", 1e-10),
        adjoint_degree=int(spec.get("adjoint_degree", 2)),
        ridge=spec.get("ridge", 1e-8),
        phi_check_every=int(spec.get("phi_check_every", 0)),
    )


def _tolerances(cfg: dict) -> MaxPrincipleTolerances:
    spec = cfg.get("tolerances", {})
    return MaxPrincipleTolerances(
        gap_se_multiplier=spec.get("gap_se_multiplier", 3.0),
        gap_floor=spec.get("gap_floor", 1e-10),
        slack_scale=spec.get("slack_scale", 1e-6),
        comp_scale=spec.get("comp_scale", 1e-6),
    )


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _write_manifest(outdir: Path, command: str, cfg: dict, args) -> None:
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "command": command,
        "config": cfg,
        "package_version": __version__,
        "threads": args.threads,
        "timestamp": None if args.no_timestamp
        else datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    _write_json(outdir / "manifest.json", manifest)


def _prepare(args, command: str):
    cfg = _resolve_config(args.config, args)
    try:
        tg = TimeGrid(float(cfg["time"]["horizon"]), int(cfg["time"]["steps"]))
        problem = _build_problem(cfg, tg)
        mu, xi = _build_controls(cfg, problem)
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc
    outdir = Path(cfg["output_dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    _write_manifest(outdir, command, cfg, args)
    return cfg, problem, mu, xi, outdir


def cmd_simulate(args) -> int:
    cfg, problem, mu, xi, outdir = _prepare(args, "simulate")
    scenarios = int(cfg["scenarios"])
    seed = int(cfg["seed"])
    noise = problem.noise(scenarios, seed)
    field = problem.sample_field(scenarios, seed, noise)
    bundle = problem.simulate(field, mu, xi, noise, threads=args.threads)
    bundle_to_csv(bundle, outdir / "trajectories.csv")
    report = moment_diagnostics(bundle, field, p=float(cfg.get("moment_order", 2.0)))
    doc = report.to_json()
    doc["clamp_events"] = int(getattr(field, "clamp_events", 0))
    _write_json(outdir / "moments.json", doc)
    cost = evaluate_cost(bundle, problem.running, problem.k_path, problem.terminal, fieldref=field)
    _write_json(outdir / "cost.json",
                {"value": cost.value, "stderr": cost.stderr, "excluded": cost.excluded})
    print(f"simulate: wrote {outdir / 'trajectories.csv'} "
          f"({scenarios} scenarios x {problem.tg.steps} steps)")
    return 0


def cmd_optimize(args) -> int:
    cfg, problem, mu, xi, outdir = _prepare(args, "optimize")
    scenarios = int(cfg["scenarios"])
    seed = int(cfg["seed"])
    options = _optimizer_options(cfg)
    result = optimize_problem(
        problem, scenarios, seed, mu0=mu, xi0=xi, options=options, threads=args.threads
    )
    state = result.state

    with open(outdir / "iterations.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "cost", "cost_stderr", "gap", "gap_stderr",
                         "theta", "accepted", "phi_check_rms"])
        for rec in result.records:
            writer.writerow([
                rec.iteration, repr(rec.cost), repr(rec.cost_stderr), repr(rec.gap),
                repr(rec.gap_stderr), repr(rec.theta), int(rec.accepted),
                "" if rec.phi_check_rms is None else repr(rec.phi_check_rms),
            ])

    save_controls(outdir / "controls.json", problem.grid, state.mu, state.xi,
                  problem.tg.horizon)
    adj = solve_adjoint_regression(
        result.fieldref, state.mu, state.bundle, problem.running, problem.terminal,
        problem.stock, options.adjoint_degree, options.ridge,
    )
    adjoints_to_csv(adj, problem.tg, outdir / "adjoints.csv")
    report = check_max_principle(
        result.fieldref, state.bundle, adj, problem.running, problem.k_path,
        _tolerances(cfg),
    )
    doc = report.to_json()
    doc["converged"] = state.converged
    doc["convergence_reason"] = state.reason
    doc["iterations"] = state.iteration
    doc["final_cost"] = state.cost
    doc["final_cost_stderr"] = state.cost_stderr
    doc["final_gap"] = state.gap if np.isfinite(state.gap) else None
    _write_json(outdir / "report.json", doc)
    print(f"optimize: {state.reason} after {state.iteration} iterations, "
          f"cost {state.cost:.6g} (gap {state.gap:.3g})")
    return 0


def cmd_verify(args) -> int:
    cfg, problem, mu, xi, outdir = _prepare(args, "verify")
    try:
        grid, mu, xi, horizon = load_controls(args.controls)
    except FileNotFoundError:
        raise ConfigError(f"controls file not found: {args.controls}")
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"malformed controls file: {exc}") from exc
    if abs(horizon - problem.tg.horizon) > 1e-12 or mu.steps != problem.tg.steps:
        raise ConfigError("controls file does not match the scenario time grid")
    if mu.count != problem.grid.count or xi.dim != problem.dim:
        raise ConfigError("controls file does not match the scenario problem shape")
    if grid.points.shape != problem.grid.points.shape or not np.allclose(
        grid.points, problem.grid.points, atol=1e-12
    ):
        raise ConfigError("controls file grid does not match the scenario action grid")

    scenarios = int(cfg["scenarios"])
    seed = int(cfg["seed"])
    noise = problem.noise(scenarios, seed)
    field = problem.sample_field(scenarios, seed, noise)
    bundle = problem.simulate(field, mu, xi, noise, threads=args.threads)
    adj = solve_adjoint_regression(
        field, mu, bundle, problem.running, problem.terminal, problem.stock,
    )
    adjoints_to_csv(adj, problem.tg, outdir / "adjoints.csv")
    report = check_max_principle(field, bundle, adj, problem.running, problem.k_path,
                                 _tolerances(cfg))
    _write_json(outdir / "report.json", report.to_json())
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
    path.parent.mkdir(parents=True, exist_ok=True)
    _write_json(path, example_bond_config())
    print(f"example-bond: wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rscontrol",
        description="Simulate, optimize and verify mixed relaxed-singular control scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        if config_required:
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
    common(p_ex, config_required=False)
    p_ex.set_defaults(func=cmd_example_bond)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NonFiniteStateError as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
