"""The three benchmark workloads: set-up, one timed pass, and output checks.

Each workload is a closed loop with one caller: a pass starts only after the
previous one has finished.  Every call into the package goes through a module
attribute (``rscontrol.optimizer.optimize_problem`` and so on), so that the
traced run can wrap those attributes from outside the package.

A pass returns a ``PassResult`` whose ``failures`` list is empty when every
output check held.  The checks compare against ``reference.json``: seed-free
expected values with tolerances in standard errors, so a legitimate change of
random stream still passes while wrong numerics do not.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import rscontrol
import rscontrol.adjoint as rc_adjoint
import rscontrol.cli as rc_cli
import rscontrol.dynamics as rc_dynamics
import rscontrol.finance as rc_finance
import rscontrol.maxprinciple as rc_maxprinciple
import rscontrol.optimizer as rc_optimizer

HERE = Path(__file__).resolve().parent
REFERENCE = json.loads((HERE / "reference.json").read_text())
WORKLOADS = tuple(REFERENCE["workloads"])
VERDICT_KEYS = ("pass_hamiltonian", "pass_slack", "pass_complementarity")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass
class PassResult:
    """Outputs of one pass that the checks and the metrics read."""

    final_cost: float
    output_bytes: int = 0
    failures: list = field(default_factory=list)


def rich_problem(steps: int, points: int) -> rscontrol.ControlProblem:
    """The rich canonical problem of the test suite's ``rich_toy``, rebuilt from
    the public API: action-dependent drift level and slope and diffusion
    level, quadratic terminal cost, affine running cost."""
    tg = rscontrol.TimeGrid(1.0, steps)
    pts = np.linspace(-1.0, 1.0, points)
    return rscontrol.ControlProblem(
        tg=tg, grid=rscontrol.ActionGrid(pts), dim=2, x0=1.0, y0=1.0,
        coefficients={
            "model": "deterministic-constant", "dim": 2,
            "drift_level": 0.3 * pts,
            "drift_slope": -0.2 + 0.1 * pts,
            "vol_level": np.column_stack([0.15 + 0.1 * pts, np.zeros(points)]),
            "jump_gain_x": [0.8, -0.5],
            "jump_gain_y": [-0.3, 0.7],
        },
        stock=rscontrol.linear_stock(0.05, 0.2, 2),
        running=rscontrol.affine_quadratic_running(cx=0.2, cy=0.1, quad=0.5),
        terminal=rscontrol.linear_quadratic_terminal(gx1=0.5, gx2=0.3, gy1=0.3, gy2=0.2),
        k_path=np.full((steps, 2), 0.05),
    )


def bond_problem(cfg: dict) -> rscontrol.ControlProblem:
    """The shipped bond scenario built through the library, as the CLI builds it."""
    spec = cfg["problem"]
    tg = rscontrol.TimeGrid(float(cfg["time"]["horizon"]), int(cfg["time"]["steps"]))
    params = rc_finance.PortfolioParams(
        x0=spec["x0"], y0=spec["y0"], stock_drift=spec["stock_drift"],
        stock_vol=spec["stock_vol"], cost_buy=spec["cost_buy"], cost_sell=spec["cost_sell"],
        discount=spec["discount"], utility=spec["utility"], utility_sign=spec["utility_sign"],
        terminal_weight=spec["terminal_cost"]["weight"],
        terminal_scale=spec["terminal_cost"]["scale"], tv_cap=spec["tv_cap"],
    )
    market = rc_finance.MarketModel.from_dict(spec["market"])
    return rc_finance.build_portfolio_problem(market, params, tg).problem


def _uniform_cost(problem, scenarios: int, seed: int) -> float:
    """Sampled cost of the default controls on the workload's noise."""
    noise = problem.noise(scenarios, seed)
    fieldref = problem.sample_field(scenarios, seed, noise)
    mu, xi = problem.default_controls()
    bundle = problem.simulate(fieldref, mu, xi, noise)
    return rscontrol.evaluate_cost(
        bundle, problem.running, problem.k_path, problem.terminal, fieldref=fieldref
    ).value


def _cost_failures(name: str, ref: dict, value: float, stderr: float) -> list:
    """The sampled cost must sit within ``z`` standard errors of the reference."""
    if not (np.isfinite(value) and np.isfinite(stderr) and stderr > 0.0):
        return [f"{name}: non-finite cost {value!r} (stderr {stderr!r})"]
    z = abs(value - ref["cost"]) / stderr
    if z > ref["cost_z"]:
        return [f"{name}: cost {value:.6g} is {z:.1f} standard errors from "
                f"the reference {ref['cost']:.6g} (limit {ref['cost_z']})"]
    return []


class Workload:
    """``setup`` builds the inputs; ``run_pass`` is the timed part of a pass and
    returns its raw outputs; ``check`` turns those into a ``PassResult``."""

    name = ""

    def __init__(self, root: Path, seed: int, workdir: Path):
        self.root = root
        self.seed = seed
        self.workdir = workdir
        self.ref = REFERENCE["workloads"][self.name]
        self.passes = 0

    def setup(self) -> None:
        raise NotImplementedError

    def prepare_checks(self) -> None:
        """Per-seed values the checks need, computed once and not timed."""

    def run_pass(self):
        raise NotImplementedError

    def check(self, outputs) -> PassResult:
        raise NotImplementedError


class BondCli(Workload):
    """``rscontrol optimize`` then ``rscontrol verify`` on the shipped bond scenario."""

    name = "bond-cli"

    def setup(self) -> None:
        cfg = json.loads((self.root / "scenarios" / "example_bond.json").read_text())
        cfg["scenarios"] = self.ref["shape"]["scenarios"]
        cfg["optimizer"] = self.ref["optimizer"]
        cfg["output_dir"] = str(self.workdir / "out")
        self.config_path = self.workdir / "example_bond.json"
        self.config_path.write_text(json.dumps(cfg, indent=2, sort_keys=True))
        self.cfg = cfg
        self.problem = bond_problem(cfg)

    def prepare_checks(self) -> None:
        self.initial_cost = _uniform_cost(self.problem, int(self.cfg["scenarios"]), self.seed)

    def run_pass(self):
        out = self.workdir / f"pass{self.passes}"
        self.passes += 1
        common = ["--config", str(self.config_path), "--seed", str(self.seed), "--no-timestamp"]
        with contextlib.redirect_stdout(io.StringIO()):
            code_opt = rc_cli.main(["optimize", *common, "--out", str(out / "optimize")])
            code_ver = rc_cli.main(["verify", *common, "--out", str(out / "verify"),
                                    "--controls", str(out / "optimize" / "controls.json")])
        return out, code_opt, code_ver

    def check(self, outputs) -> PassResult:
        """Read the artifacts of one pass, compare them with the reference and
        delete them."""
        out = outputs[0]
        try:
            return self._check(*outputs)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _check(self, out: Path, code_opt: int, code_ver: int) -> PassResult:
        failures = []
        nbytes = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        if code_opt != 0:
            return PassResult(np.nan, nbytes, [f"optimize exited {code_opt}"])
        report = json.loads((out / "optimize" / "report.json").read_text())
        cost, stderr = report["final_cost"], report["final_cost_stderr"]
        if not cost <= self.initial_cost + 1e-12 * (1.0 + abs(self.initial_cost)):
            failures.append(f"final cost {cost!r} exceeds the initial cost {self.initial_cost!r}")
        failures += _cost_failures(self.name, self.ref, cost, stderr)
        if code_ver != self.ref["verify_exit"]:
            failures.append(f"verify exited {code_ver}, expected {self.ref['verify_exit']}")
        else:
            verdicts = json.loads((out / "verify" / "report.json").read_text())
            for key in VERDICT_KEYS:
                if verdicts[key] != self.ref["verify_verdicts"][key]:
                    failures.append(f"verify {key} is {verdicts[key]}, "
                                    f"expected {self.ref['verify_verdicts'][key]}")
        return PassResult(cost, nbytes, failures)


class RichAdjoint(Workload):
    """Library optimizer on the rich problem, then both adjoints and the verifier."""

    name = "rich-adjoint"

    def setup(self) -> None:
        shape = self.ref["shape"]
        self.scenarios = shape["scenarios"]
        self.problem = rich_problem(shape["steps"], shape["points"])
        self.options = rc_optimizer.OptimizerOptions(**self.ref["optimizer"])

    def prepare_checks(self) -> None:
        self.initial_cost = _uniform_cost(self.problem, self.scenarios, self.seed)

    def run_pass(self):
        problem = self.problem
        result = rc_optimizer.optimize_problem(problem, self.scenarios, self.seed,
                                               options=self.options)
        state = result.state
        args = (result.fieldref, state.mu, state.bundle, problem.running, problem.terminal,
                problem.stock)
        reg = rc_adjoint.solve_adjoint_regression(*args)
        phi = rc_adjoint.solve_adjoint_phi(*args)
        report = rc_maxprinciple.check_max_principle(result.fieldref, state.bundle, reg,
                                                     problem.running, problem.k_path)
        return state, reg, phi, report

    def check(self, outputs) -> PassResult:
        state, reg, phi, report = outputs
        failures = []
        if not state.cost <= self.initial_cost + 1e-12 * (1.0 + abs(self.initial_cost)):
            failures.append(f"final cost {state.cost!r} exceeds the initial cost "
                            f"{self.initial_cost!r}")
        failures += _cost_failures(self.name, self.ref, state.cost, state.cost_stderr)
        rms = float(np.sqrt(np.mean((phi.px - reg.px) ** 2)) / np.sqrt(np.mean(reg.px ** 2)))
        if not rms <= self.ref["phi_rms_max"]:
            failures.append(f"phi/regression relative RMS {rms:.3g} exceeds "
                            f"{self.ref['phi_rms_max']}")
        for key in VERDICT_KEYS:
            if getattr(report, key) != self.ref["verdicts"][key]:
                failures.append(f"{key} is {getattr(report, key)}, "
                                f"expected {self.ref['verdicts'][key]}")
        return PassResult(state.cost, 0, failures)


class ForwardScale(Workload):
    """Forward Monte Carlo evaluation of the uniform control at scale."""

    name = "forward-scale"

    def setup(self) -> None:
        shape = self.ref["shape"]
        self.scenarios = shape["scenarios"]
        self.problem = rich_problem(shape["steps"], shape["points"])
        self.threads = nproc()

    def simulate(self, fieldref, noise, threads: int):
        problem = self.problem
        mu, xi = problem.default_controls()
        return rc_dynamics.simulate_forward(fieldref, mu, xi, problem.x0, problem.y0,
                                            problem.stock, problem.tg, noise=noise,
                                            threads=threads)

    def run_pass(self):
        problem = self.problem
        noise = problem.noise(self.scenarios, self.seed)
        fieldref = problem.sample_field(self.scenarios, self.seed, noise)
        bundle = self.simulate(fieldref, noise, self.threads)
        cost = rc_optimizer.evaluate_cost(bundle, problem.running, problem.k_path,
                                          problem.terminal, fieldref=fieldref)
        moments = rc_dynamics.moment_diagnostics(bundle, fieldref)
        return cost, moments, fieldref, noise, bundle

    def check(self, outputs) -> PassResult:
        cost, moments = outputs[:2]
        failures = _cost_failures(self.name, self.ref, cost.value, cost.stderr)
        if cost.excluded:
            failures.append(f"{cost.excluded} scenarios excluded from the cost")
        doc = moments.to_json()
        if moments.exploded or any(v is None for v in doc.values()):
            failures.append(f"moment diagnostics not finite: {doc}")
        return PassResult(cost.value, 0, failures)

    def serial_repeat(self, outputs):
        """Repeat a pass's threaded simulation serially.

        Returns (serial seconds, whether both paths agree bitwise)."""
        fieldref, noise, threaded = outputs[2:]
        started = time.perf_counter()
        serial = self.simulate(fieldref, noise, 1)
        elapsed = time.perf_counter() - started
        same = bool(np.array_equal(serial.x, threaded.x) and np.array_equal(serial.y, threaded.y))
        return elapsed, same


CLASSES = {cls.name: cls for cls in (BondCli, RichAdjoint, ForwardScale)}
