"""Acceptance gate: one test per release criterion, each printing a
``[acceptance] criterion N (<label>): PASS/FAIL (<elapsed>)`` line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as the
criteria execute.
"""

import math
import time

import numpy as np
import pytest

import rscontrol as rc
from rscontrol.cli import example_bond_config, main
from rscontrol.maxprinciple import variational_derivative
from rscontrol.measures import RelaxedControl, SingularControl, combine_singular, convex_combine
from rscontrol.optimizer import (
    OptimizerOptions,
    evaluate_cost,
    first_variation_derivative,
    optimize_problem,
    solve_first_variation,
)
from rscontrol.finance import MarketModel, integrated_volatility

from toys import drift_control_toy, rate_paths, rich_toy, window_toy, random_admissible_controls


def _report(number: int, label: str, ok: bool, started: float, budget: float, detail: str = ""):
    elapsed = time.perf_counter() - started
    status = "PASS" if ok and elapsed < budget else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"[acceptance] criterion {number} ({label}): {status} "
          f"({elapsed:.1f}s / budget {budget:.0f}s){suffix}")
    assert ok, f"criterion {number} failed: {detail}"
    assert elapsed < budget, f"criterion {number} exceeded runtime budget ({elapsed:.1f}s)"


def test_criterion_1_dirac_reduction():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    mismatches = 0
    for trial in range(100):
        m = int(rng.integers(2, 7))
        n = int(rng.integers(10, 41))
        d = int(rng.integers(1, 3))
        tg = rc.TimeGrid(float(rng.uniform(0.5, 2.0)), n)
        grid = rc.ActionGrid(np.sort(rng.uniform(-1, 1, size=m)))
        per_scenario = trial % 3 == 0
        shape_scalar = (8, n, m) if per_scenario else (n, m)
        shape_vector = shape_scalar + (d,)
        field = rc.dense_field(
            tg, grid, scenarios=8, dim=d,
            drift_level=rng.normal(size=shape_scalar) * 0.5,
            drift_slope=rng.normal(size=shape_scalar) * 0.3,
            vol_level=rng.normal(size=shape_vector) * 0.2,
            vol_slope=rng.normal(size=shape_vector) * 0.1,
            jump_gain_x=rng.normal(size=d),
            jump_gain_y=rng.normal(size=d),
        )
        stock = rc.linear_stock(float(rng.normal() * 0.1), float(rng.uniform(0, 0.3)), d, 0)
        idx = rng.integers(0, m, size=n)
        xi = SingularControl(rng.uniform(0, 0.02, size=(n, d)))
        noise = rc.brownian_increments(int(rng.integers(0, 2**31)), 8, n, d, tg.dt)
        strict = rc.simulate_forward_strict(field, idx, xi, 1.0, 1.0, stock, tg, noise=noise)
        relaxed = rc.simulate_forward(
            field, RelaxedControl.from_indices(idx, m), xi, 1.0, 1.0, stock, tg, noise=noise
        )
        if not (np.array_equal(strict.x, relaxed.x) and np.array_equal(strict.y, relaxed.y)):
            mismatches += 1
    _report(1, "dirac reduction", mismatches == 0, started, 10.0,
            f"{mismatches} mismatching instances of 100")


def test_criterion_2_closed_form_forward_checks():
    started = time.perf_counter()
    # (a) deterministic drift slope
    a, x0 = 0.9, 1.0
    tg = rc.TimeGrid(1.0, 1000)
    grid = rc.ActionGrid([0.0, 1.0])
    field = rc.dense_field(tg, grid, scenarios=2, dim=1, drift_slope=a)
    mu = RelaxedControl.uniform(1000, 2)
    xi = SingularControl.zero(1000, 1)
    b = rc.simulate_forward(field, mu, xi, x0, 0.0, rc.inert_stock(1), tg,
                            noise=rc.brownian_increments(0, 2, 1000, 1, tg.dt))
    exact = x0 * math.exp(a * tg.horizon)
    rel_err = abs(b.x[0, -1] - exact) / exact
    ok_a = rel_err <= 2.0 * tg.dt * abs(a) * tg.horizon

    # (b) geometric Brownian motion mean at 1e4 scenarios
    lam, rho, y0, scenarios = 0.05, 0.2, 1.0, 10_000
    tg2 = rc.TimeGrid(1.0, 100)
    field2 = rc.dense_field(tg2, grid, scenarios=scenarios, dim=1)
    mu2 = RelaxedControl.uniform(100, 2)
    xi2 = SingularControl.zero(100, 1)
    b2 = rc.simulate_forward(field2, mu2, xi2, 0.0, y0,
                             rc.linear_stock(lam, rho, 1, 0), tg2,
                             noise=rc.brownian_increments(77, 10000, 100, 1, tg2.dt))
    target = y0 * math.exp(lam)
    se = b2.y[:, -1].std(ddof=1) / math.sqrt(scenarios)
    dev = abs(b2.y[:, -1].mean() - target)
    ok_b = dev <= 3.0 * se
    _report(2, "closed-form forward checks", ok_a and ok_b, started, 30.0,
            f"drift rel err {rel_err:.2e}, gbm dev {dev:.2e} vs 3se {3 * se:.2e}")


def test_criterion_3_adjoint_cross_validation():
    started = time.perf_counter()
    problem = rich_toy(steps=100)
    scenarios = 10_000
    noise = problem.noise(scenarios, 31)
    field = problem.sample_field(scenarios, 31, noise)
    mu, xi = problem.default_controls()
    bundle = problem.simulate(field, mu, xi, noise)
    reg = rc.solve_adjoint_regression(field, mu, bundle, problem.running,
                                      problem.terminal, problem.stock, degree=2)
    phi = rc.solve_adjoint_phi(field, mu, bundle, problem.running,
                               problem.terminal, problem.stock, degree=2)
    per_step_rms = np.sqrt(np.mean((reg.px - phi.px) ** 2, axis=0))
    signal = np.sqrt(np.mean(reg.px ** 2))
    ratio = per_step_rms.max() / signal
    _report(3, "adjoint cross-validation", ratio <= 0.05, started, 120.0,
            f"sup-time rms ratio {ratio:.4f}")


def test_criterion_4_gradient_triangle():
    started = time.perf_counter()
    problem = rich_toy(steps=200)
    scenarios = 4000
    noise = problem.noise(scenarios, 5)
    field = problem.sample_field(scenarios, 5, noise)
    rng = np.random.default_rng(11)
    theta = 1e-3
    failures = []
    for trial in range(20):
        mu, xi = random_admissible_controls(rng, problem.tg.steps, problem.grid.count, 2)
        q, eta = random_admissible_controls(rng, problem.tg.steps, problem.grid.count, 2,
                                            scale=0.006)
        bundle = problem.simulate(field, mu, xi, noise)
        adj = rc.solve_adjoint_regression(field, mu, bundle, problem.running,
                                          problem.terminal, problem.stock)
        d_adj = variational_derivative(field, bundle, adj, problem.running,
                                       problem.k_path, (q, eta))
        fv = solve_first_variation(field, mu, bundle, problem.stock, (q, eta))
        d_fv = first_variation_derivative(field, bundle, fv, problem.running,
                                          problem.terminal, problem.k_path, (q, eta))
        b2 = problem.simulate(field, convex_combine(mu, q, theta),
                              combine_singular(xi, eta, theta), noise)
        j0 = evaluate_cost(bundle, problem.running, problem.k_path, problem.terminal,
                           fieldref=field)
        j1 = evaluate_cost(b2, problem.running, problem.k_path, problem.terminal,
                           fieldref=field)
        fd_samples = (j1.samples - j0.samples) / theta
        d_fd = float(fd_samples.mean())
        se_fd = float(fd_samples.std(ddof=1) / math.sqrt(scenarios))
        pairs = [
            ("fd-fv", d_fd, d_fv.total, se_fd, d_fv.stderr),
            ("fv-adj", d_fv.total, d_adj.total, d_fv.stderr, d_adj.stderr),
            ("fd-adj", d_fd, d_adj.total, se_fd, d_adj.stderr),
        ]
        for name, a, b, sa, sb in pairs:
            if abs(a - b) > 3.0 * math.hypot(sa, sb):
                failures.append(f"trial {trial} {name}: |{a:.5f}-{b:.5f}| > 3se")
    _report(4, "gradient triangle", not failures, started, 300.0,
            "; ".join(failures) if failures else "20 pairs, 3 comparisons each")


def test_criterion_5_max_principle_fixed_point():
    started = time.perf_counter()
    problem = drift_control_toy(steps=100, points=8)
    scenarios = 4000
    seed = 9
    noise = problem.noise(scenarios, seed)
    field = problem.sample_field(scenarios, seed, noise)
    xi0 = SingularControl.zero(problem.tg.steps, 2)

    # brute-force oracle over the 8 constant strict controls (common noise)
    candidate_costs = []
    for j in range(problem.grid.count):
        mu_j = RelaxedControl.from_indices(np.full(problem.tg.steps, j), problem.grid.count)
        bundle = problem.simulate(field, mu_j, xi0, noise)
        candidate_costs.append(evaluate_cost(bundle, problem.running, problem.k_path,
                                             problem.terminal, fieldref=field))
    values = [c.value for c in candidate_costs]
    best = int(np.argmin(values))
    worst = int(np.argmax(values))

    mu0 = RelaxedControl.from_indices(np.full(problem.tg.steps, worst), problem.grid.count)
    result = optimize_problem(problem, scenarios, seed, mu0=mu0,
                              options=OptimizerOptions(max_iter=50))
    state = result.state
    converged = state.converged and state.iteration <= 50
    adj = rc.solve_adjoint_regression(result.fieldref, state.mu, state.bundle,
                                      problem.running, problem.terminal, problem.stock)
    report = rc.check_max_principle(result.fieldref, state.bundle, adj,
                                    problem.running, problem.k_path)
    final_cost = evaluate_cost(state.bundle, problem.running, problem.k_path,
                               problem.terminal, fieldref=result.fieldref)
    combined = 3.0 * math.hypot(final_cost.stderr, candidate_costs[best].stderr)
    beats_oracle = final_cost.value <= values[best] + combined
    found_best = int(np.argmax(state.mu.weights[0])) == best
    ok = converged and report.passed and beats_oracle and found_best
    _report(5, "max-principle fixed point", ok, started, 300.0,
            f"iters {state.iteration}, gap {report.hamiltonian_gap:.2e} "
            f"(tol {report.gap_tolerance:.2e}), slack_min {report.slack_min:.2e}, "
            f"cost {final_cost.value:.5f} vs oracle {values[best]:.5f}")


def test_criterion_6_singular_economics():
    started = time.perf_counter()
    # (a) singular marginal cost far above any jump benefit: no transfers
    probe = drift_control_toy(steps=60, k_level=0.0)
    pre = optimize_problem(probe, 500, 3, options=OptimizerOptions(max_iter=0))
    adj = rc.solve_adjoint_regression(pre.fieldref, pre.state.mu, pre.state.bundle,
                                      probe.running, probe.terminal, probe.stock)
    gain_scale = float(np.abs(
        rc.maxprinciple.slack_paths(pre.fieldref, probe.k_path, adj)
    ).max())
    expensive = drift_control_toy(steps=60, k_level=100.0 * gain_scale)
    result_a = optimize_problem(expensive, 1000, 3, options=OptimizerOptions(max_iter=25))
    ok_a = bool(np.all(result_a.state.xi.increments == 0.0))

    # (b) zero singular cost with a constructed negative-slack window
    problem, lo, hi = window_toy(steps=90)
    result_b = optimize_problem(problem, 1000, 4, options=OptimizerOptions(max_iter=30))
    inc = result_b.state.xi.increments
    outside = float(np.abs(inc[:lo]).sum() + np.abs(inc[hi:]).sum())
    inside = float(inc[lo:hi].sum())
    adj_b = rc.solve_adjoint_regression(result_b.fieldref, result_b.state.mu,
                                        result_b.state.bundle, problem.running,
                                        problem.terminal, problem.stock)
    report_b = rc.check_max_principle(result_b.fieldref, result_b.state.bundle, adj_b,
                                      problem.running, problem.k_path)
    ok_b = outside == 0.0 and inside > 0.0 and report_b.complementarity_violation == 0.0
    _report(6, "singular economics", ok_a and ok_b, started, 120.0,
            f"expensive tv {result_a.state.xi.total_variation:.1e}; "
            f"window mass inside {inside:.3f}, outside {outside:.1e}")


def test_criterion_7_finance_specialization():
    started = time.perf_counter()
    from rscontrol.finance import PortfolioParams, build_portfolio_problem
    from rscontrol.maxprinciple import hamiltonian_slice
    from rscontrol.measures import dirac, integrate_against

    sigma, beta, theta_mpr = 0.02, 0.05, 0.12
    market = MarketModel(
        volatility="ho-lee", sigma=sigma,
        maturities=[1.0, 2.0, 4.0], consumption=[0.01, 0.05, 0.15],
        market_price_of_risk={"kind": "constant", "value": theta_mpr},
    )
    params = PortfolioParams(cost_buy=0.01, cost_sell=0.015, discount=beta,
                             utility="sqrt", utility_sign=+1.0)
    built = build_portfolio_problem(market, params, rc.TimeGrid(1.0, 8))
    problem = built.problem
    field = problem.sample_field(4, 3)

    # printed Hamiltonian on spot-check slices
    k, t = 3, 3.0 / 8.0
    x, y, p = 1.7, 0.9, 0.6
    P = np.array([0.25, -0.1])
    w = np.full(problem.grid.count, 1.0 / problem.grid.count)
    slc = hamiltonian_slice(field, k, x, y, p, P, problem.running, w, t=t)
    u = problem.grid.points[:, 0]
    c = problem.grid.points[:, 1]
    v = -sigma * u
    rate, theta = rate_paths(field)
    r0 = rate[:, k][:, None]
    th = theta[:, k][:, None]
    printed = (-p * (r0 - v[None, :] * th - c[None, :]) * x
               - P[0] * v[None, :] * x
               - math.exp(-beta * t) * np.sqrt(c)[None, :])
    dev_h = float(np.abs(slc.values - printed).max())

    # printed adjoint drivers on spot-check slices
    rng = np.random.default_rng(1)
    qw = rng.dirichlet(np.ones(3))
    ci = 2
    wprod = np.outer(qw, dirac(3, ci)).ravel()
    pvec = rng.normal(size=4)
    p_load = rng.normal(size=(4, 2))
    slo = integrate_against(field.drift_slope_at(k), wprod, axis=-1)
    vslo = integrate_against(field.vol_slope_at(k), wprod, axis=-2)
    generic = slo * pvec + (vslo * p_load).sum(-1)
    v_q = float(integrated_volatility(market, market.maturities) @ qw)
    driver = ((rate[:, k] - v_q * theta[:, k]
               - market.consumption[ci]) * pvec + v_q * p_load[:, 0])
    dev_d = float(np.abs(generic - driver).max())

    # closed-form volatility fields
    hl = integrated_volatility(market, market.maturities)
    dev_hl = float(np.abs(hl - (-sigma * market.maturities)).max())
    hw_market = MarketModel(volatility="hull-white", sigma=0.01, mean_reversion=0.1,
                            maturities=[10.0], consumption=[0.0])
    hw = integrated_volatility(hw_market, [10.0])[0]
    dev_hw = abs(hw - 0.1 * math.expm1(-1.0))

    # hull-white -> ho-lee at first order in the reversion rate
    u_ref, target = 3.0, -0.02 * 3.0
    errors = []
    for cc in (0.02, 0.01, 0.005):
        m = MarketModel(volatility="hull-white", sigma=0.02, mean_reversion=cc,
                        maturities=[u_ref], consumption=[0.0])
        errors.append(abs(integrated_volatility(m, [u_ref])[0] - target))
    ratios = (errors[0] / errors[1], errors[1] / errors[2])
    ok = (dev_h <= 1e-12 and dev_d <= 1e-12 and dev_hl <= 1e-14 and dev_hw <= 1e-14
          and all(1.8 <= r <= 2.2 for r in ratios))
    _report(7, "finance specialization", ok, started, 10.0,
            f"hamiltonian dev {dev_h:.1e}, driver dev {dev_d:.1e}, "
            f"field devs {dev_hl:.1e}/{dev_hw:.1e}, limit ratios "
            f"{ratios[0]:.2f}/{ratios[1]:.2f}")


def test_criterion_8_cli_reproducibility(tmp_path):
    started = time.perf_counter()
    import json

    def tree(root):
        return {p.relative_to(root).as_posix(): p.read_bytes()
                for p in sorted(root.rglob("*")) if p.is_file()}

    ok = True
    details = []

    # packaged bond scenario, simulate twice
    bond_out = tmp_path / "bond_out"
    cfg = example_bond_config()
    cfg["output_dir"] = str(bond_out)
    bond_cfg = tmp_path / "bond.json"
    bond_cfg.write_text(json.dumps(cfg, indent=2, sort_keys=True))
    assert main(["simulate", "--config", str(bond_cfg), "--no-timestamp"]) == 0
    first = tree(bond_out)
    assert main(["simulate", "--config", str(bond_cfg), "--no-timestamp"]) == 0
    if tree(bond_out) != first:
        ok = False
        details.append("simulate outputs differ")

    # canonical toy, optimize twice then verify twice
    toy_out = tmp_path / "toy_out"
    pts = np.linspace(-1.0, 1.0, 5)
    toy = {
        "schema": "rscontrol-scenario/1",
        "problem": {
            "kind": "canonical", "x0": 1.0, "y0": 1.0, "brownian_dim": 1,
            "action_grid": {"points": pts.tolist()},
            "coefficients": {"model": "deterministic-constant",
                             "drift_level": pts.tolist(), "vol_level": [0.2]},
            "stock": {"inert": True},
            "running_cost": {"family": "affine_quadratic", "quad": 1.0},
            "terminal_cost": {"family": "linear_quadratic", "gx1": 0.5},
            "singular_cost": {"constant": [10.0]},
        },
        "time": {"horizon": 1.0, "steps": 20},
        "scenarios": 300,
        "seed": 5,
        "optimizer": {"max_iter": 15},
        "output_dir": str(toy_out),
    }
    toy_cfg = tmp_path / "toy.json"
    toy_cfg.write_text(json.dumps(toy, indent=2, sort_keys=True))
    assert main(["optimize", "--config", str(toy_cfg), "--no-timestamp"]) == 0
    first = tree(toy_out)
    assert main(["optimize", "--config", str(toy_cfg), "--no-timestamp"]) == 0
    if tree(toy_out) != first:
        ok = False
        details.append("optimize outputs differ")

    verify_out = tmp_path / "verify_out"
    controls = toy_out / "controls.json"
    args = ["verify", "--config", str(toy_cfg), "--controls", str(controls),
            "--out", str(verify_out), "--no-timestamp"]
    assert main(args) == 0
    first = tree(verify_out)
    assert main(args) == 0
    if tree(verify_out) != first:
        ok = False
        details.append("verify outputs differ")

    _report(8, "cli reproducibility", ok, started, 120.0, "; ".join(details))
