import dataclasses
import math

import numpy as np
import pytest

import rscontrol as rc
from rscontrol.measures import RelaxedControl, SingularControl
from rscontrol.optimizer import (
    OptimizerOptions,
    _singular_direction,
    evaluate_cost,
    first_variation_derivative,
    optimize_problem,
    solve_first_variation,
)

from toys import (
    drift_control_optimum_index,
    drift_control_toy,
    mean_argmax_vertex,
    random_admissible_controls,
    rich_toy,
)


def _setup(problem, scenarios, seed, mu=None, xi=None):
    noise = problem.noise(scenarios, seed)
    field = problem.sample_field(scenarios, seed, noise)
    mu0, xi0 = problem.default_controls()
    mu = mu if mu is not None else mu0
    xi = xi if xi is not None else xi0
    bundle = problem.simulate(field, mu, xi, noise)
    return field, noise, bundle


class TestEvaluateCost:
    def test_terminal_only(self):
        problem = drift_control_toy(steps=40, k_level=0.0)
        field, noise, bundle = _setup(problem, 300, 1)
        cost = evaluate_cost(bundle, rc.zero_running(), np.zeros((40, 2)),
                             rc.linear_quadratic_terminal(gx1=1.0), fieldref=field)
        assert cost.value == pytest.approx(bundle.x[:, -1].mean(), abs=1e-12)

    def test_unit_running_cost_is_horizon(self):
        problem = drift_control_toy(steps=37)
        field, noise, bundle = _setup(problem, 10, 2)
        unit = rc.RunningCost(
            value=lambda t, x, y, pts: np.ones((len(t), x.shape[0], pts.shape[0])),
            dx=lambda t, x, y, pts: np.zeros((len(t), x.shape[0], pts.shape[0])),
            dy=lambda t, x, y, pts: np.zeros((len(t), x.shape[0], pts.shape[0])),
        )
        zero_g = rc.TerminalCost(value=lambda x, y: np.zeros_like(x),
                                 dx=lambda x, y: np.zeros_like(x),
                                 dy=lambda x, y: np.zeros_like(x))
        cost = evaluate_cost(bundle, unit, np.zeros((37, 2)), zero_g, fieldref=field)
        assert cost.value == pytest.approx(1.0, abs=1e-12)
        assert cost.stderr <= 1e-14

    def test_gbm_terminal_oracle(self):
        problem = drift_control_toy(steps=100)
        scenarios = 4000
        field, noise, bundle = _setup(problem, scenarios, 3)
        g_of_y = rc.TerminalCost(value=lambda x, y: y,
                                 dx=lambda x, y: np.zeros_like(x),
                                 dy=lambda x, y: np.ones_like(y))
        cost = evaluate_cost(bundle, rc.zero_running(), np.zeros((100, 2)), g_of_y,
                             fieldref=field)
        target = 1.0 * math.exp(0.05 * 1.0)
        assert abs(cost.value - target) <= 3.0 * cost.stderr

    def test_singular_cost_term(self):
        problem = drift_control_toy(steps=10, k_level=2.0)
        inc = np.zeros((10, 2))
        inc[4] = [0.5, 0.25]
        xi = SingularControl(inc)
        field, noise, bundle = _setup(problem, 5, 4, xi=xi)
        zero_g = rc.TerminalCost(value=lambda x, y: np.zeros_like(x),
                                 dx=lambda x, y: np.zeros_like(x),
                                 dy=lambda x, y: np.zeros_like(x))
        cost = evaluate_cost(bundle, rc.zero_running(), problem.k_path, zero_g,
                             fieldref=field)
        assert cost.value == pytest.approx(2.0 * 0.75, abs=1e-12)

    def test_non_finite_excluded(self):
        problem = drift_control_toy(steps=10, k_level=0.0)
        field, noise, bundle = _setup(problem, 8, 5)
        bundle.x[0, -1] = np.nan
        cost = evaluate_cost(bundle, rc.zero_running(), np.zeros((10, 2)),
                             rc.linear_quadratic_terminal(gx1=1.0), fieldref=field)
        assert cost.excluded == 1
        assert np.isfinite(cost.value)


class TestAffineRunningTable:
    """``affine_quadratic_running.value`` fills its block table one column per
    point; it equals the broadcast expression bitwise and is a step-major,
    C-ordered (m, S, count) table, the operand ``evaluate_cost`` and the
    Hamiltonian integrate."""

    @pytest.mark.parametrize("count", [5, 9])
    @pytest.mark.parametrize("lin", [None, [0.3, -1.7]])
    @pytest.mark.parametrize("scenarios", [1, 7, 1000])
    def test_matches_broadcast(self, scenarios, lin, count):
        rng = np.random.default_rng(scenarios + count)
        m = 4
        # column slices of step-major (F-ordered) paths, as the block loops pass them
        x, y = (np.asfortranarray(a) for a in
                rng.standard_normal((2, scenarios, m)) * 10.0 ** rng.integers(-5, 5, (2, scenarios, m)))
        pts = rng.standard_normal((count, 2))
        cx, cy, quad = 0.2, -0.1, 0.7
        table = rc.affine_quadratic_running(cx, cy, quad, lin).value(np.zeros(m), x, y, pts)
        parts = 0.5 * quad * (pts * pts).sum(axis=1)
        if lin is not None:
            parts = parts + pts @ np.asarray(lin, float)
        assert np.array_equal(table, (cx * x + cy * y).T[:, :, None] + parts[None, None, :])
        assert table.shape == (m, scenarios, count) and table.flags.c_contiguous


class TestFirstVariation:
    def test_zero_in_own_direction(self):
        problem = rich_toy(steps=30)
        field, noise, bundle = _setup(problem, 100, 1)
        fv = solve_first_variation(field, bundle.mu, bundle, problem.stock,
                                   (bundle.mu, bundle.xi))
        assert np.all(fv.alpha_x == 0.0)
        assert np.all(fv.alpha_y == 0.0)
        assert np.all(fv.beta == 0.0)

    def test_unit_jump_step_path(self):
        # no slopes: the x-sensitivity is the jump gain accumulated stepwise
        problem = drift_control_toy(steps=20)
        field, noise, bundle = _setup(problem, 6, 2)
        inc = np.zeros((20, 2))
        inc[7, 0] = 1.0
        eta = SingularControl(inc)
        fv = solve_first_variation(field, bundle.mu, bundle, problem.stock,
                                   (bundle.mu, eta))
        expected = np.zeros(21)
        expected[8:] = 1.0
        assert np.allclose(fv.alpha_x, expected[None, :], atol=1e-14)

    def test_unit_y_jump_step_path(self):
        # a unit y-jump at step 7 (gain (0, 1)), then the stock's growth:
        # alpha_y[k] = prod_{8 <= j < k} (1 + lam dt + rho dW_1[j]) for k >= 8
        lam, rho = 0.3, 0.4
        problem = dataclasses.replace(drift_control_toy(steps=20),
                                      stock=rc.linear_stock(lam, rho, 2))
        field, noise, bundle = _setup(problem, 6, 2)
        inc = np.zeros((20, 2))
        inc[7, 1] = 1.0
        fv = solve_first_variation(field, bundle.mu, bundle, problem.stock,
                                   (bundle.mu, SingularControl(inc)))
        growth = 1.0 + lam * bundle.tg.dt + rho * noise[:, 8:, 1]
        expected = np.zeros((6, 21))
        expected[:, 8] = 1.0
        expected[:, 9:] = np.cumprod(growth, axis=1)
        assert np.allclose(fv.alpha_y, expected, rtol=1e-13, atol=1e-14)
        assert np.all(fv.alpha_x == 0.0)
        assert np.ptp(fv.alpha_y[:, -1]) > 0.05

    def test_finite_difference_oracle(self):
        # (J(theta) - J(0)) / theta against the first-variation formula
        problem = rich_toy(steps=120)
        scenarios = 4000
        noise = problem.noise(scenarios, 9)
        field = problem.sample_field(scenarios, 9, noise)
        rng = np.random.default_rng(12)
        mu, xi = random_admissible_controls(rng, problem.tg.steps, problem.grid.count, 2)
        q, eta = random_admissible_controls(rng, problem.tg.steps, problem.grid.count, 2,
                                            scale=0.01)
        bundle = problem.simulate(field, mu, xi, noise)
        fv = solve_first_variation(field, mu, bundle, problem.stock, (q, eta))
        est = first_variation_derivative(field, bundle, fv, problem.running,
                                         problem.terminal, problem.k_path, (q, eta))
        theta = 1e-3
        mu2 = rc.convex_combine(mu, q, theta)
        xi2 = rc.combine_singular(xi, eta, theta)
        b2 = problem.simulate(field, mu2, xi2, noise)
        j0 = evaluate_cost(bundle, problem.running, problem.k_path, problem.terminal,
                           fieldref=field)
        j1 = evaluate_cost(b2, problem.running, problem.k_path, problem.terminal,
                           fieldref=field)
        fd = float((j1.samples - j0.samples).mean()) / theta
        assert est.total == pytest.approx(fd, rel=0.02)


class TestFrankWolfe:
    def test_start_at_optimum_converges_immediately(self):
        problem = drift_control_toy()
        best = drift_control_optimum_index(problem)
        mu0 = RelaxedControl.from_indices(np.full(problem.tg.steps, best),
                                          problem.grid.count)
        result = optimize_problem(problem, 1000, 7, mu0=mu0)
        assert result.state.converged
        assert result.state.iteration == 0
        assert result.state.reason == "duality gap within tolerance"

    def test_descent_from_worst_start(self):
        problem = drift_control_toy()
        pts = problem.grid.flat()
        worst = int(np.argmax(0.5 * pts ** 2 + 0.5 * pts))
        mu0 = RelaxedControl.from_indices(np.full(problem.tg.steps, worst),
                                          problem.grid.count)
        result = optimize_problem(problem, 1000, 7, mu0=mu0)
        assert result.state.converged
        assert result.state.iteration <= 50
        accepted = [r for r in result.records if r.accepted]
        assert accepted[0].theta == 1.0 and accepted[0].halvings == 0   # first trial taken
        costs = [r.cost for r in accepted]
        assert all(b <= a + 1e-9 for a, b in zip(costs, costs[1:]))
        best = drift_control_optimum_index(problem)
        assert np.argmax(result.state.mu.weights[0]) == best

    def test_stall_is_not_converged(self, monkeypatch):
        # an Armijo constant no step can satisfy exhausts the halving budget
        monkeypatch.setattr(rc.optimizer, "ARMIJO_C1", 1e6)
        problem = drift_control_toy()
        pts = problem.grid.flat()
        worst = int(np.argmax(0.5 * pts ** 2 + 0.5 * pts))
        mu0 = RelaxedControl.from_indices(np.full(problem.tg.steps, worst),
                                          problem.grid.count)
        result = optimize_problem(problem, 500, 7, mu0=mu0,
                                  options=OptimizerOptions(max_halvings=1))
        assert result.state.reason == "no descent step within halving budget"
        assert result.state.converged is False
        assert result.state.iteration == 0
        assert len(result.records) == 1
        assert result.records[0].halvings == 2   # both trial steps rejected

    def test_threads_reach_every_simulation(self, monkeypatch):
        calls = []
        simulate = rc.problems.simulate_forward

        def record(*args, threads=1, **kwargs):
            calls.append(threads)
            return simulate(*args, threads=threads, **kwargs)

        monkeypatch.setattr(rc.problems, "simulate_forward", record)
        optimize_problem(drift_control_toy(steps=20), 200, 1, threads=2)
        assert len(calls) > 1
        assert set(calls) == {2}

    def test_large_singular_cost_keeps_xi_zero(self):
        problem = drift_control_toy(k_level=100.0)
        result = optimize_problem(problem, 500, 3)
        assert np.all(result.state.xi.increments == 0.0)

    def test_iterates_stay_admissible(self):
        problem = drift_control_toy(k_level=0.0, gx1=-0.5)
        result = optimize_problem(problem, 500, 3,
                                  options=OptimizerOptions(max_iter=10))
        w = result.state.mu.weights
        assert np.all(w >= 0.0)
        assert np.allclose(w.sum(axis=1), 1.0, atol=1e-12)
        inc = result.state.xi.increments
        assert np.all(inc >= 0.0)
        assert inc.sum() <= problem.tv_cap * (1.0 + 1e-9)

    def test_converged_state_passes_max_principle(self):
        problem = drift_control_toy()
        result = optimize_problem(problem, 2000, 11)
        state = result.state
        assert state.converged
        adj = rc.solve_adjoint_regression(result.fieldref, state.mu, state.bundle,
                                          problem.running, problem.terminal,
                                          problem.stock)
        report = rc.check_max_principle(result.fieldref, state.bundle, adj,
                                        problem.running, problem.k_path)
        assert report.passed

    def test_max_iter_zero_returns_initial_state(self):
        problem = drift_control_toy()
        result = optimize_problem(problem, 200, 1,
                                  options=OptimizerOptions(max_iter=0))
        assert not result.state.converged
        assert result.state.iteration == 0
        assert result.state.reason == "max iterations reached"
        assert result.records == []

    def test_derivative_nonnegative_at_optimum(self):
        # the directional derivative at a converged state is nonnegative for
        # every sampled admissible direction, up to statistical tolerance
        problem = drift_control_toy()
        result = optimize_problem(problem, 2000, 13)
        state = result.state
        adj = rc.solve_adjoint_regression(result.fieldref, state.mu, state.bundle,
                                          problem.running, problem.terminal,
                                          problem.stock)
        rng = np.random.default_rng(5)
        for _ in range(10):
            q, eta = random_admissible_controls(rng, problem.tg.steps,
                                                problem.grid.count, 2, scale=0.01)
            out = rc.variational_derivative(result.fieldref, state.bundle, adj,
                                            problem.running, problem.k_path, (q, eta))
            assert out.total >= -3.0 * out.stderr - 1e-9

    def test_first_gap_is_derivative_at_mean_argmax_vertex(self):
        # the optimizer's one-sweep gap equals the directional derivative
        # along a vertex built independently, bit for bit
        # on 9 points the pathwise argmax differs from the scenario-mean one in
        # up to ~45% of scenarios per step; a negative singular cost makes the
        # singular vertex nonzero
        problem = dataclasses.replace(rich_toy(steps=20, points=9), k_path=np.full((20, 2), -0.2))
        mu0, xi0 = random_admissible_controls(np.random.default_rng(3), problem.tg.steps,
                                              problem.grid.count, 2)
        result = optimize_problem(problem, 300, 4, mu0=mu0, xi0=xi0,
                                  options=OptimizerOptions(max_iter=1))
        field = result.fieldref
        bundle = problem.simulate(field, mu0, xi0, result.noise)
        adj = rc.solve_adjoint_regression(field, mu0, bundle, problem.running,
                                          problem.terminal, problem.stock)
        q = mean_argmax_vertex(field, bundle, adj, problem.running)
        mean_slack = rc.maxprinciple.slack_paths(field, problem.k_path, adj).mean(axis=0)
        eta = _singular_direction(mean_slack, 1.0, problem.tg.dt, problem.tv_cap)
        assert eta.total_variation > 0.0
        deriv = rc.variational_derivative(field, bundle, adj, problem.running,
                                          problem.k_path, (q, eta))
        record = result.records[0]
        assert record.gap > 0.0
        assert record.gap == -deriv.total
        assert record.gap_stderr == deriv.stderr
