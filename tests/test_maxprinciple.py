import math

import numpy as np
import pytest

import rscontrol as rc
from rscontrol.maxprinciple import (
    MaxPrincipleTolerances,
    check_max_principle,
    hamiltonian_slice,
    pointwise_maximizer,
    slack_paths,
    variational_derivative,
)
from rscontrol.measures import RelaxedControl, SingularControl, convex_combine, dirac
from rscontrol.optimizer import (
    evaluate_cost,
    first_variation_derivative,
    solve_first_variation,
)

from toys import drift_control_toy, drift_control_optimum_index, rich_toy, random_admissible_controls


def _field_two_points(drift_level):
    tg = rc.TimeGrid(1.0, 4)
    grid = rc.ActionGrid([0.0, 1.0])
    return rc.dense_field(tg, grid, scenarios=1, dim=1, drift_level=drift_level), tg


class TestHamiltonianSlice:
    def test_zero_everything(self):
        field, tg = _field_two_points([0.0, 1.0])
        running = rc.zero_running()
        slc = hamiltonian_slice(field, 0, 0.0, 0.0, 0.0, np.zeros(1), running,
                                np.array([0.5, 0.5]), t=0.0)
        assert np.all(slc.values == 0.0)
        assert float(slc.at_mu) == 0.0

    def test_sign_of_drift_pairing(self):
        # p = 1, drift level = u on {0, 1}: H = (0, -1), point mass at 0 maximizes
        field, tg = _field_two_points([0.0, 1.0])
        running = rc.zero_running()
        slc = hamiltonian_slice(field, 0, 0.0, 0.0, 1.0, np.zeros(1), running,
                                dirac(2, 0), t=0.0)
        assert np.allclose(slc.values, [0.0, -1.0])
        idx, gap = pointwise_maximizer(slc)
        assert idx == 0 and gap == 0.0

    def test_uniform_gap(self):
        field, tg = _field_two_points([0.0, 1.0])
        running = rc.zero_running()
        slc = hamiltonian_slice(field, 0, 0.0, 0.0, 1.0, np.zeros(1), running,
                                np.array([0.5, 0.5]), t=0.0)
        idx, gap = pointwise_maximizer(slc)
        assert idx == 0
        assert gap == pytest.approx(0.5, abs=1e-15)

    def test_constant_slice_tie_break(self):
        field, tg = _field_two_points([1.0, 1.0 + 0.0])
        running = rc.zero_running()
        slc = hamiltonian_slice(field, 0, 0.0, 0.0, 1.0, np.zeros(1), running,
                                np.array([0.5, 0.5]), t=0.0)
        idx, gap = pointwise_maximizer(slc)
        assert idx == 0
        assert gap == pytest.approx(0.0, abs=1e-15)

    def test_non_finite_rejected(self):
        field, tg = _field_two_points([0.0, 1.0])
        with pytest.raises(ValueError, match="non-finite"):
            hamiltonian_slice(field, 0, np.nan, 0.0, 1.0, np.zeros(1),
                              rc.zero_running(), dirac(2, 0), t=0.0)

    def test_affinity_in_measure(self):
        problem = rich_toy(steps=10)
        noise = problem.noise(50, 1)
        field = problem.sample_field(50, 1, noise)
        rng = np.random.default_rng(3)
        running = problem.running
        for k in (0, 5, 9):
            x = rng.normal(size=50)
            y = rng.normal(size=50)
            p = rng.normal(size=50)
            P = rng.normal(size=(50, 2))
            w1 = rng.dirichlet(np.ones(5))
            w2 = rng.dirichlet(np.ones(5))
            theta = rng.uniform()
            mix = (1 - theta) * w1 + theta * w2
            h1 = hamiltonian_slice(field, k, x, y, p, P, running, w1, t=0.3)
            h2 = hamiltonian_slice(field, k, x, y, p, P, running, w2, t=0.3)
            hm = hamiltonian_slice(field, k, x, y, p, P, running, mix, t=0.3)
            assert np.allclose(hm.at_mu, (1 - theta) * h1.at_mu + theta * h2.at_mu,
                               atol=1e-10)


class TestVariationalDerivative:
    def _solved(self, scenarios=2000, seed=4):
        problem = rich_toy(steps=80)
        noise = problem.noise(scenarios, seed)
        field = problem.sample_field(scenarios, seed, noise)
        rng = np.random.default_rng(seed + 1)
        mu, xi = random_admissible_controls(rng, problem.tg.steps, problem.grid.count, 2)
        bundle = problem.simulate(field, mu, xi, noise)
        adj = rc.solve_adjoint_regression(field, mu, bundle, problem.running,
                                          problem.terminal, problem.stock)
        return problem, field, noise, bundle, adj, rng

    def test_zero_in_own_direction(self):
        problem, field, noise, bundle, adj, rng = self._solved()
        out = variational_derivative(field, bundle, adj, problem.running,
                                     problem.k_path, (bundle.mu, bundle.xi))
        assert out.total == 0.0
        assert out.singular_term == 0.0
        assert out.measure_term == 0.0

    def test_matches_finite_difference(self):
        problem, field, noise, bundle, adj, rng = self._solved(scenarios=4000)
        q, eta = random_admissible_controls(rng, problem.tg.steps, problem.grid.count, 2,
                                            scale=0.01)
        out = variational_derivative(field, bundle, adj, problem.running,
                                     problem.k_path, (q, eta))
        theta = 1e-3
        mu2 = convex_combine(bundle.mu, q, theta)
        xi2 = rc.combine_singular(bundle.xi, eta, theta)
        b2 = problem.simulate(field, mu2, xi2, noise)
        j0 = evaluate_cost(bundle, problem.running, problem.k_path, problem.terminal,
                           fieldref=field)
        j1 = evaluate_cost(b2, problem.running, problem.k_path, problem.terminal,
                           fieldref=field)
        fd = float((j1.samples - j0.samples).mean()) / theta
        assert out.total == pytest.approx(fd, rel=0.02)

    def test_matches_first_variation_pathway(self):
        problem, field, noise, bundle, adj, rng = self._solved(scenarios=4000)
        q, eta = random_admissible_controls(rng, problem.tg.steps, problem.grid.count, 2,
                                            scale=0.01)
        out = variational_derivative(field, bundle, adj, problem.running,
                                     problem.k_path, (q, eta))
        fv = solve_first_variation(field, bundle.mu, bundle, problem.stock, (q, eta))
        alt = first_variation_derivative(field, bundle, fv, problem.running,
                                         problem.terminal, problem.k_path, (q, eta))
        combined = math.hypot(out.stderr, alt.stderr)
        assert abs(out.total - alt.total) <= 3.0 * combined

    def test_scaling_property(self):
        # common positive factor on running, terminal and singular costs
        factor = 2.5
        problem = rich_toy(steps=40)
        scaled = rc.ControlProblem(
            tg=problem.tg, grid=problem.grid, dim=2, x0=problem.x0, y0=problem.y0,
            coefficients=problem.coefficients, stock=problem.stock,
            running=rc.affine_quadratic_running(cx=0.2 * factor, cy=0.1 * factor,
                                                quad=0.5 * factor),
            terminal=rc.linear_quadratic_terminal(gx1=0.5 * factor, gx2=0.3 * factor,
                                                  gy1=0.3 * factor, gy2=0.2 * factor),
            k_path=problem.k_path * factor,
        )
        scenarios = 500
        noise = problem.noise(scenarios, 6)
        field = problem.sample_field(scenarios, 6, noise)
        rng = np.random.default_rng(8)
        mu, xi = random_admissible_controls(rng, problem.tg.steps, problem.grid.count, 2)
        q, eta = random_admissible_controls(rng, problem.tg.steps, problem.grid.count, 2)
        bundle = problem.simulate(field, mu, xi, noise)
        base_adj = rc.solve_adjoint_regression(field, mu, bundle, problem.running,
                                               problem.terminal, problem.stock)
        scaled_adj = rc.solve_adjoint_regression(field, mu, bundle, scaled.running,
                                                 scaled.terminal, scaled.stock)
        d1 = variational_derivative(field, bundle, base_adj, problem.running,
                                    problem.k_path, (q, eta))
        d2 = variational_derivative(field, bundle, scaled_adj, scaled.running,
                                    scaled.k_path, (q, eta))
        assert d2.total == pytest.approx(factor * d1.total, rel=1e-6)
        mean1 = rc.maxprinciple.mean_hamiltonian_values(field, bundle, base_adj,
                                                        problem.running, mu)
        mean2 = rc.maxprinciple.mean_hamiltonian_values(field, bundle, scaled_adj,
                                                        scaled.running, mu)
        assert np.array_equal(np.argmax(mean1, axis=1), np.argmax(mean2, axis=1))

    def test_gap_nonnegative_for_random_controls(self):
        problem, field, noise, bundle, adj, rng = self._solved(scenarios=400)
        report = check_max_principle(field, bundle, adj, problem.running, problem.k_path)
        assert report.hamiltonian_gap >= 0.0


class TestCheckMaxPrinciple:
    def _run(self, problem, mu, xi, scenarios=2000, seed=5, tolerances=None):
        noise = problem.noise(scenarios, seed)
        field = problem.sample_field(scenarios, seed, noise)
        bundle = problem.simulate(field, mu, xi, noise)
        adj = rc.solve_adjoint_regression(field, mu, bundle, problem.running,
                                          problem.terminal, problem.stock)
        return check_max_principle(field, bundle, adj, problem.running,
                                   problem.k_path, tolerances), field, bundle, adj

    def test_passes_at_enumerated_optimum(self):
        problem = drift_control_toy()
        best = drift_control_optimum_index(problem)
        mu = RelaxedControl.from_indices(np.full(problem.tg.steps, best), problem.grid.count)
        xi = SingularControl.zero(problem.tg.steps, 2)
        report, *_ = self._run(problem, mu, xi)
        assert report.pass_hamiltonian
        assert report.pass_slack
        assert report.pass_complementarity
        assert report.passed

    def test_minimizer_fails_gap(self):
        problem = drift_control_toy()
        # point mass at the grid point maximizing the cost rate
        pts = problem.grid.flat()
        worst = int(np.argmax(0.5 * pts ** 2 + 0.5 * pts))
        mu = RelaxedControl.from_indices(np.full(problem.tg.steps, worst), problem.grid.count)
        xi = SingularControl.zero(problem.tg.steps, 2)
        report, *_ = self._run(problem, mu, xi)
        assert not report.pass_hamiltonian
        assert report.hamiltonian_gap > 0.1

    def test_negative_slack_reported(self):
        # zero singular cost and a negative pairing of gains with costates
        problem = drift_control_toy(k_level=0.0, gx1=-0.5)
        mu, xi = problem.default_controls()
        report, *_ = self._run(problem, mu, xi)
        assert report.slack_min < 0.0
        assert not report.pass_slack

    def test_slack_matches_direct_formula(self):
        problem = drift_control_toy()
        mu, xi = problem.default_controls()
        report, field, bundle, adj = self._run(problem, mu, xi, scenarios=300)
        n = problem.tg.steps
        direct = (problem.k_path[None]
                  + field.jump_gain_x[None] * adj.px[:, :n, None]
                  + field.jump_gain_y[None] * adj.py[:, :n, None])
        assert np.array_equal(slack_paths(field, problem.k_path, adj), direct)

    def test_report_round_trip_and_table(self):
        problem = drift_control_toy()
        mu, xi = problem.default_controls()
        report, *_ = self._run(problem, mu, xi, scenarios=200)
        table = report.render_table()
        assert "hamiltonian gap" in table
        assert ("PASS" in table) or ("FAIL" in table)

    def test_custom_tolerances(self):
        problem = drift_control_toy()
        mu, xi = problem.default_controls()
        tol = MaxPrincipleTolerances(gap_se_multiplier=1e9)
        report, *_ = self._run(problem, mu, xi, scenarios=200, tolerances=tol)
        assert report.tolerances.gap_se_multiplier == 1e9
