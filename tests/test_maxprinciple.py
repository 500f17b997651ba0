import math
import re
import tracemalloc

import numpy as np
import pytest

import rscontrol as rc
import rscontrol.adjoint as adjoint
import rscontrol.problems as problems
from rscontrol.adjoint import _gradient_paths, _path_slopes
from rscontrol.dynamics import coefficient_integrals
from rscontrol.maxprinciple import (
    _against,
    _grid_max,
    _mean_argmax,
    _scenario_mean,
    _shortfall,
    check_max_principle,
    gap_tolerance,
    hamiltonian_slice,
    slack_paths,
    variational_derivative,
)
from rscontrol.measures import RelaxedControl, SingularControl, convex_combine, dirac
from rscontrol.optimizer import (
    FirstVariation,
    evaluate_cost,
    first_variation_derivative,
    solve_first_variation,
)

from toys import (
    coefficient_fields,
    drift_control_optimum_index,
    drift_control_toy,
    mean_argmax_vertex,
    random_admissible_controls,
    rich_toy,
)


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
        assert np.argmax(slc.values) == 0 and slc.values.max() - slc.at_mu == 0.0

    def test_uniform_gap(self):
        field, tg = _field_two_points([0.0, 1.0])
        running = rc.zero_running()
        slc = hamiltonian_slice(field, 0, 0.0, 0.0, 1.0, np.zeros(1), running,
                                np.array([0.5, 0.5]), t=0.0)
        assert np.argmax(slc.values) == 0
        assert slc.values.max() - slc.at_mu == pytest.approx(0.5, abs=1e-15)

    def test_constant_slice_tie_break(self):
        field, tg = _field_two_points([1.0, 1.0 + 0.0])
        running = rc.zero_running()
        slc = hamiltonian_slice(field, 0, 0.0, 0.0, 1.0, np.zeros(1), running,
                                np.array([0.5, 0.5]), t=0.0)
        assert np.argmax(slc.values) == 0
        assert slc.values.max() - slc.at_mu == pytest.approx(0.0, abs=1e-15)

    def test_non_finite_rejected(self):
        field, tg = _field_two_points([0.0, 1.0])
        with pytest.raises(ValueError, match="non-finite"):
            hamiltonian_slice(field, 0, np.nan, 0.0, 1.0, np.zeros(1),
                              rc.zero_running(), dirac(2, 0), t=0.0)
        with pytest.raises(ValueError, match="non-finite"):
            hamiltonian_slice(field, 0, 0.0, np.nan, 1.0, np.zeros(1),
                              rc.affine_quadratic_running(cy=1.0), dirac(2, 0), t=0.0)

    def test_scalar_costates_with_scenario_states(self):
        # scalar x and p with a vector y: the coefficient part is one row,
        # repeated over the scenarios that the running cost (cy != 0) spans
        problem = rich_toy(steps=10)
        field = problem.sample_field(6, 1, problem.noise(6, 1))
        rng = np.random.default_rng(5)
        y, P = rng.normal(size=6), rng.normal(size=2)
        w = rng.dirichlet(np.ones(field.grid.count))
        for k in (0, 4, 9):
            slc = hamiltonian_slice(field, k, 0.7, y, -1.3, P, problem.running, w, t=0.4)
            assert slc.values.shape == (6, field.grid.count) and slc.at_mu.shape == (6,)
            for s in range(6):
                one = hamiltonian_slice(field, k, 0.7, y[s], -1.3, P, problem.running, w, t=0.4)
                assert np.array_equal(slc.values[s], one.values)
                # BLAS sums a row in an order set by its place in the matrix
                assert slc.at_mu[s] == pytest.approx(float(one.at_mu), rel=1e-13, abs=1e-15)

    def test_affinity_in_measure(self):
        problem = rich_toy(steps=10)
        noise = problem.noise(50, 1)
        rng = np.random.default_rng(3)
        running = problem.running
        fields = [("rich toy", problem.sample_field(50, 1, noise))]
        fields += coefficient_fields(rng, scenarios=50, steps=10)
        for name, field in fields:
            count = field.grid.count
            for k in (0, 5, 9):
                x = rng.normal(size=50)
                y = rng.normal(size=50)
                p = rng.normal(size=50)
                P = rng.normal(size=(50, 2))
                w1 = rng.dirichlet(np.ones(count))
                w2 = rng.dirichlet(np.ones(count))
                theta = rng.uniform()
                mix = (1 - theta) * w1 + theta * w2
                h1 = hamiltonian_slice(field, k, x, y, p, P, running, w1, t=0.3)
                h2 = hamiltonian_slice(field, k, x, y, p, P, running, w2, t=0.3)
                hm = hamiltonian_slice(field, k, x, y, p, P, running, mix, t=0.3)
                assert np.allclose(hm.at_mu, (1 - theta) * h1.at_mu + theta * h2.at_mu,
                                   atol=1e-10)
                # the per-point formula on the *_at(k) slices
                drift = field.drift_level_at(k) + field.drift_slope_at(k) * x[:, None]
                vol = field.vol_level_at(k) + field.vol_slope_at(k) * x[:, None, None]
                want = (-p[:, None] * drift - (vol * P[:, None, :]).sum(axis=-1)
                        - running.value(np.array([0.3]), x[:, None], y[:, None],
                                        field.grid.points)[0])
                np.testing.assert_allclose(h1.values, want, rtol=1e-12, err_msg=name)


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
        v1 = mean_argmax_vertex(field, bundle, base_adj, problem.running)
        v2 = mean_argmax_vertex(field, bundle, scaled_adj, scaled.running)
        assert np.array_equal(v1.weights, v2.weights)

    def test_gap_nonnegative_for_random_controls(self):
        problem, field, noise, bundle, adj, rng = self._solved(scenarios=400)
        report = check_max_principle(field, bundle, adj, problem.running, problem.k_path)
        assert report.hamiltonian_gap >= 0.0


class TestCheckMaxPrinciple:
    def _run(self, problem, mu, xi, scenarios=2000, seed=5):
        noise = problem.noise(scenarios, seed)
        field = problem.sample_field(scenarios, seed, noise)
        bundle = problem.simulate(field, mu, xi, noise)
        adj = rc.solve_adjoint_regression(field, mu, bundle, problem.running,
                                          problem.terminal, problem.stock)
        return check_max_principle(field, bundle, adj, problem.running,
                                   problem.k_path), field, bundle, adj

    def test_passes_at_enumerated_optimum(self):
        problem = drift_control_toy()
        best = drift_control_optimum_index(problem)
        mu = RelaxedControl.from_indices(np.full(problem.tg.steps, best), problem.grid.count)
        xi = SingularControl.zero(problem.tg.steps, 2)
        report, *_ = self._run(problem, mu, xi)
        # the pointwise maximum is the control itself: a gap of exactly +0.0
        assert report.hamiltonian_gap == 0.0
        assert math.copysign(1.0, report.hamiltonian_gap) == 1.0
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

    def test_gap_tolerance_is_the_shared_rule(self):
        problem = drift_control_toy()
        mu, xi = problem.default_controls()
        report, *_ = self._run(problem, mu, xi, scenarios=200)
        assert report.gap_stderr > 0.0
        assert report.gap_tolerance == gap_tolerance(report.gap_stderr)


def _random_paths(field, rng):
    """A bundle and costates on ``field``'s shape, filled with random values in
    the solvers' step-major layout, under a random measure control."""
    scen, n, dim, count = field.scenarios, field.steps, field.dim, field.grid.count

    def paths(*shape):
        return np.asfortranarray(rng.normal(size=(scen,) + shape))

    mu = RelaxedControl(rng.dirichlet(np.ones(count), size=n))
    bundle = rc.TrajectoryBundle(rc.TimeGrid(1.0, n), 1.0 + 0.1 * paths(n + 1), paths(n + 1),
                                 paths(n, dim), mu, SingularControl.zero(n, dim))
    adj = rc.AdjointSolution(paths(n + 1), paths(n, dim), paths(n + 1), paths(n, dim), "random")
    return bundle, adj


class TestBlockSweep:
    """The block sweep against the per-step evaluator, with three-step blocks
    and a step count that is not a multiple of the block."""

    SCENARIOS, STEPS, BLOCK = 7, 10, 3
    RUNNING = rc.affine_quadratic_running(cx=0.2, cy=0.1, quad=0.5)

    def _blocks_of_three(self, monkeypatch, field):
        monkeypatch.setattr(problems, "SWEEP_BUDGET", self.BLOCK * field.scenarios * field.grid.count)

    @pytest.mark.parametrize("index", range(3))
    def test_shortfalls_match_per_step_reference_bitwise(self, monkeypatch, index):
        rng = np.random.default_rng(20 + index)
        name, field = coefficient_fields(rng, scenarios=self.SCENARIOS, steps=self.STEPS)[index]
        self._blocks_of_three(monkeypatch, field)
        bundle, adj = _random_paths(field, rng)
        q = RelaxedControl(rng.dirichlet(np.ones(field.grid.count), size=self.STEPS))
        times, dt = bundle.tg.times(), bundle.tg.dt

        ref_max, ref_vertex, ref_q = (np.zeros(self.SCENARIOS) for _ in range(3))
        ref_rows = np.zeros_like(bundle.mu.weights)
        for k in range(self.STEPS):
            slc = hamiltonian_slice(field, k, bundle.x[:, k], bundle.y[:, k], adj.px[:, k],
                                    adj.Px[:, k], self.RUNNING, bundle.mu.weights[k], times[k])
            ref_max += (slc.at_mu - slc.values.max(axis=-1)) * dt
            ref_rows[k, np.argmax(slc.values.mean(axis=0))] = 1.0
            ref_vertex += (slc.at_mu - slc.values @ ref_rows[k]) * dt
            ref_q += (slc.at_mu - slc.values @ q.weights[k]) * dt

        rows = np.zeros_like(bundle.mu.weights)
        sweep = lambda compared: _shortfall(field, bundle, adj, self.RUNNING, compared)
        assert np.array_equal(sweep(_grid_max), ref_max), name
        assert np.array_equal(sweep(_mean_argmax(rows)), ref_vertex), name
        assert np.array_equal(rows, ref_rows), name
        assert np.array_equal(rows, mean_argmax_vertex(field, bundle, adj, self.RUNNING).weights)
        assert np.array_equal(sweep(_against(q.weights)), ref_q), name

    @pytest.mark.parametrize("shape", [(13, 1000, 5), (16, 200, 20), (1, 7, 3), (5, 1, 4)])
    def test_scenario_mean_is_numpys_mean_bitwise(self, shape):
        values = np.random.default_rng(6).normal(size=shape)
        mean = _scenario_mean(values)
        assert mean.shape == shape[::2]
        assert mean.tobytes() == values.mean(axis=1).tobytes()

    def test_tied_points_choose_the_first_index_in_every_block(self, monkeypatch):
        # p = -1, no diffusion and no running cost: H is the drift level
        # (1, 1, 0) in every scenario, exactly, so points 0 and 1 tie
        field = rc.dense_field(rc.TimeGrid(1.0, self.STEPS), rc.ActionGrid([-1.0, 0.0, 1.0]),
                               self.SCENARIOS, 2, drift_level=[1.0, 1.0, 0.0])
        self._blocks_of_three(monkeypatch, field)
        bundle, adj = _random_paths(field, np.random.default_rng(3))
        adj.px[...] = -1.0
        rows = np.zeros_like(bundle.mu.weights)
        _shortfall(field, bundle, adj, rc.zero_running(), _mean_argmax(rows))
        assert np.array_equal(rows, RelaxedControl.from_indices(np.zeros(self.STEPS, int), 3).weights)

    @pytest.mark.parametrize("costate, step", [("px", 3), ("Px", 5), ("px", 9)])
    def test_non_finite_costate_at_a_block_edge_is_rejected(self, monkeypatch, costate, step):
        # blocks are steps 0-2, 3-5, 6-8 and 9: the first and last step of a block
        rng = np.random.default_rng(4)
        name, field = coefficient_fields(rng, scenarios=self.SCENARIOS, steps=self.STEPS)[0]
        self._blocks_of_three(monkeypatch, field)
        bundle, adj = _random_paths(field, rng)
        getattr(adj, costate)[2, step] = np.nan
        with pytest.raises(ValueError, match="^non-finite inputs to the Hamiltonian$"):
            check_max_principle(field, bundle, adj, self.RUNNING, np.zeros((self.STEPS, 2)))

    def test_sweep_memory_is_bounded_by_the_block(self, monkeypatch):
        # 8-step blocks of a shared dense field: f = 6 feature rows (p, p x and
        # two each of P, P x) beside count = 4 points
        scen, count, block, f = 100, 4, 8, 6
        budget = block * scen * count
        monkeypatch.setattr(problems, "SWEEP_BUDGET", budget)
        peaks = {}
        for steps in (40, 160):
            rng = np.random.default_rng(5)
            field = coefficient_fields(rng, scenarios=scen, steps=steps, points=count)[0][1]
            bundle, adj = _random_paths(field, rng)
            # each case with the bytes of its whole-horizon output: the sweep's
            # per-scenario sums are inside the bound, the gradients' (S, 2, n) are not
            for name, run, output in (
                ("sweep", lambda: _shortfall(field, bundle, adj, self.RUNNING, _grid_max), 0),
                ("gradients", lambda: _gradient_paths(field, bundle.mu, bundle, self.RUNNING),
                 8 * scen * 2 * steps),
            ):
                tracemalloc.start()
                run()
                peaks[name, steps] = tracemalloc.get_traced_memory()[1] - output
                tracemalloc.stop()
        # the block's H values and feature stack, twice as much again in
        # temporaries (the block's running-cost table among them), and the
        # sum: O(S * count)
        bound = 8 * (3 * budget * (1 + f / count) + 4 * scen * count)
        for name in ("sweep", "gradients"):
            assert peaks[name, 40] <= bound and peaks[name, 160] <= bound, (peaks, bound)
            # the longer horizon adds a few floats per step (the step times), not table rows
            assert peaks[name, 160] - peaks[name, 40] <= 8 * 8 * (160 - 40), peaks
        assert peaks["sweep", 160] <= 1.05 * peaks["sweep", 40], peaks


def _bond_problem(steps):
    market = rc.MarketModel(volatility="hull-white", sigma=0.02, mean_reversion=0.1,
                            maturities=[1.0, 2.0, 4.0], consumption=[0.01, 0.05, 0.15])
    return rc.build_portfolio_problem(market, rc.PortfolioParams(), rc.TimeGrid(1.0, steps)).problem


class TestBlockInvariance:
    """Every block loop along the paths gives the same bits with blocks of one
    step, of three steps and of the whole horizon: the running-cost integrals
    of ``evaluate_cost``, ``_gradient_paths`` and the first variation, the
    slopes of ``_path_slopes`` read backward and forward, and the three sweeps."""

    SCENARIOS, STEPS = 7, 10

    def _cases(self):
        rng = np.random.default_rng(31)
        running = rc.affine_quadratic_running(cx=0.2, cy=0.1, quad=0.5)
        stock = rc.linear_stock(0.05, 0.2, 2)
        cases = [(name, field, running, stock) for name, field in
                 coefficient_fields(rng, scenarios=self.SCENARIOS, steps=self.STEPS)]
        bond = _bond_problem(self.STEPS)
        field = bond.sample_field(self.SCENARIOS, 5)
        return cases + [("bond problem", field, bond.running, bond.stock)]

    def _outputs(self, field, running, stock, seed):
        rng = np.random.default_rng(seed)
        scen, n, dim, count = field.scenarios, field.steps, field.dim, field.grid.count
        bundle, adj = _random_paths(field, rng)
        q = RelaxedControl(rng.dirichlet(np.ones(count), size=n))
        eta = SingularControl(rng.uniform(0.0, 0.1, size=(n, dim)))
        fv = FirstVariation(*(np.asfortranarray(rng.normal(size=(scen, n + 1))) for _ in range(3)))
        terminal, k_path = rc.linear_quadratic_terminal(gx1=0.5, gy2=0.3), np.full((n, dim), 0.1)
        at = _path_slopes(coefficient_integrals(field, bundle.mu), bundle, stock)
        slopes = [at(k) for k in [*range(n - 1, -1, -1), *range(n)]]
        assert all(a.flags.f_contiguous for pair in slopes for a in pair)
        rows = np.zeros_like(bundle.mu.weights)
        return [
            evaluate_cost(bundle, running, k_path, terminal, fieldref=field).samples,
            _gradient_paths(field, bundle.mu, bundle, running),
            *(a.copy() for pair in slopes for a in pair),
            first_variation_derivative(field, bundle, fv, running, terminal, k_path,
                                       (q, eta)).samples,
            _shortfall(field, bundle, adj, running, _grid_max),
            _shortfall(field, bundle, adj, running, _mean_argmax(rows)), rows,
            _shortfall(field, bundle, adj, running, _against(q.weights)),
        ]

    @pytest.mark.parametrize("index", range(4))
    def test_one_step_three_steps_and_whole_horizon_agree_bitwise(self, monkeypatch, index):
        name, field, running, stock = self._cases()[index]
        outputs = []
        for block in (1, 3, self.STEPS):
            monkeypatch.setattr(problems, "SWEEP_BUDGET", block * field.scenarios * field.grid.count)
            monkeypatch.setattr(adjoint, "SETUP_BUDGET", block * field.scenarios)
            outputs.append(self._outputs(field, running, stock, 40 + index))
        for other in outputs[1:]:
            for a, b in zip(outputs[0], other):
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), name

    def test_one_row_table_integrates_as_its_full_table(self):
        # BLAS sums a row of a matrix in an order that depends on the row's
        # place in it, so a one-row table must be integrated as the full table
        bond = _bond_problem(self.STEPS)
        field = bond.sample_field(self.SCENARIOS, 5)
        bundle, _ = _random_paths(field, np.random.default_rng(12))
        full = rc.RunningCost(value=lambda t, x, y, pts: np.repeat(
            bond.running.value(t, x, y, pts), max(len(x), len(y)), axis=1), dx=None, dy=None)
        assert bond.running.value(np.zeros(2), bundle.x[:, :2], bundle.y[:, :2],
                                  field.grid.points).shape == (2, 1, field.grid.count)
        costs = [evaluate_cost(bundle, running, bond.k_path, bond.terminal, fieldref=field).samples
                 for running in (bond.running, full)]
        assert costs[0].tobytes() == costs[1].tobytes()

    @pytest.mark.parametrize("running", [rc.zero_running(), _bond_problem(4).running])
    def test_zero_gradient_is_exact_positive_zero(self, running):
        field = coefficient_fields(np.random.default_rng(8), scenarios=6, steps=4)[0][1]
        bundle, _ = _random_paths(field, np.random.default_rng(9))
        assert running.dx is None and running.dy is None
        h = _gradient_paths(field, bundle.mu, bundle, running)
        zeros = lambda t, x, y, pts: np.zeros((len(t), 1, len(pts)))
        integrated = _gradient_paths(field, bundle.mu, bundle,
                                     rc.RunningCost(value=running.value, dx=zeros, dy=zeros))
        assert np.all(h == 0.0) and not np.signbit(h).any()
        assert h.tobytes() == integrated.tobytes()


class TestRunningBlockShape:
    """A running-cost table that is not (m, S, count) or (m, 1, count) is
    rejected in every block loop.  With S == m, a per-step (S, count) table
    would broadcast against the block and give wrong numbers silently."""

    @pytest.mark.parametrize("loop", ["cost", "gradient", "sweep", "first variation"])
    def test_per_step_table_is_rejected(self, loop):
        field = coefficient_fields(np.random.default_rng(2), scenarios=10, steps=10)[0][1]
        bundle, adj = _random_paths(field, np.random.default_rng(3))
        per_step = lambda t, x, y, pts: np.ones((x.shape[0], len(pts)))
        running = rc.RunningCost(value=per_step, dx=per_step, dy=None)
        terminal, k_path = rc.linear_quadratic_terminal(gx1=0.5), np.zeros((10, 2))
        fv = FirstVariation(*(np.zeros((10, 11), order="F") for _ in range(3)))
        calls = {
            "cost": lambda: evaluate_cost(bundle, running, k_path, terminal, fieldref=field),
            "gradient": lambda: _gradient_paths(field, bundle.mu, bundle, running),
            "sweep": lambda: _shortfall(field, bundle, adj, running, _grid_max),
            "first variation": lambda: first_variation_derivative(
                field, bundle, fv, rc.RunningCost(per_step, None, None), terminal, k_path,
                (bundle.mu, bundle.xi)),
        }
        message = "running cost block must have shape (10, 10, 4) or (10, 1, 4), got (10, 4)"
        with pytest.raises(ValueError, match=re.escape(message)):
            calls[loop]()
