import math

import numpy as np
import pytest

import rscontrol as rc
from rscontrol.adjoint import fit_conditional, adjoints_to_csv
from rscontrol.optimizer import solve_first_variation

from toys import rich_toy, random_admissible_controls


def _setup(problem, scenarios, seed):
    noise = problem.noise(scenarios, seed)
    field = problem.sample_field(scenarios, seed, noise)
    mu, xi = problem.default_controls()
    bundle = problem.simulate(field, mu, xi, noise)
    return field, mu, bundle


def _simple_problem(steps=60, scenarios=200, drift_slope=0.0, vol_slope=0.0,
                    cx=0.0, gx1=1.0, vol_level=0.2, seed=0):
    tg = rc.TimeGrid(1.0, steps)
    pts = np.linspace(-1.0, 1.0, 3)
    grid = rc.ActionGrid(pts)
    problem = rc.ControlProblem(
        tg=tg, grid=grid, dim=1, x0=1.0, y0=1.0,
        coefficients={"model": "deterministic-constant", "dim": 1,
                      "drift_slope": drift_slope, "vol_level": [vol_level],
                      "vol_slope": [vol_slope]},
        stock=rc.inert_stock(1),
        running=rc.affine_quadratic_running(cx=cx),
        terminal=rc.linear_quadratic_terminal(gx1=gx1),
        k_path=np.zeros((steps, 1)),
    )
    return problem, _setup(problem, scenarios, seed)


class TestFitConditional:
    def test_recovers_polynomial(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=3000)
        y = rng.normal(size=3000)
        target = 1.5 - 0.7 * x + 0.2 * y + 0.3 * x * x
        fitted, deg = fit_conditional(target, x, y, degree=2)
        assert deg == 2
        assert np.allclose(fitted, target, atol=1e-8)

    def test_fallback_warning(self):
        # without the ridge, duplicated columns make the design singular
        x = np.full(100, 2.0)
        y = np.full(100, 3.0)
        target = np.arange(100.0)
        with pytest.warns(RuntimeWarning, match="falling back"):
            fitted, deg = fit_conditional(target, x, y, degree=2, ridge=0.0)
        assert deg == 0
        assert np.allclose(fitted, target.mean())

    def test_multi_target(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=500)
        y = rng.normal(size=500)
        target = np.column_stack([x, 2 * y])
        fitted, _ = fit_conditional(target, x, y, degree=1)
        assert fitted.shape == (500, 2)
        assert np.allclose(fitted, target, atol=1e-8)


class TestSolveFundamental:
    def test_trivial(self):
        problem, (field, mu, bundle) = _simple_problem()
        fx, fy = rc.solve_fundamental(field, mu, bundle, problem.stock)
        assert np.all(fx.flow == 1.0)
        assert np.all(fx.flow_inv == 1.0)
        assert np.all(fx.flow_inv_sde == 1.0)
        assert np.all(fy.flow == 1.0)

    def test_exponential_oracle(self):
        a = 0.8
        problem, (field, mu, bundle) = _simple_problem(steps=500, scenarios=4, drift_slope=a)
        fx, _ = rc.solve_fundamental(field, mu, bundle, problem.stock)
        exact = math.exp(a * 1.0)
        rel = abs(fx.flow[0, -1] - exact) / exact
        assert rel <= 2.0 * bundle.tg.dt * a * a * 1.0 + 1e-12

    def test_inverse_reciprocal_tight(self):
        problem, (field, mu, bundle) = _simple_problem(drift_slope=0.3, vol_slope=0.2)
        fx, _ = rc.solve_fundamental(field, mu, bundle, problem.stock)
        assert np.abs(fx.flow * fx.flow_inv - 1.0).max() <= 1e-8

    def test_non_finite_flow_diagnostic(self):
        flow = np.ones((2, 5))
        flow[1, 3] = np.inf
        with pytest.raises(FloatingPointError, match="step 3"):
            rc.FundamentalPair(flow=flow, flow_inv=1.0 / flow, flow_inv_sde=1.0 / flow)
        with pytest.raises(ValueError, match="start at 1"):
            rc.FundamentalPair(flow=np.full((2, 5), 2.0),
                               flow_inv=np.full((2, 5), 0.5),
                               flow_inv_sde=np.full((2, 5), 0.5))

    def test_inverse_sde_richardson(self):
        # Euler defect of the inverse SDE scales like dt
        defects = []
        for steps in (50, 100, 200):
            problem, (field, mu, bundle) = _simple_problem(
                steps=steps, scenarios=64, drift_slope=0.4, vol_slope=0.25, seed=5
            )
            fx, _ = rc.solve_fundamental(field, mu, bundle, problem.stock)
            defects.append(fx.inverse_defect())
        slope1 = math.log2(defects[0] / defects[1])
        slope2 = math.log2(defects[1] / defects[2])
        assert 0.5 <= slope1 <= 1.6
        assert 0.5 <= slope2 <= 1.6


class TestAdjointPhi:
    def test_constant_martingale(self):
        # h = 0, g = x, no slopes: costate identically 1, loading 0
        problem, (field, mu, bundle) = _simple_problem()
        adj = rc.solve_adjoint_phi(field, mu, bundle, problem.running,
                                   problem.terminal, problem.stock)
        assert np.allclose(adj.px, 1.0, atol=1e-10)
        assert np.allclose(adj.Px, 0.0, atol=1e-8)

    def test_exponential_costate_oracle(self):
        a = 0.6
        problem, (field, mu, bundle) = _simple_problem(steps=400, scenarios=16, drift_slope=a)
        adj = rc.solve_adjoint_phi(field, mu, bundle, problem.running,
                                   problem.terminal, problem.stock)
        times = bundle.tg.times()
        exact = np.exp(a * (1.0 - times))
        rel = np.abs(adj.px.mean(axis=0) - exact) / exact
        assert rel.max() <= 2.0 * a * a * bundle.tg.dt + 1e-12

    def test_terminal_condition_exact(self):
        problem, (field, mu, bundle) = _simple_problem(drift_slope=0.2, cx=0.5, gx1=0.7)
        adj = rc.solve_adjoint_phi(field, mu, bundle, problem.running,
                                   problem.terminal, problem.stock)
        gx = problem.terminal.dx(bundle.x[:, -1], bundle.y[:, -1])
        assert np.array_equal(adj.px[:, -1], gx)


class TestAdjointRegression:
    def test_constant_terminal(self):
        problem, (field, mu, bundle) = _simple_problem(gx1=3.5)
        adj = rc.solve_adjoint_regression(field, mu, bundle, problem.running,
                                          problem.terminal, problem.stock)
        assert np.allclose(adj.px, 3.5, atol=1e-10)
        assert np.allclose(adj.Px, 0.0, atol=1e-8)

    def test_pure_integral(self):
        # constant unit running gradient, zero terminal: costate is time to go
        problem, (field, mu, bundle) = _simple_problem(cx=1.0, gx1=0.0)
        adj = rc.solve_adjoint_regression(field, mu, bundle, problem.running,
                                          problem.terminal, problem.stock)
        times = bundle.tg.times()
        assert np.allclose(adj.px, (1.0 - times)[None, :], atol=1e-9)

    def test_terminal_condition_exact(self):
        problem = rich_toy(steps=40)
        field, mu, bundle = _setup(problem, 300, 2)
        adj = rc.solve_adjoint_regression(field, mu, bundle, problem.running,
                                          problem.terminal, problem.stock)
        gx = problem.terminal.dx(bundle.x[:, -1], bundle.y[:, -1])
        gy = problem.terminal.dy(bundle.x[:, -1], bundle.y[:, -1])
        assert np.array_equal(adj.px[:, -1], gx)
        assert np.array_equal(adj.py[:, -1], gy)


class TestMethodAgreement:
    def test_cross_validation_rich_toy(self):
        problem = rich_toy(steps=100)
        field, mu, bundle = _setup(problem, 4000, 7)
        reg = rc.solve_adjoint_regression(field, mu, bundle, problem.running,
                                          problem.terminal, problem.stock)
        phi = rc.solve_adjoint_phi(field, mu, bundle, problem.running,
                                   problem.terminal, problem.stock)
        per_step_rms = np.sqrt(np.mean((reg.px - phi.px) ** 2, axis=0))
        signal = np.sqrt(np.mean(reg.px ** 2))
        assert per_step_rms.max() <= 0.05 * signal

    def test_duality_identity(self):
        # E[px_T * beta_T] equals the integrated pairing of the costate with
        # the measure-direction coefficient increments minus the running
        # gradient against beta
        problem = rich_toy(steps=100)
        scenarios = 4000
        noise = problem.noise(scenarios, 3)
        field = problem.sample_field(scenarios, 3, noise)
        rng = np.random.default_rng(10)
        mu, xi = random_admissible_controls(rng, problem.tg.steps, problem.grid.count, 2)
        q, _ = random_admissible_controls(rng, problem.tg.steps, problem.grid.count, 2)
        bundle = problem.simulate(field, mu, xi, noise)
        adj = rc.solve_adjoint_regression(field, mu, bundle, problem.running,
                                          problem.terminal, problem.stock)
        fv = solve_first_variation(field, mu, bundle, problem.stock, (q, xi))
        dt = problem.tg.dt
        times = problem.tg.times()
        pts = problem.grid.points
        rhs = np.zeros(scenarios)
        for k in range(problem.tg.steps):
            w, wq = mu.weights[k], q.weights[k]
            xk, yk = bundle.x[:, k], bundle.y[:, k]
            from rscontrol.dynamics import coefficient_integrals
            lev, slo, vlev, vslo = coefficient_integrals(field, k, w)
            lev_q, slo_q, vlev_q, vslo_q = coefficient_integrals(field, k, wq)
            drift_diff = (lev_q - lev) + (slo_q - slo) * xk
            vol_diff = (vlev_q - vlev) + (vslo_q - vslo) * xk[:, None]
            hx = rc.integrate_against(problem.running.dx(times[k], xk, yk, pts), w, axis=-1)
            rhs += (adj.px[:, k] * drift_diff
                    + (adj.Px[:, k] * vol_diff).sum(-1)
                    - hx * fv.beta[:, k]) * dt
        lhs = adj.px[:, -1] * fv.beta[:, -1]
        diff = lhs - rhs
        se = diff.std(ddof=1) / math.sqrt(scenarios)
        assert abs(diff.mean()) <= 3.0 * se + 5e-3 * max(1.0, np.abs(lhs).mean())

    @pytest.mark.parametrize("solver", [rc.solve_adjoint_regression, rc.solve_adjoint_phi])
    def test_singular_first_step_falls_back(self, solver):
        # step 0 is the deterministic start (x0, y0): without the ridge its
        # design is singular, so the projection falls back to the mean
        problem = rich_toy(steps=20)
        field, mu, bundle = _setup(problem, 300, 4)
        with pytest.warns(RuntimeWarning, match="falling back"):
            adj = solver(field, mu, bundle, problem.running, problem.terminal,
                         problem.stock, ridge=0.0)
        for arr in (adj.px, adj.py, adj.Px, adj.Py):
            assert np.isfinite(arr).all()
        assert np.all(adj.px[:, 0] == adj.px[0, 0])


class TestExport:
    def test_csv(self, tmp_path):
        problem, (field, mu, bundle) = _simple_problem(steps=4, scenarios=3)
        adj = rc.solve_adjoint_regression(field, mu, bundle, problem.running,
                                          problem.terminal, problem.stock)
        path = tmp_path / "adjoints.csv"
        adjoints_to_csv(adj, bundle.tg, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("scenario,step,t,px,py")
        assert len(lines) == 1 + 3 * 5
