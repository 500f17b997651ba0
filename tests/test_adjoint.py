import dataclasses
import math

import numpy as np
import pytest

import rscontrol as rc
from rscontrol.adjoint import (
    CONDITION_LIMIT,
    SETUP_BUDGET,
    Projector,
    _backward_projectors,
    fit_conditional,
)
from rscontrol.cli import adjoints_to_csv
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


def _reference_setup(x, y, degree, ridge):
    """One step's set-up on a C-ordered (S, k) basis, lowering the degree
    while the normal matrix is non-finite or ill-conditioned."""
    for deg in range(degree, -1, -1):
        basis = np.column_stack([np.ones_like(x), x, y, x * x, x * y, y * y][:(1, 3, 6)[deg]])
        shift = basis.mean(axis=0)
        shift[0] = 0.0
        centered = basis - shift
        scale = np.sqrt(np.mean(centered * centered, axis=0))
        scale[scale == 0.0] = 1.0
        design = centered / scale
        gram = design.T @ design / design.shape[0]
        gram[np.diag_indices_from(gram)] += ridge
        gram[0, 0] -= ridge
        if not np.isfinite(gram).all():
            continue
        if deg > 0 and np.linalg.cond(gram) > CONDITION_LIMIT:
            continue
        break
    return design, gram, deg


def _state_paths(scenarios, steps, order, seed=0):
    """Correlated random-walk paths (S, steps + 1) from a common start."""
    rng = np.random.default_rng(seed)
    shocks = rng.normal(size=(2, scenarios, steps)) * 0.1
    x = np.concatenate([np.ones((scenarios, 1)), 1.0 + np.cumsum(shocks[0], axis=1)], axis=1)
    y = np.concatenate([np.ones((scenarios, 1)),
                        1.0 + np.cumsum(0.5 * shocks[0] + shocks[1], axis=1)], axis=1)
    return (np.asfortranarray(x), np.asfortranarray(y)) if order == "F" else (x, y)


class TestBlockSetUp:
    @pytest.mark.parametrize("order", ["F", "C"])
    @pytest.mark.parametrize("scenarios", [1, 7, 200, 1000, SETUP_BUDGET + 1])
    @pytest.mark.parametrize("steps", [1, 15, 16, 17, 37])
    def test_matches_per_step_reference(self, steps, scenarios, order):
        x, y = _state_paths(scenarios, steps, order)
        projectors = list(_backward_projectors(x, y, 2, 1e-8))
        assert len(projectors) == steps
        for k, proj in zip(range(steps - 1, -1, -1), projectors):
            design, gram, deg = _reference_setup(x[:, k], y[:, k], 2, 1e-8)
            assert proj.degree == deg
            assert proj.design.flags.c_contiguous
            assert np.array_equal(proj.design, design)
            assert np.array_equal(proj.gram, gram)

    def test_projector_is_the_one_step_case(self):
        x, y = _state_paths(300, 3, "C")
        for k in range(4):
            proj = Projector(x[:, k], y[:, k])
            design, gram, deg = _reference_setup(x[:, k], y[:, k], 2, 1e-8)
            assert proj.degree == deg
            assert np.array_equal(proj.design, design) and np.array_equal(proj.gram, gram)

    def test_singular_step_inside_a_block_falls_back(self):
        # without the ridge the constant states of step 0 (the common start)
        # and step 9 of one 40-step block lower their degree to 0, with one
        # warning per lowered degree; every other step keeps degree 2
        x, y = _state_paths(200, 40, "F")
        x[:, 9], y[:, 9] = 2.0, 3.0
        with pytest.warns(RuntimeWarning, match="falling back") as record:
            projectors = list(_backward_projectors(x, y, 2, 0.0))[::-1]
        assert len(record) == 4
        assert [p.degree for p in projectors] == [0] + [2] * 8 + [0] + [2] * 30
        for k in (8, 9, 10):
            design, gram, _ = _reference_setup(x[:, k], y[:, k], 2, 0.0)
            assert np.array_equal(projectors[k].design, design)
            assert np.array_equal(projectors[k].gram, gram)


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

    def test_linear_stock_y_flow(self):
        # dy = lam y dt + rho y dW_1: the y flow is the product of the Euler
        # growth factors along the path, whatever the x coefficients
        lam, rho = 0.3, 0.4
        problem = dataclasses.replace(rich_toy(steps=40), stock=rc.linear_stock(lam, rho, 2))
        field, mu, bundle = _setup(problem, 50, 4)
        _, fy = rc.solve_fundamental(field, mu, bundle, problem.stock)
        growth = 1.0 + lam * bundle.tg.dt + rho * bundle.noise[:, :, 1]
        expected = np.concatenate([np.ones((50, 1)), np.cumprod(growth, axis=1)], axis=1)
        assert np.allclose(fy.flow, expected, rtol=1e-13, atol=0.0)
        assert np.array_equal(fy.flow_inv, 1.0 / fy.flow)
        assert np.ptp(fy.flow[:, -1]) > 0.1   # the y flow is genuinely random

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

    def test_inverse_sde_weak_rate(self):
        # One Euler step of the pair multiplies the product by
        # (1 + a dt + v dW)(1 + (q - a) dt - v dW), q = v^2, whose mean is
        # 1 + a (q - a) dt^2.  With deterministic coefficients the steps are
        # independent, so E[flow * flow_inv_sde](T) = (1 + a (q - a) dt^2)^n:
        # the mean drifts from 1 at O(dt).  The pathwise defect is O(sqrt(dt))
        # and has no reliable rate at a few dozen paths.
        a, v = 0.4, 0.25
        for steps in (50, 100, 200):
            problem, (field, mu, bundle) = _simple_problem(
                steps=steps, scenarios=10_000, drift_slope=a, vol_slope=v, seed=5
            )
            fx, _ = rc.solve_fundamental(field, mu, bundle, problem.stock)
            defect = fx.flow[:, -1] * fx.flow_inv_sde[:, -1] - 1.0
            stderr = defect.std(ddof=1) / math.sqrt(defect.size)
            expected = (1.0 + a * (v * v - a) * bundle.tg.dt ** 2) ** steps - 1.0
            assert abs(defect.mean() - expected) <= 4.0 * stderr
            assert abs(expected) > 4.0 * stderr


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


class TestLayout:
    def test_step_major_and_layout_free(self):
        # every path the solvers return is step-major, and a bundle of
        # C-ordered copies gives the same bits
        problem = rich_toy(steps=15)
        field, _, bundle = _setup(problem, 120, 4)
        mu, xi = random_admissible_controls(np.random.default_rng(2), 15, problem.grid.count, 2)
        q, eta = random_admissible_controls(np.random.default_rng(3), 15, problem.grid.count, 2)
        bundle = problem.simulate(field, mu, xi, bundle.noise)
        c_bundle = dataclasses.replace(bundle, **{name: np.ascontiguousarray(getattr(bundle, name))
                                                  for name in ("x", "y", "noise")})
        args = (problem.running, problem.terminal, problem.stock)
        for solve in (rc.solve_adjoint_regression, rc.solve_adjoint_phi):
            adj, c_adj = (solve(field, mu, b, *args) for b in (bundle, c_bundle))
            assert all(path[:, 7].flags.c_contiguous for path in (adj.px, adj.py))
            assert all(path[:, 7, 0].flags.c_contiguous for path in (adj.Px, adj.Py))
            for name in ("px", "Px", "py", "Py"):
                assert np.array_equal(getattr(adj, name), getattr(c_adj, name))
        pairs, c_pairs = (rc.solve_fundamental(field, mu, b, problem.stock) for b in (bundle, c_bundle))
        for pair, c_pair in zip(pairs, c_pairs):
            assert pair.flow[:, 7].flags.c_contiguous
            assert np.array_equal(pair.flow, c_pair.flow)
            assert np.array_equal(pair.flow_inv_sde, c_pair.flow_inv_sde)
        fv, c_fv = (solve_first_variation(field, mu, b, problem.stock, (q, eta))
                    for b in (bundle, c_bundle))
        for name in ("alpha_x", "alpha_y", "beta"):
            assert getattr(fv, name)[:, 7].flags.c_contiguous
            assert np.array_equal(getattr(fv, name), getattr(c_fv, name))


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
        from rscontrol.dynamics import coefficient_integrals
        at_mu = coefficient_integrals(field, mu)
        at_q = coefficient_integrals(field, q)
        n = problem.tg.steps
        for ints in (at_mu, at_q):
            assert [a.shape for a in ints] == [(1, n), (1, n), (1, n, 2), (1, n, 2)]
        for k in range(problem.tg.steps):
            w = mu.weights[k]
            xk, yk = bundle.x[:, k], bundle.y[:, k]
            lev, slo, vlev, vslo = (a[:, k] for a in at_mu)
            lev_q, slo_q, vlev_q, vslo_q = (a[:, k] for a in at_q)
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
