import dataclasses
import math

import numpy as np
import pytest

import rscontrol as rc
import rscontrol.adjoint as adjoint
from rscontrol.adjoint import (
    CONDITION_LIMIT,
    SETUP_BUDGET,
    Projector,
    _backward_projectors,
    _flows,
    _gradient_paths,
    _path_slopes,
    fit_conditional,
)
from rscontrol.cli import adjoints_to_csv
from rscontrol.dynamics import coefficient_integrals
from rscontrol.optimizer import solve_first_variation

from toys import drift_control_toy, rich_toy, random_admissible_controls


def _setup(problem, scenarios, seed):
    noise = problem.noise(scenarios, seed)
    field = problem.sample_field(scenarios, seed, noise)
    mu, xi = problem.default_controls()
    bundle = problem.simulate(field, mu, xi, noise)
    return field, mu, bundle


def _simple_problem(steps=60, scenarios=200, drift_slope=0.0, vol_slope=0.0,
                    cx=0.0, gx1=1.0, vol_level=0.2, seed=0, x0=1.0):
    tg = rc.TimeGrid(1.0, steps)
    pts = np.linspace(-1.0, 1.0, 3)
    grid = rc.ActionGrid(pts)
    problem = rc.ControlProblem(
        tg=tg, grid=grid, dim=1, x0=x0, y0=1.0,
        coefficients={"model": "deterministic-constant", "dim": 1,
                      "drift_slope": drift_slope, "vol_level": [vol_level],
                      "vol_slope": [vol_slope]},
        stock=rc.inert_stock(1),
        running=rc.affine_quadratic_running(cx=cx),
        terminal=rc.linear_quadratic_terminal(gx1=gx1),
        k_path=np.zeros((steps, 1)),
    )
    return problem, _setup(problem, scenarios, seed)


def _flow_paths(problem, field, mu, bundle):
    """``_flows`` of the bundle's slopes, the flow that phi runs."""
    slopes = _path_slopes(coefficient_integrals(field, mu), bundle, problem.stock)
    return _flows(slopes, bundle)


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


def _reference_fit(setup, target):
    design, gram, _ = setup
    return design @ np.linalg.solve(gram, design.T @ target / design.shape[0])


def _reference_adjoints(problem, field, mu, bundle, ridge):
    """Both solvers' backward loops on C-ordered (S, 2 | 2 * dim) blocks, one
    step's reference set-up at a time: {method: (p, load)}, p (S, 2, n + 1)
    and load (S, 2, n, dim) with component 0 for x and 1 for y."""
    n, dt = bundle.tg.steps, bundle.tg.dt
    scen, d = bundle.scenarios, bundle.dim
    x, y, dw = bundle.x, bundle.y, bundle.noise
    slopes = _path_slopes(coefficient_integrals(field, mu), bundle, problem.stock)
    h = _gradient_paths(field, mu, bundle, problem.running)
    setups = [_reference_setup(x[:, k], y[:, k], 2, ridge) for k in range(n)]
    grad = np.column_stack([problem.terminal.dx(x[:, n], y[:, n]),
                            problem.terminal.dy(x[:, n], y[:, n])])

    p, load = np.empty((scen, 2, n + 1)), np.empty((scen, 2, n, d))
    p[:, :, n] = nxt = grad
    for k in range(n - 1, -1, -1):
        resid = nxt - _reference_fit(setups[k], nxt)
        loads = _reference_fit(setups[k], (resid[:, :, None] * dw[:, k, None]).reshape(scen, 2 * d) / dt)
        loads = loads.reshape(scen, 2, d)
        slo, vslo = slopes(k)
        nxt = _reference_fit(setups[k], nxt + (slo * nxt + (vslo * loads).sum(-1) + h[:, :, k]) * dt)
        p[:, :, k], load[:, :, k] = nxt, loads
    out = {"regression": (p, load)}

    flow = _flows(slopes, bundle)
    deflator = 1.0 / flow
    weighted = np.ascontiguousarray(flow[:, :, :n] * h * dt)
    total = flow[:, :, n] * grad + weighted.sum(axis=2)
    prefix = np.zeros((scen, 2, n + 1))
    prefix[:, :, 1:] = np.cumsum(weighted, axis=2)
    p, load = np.empty((scen, 2, n + 1)), np.empty((scen, 2, n, d))
    p[:, :, n] = grad
    mart_next = total
    for k in range(n - 1, -1, -1):
        mart = _reference_fit(setups[k], total)
        p[:, :, k] = (mart - prefix[:, :, k]) * deflator[:, :, k]
        incr = (mart_next - mart)[:, :, None] * dw[:, k, None] / dt
        mart_next = mart
        integrand = _reference_fit(setups[k], incr.reshape(scen, 2 * d)).reshape(scen, 2, d)
        load[:, :, k] = deflator[:, :, k, None] * integrand - slopes(k)[1] * p[:, :, k, None]
    out["phi-construction"] = (p, load)
    return out


def _layout_problem(dim, steps):
    """Action-dependent drift and diffusion slopes on ``dim`` Brownian axes
    and a geometric stock, so that every slope of both components is live."""
    pts = np.linspace(-1.0, 1.0, 3)
    vol_level = np.zeros((3, dim))
    vol_level[:, 0] = 0.15 + 0.1 * pts
    return rc.ControlProblem(
        tg=rc.TimeGrid(1.0, steps), grid=rc.ActionGrid(pts), dim=dim, x0=1.0, y0=1.0,
        coefficients={"model": "deterministic-constant", "dim": dim,
                      "drift_level": 0.3 * pts, "drift_slope": -0.2 + 0.1 * pts,
                      "vol_level": vol_level,
                      "vol_slope": np.outer(0.1 + 0.05 * pts, np.linspace(1.0, -0.5, dim))},
        stock=rc.linear_stock(0.05, 0.2, dim, component=dim - 1),
        running=rc.affine_quadratic_running(cx=0.2, cy=0.1, quad=0.5),
        terminal=rc.linear_quadratic_terminal(gx1=0.5, gx2=0.3, gy1=0.3, gy2=0.2),
        k_path=np.zeros((steps, dim)),
    )


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
    """Closed forms of the fundamental flows that phi runs (``_flows``)."""

    def test_trivial(self):
        problem, (field, mu, bundle) = _simple_problem()
        assert np.all(_flow_paths(problem, field, mu, bundle) == 1.0)

    def test_linear_stock_y_flow(self):
        # dy = lam y dt + rho y dW_1: the y flow is the product of the Euler
        # growth factors along the path, whatever the x coefficients
        lam, rho = 0.3, 0.4
        problem = dataclasses.replace(rich_toy(steps=40), stock=rc.linear_stock(lam, rho, 2))
        field, mu, bundle = _setup(problem, 50, 4)
        fy = _flow_paths(problem, field, mu, bundle)[:, 1]
        growth = 1.0 + lam * bundle.tg.dt + rho * bundle.noise[:, :, 1]
        expected = np.concatenate([np.ones((50, 1)), np.cumprod(growth, axis=1)], axis=1)
        assert np.allclose(fy, expected, rtol=1e-13, atol=0.0)
        assert np.ptp(fy[:, -1]) > 0.1   # the y flow is genuinely random

    def test_exponential_oracle(self):
        a = 0.8
        problem, (field, mu, bundle) = _simple_problem(steps=500, scenarios=4, drift_slope=a)
        fx = _flow_paths(problem, field, mu, bundle)[:, 0]
        exact = math.exp(a * 1.0)
        rel = abs(fx[0, -1] - exact) / exact
        assert rel <= 2.0 * bundle.tg.dt * a * a * 1.0 + 1e-12


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

    def test_overflowing_flow_is_rejected(self):
        # from x0 = 0 with zero levels x stays 0, while the huge vol slope
        # makes the flow overflow: phi reports a non-finite costate
        problem, (field, mu, bundle) = _simple_problem(vol_slope=1e200, vol_level=0.0, x0=0.0)
        assert np.all(bundle.x == 0.0)
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError, match="px contains non-finite"):
            rc.solve_adjoint_phi(field, mu, bundle, problem.running, problem.terminal, problem.stock)


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
        flow, c_flow = (_flow_paths(problem, field, mu, b) for b in (bundle, c_bundle))
        assert flow[:, :, 7].flags.f_contiguous
        assert np.array_equal(flow, c_flow)
        fv, c_fv = (solve_first_variation(field, mu, b, problem.stock, (q, eta))
                    for b in (bundle, c_bundle))
        for name in ("alpha_x", "alpha_y", "beta"):
            assert getattr(fv, name)[:, 7].flags.c_contiguous
            assert np.array_equal(getattr(fv, name), getattr(c_fv, name))


class TestLayoutContract:
    """Both solvers' step-major loops against the C-ordered reference loops."""

    STEPS, SCENARIOS, BLOCK = 15, 150, 4

    @pytest.mark.parametrize("order", ["F", "C"])
    @pytest.mark.parametrize("dim", [1, 3])
    def test_solvers_match_c_ordered_reference(self, monkeypatch, dim, order):
        # four-step set-up blocks (11-14, 7-10, 3-6, 0-2); without the ridge
        # the common start (step 0) and the constant states of step 5, inside
        # the block 3-6, fall back to degree 0
        monkeypatch.setattr(adjoint, "SETUP_BUDGET", self.BLOCK * self.SCENARIOS)
        problem = _layout_problem(dim, self.STEPS)
        field, _, bundle = _setup(problem, self.SCENARIOS, 8)
        mu, xi = random_admissible_controls(np.random.default_rng(dim), self.STEPS,
                                            problem.grid.count, dim)
        bundle = problem.simulate(field, mu, xi, bundle.noise)
        x, y = bundle.x.copy(order="K"), bundle.y.copy(order="K")
        x[:, 5], y[:, 5] = 1.25, 0.75
        convert = np.asfortranarray if order == "F" else np.ascontiguousarray
        bundle = dataclasses.replace(bundle, x=convert(x), y=convert(y), noise=convert(bundle.noise))
        assert [_reference_setup(x[:, k], y[:, k], 2, 0.0)[2] for k in (0, 4, 5, 6)] == [0, 2, 0, 2]
        reference = _reference_adjoints(problem, field, mu, bundle, 0.0)
        args = (field, mu, bundle, problem.running, problem.terminal, problem.stock)
        for solve in (rc.solve_adjoint_regression, rc.solve_adjoint_phi):
            with pytest.warns(RuntimeWarning, match="falling back"):
                adj = solve(*args, ridge=0.0)
            p, load = reference[adj.method]
            for c, (costate, loading) in enumerate(((adj.px, adj.Px), (adj.py, adj.Py))):
                assert np.array_equal(costate, p[:, c]), (adj.method, c)
                assert np.array_equal(loading, load[:, c]), (adj.method, c)

    @pytest.mark.parametrize("order", ["F", "C"])
    @pytest.mark.parametrize("width", [2, 6])
    def test_projector_fit_is_f_ordered_and_bitwise(self, width, order):
        x, y = _state_paths(300, 2, "C", seed=3)
        proj = Projector(x[:, 2], y[:, 2])
        target = np.random.default_rng(width).normal(size=(300, width))
        target = np.asfortranarray(target) if order == "F" else target
        fitted = proj.fit(target)
        design, gram = proj.design, proj.gram
        assert fitted.flags.f_contiguous
        assert np.array_equal(fitted, design @ np.linalg.solve(gram, design.T @ target / 300))
        one = proj.fit(target[:, 1])
        assert one.shape == (300,)
        assert np.array_equal(one, design @ np.linalg.solve(gram, design.T @ target[:, 1] / 300))

    @pytest.mark.parametrize("dim", [1, 3])
    def test_phi_forward_pass_is_the_product_of_step_factors(self, dim):
        problem = _layout_problem(dim, self.STEPS)
        field, mu, bundle = _setup(problem, self.SCENARIOS, 9)
        slopes = _path_slopes(coefficient_integrals(field, mu), bundle, problem.stock)
        flow = _flows(slopes, bundle)
        dt = bundle.tg.dt
        growth = np.stack([1.0 + slo * dt + (vslo * bundle.noise[:, k, None]).sum(-1)
                           for k, (slo, vslo) in enumerate(map(slopes, range(self.STEPS)))], axis=2)
        assert np.all(flow[:, :, 0] == 1.0)
        assert np.array_equal(flow[:, :, 1:], np.cumprod(growth, axis=2))
        assert np.ptp(flow[:, 0, -1]) > 0.0 and np.ptp(flow[:, 1, -1]) > 0.0


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

    def test_cross_validation_drift_control_toy(self):
        # the relative RMS of the two methods' px over all scenarios and steps
        problem = drift_control_toy()
        field, mu, bundle = _setup(problem, 300, 2)
        reg = rc.solve_adjoint_regression(field, mu, bundle, problem.running,
                                          problem.terminal, problem.stock)
        phi = rc.solve_adjoint_phi(field, mu, bundle, problem.running,
                                   problem.terminal, problem.stock)
        rms = np.sqrt(np.mean(np.square(phi.px - reg.px))) / np.sqrt(np.mean(np.square(reg.px)))
        assert rms < 0.05

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
            dx = problem.running.dx(times[k:k + 1], xk[:, None], yk[:, None], pts)[0]
            hx = rc.integrate_against(dx, w, axis=-1)
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
