import dataclasses
import math

import numpy as np
import pytest

import rscontrol as rc
from rscontrol.finance import (
    MarketModel,
    PortfolioParams,
    build_coefficient_field,
    build_portfolio_problem,
    integrated_volatility,
    product_grid,
)
from rscontrol.maxprinciple import hamiltonian_slice, slack_paths
from rscontrol.measures import RelaxedControl, SingularControl, dirac, integrate_against

from toys import rate_paths


def _market(vol="ho-lee", sigma=0.02, c=0.1, theta=0.1, rate_kind=None, clamp=None):
    short_rate = rate_kind or {"kind": "gaussian", "r0": 0.03, "drift": 0.0}
    return MarketModel(
        volatility=vol, sigma=sigma, mean_reversion=c,
        maturities=[1.0, 2.0, 3.0, 5.0],
        consumption=[0.0, 0.05, 0.1],
        short_rate=short_rate,
        market_price_of_risk={"kind": "constant", "value": theta},
        clamp_quantile=clamp,
    )


class TestVolatility:
    def test_ho_lee_pointwise(self):
        market = _market(sigma=0.02)
        v = integrated_volatility(market, [3.0])
        assert abs(v[0] - (-0.06)) <= 1e-14

    def test_hull_white_pointwise(self):
        market = _market(vol="hull-white", sigma=0.01, c=0.1)
        v = integrated_volatility(market, [10.0])
        # frozen: 0.1 * (exp(-1) - 1)
        assert abs(v[0] - (-0.06321205588285577)) <= 1e-14

    def test_hull_white_recovers_ho_lee_at_small_reversion(self):
        sigma, u = 0.02, 3.0
        target = -sigma * u
        errors = []
        for c in (0.02, 0.01, 0.005):
            market = _market(vol="hull-white", sigma=sigma, c=c)
            errors.append(abs(integrated_volatility(market, [u])[0] - target))
        # first-order error in the reversion rate: halving c halves the error
        assert errors[0] / errors[1] == pytest.approx(2.0, rel=0.1)
        assert errors[1] / errors[2] == pytest.approx(2.0, rel=0.1)

    def test_maturity_grid(self):
        market = _market()
        row = integrated_volatility(market, market.maturities)
        assert row.shape == (4,)
        assert np.allclose(row, -0.02 * market.maturities, atol=1e-16)

    def test_validation(self):
        with pytest.raises(ValueError, match="mean-reversion"):
            MarketModel(volatility="hull-white", sigma=0.01, mean_reversion=0.0,
                        maturities=[1.0], consumption=[0.0])
        with pytest.raises(ValueError, match="unknown volatility"):
            MarketModel(volatility="vasicek", sigma=0.01,
                        maturities=[1.0], consumption=[0.0])
        with pytest.raises(ValueError, match="nonempty"):
            MarketModel(volatility="ho-lee", sigma=0.01, maturities=[], consumption=[0.0])
        with pytest.raises(ValueError, match="positive"):
            MarketModel(volatility="ho-lee", sigma=0.0, maturities=[1.0], consumption=[0.0])


class TestProductStructure:
    def test_grid_lexicographic(self):
        grid = product_grid([1.0, 2.0], [0.0, 0.5])
        assert np.array_equal(grid.points,
                              [[1.0, 0.0], [1.0, 0.5], [2.0, 0.0], [2.0, 0.5]])

    def test_product_measure_integration(self):
        # point mass in consumption, arbitrary maturity weights:
        # drift slope integrates to rate - v(q) * price_of_risk - c
        market = _market()
        tg = rc.TimeGrid(1.0, 5)
        grid = product_grid(market.maturities, market.consumption)
        model = {"model": "finance", "market": market.to_dict(),
                 "cost_buy": 0.01, "cost_sell": 0.02}
        field = build_coefficient_field(model, tg, grid, scenarios=20,
                                        noise=rc.brownian_increments(4, 20, 5, 2, tg.dt))
        rng = np.random.default_rng(0)
        qw = rng.dirichlet(np.ones(4))
        rate, theta = rate_paths(field)
        for ci in range(3):
            w = np.outer(qw, dirac(3, ci)).ravel()
            got = integrate_against(field.drift_slope_at(2), w, axis=-1)
            v_q = float(integrated_volatility(market, market.maturities) @ qw)
            want = (rate[:, 2]
                    - v_q * theta[:, 2]
                    - market.consumption[ci])
            assert np.allclose(got, want, atol=1e-12)

    def test_grid_mismatch_rejected(self):
        market = _market()
        tg = rc.TimeGrid(1.0, 3)
        bad = product_grid([1.5, 2.5], market.consumption)
        model = {"model": "finance", "market": market.to_dict()}
        with pytest.raises(ValueError, match="product of the market's"):
            build_coefficient_field(model, tg, bad, scenarios=2,
                                    noise=rc.brownian_increments(0, 2, 3, 2, tg.dt))

    def test_noise_is_required(self):
        market = _market()
        tg = rc.TimeGrid(1.0, 4)
        grid = product_grid(market.maturities, market.consumption)
        model = {"model": "finance", "market": market.to_dict()}
        for noise in (None, rc.brownian_increments(0, 2, 4, 1, tg.dt)):
            with pytest.raises(ValueError, match=r"needs noise of shape \(2, 4, 2\)"):
                rc.sample_coefficients(model, tg, grid, 2, noise)

    def test_ho_lee_diffusion_slope(self):
        market = _market(sigma=0.02)
        tg = rc.TimeGrid(1.0, 4)
        grid = product_grid(market.maturities, market.consumption)
        model = {"model": "finance", "market": market.to_dict()}
        field = build_coefficient_field(model, tg, grid, scenarios=2,
                                        noise=rc.brownian_increments(0, 2, 4, 2, tg.dt))
        vs = field.vol_slope_at(1)
        assert np.allclose(vs[0, :, 0], -0.02 * grid.points[:, 0], atol=1e-16)
        assert np.all(vs[0, :, 1] == 0.0)


class TestPortfolioProblem:
    def test_frictionless_gains(self):
        market = _market()
        built = build_portfolio_problem(market, PortfolioParams(cost_buy=0.0, cost_sell=0.0),
                                        rc.TimeGrid(1.0, 4))
        field = built.problem.sample_field(2, 0)
        assert np.array_equal(field.jump_gain_x[0], [1.0, -1.0])
        assert np.array_equal(field.jump_gain_y[0], [-1.0, 1.0])

    def test_cost_bounds_validated(self):
        with pytest.raises(ValueError, match="transaction costs"):
            PortfolioParams(cost_buy=1.0)

    def test_zero_volatility_rate_oracle(self):
        # near-zero vol, zero price of risk, zero consumption, constant rate:
        # bonds grow at the deterministic short rate
        r = 0.04
        market = MarketModel(
            volatility="ho-lee", sigma=1e-12,
            maturities=[1.0, 2.0], consumption=[0.0],
            short_rate={"kind": "tabulated", "values": np.full(200, r).tolist()},
            market_price_of_risk={"kind": "constant", "value": 0.0},
        )
        params = PortfolioParams(stock_drift=0.0, stock_vol=0.0, x0=2.0)
        tg = rc.TimeGrid(1.0, 200)
        built = build_portfolio_problem(market, params, tg)
        problem = built.problem
        noise = problem.noise(3, 0)
        field = problem.sample_field(3, 0, noise)
        mu, xi = problem.default_controls()
        b = problem.simulate(field, mu, xi, noise)
        exact = 2.0 * math.exp(r * 1.0)
        assert abs(b.x[0, -1] - exact) / exact <= 2.0 * tg.dt * r * 1.0 + 1e-9
        # a scalar rate is the same per-step table
        scalar = dataclasses.replace(market, short_rate={"kind": "tabulated", "values": r})
        field2 = build_portfolio_problem(scalar, params, tg).problem.sample_field(3, 0, noise)
        assert np.array_equal(rate_paths(field2)[0], rate_paths(field)[0])

    def test_stock_independent_of_measure(self):
        market = _market()
        built = build_portfolio_problem(market, PortfolioParams(), rc.TimeGrid(1.0, 30))
        problem = built.problem
        noise = problem.noise(50, 5)
        field = problem.sample_field(50, 5, noise)
        rng = np.random.default_rng(1)
        mu1 = RelaxedControl(rng.dirichlet(np.ones(problem.grid.count), size=30))
        mu2 = RelaxedControl(rng.dirichlet(np.ones(problem.grid.count), size=30))
        xi = SingularControl.zero(30, 2)
        b1 = problem.simulate(field, mu1, xi, noise)
        b2 = problem.simulate(field, mu2, xi, noise)
        assert np.array_equal(b1.y, b2.y)
        assert not np.array_equal(b1.x, b2.x)

    def test_transaction_round_trip_loses_costs(self):
        # stock -> bonds then bonds -> stock of equal size burns both fees
        market = MarketModel(
            volatility="ho-lee", sigma=1e-30,
            maturities=[1.0], consumption=[0.0],
            short_rate={"kind": "tabulated", "values": np.zeros(20).tolist()},
            market_price_of_risk={"kind": "constant", "value": 0.0},
        )
        params = PortfolioParams(cost_buy=0.02, cost_sell=0.03,
                                 stock_drift=0.0, stock_vol=0.0)
        built = build_portfolio_problem(market, params, rc.TimeGrid(1.0, 20))
        problem = built.problem
        noise = problem.noise(1, 0)
        field = problem.sample_field(1, 0, noise)
        mu, _ = problem.default_controls()
        inc = np.zeros((20, 2))
        inc[5, 0] = 0.4   # move 0.4 from stock into bonds
        inc[12, 1] = 0.4  # move 0.4 back
        xi = SingularControl(inc)
        b = problem.simulate(field, mu, xi, noise)
        wealth0 = problem.x0 + problem.y0
        wealth_t = b.x[0, -1] + b.y[0, -1]
        assert wealth_t == pytest.approx(wealth0 - (0.02 + 0.03) * 0.4, abs=1e-12)


class TestPrintedFormulas:
    def _field(self, sign, theta=0.12, sigma=0.02, beta=0.05, k1=0.01, k2=0.015, steps=8):
        market = _market(sigma=sigma, theta=theta)
        params = PortfolioParams(cost_buy=k1, cost_sell=k2, discount=beta,
                                 utility="sqrt", utility_sign=sign)
        built = build_portfolio_problem(market, params, rc.TimeGrid(1.0, steps))
        problem = built.problem
        noise = problem.noise(4, 3)
        field = problem.sample_field(4, 3, noise)
        return market, params, problem, field

    def test_hamiltonian_matches_closed_form(self):
        # cost orientation: the running cost is +exp(-beta t) sqrt(c)
        market, params, problem, field = self._field(sign=+1.0)
        k, t = 3, 3.0 / 8.0
        x, y, p = 1.7, 0.9, 0.6
        P = np.array([0.25, -0.1])
        w = RelaxedControl.uniform(1, problem.grid.count).weights[0]
        slc = hamiltonian_slice(field, k, x, y, p, P, problem.running, w, t=t)
        u = problem.grid.points[:, 0]
        c = problem.grid.points[:, 1]
        v = -market.sigma * u
        rate, price = rate_paths(field)
        r0 = rate[:, k][:, None]
        theta = price[:, k][:, None]
        expected = (-p * (r0 - v[None, :] * theta - c[None, :]) * x
                    - P[0] * v[None, :] * x
                    - math.exp(-params.discount * t) * np.sqrt(c)[None, :])
        assert np.allclose(slc.values, np.broadcast_to(expected, slc.values.shape),
                           atol=1e-12)

    def test_default_sign_flips_utility_term(self):
        _, params, problem, field = self._field(sign=-1.0)
        k, t = 2, 0.25
        w = RelaxedControl.uniform(1, problem.grid.count).weights[0]
        slc = hamiltonian_slice(field, k, 1.0, 1.0, 0.0, np.zeros(2),
                                problem.running, w, t=t)
        c = problem.grid.points[:, 1]
        assert np.allclose(slc.values, math.exp(-params.discount * t) * np.sqrt(c)[None, :],
                           atol=1e-14)

    def test_adjoint_driver_specialization(self):
        # generic driver slope*p + vol_slope . P reduces to the bond-market pair
        market, params, problem, field = self._field(sign=-1.0)
        k = 4
        rng = np.random.default_rng(2)
        qw = rng.dirichlet(np.ones(len(market.maturities)))
        ci = 1
        w = np.outer(qw, dirac(len(market.consumption), ci)).ravel()
        p = rng.normal(size=4)
        P = rng.normal(size=(4, 2))
        slo = integrate_against(field.drift_slope_at(k), w, axis=-1)
        vslo = integrate_against(field.vol_slope_at(k), w, axis=-2)
        generic = slo * p + (vslo * P).sum(-1)
        v_q = float(integrated_volatility(market, market.maturities) @ qw)
        rate, theta = rate_paths(field)
        printed = ((rate[:, k] - v_q * theta[:, k]
                    - market.consumption[ci]) * p + v_q * P[:, 0])
        assert np.allclose(generic, printed, atol=1e-12)

    def test_stock_adjoint_driver(self):
        _, params, problem, field = self._field(sign=-1.0)
        rng = np.random.default_rng(3)
        p = rng.normal(size=5)
        P = rng.normal(size=(5, 2))
        generic = problem.stock.drift * p + (problem.stock.vol * P).sum(-1)
        printed = params.stock_drift * p + params.stock_vol * P[:, 1]
        assert np.allclose(generic, printed, atol=1e-14)

    def test_slack_renders_printed_conditions(self):
        market, params, problem, field = self._field(sign=-1.0)
        scenarios = 6
        noise = problem.noise(scenarios, 1)
        bundle = problem.simulate(field if field.scenarios == scenarios else
                                  problem.sample_field(scenarios, 1, noise),
                                  *problem.default_controls(), noise)
        fieldref = problem.sample_field(scenarios, 1, noise)
        adj = rc.solve_adjoint_regression(fieldref, bundle.mu, bundle, problem.running,
                                          problem.terminal, problem.stock)
        slack = slack_paths(fieldref, problem.k_path, adj)
        n = problem.tg.steps
        first = (1.0 - params.cost_buy) * adj.px[:, :n] - adj.py[:, :n]
        second = -adj.px[:, :n] + (1.0 - params.cost_sell) * adj.py[:, :n]
        assert np.array_equal(slack[:, :, 0], first)
        assert np.array_equal(slack[:, :, 1], second)


class TestDiscountedUtility:
    @pytest.mark.parametrize("utility, f", [("sqrt", np.sqrt), ("log1p", np.log1p),
                                            ("linear", lambda c: c)])
    def test_discounted_utility_of_consumption(self, utility, f):
        running = rc.discounted_utility_running(0.05, utility, sign=-1.0, component=1)
        pts = product_grid([1.0, 2.0], [0.0, 0.05, 0.2]).points
        t = np.array([0.0, 0.5, 0.9])
        table = running.value(t, np.zeros((4, 3)), np.zeros((4, 3)), pts)
        assert table.shape == (3, 1, 6)
        assert np.array_equal(table, -np.exp(-0.05 * t)[:, None, None] * f(pts[:, 1]))
        assert running.dx is None and running.dy is None

    def test_unknown_utility_is_named(self):
        with pytest.raises(ValueError, match="unknown utility 'cubic'"):
            rc.discounted_utility_running(0.05, "cubic")


class TestShortRateGenerators:
    def test_gaussian_adapted_and_seeded(self):
        market = _market()
        tg = rc.TimeGrid(1.0, 12)
        grid = product_grid(market.maturities, market.consumption)
        model = {"model": "finance", "market": market.to_dict()}
        f1 = build_coefficient_field(model, tg, grid, scenarios=9,
                                     noise=rc.brownian_increments(5, 9, 12, 2, tg.dt))
        f2 = build_coefficient_field(model, tg, grid, scenarios=9,
                                     noise=rc.brownian_increments(5, 9, 12, 2, tg.dt))
        assert np.array_equal(rate_paths(f1)[0], rate_paths(f2)[0])
        assert np.all(rate_paths(f1)[0][:, 0] == 0.03)

    def test_ou_generator(self):
        market = _market(rate_kind={"kind": "ou", "r0": 0.05, "level": 0.03, "speed": 0.5})
        tg = rc.TimeGrid(1.0, 10)
        grid = product_grid(market.maturities, market.consumption)
        model = {"model": "finance", "market": market.to_dict()}
        field = build_coefficient_field(model, tg, grid, scenarios=2000,
                                        noise=rc.brownian_increments(6, 2000, 10, 2, tg.dt))
        # mean-reverting toward the level
        rate = rate_paths(field)[0]
        assert rate[:, -1].mean() < 0.05
        assert rate[:, -1].mean() > 0.03

    def test_clamp_counter(self):
        market = _market(clamp=0.05)
        tg = rc.TimeGrid(1.0, 20)
        grid = product_grid(market.maturities, market.consumption)
        model = {"model": "finance", "market": market.to_dict()}
        field = build_coefficient_field(model, tg, grid, scenarios=200,
                                        noise=rc.brownian_increments(7, 200, 20, 2, tg.dt))
        assert field.clamp_events > 0

    @pytest.mark.parametrize("rows", [1, 3], ids=["shared", "per-scenario"])
    def test_tabulated_price_of_risk(self, rows):
        tg = rc.TimeGrid(1.0, 6)
        values = np.random.default_rng(4).uniform(0.0, 0.3, size=(rows, 6))
        market = dataclasses.replace(_market(), market_price_of_risk={
            "kind": "tabulated", "values": (values[0] if rows == 1 else values).tolist()})
        grid = product_grid(market.maturities, market.consumption)
        model = {"model": "finance", "market": market.to_dict()}
        field = build_coefficient_field(model, tg, grid, scenarios=3,
                                        noise=rc.brownian_increments(2, 3, 6, 2, tg.dt))
        rate, theta = rate_paths(field)
        assert np.array_equal(theta, values)
        # drift slope: rate - v(u) * price_of_risk - c, per scenario and point
        u, c = grid.points.T
        v = integrated_volatility(market, u)
        for k in range(6):
            want = rate[:, k, None] - values[:, k, None] * v - c
            np.testing.assert_allclose(field.drift_slope_at(k), want, rtol=0.0, atol=1e-15)

    def test_market_dict_round_trip(self):
        market = _market(vol="hull-white", sigma=0.01, c=0.2, clamp=0.01)
        back = MarketModel.from_dict(market.to_dict())
        assert back.volatility == market.volatility
        assert np.array_equal(back.maturities, market.maturities)
        assert back.clamp_quantile == 0.01
