import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import rscontrol as rc
from rscontrol.adjoint import _flows
from rscontrol.cli import example_bond_config
from rscontrol.dynamics import (FACTOR_BUDGET, NonFiniteStateError, _broadcast_tail,
                                coefficient_integrals)
from rscontrol.finance import MarketModel, PortfolioParams, build_portfolio_problem
from rscontrol.measures import RelaxedControl, SingularControl

from toys import coefficient_fields


def _grid(m=4):
    return rc.ActionGrid(np.linspace(0.0, 1.0, m))


def _zero_controls(steps, m, dim):
    return RelaxedControl.uniform(steps, m), SingularControl.zero(steps, dim)


class TestTimeGrid:
    def test_dt(self):
        tg = rc.TimeGrid(2.0, 8)
        assert tg.dt == 0.25
        assert np.allclose(tg.times(), np.linspace(0, 2, 9))

    def test_invalid(self):
        with pytest.raises(ValueError):
            rc.TimeGrid(1.0, 0)
        with pytest.raises(ValueError):
            rc.TimeGrid(0.0, 5)


class TestBrownianIncrements:
    def test_seed_determinism(self):
        a = rc.brownian_increments(4, 30, 12, 2, 0.1)
        assert a.shape == (30, 12, 2)
        assert np.array_equal(a, rc.brownian_increments(4, 30, 12, 2, 0.1))
        assert not np.array_equal(a, rc.brownian_increments(5, 30, 12, 2, 0.1))

    def test_prefix_stable_in_scenarios(self):
        full = rc.brownian_increments(7, 300, 10, 2, 0.05)
        assert np.array_equal(full[:120], rc.brownian_increments(7, 120, 10, 2, 0.05))

    def test_variance_is_dt(self):
        dt = 0.02
        dw = rc.brownian_increments(1, 2000, 50, 2, dt)
        assert abs(dw.var() / dt - 1.0) <= 0.05

    def test_one_stream_across_draw_blocks(self):
        # consecutive scenario blocks continue the single C-order draw
        scenarios = 2 * rc.dynamics.NOISE_BLOCK + 37
        dw = rc.brownian_increments(8, scenarios, 9, 3, 0.04)
        ref = np.random.default_rng(8).standard_normal((scenarios, 9, 3)) * np.sqrt(0.04)
        assert np.array_equal(dw, ref)
        assert np.array_equal(np.signbit(dw), np.signbit(ref))

    def test_step_slices_contiguous(self):
        dw = rc.brownian_increments(2, 300, 7, 2, 0.1)
        assert dw.flags.f_contiguous
        for k in (0, 3, 6):
            for j in (0, 1):
                assert dw[:, k, j].flags.c_contiguous


class TestStepMajorSums:
    # ``_dot_last`` on step-major operands must give the C-ordered
    # ``(a * b).sum(-1)`` bit for bit, on both sides of numpy's switch to
    # pairwise summation along contiguous rows
    @pytest.mark.parametrize("d", range(1, 10))
    def test_dot_last_matches_c_order_sum(self, d):
        rng = np.random.default_rng(d)
        paths = np.asfortranarray(rng.normal(size=(257, 3, d)))
        slopes = np.asfortranarray(rng.normal(size=(257, 2, d)))
        cases = [(paths[:, 0], paths[:, 2]), (slopes, paths[:, 1, None]), (slopes, slopes)]
        for a, b in cases:
            ref = (np.ascontiguousarray(a) * np.ascontiguousarray(b)).sum(axis=-1)
            for a_, b_ in ((a, b), (np.ascontiguousarray(a), np.ascontiguousarray(b))):
                assert np.array_equal(rc.dynamics._dot_last(a_, b_), ref)
                # into preallocated outputs, as the forward pass calls it
                for order in "CF":
                    out = np.empty(ref.shape, order=order)
                    product = (np.empty(ref.shape + (d,)) if d >= rc.dynamics.PAIRWISE_AXES
                               else np.empty(ref.shape, order=order))
                    assert rc.dynamics._dot_last(a_, b_, out, product) is out
                    assert np.array_equal(out, ref)

    @pytest.mark.parametrize("d", range(1, 10))
    def test_sum_of_negative_zeros_is_zero(self, d):
        # numpy's sum of negative zeros is 0.0, and ``_dot_last``'s too
        a = np.full((5, 3, d), -0.0, order="F")
        b = np.asfortranarray(np.random.default_rng(d).uniform(0.5, 1.0, size=(5, 3, d)))
        ref = (np.ascontiguousarray(a) * np.ascontiguousarray(b)).sum(axis=-1)
        assert not np.signbit(ref).any()
        out = np.empty((5, 3), order="F")
        product = np.empty((5, 3, d)) if d >= rc.dynamics.PAIRWISE_AXES else np.empty_like(out)
        for got in (rc.dynamics._dot_last(a, b), rc.dynamics._dot_last(a, b, out, product)):
            assert np.array_equal(got, ref) and not np.signbit(got).any()


class TestSimulateForward:
    def test_zero_coefficients_constant_path(self):
        tg = rc.TimeGrid(1.0, 20)
        grid = _grid()
        field = rc.dense_field(tg, grid, scenarios=16, dim=1)
        mu, xi = _zero_controls(20, 4, 1)
        b = rc.simulate_forward(field, mu, xi, 2.5, -1.0, rc.inert_stock(1), tg,
                                noise=rc.brownian_increments(0, 16, 20, 1, tg.dt))
        assert np.all(b.x == 2.5)
        assert np.all(b.y == -1.0)

    def test_no_scenarios(self):
        tg = rc.TimeGrid(1.0, 5)
        field = rc.dense_field(tg, _grid(), scenarios=0, dim=1)
        mu, xi = _zero_controls(5, 4, 1)
        b = rc.simulate_forward(field, mu, xi, 1.0, 1.0, rc.inert_stock(1), tg,
                                noise=rc.brownian_increments(0, 0, 5, 1, tg.dt))
        assert b.x.shape == b.y.shape == (0, 6)

    def test_exponential_drift_oracle(self):
        # deterministic drift slope a: x_T = x0 * e^{aT} within Euler error
        a, x0 = 0.7, 1.3
        tg = rc.TimeGrid(1.0, 1000)
        grid = _grid()
        field = rc.dense_field(tg, grid, scenarios=1, dim=1, drift_slope=a)
        mu, xi = _zero_controls(1000, 4, 1)
        b = rc.simulate_forward(field, mu, xi, x0, 0.0, rc.inert_stock(1), tg,
                                noise=rc.brownian_increments(0, 1, 1000, 1, tg.dt))
        exact = x0 * math.exp(a * tg.horizon)
        rel = abs(b.x[0, -1] - exact) / exact
        assert rel <= 2.0 * tg.dt * abs(a) * tg.horizon

    def test_single_jump(self):
        tg = rc.TimeGrid(1.0, 10)
        grid = _grid()
        field = rc.dense_field(tg, grid, scenarios=3, dim=1, jump_gain_x=[1.0])
        mu = RelaxedControl.uniform(10, 4)
        inc = np.zeros((10, 1))
        inc[5, 0] = 1.0
        xi = SingularControl(inc)
        b = rc.simulate_forward(field, mu, xi, 0.0, 0.0, rc.inert_stock(1), tg,
                                noise=rc.brownian_increments(0, 3, 10, 1, tg.dt))
        assert np.all(b.x[:, :6] == 0.0)
        assert np.all(b.x[:, 6:] == 1.0)
        # a scalar gain is the same (steps, dim) table
        scalar = rc.dense_field(tg, grid, scenarios=3, dim=1, jump_gain_x=1.0)
        assert np.array_equal(scalar.jump_gain_x, field.jump_gain_x)

    def test_gbm_mean_oracle(self):
        lam, rho, y0, scenarios = 0.08, 0.25, 1.0, 4000
        tg = rc.TimeGrid(1.0, 100)
        grid = _grid()
        field = rc.dense_field(tg, grid, scenarios=scenarios, dim=1)
        mu, xi = _zero_controls(100, 4, 1)
        b = rc.simulate_forward(field, mu, xi, 0.0, y0, rc.linear_stock(lam, rho, 1, 0), tg,
                                noise=rc.brownian_increments(42, 4000, 100, 1, tg.dt))
        target = y0 * math.exp(lam * tg.horizon)
        se = b.y[:, -1].std(ddof=1) / math.sqrt(scenarios)
        assert abs(b.y[:, -1].mean() - target) <= 3.0 * se

    def test_dirac_reduction_bitwise(self):
        rng = np.random.default_rng(7)
        tg = rc.TimeGrid(1.0, 25)
        grid = _grid(5)
        for _ in range(10):
            field = rc.dense_field(
                tg, grid, scenarios=8, dim=2,
                drift_level=rng.normal(size=5),
                drift_slope=rng.normal(size=(25, 5)) * 0.3,
                vol_level=rng.normal(size=(5, 2)) * 0.2,
                vol_slope=rng.normal(size=(5, 2)) * 0.1,
                jump_gain_x=rng.normal(size=2),
                jump_gain_y=rng.normal(size=2),
            )
            idx = rng.integers(0, 5, size=25)
            xi = SingularControl(rng.uniform(0, 0.05, size=(25, 2)))
            stock = rc.linear_stock(0.05, 0.2, 2)
            noise = rc.brownian_increments(3, 8, 25, 2, tg.dt)
            strict = rc.simulate_forward_strict(field, idx, xi, 1.0, 1.0, stock, tg, noise=noise)
            relaxed = rc.simulate_forward(
                field, RelaxedControl.from_indices(idx, 5), xi, 1.0, 1.0, stock, tg, noise=noise
            )
            assert np.array_equal(strict.x, relaxed.x)
            assert np.array_equal(strict.y, relaxed.y)
        # the bond field: per-scenario short rate in a three-term drift slope
        market = MarketModel.from_dict(example_bond_config()["problem"]["market"])
        tg = rc.TimeGrid(1.0, 50)
        problem = build_portfolio_problem(market, PortfolioParams(), tg).problem
        noise = problem.noise(8, 5)
        field = problem.sample_field(8, 5, noise)
        for _ in range(3):
            idx = rng.integers(0, problem.grid.count, size=tg.steps)
            xi = SingularControl(rng.uniform(0, 0.004, size=(tg.steps, 2)))
            strict = rc.simulate_forward_strict(field, idx, xi, problem.x0, problem.y0,
                                                problem.stock, tg, noise=noise)
            relaxed = problem.simulate(field, RelaxedControl.from_indices(idx, problem.grid.count),
                                       xi, noise)
            assert np.array_equal(strict.x, relaxed.x)
            assert np.array_equal(strict.y, relaxed.y)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("per_scenario", [False, True])
    def test_x_is_the_fundamental_flow(self, per_scenario, threads):
        # with zero drift and vol levels and no jumps, x from x0 = 1 and y
        # from y0 = 1 are the flows of their linearizations: each multiplier
        # is its flow's step factor bit for bit, over 3 blocks of 7 steps
        scenarios, n = FACTOR_BUDGET // 7, 20
        tg = rc.TimeGrid(1.0, n)
        rng = np.random.default_rng(12)
        lead = (scenarios,) if per_scenario else ()
        field = rc.dense_field(tg, _grid(), scenarios=scenarios, dim=2,
                               drift_slope=rng.normal(size=lead + (n, 4)) * 0.5,
                               vol_slope=rng.normal(size=lead + (n, 4, 2)) * 0.3,
                               jump_gain_x=[1.0, -0.5], jump_gain_y=[0.3, 0.2])
        mu = RelaxedControl(rng.dirichlet(np.ones(4), size=n))
        stock = rc.linear_stock(0.05, 0.2, 2)
        bundle = rc.simulate_forward(field, mu, SingularControl.zero(n, 2), 1.0, 1.0, stock, tg,
                                     noise=rc.brownian_increments(3, scenarios, n, 2, tg.dt),
                                     threads=threads)
        flow = _flows(coefficient_integrals(field, mu), bundle, stock)
        assert np.array_equal(bundle.x, flow[:, 0])
        assert np.array_equal(bundle.y, flow[:, 1])

    def test_thread_pool_loaded_only_by_threaded_runs(self):
        # importing the package and its CLI leaves concurrent.futures, with the
        # logging and queue modules it loads, to the first threaded run
        code = "import sys, rscontrol, rscontrol.cli; print('concurrent.futures' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(Path(rc.__file__).resolve().parents[1])}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True)
        assert out.stdout.strip() == "False"

    def test_memory_bounded_by_factor_budget(self, thread_pools):
        # beyond its paths, a pass holds the buffers of one block of x's
        # factors, 4 arrays of at most FACTOR_BUDGET values below 8 Brownian
        # axes, and one step's temporaries, allowed 8 * (1 + dim) scenario
        # columns; no array spans the horizon (that would be 16 MB here at 100 steps)
        scenarios, d = 4000, 2
        bound = 8 * (4 * FACTOR_BUDGET + 8 * (1 + d) * scenarios)
        pts = np.linspace(-1.0, 1.0, 5)
        stock = rc.linear_stock(0.05, 0.2, d)
        for n in (100, 300):
            tg = rc.TimeGrid(1.0, n)
            field = rc.dense_field(tg, rc.ActionGrid(pts), scenarios=scenarios, dim=d,
                                   drift_level=0.3 * pts, drift_slope=-0.2 + 0.1 * pts,
                                   vol_level=np.column_stack([0.15 + 0.1 * pts, np.zeros(5)]),
                                   vol_slope=[0.1, 0.05], jump_gain_x=[0.8, -0.5])
            mu, xi = RelaxedControl.uniform(n, 5), SingularControl(np.full((n, d), 0.01))
            noise = rc.brownian_increments(1, scenarios, n, d, tg.dt)
            for threads in (1, 2):
                tracemalloc.start()
                try:
                    bundle = rc.simulate_forward(field, mu, xi, 1.0, 1.0, stock, tg, noise=noise,
                                                 threads=threads)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak - bundle.x.nbytes - bundle.y.nbytes < bound
        assert thread_pools.workers == [2, 2]

    def _strict_case(self, monkeypatch):
        tg = rc.TimeGrid(1.0, 10)
        field = rc.dense_field(tg, _grid(), scenarios=5, dim=2, drift_level=[0.0, 0.1, 0.2, 0.3],
                               vol_level=[0.2, 0.0])
        calls = []
        euler_paths = rc.dynamics._euler_paths

        def recording(*args, **kwargs):
            calls.append(args)
            return euler_paths(*args, **kwargs)

        monkeypatch.setattr(rc.dynamics, "_euler_paths", recording)
        return tg, field, rc.inert_stock(2), calls

    @pytest.mark.parametrize("index", [-1, 4])
    def test_strict_index_off_grid_raises_before_simulating(self, monkeypatch, index):
        tg, field, stock, calls = self._strict_case(monkeypatch)
        idx = np.zeros(10, dtype=int)
        idx[3] = index
        with pytest.raises(IndexError, match="outside the grid"):
            rc.simulate_forward_strict(field, idx, SingularControl.zero(10, 2), 1.0, 1.0,
                                       stock, tg, noise=rc.brownian_increments(0, 5, 10, 2, tg.dt))
        assert calls == []
        rc.simulate_forward_strict(field, np.zeros(10, dtype=int), SingularControl.zero(10, 2),
                                   1.0, 1.0, stock, tg,
                                   noise=rc.brownian_increments(0, 5, 10, 2, tg.dt))
        assert len(calls) == 1

    @pytest.mark.parametrize("case", ["noise-shape", "control-steps", "singular-dim"])
    def test_strict_checks_inputs_up_front(self, monkeypatch, case):
        tg, field, stock, calls = self._strict_case(monkeypatch)
        xi = SingularControl.zero(10, 2)
        noise = rc.brownian_increments(0, 5, 10, 2, tg.dt)
        if case == "noise-shape":
            noise = noise[:, :9]
        elif case == "control-steps":
            xi = SingularControl.zero(9, 2)
        else:
            xi = SingularControl.zero(10, 1)
        with pytest.raises(ValueError):
            rc.simulate_forward_strict(field, np.zeros(10, dtype=int), xi, 1.0, 1.0, stock, tg,
                                       noise=noise)
        assert calls == []

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("dim", [1, 3])
    def test_stock_vol_of_wrong_length_refused(self, monkeypatch, strict, dim):
        tg, field, _, calls = self._strict_case(monkeypatch)
        stock, xi = rc.inert_stock(dim), SingularControl.zero(10, 2)
        noise = rc.brownian_increments(0, 5, 10, 2, tg.dt)
        with pytest.raises(ValueError, match=f"stock vol of length {dim} .* 2 Brownian axes"):
            if strict:
                rc.simulate_forward_strict(field, np.zeros(10, dtype=int), xi, 1.0, 1.0, stock,
                                           tg, noise=noise)
            else:
                rc.simulate_forward(field, RelaxedControl.uniform(10, 4), xi, 1.0, 1.0, stock,
                                    tg, noise=noise)
        assert calls == []

    @pytest.mark.parametrize("drift, vol", [(np.nan, [0.0, 0.2]), (np.inf, [0.0, 0.2]),
                                            (0.05, [0.0, np.inf]), (0.05, [[0.2]])])
    def test_stock_model_refuses_non_finite_or_non_vector(self, drift, vol):
        with pytest.raises(ValueError, match="stock drift must be a finite number"):
            rc.StockModel(drift, vol)

    def test_stock_model_holds_its_constants(self):
        stock = rc.linear_stock(0.05, 0.2, 3, component=1)
        assert stock.drift == 0.05 and np.array_equal(stock.vol, [0.0, 0.2, 0.0])
        assert not stock.vol.flags.writeable
        assert rc.inert_stock(2).drift == 0.0 and np.array_equal(rc.inert_stock(2).vol, [0, 0])

    def test_linearity_in_state(self):
        tg = rc.TimeGrid(1.0, 30)
        grid = _grid()
        field = rc.dense_field(tg, grid, scenarios=50, dim=1, drift_slope=0.4, vol_slope=[0.3])
        mu, xi = _zero_controls(30, 4, 1)
        noise = rc.brownian_increments(5, 50, 30, 1, tg.dt)
        b1 = rc.simulate_forward(field, mu, xi, 0.75, 0.0, rc.inert_stock(1), tg, noise=noise)
        b2 = rc.simulate_forward(field, mu, xi, 1.5, 0.0, rc.inert_stock(1), tg, noise=noise)
        assert np.array_equal(2.0 * b1.x, b2.x)

    def test_seed_determinism(self):
        tg = rc.TimeGrid(1.0, 15)
        grid = _grid()
        field = rc.dense_field(tg, grid, scenarios=20, dim=2, vol_level=[0.2, 0.1])
        mu, xi = _zero_controls(15, 4, 2)
        stock = rc.linear_stock(0.05, 0.2, 2)
        b1 = rc.simulate_forward(field, mu, xi, 1.0, 1.0, stock, tg,
                                 noise=rc.brownian_increments(9, 20, 15, 2, tg.dt))
        b2 = rc.simulate_forward(field, mu, xi, 1.0, 1.0, stock, tg,
                                 noise=rc.brownian_increments(9, 20, 15, 2, tg.dt))
        assert np.array_equal(b1.x, b2.x)
        assert np.array_equal(b1.noise, b2.noise)

    def test_jump_bookkeeping(self):
        # with zero coefficients, x minus the accumulated jumps is constant
        tg = rc.TimeGrid(1.0, 12)
        grid = _grid()
        field = rc.dense_field(tg, grid, scenarios=4, dim=1, jump_gain_x=[2.0])
        mu = RelaxedControl.uniform(12, 4)
        rng = np.random.default_rng(1)
        xi = SingularControl(rng.uniform(0, 0.2, size=(12, 1)))
        b = rc.simulate_forward(field, mu, xi, 1.0, 0.0, rc.inert_stock(1), tg,
                                noise=rc.brownian_increments(0, 4, 12, 1, tg.dt))
        accumulated = np.concatenate([[0.0], np.cumsum(2.0 * xi.increments[:, 0])])
        assert np.allclose(b.x - accumulated[None, :], 1.0, atol=1e-14)

    def test_threads_match_serial(self, thread_pools):
        tg = rc.TimeGrid(1.0, 20)
        grid = _grid()
        field = rc.dense_field(tg, grid, scenarios=64, dim=2, drift_slope=0.2,
                               vol_level=[0.2, 0.0], vol_slope=[0.1, 0.0])
        mu, xi = _zero_controls(20, 4, 2)
        stock = rc.linear_stock(0.05, 0.2, 2)
        noise = rc.brownian_increments(11, 64, 20, 2, tg.dt)
        serial = rc.simulate_forward(field, mu, xi, 1.0, 1.0, stock, tg, noise=noise)
        threaded = rc.simulate_forward(field, mu, xi, 1.0, 1.0, stock, tg, noise=noise, threads=4)
        assert thread_pools.workers == [4]
        assert np.array_equal(serial.x, threaded.x)
        assert np.array_equal(serial.y, threaded.y)

    @pytest.mark.parametrize("scenarios,threads", [(101, 1), (101, 2), (101, 3)])
    def test_threads_match_serial_on_uneven_chunks(self, scenarios, threads, thread_pools):
        # 101 scenarios split into chunks of unequal size; every step slice contiguous
        tg = rc.TimeGrid(1.0, 20)
        rng = np.random.default_rng(4)
        field = rc.dense_field(tg, _grid(), scenarios=scenarios, dim=2,
                               drift_level=rng.normal(size=(scenarios, 20, 4)) * 0.1,
                               drift_slope=0.2, vol_level=[0.2, 0.05], vol_slope=[0.1, 0.0])
        mu = RelaxedControl(rng.dirichlet(np.ones(4), size=20))
        xi = SingularControl(rng.uniform(0.0, 0.01, size=(20, 2)))
        stock = rc.linear_stock(0.05, 0.2, 2)
        noise = rc.brownian_increments(11, scenarios, 20, 2, tg.dt)
        serial = rc.simulate_forward(field, mu, xi, 1.0, 1.0, stock, tg, noise=noise)
        threaded = rc.simulate_forward(field, mu, xi, 1.0, 1.0, stock, tg, noise=noise,
                                       threads=threads)
        assert thread_pools.workers == ([] if threads == 1 else [threads])
        assert np.array_equal(serial.x, threaded.x)
        assert np.array_equal(serial.y, threaded.y)
        assert threaded.x[:, 7].flags.c_contiguous and threaded.y[:, 7].flags.c_contiguous

    def test_c_ordered_noise_gives_same_paths(self, thread_pools):
        tg = rc.TimeGrid(1.0, 12)
        field = rc.dense_field(tg, _grid(), scenarios=30, dim=2, drift_slope=0.3,
                               vol_level=[0.2, 0.1], vol_slope=[0.1, 0.2])
        mu, xi = _zero_controls(12, 4, 2)
        stock = rc.linear_stock(0.05, 0.2, 2)
        noise = rc.brownian_increments(6, 30, 12, 2, tg.dt)
        step_major = rc.simulate_forward(field, mu, xi, 1.0, 1.0, stock, tg, noise=noise)
        c_order = rc.simulate_forward(field, mu, xi, 1.0, 1.0, stock, tg,
                                      noise=np.ascontiguousarray(noise), threads=2)
        assert thread_pools.workers == [2]
        assert np.array_equal(step_major.x, c_order.x)
        assert np.array_equal(step_major.y, c_order.y)

    @pytest.mark.parametrize("scenarios,threads", [(6, 2), (22, 3)])
    def test_threads_match_serial_on_bond_field(self, scenarios, threads, thread_pools):
        # per-scenario drift slopes under a random measure: a thread chunk
        # must see the same integrated coefficients as the whole sample
        market = MarketModel.from_dict(example_bond_config()["problem"]["market"])
        tg = rc.TimeGrid(1.0, 50)
        problem = build_portfolio_problem(market, PortfolioParams(), tg).problem
        noise = problem.noise(scenarios, 0)
        field = problem.sample_field(scenarios, 0, noise)
        rng = np.random.default_rng(0)
        mu = RelaxedControl(rng.dirichlet(np.ones(problem.grid.count), size=tg.steps))
        xi = SingularControl(rng.uniform(0.0, 0.004, size=(tg.steps, 2)))
        serial = problem.simulate(field, mu, xi, noise)
        threaded = problem.simulate(field, mu, xi, noise, threads=threads)
        assert thread_pools.workers == [threads]
        assert np.array_equal(serial.x, threaded.x)
        assert np.array_equal(serial.y, threaded.y)

    def test_non_finite_diagnostic(self, thread_pools):
        tg = rc.TimeGrid(1.0, 40)
        grid = _grid()
        field = rc.dense_field(tg, grid, scenarios=2, dim=1, drift_level=1e308)
        mu, xi = _zero_controls(40, 4, 1)
        with pytest.raises(NonFiniteStateError) as exc:
            rc.simulate_forward(field, mu, xi, 1e308, 0.0, rc.inert_stock(1), tg,
                                noise=rc.brownian_increments(0, 2, 40, 1, tg.dt))
        assert exc.value.step >= 1
        assert "scenario" in str(exc.value)
        # only scenario 40 overflows; a thread chunk reports the global index
        level = np.zeros((64, 40, 4))
        level[40] = 1e308
        field = rc.dense_field(tg, grid, scenarios=64, dim=1, drift_level=level)
        for threads in (1, 2, 3, 4):
            with pytest.raises(NonFiniteStateError) as exc:
                rc.simulate_forward(field, mu, xi, 1e308, 0.0, rc.inert_stock(1), tg,
                                    noise=rc.brownian_increments(0, 64, 40, 1, tg.dt),
                                    threads=threads)
            assert exc.value.scenario == 40
            assert "scenario 40" in str(exc.value)
        assert thread_pools.workers == [2, 3, 4]

    @pytest.mark.parametrize("threads", [1, 2, 3, 4])
    def test_earliest_overflow_at_every_thread_count(self, threads, thread_pools):
        # scenario 10 overflows from step 15 and scenario 70 from step 3; the
        # later scenario's earlier step is the error a serial pass meets
        tg = rc.TimeGrid(1.0, 40)
        slope = np.zeros((100, 40, 4))
        slope[10, 15:] = 1e308
        slope[70, 3:] = 1e308
        field = rc.dense_field(tg, _grid(), scenarios=100, dim=1, drift_slope=slope)
        mu, xi = _zero_controls(40, 4, 1)
        with pytest.raises(NonFiniteStateError) as exc:
            rc.simulate_forward(field, mu, xi, 1.0, 0.0, rc.inert_stock(1), tg,
                                noise=rc.brownian_increments(0, 100, 40, 1, tg.dt),
                                threads=threads)
        assert (exc.value.component, exc.value.step, exc.value.scenario) == ("x", 5, 70)
        # across the blocks in which x's factors are set up and the paths
        # checked, 3 steps each at this sample size (states 1-3, 4-6, 7-9,
        # 10-12): a huge increment on Brownian axis 0 (x's) or 1 (y's) at step
        # k overflows that component at state k + 1 of one scenario
        scenarios, n = FACTOR_BUDGET // 3, 12
        assert max(1, FACTOR_BUDGET // scenarios) == 3
        tg = rc.TimeGrid(1.0, n)
        field = rc.dense_field(tg, _grid(), scenarios=scenarios, dim=2, drift_slope=0.1,
                               vol_level=[10.0, 0.0])
        # y0 = 1: a huge increment on axis 1 makes y's multiplier 1 + 10 * dW infinite
        stock = rc.linear_stock(0.0, 10.0, 2, component=1)
        idx = np.zeros(n, dtype=int)
        mu, xi = RelaxedControl.from_indices(idx, 4), SingularControl.zero(n, 2)
        base = rc.brownian_increments(2, scenarios, n, 2, tg.dt)
        axis = {"x": 0, "y": 1}
        cases = [
            ([("x", 9000, 4), ("x", 5, 6)], ("x", 4, 9000)),           # first state of a block
            ([("x", 12, 6), ("y", 3, 7)], ("x", 6, 12)),               # last state of a block
            ([("y", 100, 5), ("x", scenarios - 1, 5)], ("x", 5, scenarios - 1)),   # x before y
            ([("y", scenarios - 2, 4), ("x", 0, 5)], ("y", 4, scenarios - 2)),
            ([("y", 7, 10), ("y", 6, 10), ("x", 8, 11)], ("y", 10, 6)),
        ]
        for overflows, expected in cases:
            noise = base.copy()
            for component, scenario, state in overflows:
                noise[scenario, state - 1, axis[component]] = 1e308
            with pytest.raises(NonFiniteStateError) as strict:
                rc.simulate_forward_strict(field, idx, xi, 1.0, 1.0, stock, tg, noise=noise)
            with pytest.raises(NonFiniteStateError) as exc:
                rc.simulate_forward(field, mu, xi, 1.0, 1.0, stock, tg, noise=noise,
                                    threads=threads)
            found = [(e.value.component, e.value.step, e.value.scenario) for e in (strict, exc)]
            assert found == [expected, expected]
        assert thread_pools.workers == ([] if threads == 1 else [threads] * (1 + len(cases)))


class TestSampleCoefficients:
    def test_deterministic_constant(self):
        tg = rc.TimeGrid(1.0, 10)
        grid = _grid()
        model = {"model": "deterministic-constant", "dim": 1,
                 "drift_level": 0.0, "drift_slope": 0.5}
        field = rc.sample_coefficients(model, tg, grid, scenarios=7)
        for k in (0, 5, 9):
            assert np.all(field.drift_slope_at(k) == 0.5)
            assert np.all(field.drift_level_at(k) == 0.0)
        # shared across scenarios: singleton scenario axis
        assert field.drift_slope_at(0).shape[0] == 1

    def test_tabulated_round_trip(self):
        tg = rc.TimeGrid(1.0, 6)
        grid = _grid(3)
        rng = np.random.default_rng(2)
        model = {
            "model": "tabulated", "dim": 2,
            "drift_level": rng.normal(size=(6, 3)).tolist(),
            "drift_slope": rng.normal(size=(6, 3)).tolist(),
            "vol_level": rng.normal(size=(6, 3, 2)).tolist(),
            "vol_slope": rng.normal(size=(6, 3, 2)).tolist(),
        }
        field = rc.sample_coefficients(model, tg, grid, scenarios=4)
        doc = json.loads(json.dumps(model))
        field2 = rc.sample_coefficients(doc, tg, grid, scenarios=4)
        for k in range(6):
            assert np.array_equal(field.drift_level_at(k), field2.drift_level_at(k))
            assert np.array_equal(field.vol_slope_at(k), field2.vol_slope_at(k))
        # per-scenario tables come back exactly from their factored form
        model["drift_slope"] = rng.normal(size=(4, 6, 3)).tolist()
        model["vol_level"] = rng.normal(size=(4, 6, 3, 2)).tolist()
        field = rc.sample_coefficients(model, tg, grid, scenarios=4)
        for k in range(6):
            assert np.array_equal(field.drift_slope_at(k), np.asarray(model["drift_slope"])[:, k])
            assert np.array_equal(field.vol_level_at(k), np.asarray(model["vol_level"])[:, k])
            assert np.array_equal(field.vol_slope_at(k), np.asarray(model["vol_slope"])[None, k])

    def test_unknown_model(self):
        with pytest.raises(ValueError, match="unknown coefficient model"):
            rc.sample_coefficients({"model": "nope"}, rc.TimeGrid(1.0, 2), _grid(), 1)
        # a misspelled table is refused by name, not built as a zero table
        with pytest.raises(ValueError, match="unknown coefficient keys \\['drift_levle'\\]"):
            rc.sample_coefficients({"model": "tabulated", "drift_levle": 1.0},
                                   rc.TimeGrid(1.0, 2), _grid(), 1)

    # the one broadcasting rule of every tabulated input, on a (4, 3, 2) target:
    # any trailing part repeats, and with scenarios a scenario axis of 1 or S
    @pytest.mark.parametrize("shape, scenarios, error", [
        ((), None, None), ((2,), None, None), ((3, 2), None, None), ((4, 3, 2), None, None),
        ((), 5, None), ((3, 2), 5, None), ((1, 4, 3, 2), 5, None), ((5, 4, 3, 2), 5, None),
        ((3,), None, "shape (3,) is not a trailing part of (4, 3, 2)"),
        ((4, 1, 2), None, "shape (4, 1, 2) is not a trailing part"),
        ((1, 4, 3, 2), None, "shape (1, 4, 3, 2) is not a trailing part"),
        ((2, 3, 2), 5, "shape (2, 3, 2) is not a trailing part"),
        ((3, 4, 3, 2), 5, "scenario axis 3 is neither 1 nor 5"),
        ((3, 2), None, "non-finite entries"),
        ((5, 4, 3, 2), 5, "non-finite entries"),
    ])
    def test_broadcast_tail(self, shape, scenarios, error):
        values = np.arange(1.0, 1.0 + np.prod(shape)).reshape(shape)
        if error == "non-finite entries":
            values.flat[-1] = np.nan
        if error is not None:
            with pytest.raises(ValueError, match="^" + re.escape(f"vol_slope: {error}")):
                _broadcast_tail(values.tolist(), (4, 3, 2), "vol_slope", scenarios)
            return
        lead = () if scenarios is None else shape[:1] if len(shape) == 4 else (1,)
        got = _broadcast_tail(values.tolist(), (4, 3, 2), "vol_slope", scenarios)
        assert got.shape == lead + (4, 3, 2)
        assert np.array_equal(got, np.broadcast_to(values, lead + (4, 3, 2)))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            rc.dense_field(rc.TimeGrid(1.0, 2), _grid(), 1, 1, drift_level=np.nan)

    def test_coefficient_integrals(self):
        tg = rc.TimeGrid(1.0, 4)
        grid = _grid(3)
        field = rc.dense_field(tg, grid, scenarios=2, dim=1,
                               drift_level=np.array([1.0, 2.0, 4.0]))
        mu = RelaxedControl(np.tile([0.5, 0.5, 0.0], (4, 1)))
        lev, slo, vlev, vslo = coefficient_integrals(field, mu)
        assert np.allclose(lev, 1.5)
        assert np.all(slo == 0.0)
        # deterministic coefficients keep the shared scenario axis
        assert lev.shape == slo.shape == (1, 4)
        assert vlev.shape == vslo.shape == (1, 4, 1)

        # every stored form against the per-point formula on the *_at(k) slices
        rng = np.random.default_rng(12)
        for name, field in coefficient_fields(rng):
            mu = RelaxedControl(rng.dirichlet(np.ones(field.grid.count), size=field.steps))
            got = coefficient_integrals(field, mu)
            for k in range(field.steps):
                w = mu.weights[k]
                want = ((field.drift_level_at(k) * w).sum(axis=-1),
                        (field.drift_slope_at(k) * w).sum(axis=-1),
                        (field.vol_level_at(k) * w[:, None]).sum(axis=-2),
                        (field.vol_slope_at(k) * w[:, None]).sum(axis=-2))
                for part, ref in zip(got, want):
                    np.testing.assert_allclose(part[:, k], ref, rtol=1e-12, err_msg=name)


class TestMomentDiagnostics:
    def test_constant_path_exact(self):
        tg = rc.TimeGrid(1.0, 10)
        grid = _grid()
        field = rc.dense_field(tg, grid, scenarios=5, dim=1)
        mu, xi = _zero_controls(10, 4, 1)
        b = rc.simulate_forward(field, mu, xi, -2.0, 0.0, rc.inert_stock(1), tg,
                                noise=rc.brownian_increments(0, 5, 10, 1, tg.dt))
        rep = rc.moment_diagnostics(b, field, p=3.0)
        assert rep.sup_moment_x == pytest.approx(8.0, abs=1e-12)
        assert not rep.exploded

    def test_gbm_second_moment_oracle(self):
        lam, rho, y0, scenarios = 0.05, 0.2, 1.0, 4000
        tg = rc.TimeGrid(1.0, 100)
        grid = _grid()
        field = rc.dense_field(tg, grid, scenarios=scenarios, dim=1)
        mu, xi = _zero_controls(100, 4, 1)
        b = rc.simulate_forward(field, mu, xi, 0.0, y0, rc.linear_stock(lam, rho, 1, 0), tg,
                                noise=rc.brownian_increments(3, 4000, 100, 1, tg.dt))
        rep = rc.moment_diagnostics(b, field, p=2.0)
        target = y0 ** 2 * math.exp((2 * lam + rho ** 2) * tg.horizon)
        sq = b.y[:, -1] ** 2
        se = sq.std(ddof=1) / math.sqrt(scenarios)
        assert abs(rep.terminal_moment_y - target) <= 3.0 * se
        assert np.isfinite(rep.sup_moment_y)

    def test_sup_abs_matches_absolute_values(self):
        # rows of signed zeros (max and -min are then zeros of opposite sign),
        # mixed signs, an infinity and a NaN, stored step-major as paths are
        paths = np.asfortranarray([[-0.0, -0.0, -0.0], [0.0, -0.0, 0.0], [0.0, 0.0, 0.0],
                                   [1.5, -2.5, 2.0], [-3.0, 1.0, np.inf], [1.0, np.nan, -4.0]])
        got, expected = rc.dynamics._sup_abs(paths), np.abs(paths).max(axis=1)
        assert np.array_equal(got, expected, equal_nan=True)
        finite = np.isfinite(expected)
        assert np.array_equal(np.signbit(got[finite]), np.signbit(expected[finite]))

    def test_explosion_flag(self):
        tg = rc.TimeGrid(1.0, 10)
        grid = _grid()
        field = rc.dense_field(tg, grid, scenarios=3, dim=1, drift_slope=1e4)
        mu, xi = _zero_controls(10, 4, 1)
        b = rc.TrajectoryBundle(tg=tg, x=np.ones((3, 11)), y=np.zeros((3, 11)),
                                noise=np.zeros((3, 10, 1)), mu=mu, xi=xi)
        rep = rc.moment_diagnostics(b, field, p=2.0)
        assert rep.exploded

    def test_overflowing_moment_is_not_a_non_finite_path(self):
        # finite paths whose moment of a huge order overflows: exploded, not non-finite
        tg = rc.TimeGrid(1.0, 10)
        field = rc.dense_field(tg, _grid(), scenarios=3, dim=1)
        mu, xi = _zero_controls(10, 4, 1)
        b = rc.simulate_forward(field, mu, xi, 2.0, 1.0, rc.inert_stock(1), tg,
                                noise=rc.brownian_increments(0, 3, 10, 1, tg.dt))
        rep = rc.moment_diagnostics(b, field, p=1e308)
        assert rep.non_finite is False and rep.exploded is True

