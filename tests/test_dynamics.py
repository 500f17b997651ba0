import json
import math

import numpy as np
import pytest

import rscontrol as rc
from rscontrol.dynamics import (
    NonFiniteStateError,
    bundle_to_csv,
    coefficient_integrals,
)
from rscontrol.measures import RelaxedControl, SingularControl


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


class TestSimulateForward:
    def test_zero_coefficients_constant_path(self):
        tg = rc.TimeGrid(1.0, 20)
        grid = _grid()
        field = rc.dense_field(tg, grid, scenarios=16, dim=1)
        mu, xi = _zero_controls(20, 4, 1)
        b = rc.simulate_forward(field, mu, xi, 2.5, -1.0, rc.inert_stock(1), tg, seed=0)
        assert np.all(b.x == 2.5)
        assert np.all(b.y == -1.0)

    def test_exponential_drift_oracle(self):
        # deterministic drift slope a: x_T = x0 * e^{aT} within Euler error
        a, x0 = 0.7, 1.3
        tg = rc.TimeGrid(1.0, 1000)
        grid = _grid()
        field = rc.dense_field(tg, grid, scenarios=1, dim=1, drift_slope=a)
        mu, xi = _zero_controls(1000, 4, 1)
        b = rc.simulate_forward(field, mu, xi, x0, 0.0, rc.inert_stock(1), tg, seed=0)
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
        b = rc.simulate_forward(field, mu, xi, 0.0, 0.0, rc.inert_stock(1), tg, seed=0)
        assert np.all(b.x[:, :6] == 0.0)
        assert np.all(b.x[:, 6:] == 1.0)

    def test_gbm_mean_oracle(self):
        lam, rho, y0, scenarios = 0.08, 0.25, 1.0, 4000
        tg = rc.TimeGrid(1.0, 100)
        grid = _grid()
        field = rc.dense_field(tg, grid, scenarios=scenarios, dim=1)
        mu, xi = _zero_controls(100, 4, 1)
        b = rc.simulate_forward(field, mu, xi, 0.0, y0, rc.linear_stock(lam, rho, 1, 0), tg, seed=42)
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
        b1 = rc.simulate_forward(field, mu, xi, 1.0, 1.0, stock, tg, seed=9)
        b2 = rc.simulate_forward(field, mu, xi, 1.0, 1.0, stock, tg, seed=9)
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
        b = rc.simulate_forward(field, mu, xi, 1.0, 0.0, rc.inert_stock(1), tg, seed=0)
        accumulated = np.concatenate([[0.0], np.cumsum(2.0 * xi.increments[:, 0])])
        assert np.allclose(b.x - accumulated[None, :], 1.0, atol=1e-14)

    def test_threads_match_serial(self):
        tg = rc.TimeGrid(1.0, 20)
        grid = _grid()
        field = rc.dense_field(tg, grid, scenarios=64, dim=2, drift_slope=0.2,
                               vol_level=[0.2, 0.0], vol_slope=[0.1, 0.0])
        mu, xi = _zero_controls(20, 4, 2)
        stock = rc.linear_stock(0.05, 0.2, 2)
        noise = rc.brownian_increments(11, 64, 20, 2, tg.dt)
        serial = rc.simulate_forward(field, mu, xi, 1.0, 1.0, stock, tg, noise=noise)
        threaded = rc.simulate_forward(field, mu, xi, 1.0, 1.0, stock, tg, noise=noise, threads=4)
        assert np.array_equal(serial.x, threaded.x)
        assert np.array_equal(serial.y, threaded.y)

    def test_non_finite_diagnostic(self):
        tg = rc.TimeGrid(1.0, 40)
        grid = _grid()
        field = rc.dense_field(tg, grid, scenarios=2, dim=1, drift_level=1e308)
        mu, xi = _zero_controls(40, 4, 1)
        with pytest.raises(NonFiniteStateError) as exc:
            rc.simulate_forward(field, mu, xi, 1e308, 0.0, rc.inert_stock(1), tg, seed=0)
        assert exc.value.step >= 1
        assert "scenario" in str(exc.value)


class TestSampleCoefficients:
    def test_deterministic_constant(self):
        tg = rc.TimeGrid(1.0, 10)
        grid = _grid()
        model = {"model": "deterministic-constant", "dim": 1,
                 "drift_level": 0.0, "drift_slope": 0.5}
        field = rc.sample_coefficients(model, tg, grid, scenarios=7, seed=0)
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
        field = rc.sample_coefficients(model, tg, grid, scenarios=4, seed=0)
        doc = json.loads(json.dumps(model))
        field2 = rc.sample_coefficients(doc, tg, grid, scenarios=4, seed=0)
        for k in range(6):
            assert np.array_equal(field.drift_level_at(k), field2.drift_level_at(k))
            assert np.array_equal(field.vol_slope_at(k), field2.vol_slope_at(k))

    def test_unknown_model(self):
        with pytest.raises(ValueError, match="unknown coefficient model"):
            rc.sample_coefficients({"model": "nope"}, rc.TimeGrid(1.0, 2), _grid(), 1, 0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            rc.dense_field(rc.TimeGrid(1.0, 2), _grid(), 1, 1, drift_level=np.nan)

    def test_coefficient_integrals(self):
        tg = rc.TimeGrid(1.0, 4)
        grid = _grid(3)
        field = rc.dense_field(tg, grid, scenarios=2, dim=1,
                               drift_level=np.array([1.0, 2.0, 4.0]))
        lev, slo, vlev, vslo = coefficient_integrals(field, 0, np.array([0.5, 0.5, 0.0]))
        assert np.allclose(lev, 1.5)
        assert np.all(slo == 0.0)


class TestMomentDiagnostics:
    def test_constant_path_exact(self):
        tg = rc.TimeGrid(1.0, 10)
        grid = _grid()
        field = rc.dense_field(tg, grid, scenarios=5, dim=1)
        mu, xi = _zero_controls(10, 4, 1)
        b = rc.simulate_forward(field, mu, xi, -2.0, 0.0, rc.inert_stock(1), tg, seed=0)
        rep = rc.moment_diagnostics(b, field, p=3.0)
        assert rep.sup_moment_x == pytest.approx(8.0, abs=1e-12)
        assert not rep.exploded

    def test_gbm_second_moment_oracle(self):
        lam, rho, y0, scenarios = 0.05, 0.2, 1.0, 4000
        tg = rc.TimeGrid(1.0, 100)
        grid = _grid()
        field = rc.dense_field(tg, grid, scenarios=scenarios, dim=1)
        mu, xi = _zero_controls(100, 4, 1)
        b = rc.simulate_forward(field, mu, xi, 0.0, y0, rc.linear_stock(lam, rho, 1, 0), tg, seed=3)
        rep = rc.moment_diagnostics(b, field, p=2.0)
        target = y0 ** 2 * math.exp((2 * lam + rho ** 2) * tg.horizon)
        sq = b.y[:, -1] ** 2
        se = sq.std(ddof=1) / math.sqrt(scenarios)
        assert abs(rep.terminal_moment_y - target) <= 3.0 * se
        assert np.isfinite(rep.sup_moment_y)

    def test_explosion_flag(self):
        tg = rc.TimeGrid(1.0, 10)
        grid = _grid()
        field = rc.dense_field(tg, grid, scenarios=3, dim=1, drift_slope=1e4)
        mu, xi = _zero_controls(10, 4, 1)
        b = rc.TrajectoryBundle(tg=tg, x=np.ones((3, 11)), y=np.zeros((3, 11)),
                                noise=np.zeros((3, 10, 1)), mu=mu, xi=xi, x0=1.0, y0=0.0)
        rep = rc.moment_diagnostics(b, field, p=2.0)
        assert rep.exploded


class TestExports:
    def test_csv(self, tmp_path):
        tg = rc.TimeGrid(1.0, 3)
        grid = _grid()
        field = rc.dense_field(tg, grid, scenarios=2, dim=1, vol_level=[0.1])
        mu, xi = _zero_controls(3, 4, 1)
        b = rc.simulate_forward(field, mu, xi, 1.0, 0.0, rc.inert_stock(1), tg, seed=0)
        path = tmp_path / "traj.csv"
        bundle_to_csv(b, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "scenario,step,t,x,y,dW0"
        assert len(lines) == 1 + 2 * 4
