"""Bond-portfolio / consumption problem with proportional transaction costs.

Maps the bond-market investment problem onto the canonical controlled SDE:
the action is a (time-to-maturity, consumption-rate) pair on a product grid,
the drift slope of the bond position is ``short_rate - v(u) * price_of_risk
- c``, its diffusion slope is the integrated volatility ``v(u)`` on the first
Brownian axis, the stock is a geometric Brownian motion on the second axis,
and lump transfers between the two accounts pay proportional costs through
the jump gains ``((1-cost_buy), -1)`` and ``(-1, (1-cost_sell))``.
"""

from __future__ import annotations

import numbers
from dataclasses import asdict, dataclass, field as dc_field

import numpy as np

from .dynamics import CoefficientField, Factored, TimeGrid, _broadcast_tail, linear_stock
from .measures import DEFAULT_TV_CAP, ActionGrid, _float_array
from .problems import (
    ControlProblem,
    TerminalCost,
    discounted_utility_running,
    tanh_wealth_terminal,
)


@dataclass(frozen=True)
class MarketModel:
    """Bond-market primitives: integrated volatility family, short-rate and
    price-of-risk generators, and the two action grids."""

    volatility: str                      # "ho-lee" | "hull-white"
    sigma: float
    maturities: np.ndarray               # times to maturity (years)
    consumption: np.ndarray              # consumption rates (1/time)
    mean_reversion: float = 0.0          # hull-white only
    short_rate: dict = dc_field(default_factory=lambda: {"kind": "gaussian", "r0": 0.03, "drift": 0.0})
    market_price_of_risk: dict = dc_field(default_factory=lambda: {"kind": "constant", "value": 0.1})
    clamp_quantile: float | None = None

    def __post_init__(self):
        if self.volatility not in ("ho-lee", "hull-white"):
            raise ValueError(f"unknown volatility model {self.volatility!r}")
        for name in ("sigma", "mean_reversion", "clamp_quantile"):   # None reads as 0
            _check_number(getattr(self, name) or 0.0, name)
        clamp = self.clamp_quantile or 0.0
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")
        if self.volatility == "hull-white" and not self.mean_reversion > 0:
            raise ValueError("hull-white requires a positive mean-reversion rate")
        if not 0.0 <= clamp < 0.5:   # else the lower quantile is not below the upper one
            raise ValueError(f"clamp_quantile must lie in [0, 0.5), got {clamp!r}")
        for name in ("maturities", "consumption"):
            message = "{} must be a nonempty increasing list of finite numbers"
            grid = _float_array(getattr(self, name), name, message)
            if grid.ndim != 1 or not grid.size or not np.isfinite(grid).all() or any(np.diff(grid) <= 0):
                raise ValueError(message.format(name))
            object.__setattr__(self, name, grid)
        if self.maturities[0] < 0.0:
            raise ValueError("maturities must be nonnegative times to maturity")
        for name, kinds in _GENERATOR_KEYS.items():   # a known kind with only its own keys
            spec = getattr(self, name)
            kind = spec.get("kind") if isinstance(spec, dict) else None
            if kind not in kinds or not set(spec) - {"kind"} <= kinds[kind]:
                raise ValueError(f"{name} must name a kind of {sorted(kinds)} and only that "
                                 f"kind's keys, got {spec!r}")
            for key in sorted(set(spec) - {"kind", "values"}):
                _check_number(spec[key], f"{name}.{key}")

    def check_tables(self, steps: int, scenarios: int) -> None:
        """Raise ValueError unless each tabulated generator is a finite table
        of ``steps`` columns and one or ``scenarios`` rows."""
        for name in _GENERATOR_KEYS:
            if getattr(self, name)["kind"] == "tabulated":
                _table(getattr(self, name), name, steps, scenarios)

    def to_dict(self) -> dict:
        return {k: v.tolist() if isinstance(v, np.ndarray) else v
                for k, v in asdict(self).items()}

    @staticmethod
    def from_dict(doc: dict) -> "MarketModel":
        return MarketModel(**doc)


# the keys of each generator kind besides ``kind``; all but ``values`` are numbers
_GENERATOR_KEYS = {
    "short_rate": {"gaussian": {"r0", "drift"}, "ou": {"r0", "speed", "level"},
                   "tabulated": {"values"}},
    "market_price_of_risk": {"constant": {"value"}, "tabulated": {"values"}},
}


def _check_number(value, name: str) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not np.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")


def _table(spec: dict, name: str, steps: int, scenarios: int) -> np.ndarray:
    """The (scenarios | 1, steps) path of a tabulated generator."""
    return _broadcast_tail(spec.get("values"), (steps,), f"tabulated {name}", scenarios).copy()


def integrated_volatility(market: MarketModel, maturities) -> np.ndarray:
    """Pointwise integrated bond-price volatility v(u).

    Ho-Lee: v(u) = -sigma * u.  Hull-White: v(u) = (sigma/c) * (exp(-c u) - 1),
    which recovers Ho-Lee as c -> 0.
    """
    u = np.asarray(maturities, dtype=float)
    if market.volatility == "ho-lee":
        return -market.sigma * u
    c = market.mean_reversion
    return (market.sigma / c) * np.expm1(-c * u)


def product_grid(maturities, consumption) -> ActionGrid:
    """Product action grid over (maturity, consumption), lexicographic order."""
    u = np.asarray(maturities, float)
    c = np.asarray(consumption, float)
    points = np.column_stack([np.repeat(u, c.size), np.tile(c, u.size)])
    return ActionGrid(points)


def _clamp(paths: np.ndarray, quantile: float | None):
    if quantile is None or quantile <= 0.0:
        return paths, 0
    lo = np.quantile(paths, quantile)
    hi = np.quantile(paths, 1.0 - quantile)
    events = int(np.count_nonzero((paths < lo) | (paths > hi)))
    return np.clip(paths, lo, hi), events


def _short_rate_and_mpr(market: MarketModel, tg: TimeGrid, scenarios: int, noise: np.ndarray):
    """Adapted short-rate and price-of-risk paths, shapes (scenarios | 1, steps).

    The value at step k depends only on Brownian increments before k.  Returns
    (short_rate, price_of_risk, clamp_events).
    """
    n, dt = tg.steps, tg.dt
    times = tg.times()[:n]
    spec = market.short_rate
    kind = spec.get("kind")
    if kind == "gaussian":
        b_path = np.zeros((scenarios, n), order="F")
        np.cumsum(noise[:, : n - 1, 0], axis=1, out=b_path[:, 1:])
        r0 = spec.get("r0", 0.03) + spec.get("drift", 0.0) * times + market.sigma * b_path
    elif kind == "ou":
        speed = spec.get("speed", market.mean_reversion)
        level = spec.get("level", spec.get("r0", 0.03))
        r0 = np.empty((scenarios, n), order="F")
        r0[:, 0] = spec.get("r0", 0.03)
        for k in range(n - 1):
            r0[:, k + 1] = r0[:, k] + speed * (level - r0[:, k]) * dt + market.sigma * noise[:, k, 0]
    else:   # the market's checks admit only the three kinds
        r0 = _table(spec, "short_rate", n, scenarios)

    mpr_spec = market.market_price_of_risk
    if mpr_spec["kind"] == "constant":
        theta = np.full((1, n), float(mpr_spec.get("value", 0.0)))
    else:
        theta = _table(mpr_spec, "market_price_of_risk", n, scenarios)

    r0, events_r = _clamp(r0, market.clamp_quantile)
    theta, events_t = _clamp(theta, market.clamp_quantile)
    return r0, theta, events_r + events_t


@dataclass(frozen=True)
class FinanceCoefficientField(CoefficientField):
    """Bond-portfolio coefficient field.  The drift slope ``short_rate -
    price_of_risk * v(u) - c`` has three terms, summed in that order; the
    diffusion slope is the integrated volatility on the first noise axis, and
    both levels are zero.  Only the rate and price of risk vary by scenario.
    """

    short_rate: np.ndarray       # (S|1, steps)
    price_of_risk: np.ndarray    # (S|1, steps)
    clamp_events: int

    # Bound here as well as inherited: per-class profilers (perfbench's
    # finance.slice span) look these names up in this class's own namespace.
    drift_level_at = CoefficientField.drift_level_at
    drift_slope_at = CoefficientField.drift_slope_at
    vol_level_at = CoefficientField.vol_level_at
    vol_slope_at = CoefficientField.vol_slope_at


def build_coefficient_field(
    model: dict,
    tg: TimeGrid,
    grid: ActionGrid,
    scenarios: int,
    noise: np.ndarray,
) -> FinanceCoefficientField:
    """Sample the bond-market coefficient field from a model specification.

    ``model`` carries the market under ``"market"`` plus the transaction
    costs ``"cost_buy"`` / ``"cost_sell"``.  The grid must be the product
    grid of the market's maturities and consumption rates; ``noise``, the
    forward simulation's (S, steps, 2) increments, drives the short rate.
    """
    market = model["market"]
    if isinstance(market, dict):
        market = MarketModel.from_dict(market)
    cost_buy = float(model.get("cost_buy", 0.0))
    cost_sell = float(model.get("cost_sell", 0.0))
    if not (0.0 <= cost_buy < 1.0 and 0.0 <= cost_sell < 1.0):
        raise ValueError("transaction costs must lie in [0, 1)")
    if np.shape(noise) != (scenarios, tg.steps, 2):
        raise ValueError(f"the finance model needs noise of shape {(scenarios, tg.steps, 2)}")

    pts = grid.points
    if grid.action_dim != 2:
        raise ValueError("finance problems need a (maturity, consumption) product grid")
    iu = np.searchsorted(market.maturities, pts[:, 0])
    ic = np.searchsorted(market.consumption, pts[:, 1])
    iu = np.clip(iu, 0, market.maturities.size - 1)
    ic = np.clip(ic, 0, market.consumption.size - 1)
    if not (np.allclose(market.maturities[iu], pts[:, 0])
            and np.allclose(market.consumption[ic], pts[:, 1])):
        raise ValueError("grid is not the product of the market's maturity and consumption grids")

    r0, theta, clamp_events = _short_rate_and_mpr(market, tg, scenarios, noise)
    n, m = tg.steps, grid.count
    # F order: the measure integrals of the table sum its points in memory order
    v = np.broadcast_to(integrated_volatility(market, market.maturities)[iu], (n, m)).copy(order="F")
    shared = np.ones((1, n))
    vol_slope = np.stack([v, np.zeros_like(v)], axis=-1)    # first noise axis only
    return FinanceCoefficientField(
        grid=grid, steps=n, dim=2, scenarios=scenarios,
        drift_level=Factored((), (m,)),
        drift_slope=Factored(((r0, np.ones((n, m))), (theta, -v),
                              (shared, np.broadcast_to(-market.consumption[ic], (n, m)))), (m,)),
        vol_level=Factored((), (m, 2)),
        vol_slope=Factored(((shared, vol_slope),), (m, 2)),
        jump_gain_x=np.broadcast_to(np.array([1.0 - cost_buy, -1.0]), (n, 2)).copy(),
        jump_gain_y=np.broadcast_to(np.array([-1.0, 1.0 - cost_sell]), (n, 2)).copy(),
        short_rate=r0, price_of_risk=theta, clamp_events=clamp_events,
    )


@dataclass(frozen=True)
class PortfolioParams:
    """Parameters of the investment/consumption instance."""

    x0: float = 1.0
    y0: float = 1.0
    stock_drift: float = 0.05
    stock_vol: float = 0.2
    cost_buy: float = 0.01        # proportional cost moving stock -> bonds
    cost_sell: float = 0.01       # proportional cost moving bonds -> stock
    discount: float = 0.05
    utility: str = "sqrt"
    utility_sign: float = -1.0    # -1: maximize utility via minimized cost
    terminal_weight: float = 1.0
    terminal_scale: float = 4.0
    tv_cap: float = DEFAULT_TV_CAP

    def __post_init__(self):
        if not (0.0 <= self.cost_buy < 1.0 and 0.0 <= self.cost_sell < 1.0):
            raise ValueError("transaction costs must lie in [0, 1)")


@dataclass(frozen=True)
class PortfolioProblem:
    """Canonical problem instance of the bond/stock/consumption application."""

    problem: ControlProblem


def build_portfolio_problem(
    market: MarketModel,
    params: PortfolioParams,
    tg: TimeGrid,
    terminal: TerminalCost | None = None,
    k_path=0.0,
) -> PortfolioProblem:
    """Assemble the bond/stock/consumption problem in canonical form.

    The running cost is ``utility_sign * exp(-discount t) * f(c)`` (the
    default sign turns utility maximization into cost minimization); the
    terminal cost defaults to a bounded saturating function of total wealth.
    The singular marginal cost defaults to zero: transfers are penalized only
    through the proportional-cost jump gains.
    """
    grid = product_grid(market.maturities, market.consumption)
    running = discounted_utility_running(
        params.discount, params.utility, params.utility_sign, component=1
    )
    with np.errstate(invalid="ignore", divide="ignore"):
        if not np.isfinite(running.value(np.zeros(1), np.zeros((1, 1)), np.zeros((1, 1)), grid.points)).all():
            raise ValueError(f"{params.utility} utility is not finite at every consumption rate")
    if terminal is None:
        terminal = tanh_wealth_terminal(params.terminal_weight, params.terminal_scale)
    coefficients = {
        "model": "finance",
        "market": market.to_dict(),
        "cost_buy": params.cost_buy,
        "cost_sell": params.cost_sell,
    }
    problem = ControlProblem(
        tg=tg,
        grid=grid,
        dim=2,
        x0=params.x0,
        y0=params.y0,
        coefficients=coefficients,
        stock=linear_stock(params.stock_drift, params.stock_vol, 2, component=1),
        running=running,
        terminal=terminal,
        k_path=k_path,
        tv_cap=params.tv_cap,
    )
    return PortfolioProblem(problem=problem)
