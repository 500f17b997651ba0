"""Problem containers: cost functions, the linear stock model and the assembled instance."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .measures import ActionGrid, RelaxedControl, SingularControl, DEFAULT_TV_CAP, _integrate
from .dynamics import (
    CoefficientField,
    StockModel,
    TimeGrid,
    TrajectoryBundle,
    _broadcast_tail,
    brownian_increments,
    sample_coefficients,
    simulate_forward,
)

# values per block array: sweeps and running-cost integrals take ``_sweep_steps``
# steps at a time, so one (steps, S, count) block of H or running costs is 0.5 MB
SWEEP_BUDGET = 65536


@dataclass(frozen=True)
class RunningCost:
    """Running cost sampled per grid point; the measure enters by integration.

    ``value``, ``dx``, ``dy`` map a block of m steps (t, x, y, points), with t
    (m,), x and y (S|1, m) column slices of the step-major paths and points
    (count, action_dim), to a C-ordered (m, S|1, count) table; one scenario
    row holds for all.  An identically zero ``dx`` or ``dy`` is ``None``.
    """

    value: callable
    dx: callable | None
    dy: callable | None


def _running_table(fn, t, x, y, points) -> np.ndarray:
    """``fn(t, x, y, points)``, checked to be an (m, S, count) or (m, 1, count) table."""
    table = fn(t, x, y, points)
    m, scen, count = len(t), max(len(x), len(y)), len(points)
    if np.shape(table) not in ((m, scen, count), (m, 1, count)):
        raise ValueError(f"running cost block must have shape {(m, scen, count)} or "
                         f"{(m, 1, count)}, got {np.shape(table)}")
    return table


def _sweep_steps(scenarios: int, count: int) -> int:
    """Steps per block of sweeps and running-cost integrals: ``max(1, SWEEP_BUDGET // (S * count))``."""
    return max(1, SWEEP_BUDGET // (scenarios * count))


def _running_rows(fn, bundle, points, weights):
    """Yield (start, rows): ``fn``'s table on each block of ``_sweep_steps`` steps
    integrated against its rows of ``weights``, (m, S|1) as the table is wide; the
    one block rule of the cost, the gradients and the first variation."""
    times, n = bundle.tg.times(), bundle.tg.steps
    steps = _sweep_steps(bundle.scenarios, len(points))
    for start in range(0, n, steps):
        stop = min(start + steps, n)
        table = _running_table(fn, times[start:stop], bundle.x[:, start:stop],
                               bundle.y[:, start:stop], points)
        yield start, _integrate(table, weights[start:stop])


@dataclass(frozen=True)
class TerminalCost:
    """Terminal cost g(x, y) with partial derivatives, vectorized over scenarios."""

    value: callable
    dx: callable
    dy: callable


def zero_running() -> RunningCost:
    return RunningCost(value=lambda t, x, y, pts: np.zeros((len(t), 1, len(pts))), dx=None, dy=None)


def affine_quadratic_running(cx=0.0, cy=0.0, quad=0.0, lin=None) -> RunningCost:
    """h(t,x,y,u) = cx*x + cy*y + quad*|u|^2/2 + lin.u  (per grid point)."""

    def _u_part(pts):
        part = 0.5 * quad * (pts * pts).sum(axis=1)
        if lin is not None:
            coeffs = np.asarray(lin, float)
            if coeffs.shape != pts.shape[1:]:
                raise ValueError(f"lin needs one entry per action coordinate, got {lin!r}")
            part = part + pts @ coeffs
        return part

    def value(t, x, y, pts):
        state = (cx * x + cy * y).T   # (m, S), C-ordered for the step-major paths
        table = np.empty(state.shape + (len(pts),))
        for j, part in enumerate(_u_part(pts).tolist()):   # one column per point
            np.add(state, part, out=table[:, :, j])
        return table

    def dx(t, x, y, pts):
        return np.full((len(t), 1, len(pts)), cx)

    def dy(t, x, y, pts):
        return np.full((len(t), 1, len(pts)), cy)

    return RunningCost(value=value, dx=dx, dy=dy)


def discounted_utility_running(
    beta: float,
    utility: str = "sqrt",
    sign: float = -1.0,
    component: int = -1,
) -> RunningCost:
    """h(t,x,y,(.,c)) = sign * exp(-beta t) * f(c), with c one action coordinate.

    ``sign=-1`` turns a utility to be maximized into a running cost for the
    minimizing solver; ``sign=+1`` treats f itself as the cost.
    """
    if utility == "sqrt":
        f = np.sqrt
    elif utility == "log1p":
        f = np.log1p
    elif utility == "linear":
        f = lambda c: c
    else:
        raise ValueError(f"unknown utility {utility!r}")

    def value(t, x, y, pts):
        return (sign * np.exp(-beta * t))[:, None, None] * f(pts[:, component])

    return RunningCost(value=value, dx=None, dy=None)


def linear_quadratic_terminal(gx1=0.0, gx2=0.0, gy1=0.0, gy2=0.0, gxy=0.0) -> TerminalCost:
    """g(x,y) = gx1*x + gx2*x^2/2 + gy1*y + gy2*y^2/2 + gxy*x*y."""
    return TerminalCost(
        value=lambda x, y: gx1 * x + 0.5 * gx2 * x * x + gy1 * y + 0.5 * gy2 * y * y + gxy * x * y,
        dx=lambda x, y: gx1 + gx2 * x + gxy * y,
        dy=lambda x, y: gy1 + gy2 * y + gxy * x,
    )


def tanh_wealth_terminal(weight: float, scale: float) -> TerminalCost:
    """Bounded saturating terminal cost g(x,y) = -weight * tanh((x+y)/scale)."""
    if scale <= 0:
        raise ValueError("scale must be positive")

    def value(x, y):
        return -weight * np.tanh((x + y) / scale)

    def slope(x, y):
        th = np.tanh((x + y) / scale)
        return -(weight / scale) * (1.0 - th * th)

    return TerminalCost(value=value, dx=slope, dy=slope)


@dataclass(frozen=True)
class ControlProblem:
    """A full mixed relaxed-singular control instance.

    Couples the time/action grids, the coefficient model specification, the
    linear stock model of the second component, the three cost pieces and
    the singular marginal cost path.  ``dim`` is the shared Brownian / singular dimension.
    """

    tg: TimeGrid
    grid: ActionGrid
    dim: int
    x0: float
    y0: float
    coefficients: dict
    stock: StockModel
    running: RunningCost
    terminal: TerminalCost
    k_path: np.ndarray            # (steps, dim); any trailing part of it is repeated
    tv_cap: float = DEFAULT_TV_CAP

    def __post_init__(self):
        if not (np.isfinite(self.x0) and np.isfinite(self.y0)):
            raise ValueError(f"initial state must be finite, got x0={self.x0!r}, y0={self.y0!r}")
        k = _broadcast_tail(self.k_path, (self.tg.steps, self.dim), "singular cost k_path")
        object.__setattr__(self, "k_path", k.copy())

    def noise(self, scenarios: int, seed: int) -> np.ndarray:
        return brownian_increments(seed, scenarios, self.tg.steps, self.dim, self.tg.dt)

    def sample_field(self, scenarios: int, seed: int, noise=None) -> CoefficientField:
        noise = self.noise(scenarios, seed) if noise is None else noise
        return sample_coefficients(self.coefficients, self.tg, self.grid, scenarios, noise)

    def simulate(
        self,
        field: CoefficientField,
        mu: RelaxedControl,
        xi: SingularControl,
        noise: np.ndarray,
        threads: int = 1,
    ) -> TrajectoryBundle:
        return simulate_forward(
            field, mu, xi, self.x0, self.y0, self.stock, self.tg, noise=noise, threads=threads
        )

    def default_controls(self):
        mu = RelaxedControl.uniform(self.tg.steps, self.grid.count)
        xi = SingularControl.zero(self.tg.steps, self.dim, tv_cap=self.tv_cap)
        return mu, xi
