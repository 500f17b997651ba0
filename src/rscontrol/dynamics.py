"""Forward simulation of the two-component controlled SDE.

The first state component is affine in itself with random, action-indexed
coefficients (drift ``level + slope * x``, diffusion ``vol_level +
vol_slope * x``) integrated against the relaxed control; the second follows
user-supplied
drift/diffusion callbacks.  Both receive additive jumps from the singular
control.  Time stepping is explicit Euler-Maruyama on a uniform grid, with
each jump increment applied inside its step:

    x[k+1] = x[k] + (level + slope * x[k]) dt
                  + (vol_level + vol_slope * x[k]) . dW[k]
                  + gain_x[k] . dxi[k]

Scenario noise is derived per scenario from the master seed, so chunked or
parallel execution reproduces the single-pass arrays exactly.
"""

from __future__ import annotations

import csv
from abc import ABC, abstractmethod
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .measures import ActionGrid, RelaxedControl, SingularControl, integrate_against


class NonFiniteStateError(RuntimeError):
    """Raised when a simulated path leaves the representable range."""

    def __init__(self, component: str, step: int, scenario: int):
        self.component = component
        self.step = step
        self.scenario = scenario
        super().__init__(
            f"non-finite {component} at step {step}, scenario {scenario}; "
            "check coefficient scales or reduce dt"
        )


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, horizon] with the given number of steps."""

    horizon: float
    steps: int

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("time grid needs at least one step")
        if not self.horizon > 0.0:
            raise ValueError("horizon must be positive")

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.steps + 1)


def brownian_increments(seed: int, scenarios: int, steps: int, dim: int, dt: float) -> np.ndarray:
    """Per-scenario Brownian increments, shape (scenarios, steps, dim).

    Scenario ``s`` draws from the ``s``-th child stream of the master seed, so
    any contiguous block of scenarios can be regenerated independently.
    """
    root = np.random.SeedSequence(seed)
    out = np.empty((scenarios, steps, dim))
    scale = np.sqrt(dt)
    for s, child in enumerate(root.spawn(scenarios)):
        out[s] = np.random.default_rng(child).standard_normal((steps, dim))
    out *= scale
    return out


class CoefficientField(ABC):
    """Per-scenario coefficient processes sampled on (step, grid point).

    Subclasses expose step slices; a leading scenario axis of length 1 means
    the slice is shared by all scenarios (deterministic coefficients).
    ``jump_gain_x`` / ``jump_gain_y`` are the per-step deterministic jump
    gains, shape (steps, dim).
    """

    grid: ActionGrid
    steps: int
    dim: int
    scenarios: int
    jump_gain_x: np.ndarray
    jump_gain_y: np.ndarray
    vol_slope_bound: float

    @abstractmethod
    def drift_level_at(self, k: int, rows: slice | None = None) -> np.ndarray:
        """Drift intercept slice, shape (scenarios | 1, count)."""

    @abstractmethod
    def drift_slope_at(self, k: int, rows: slice | None = None) -> np.ndarray:
        """Drift slope slice, shape (scenarios | 1, count)."""

    @abstractmethod
    def vol_level_at(self, k: int, rows: slice | None = None) -> np.ndarray:
        """Diffusion intercept slice, shape (scenarios | 1, count, dim)."""

    @abstractmethod
    def vol_slope_at(self, k: int, rows: slice | None = None) -> np.ndarray:
        """Diffusion slope slice, shape (scenarios | 1, count, dim)."""

    def validate(self) -> None:
        if self.jump_gain_x.shape != (self.steps, self.dim):
            raise ValueError("jump_gain_x must have shape (steps, dim)")
        if self.jump_gain_y.shape != (self.steps, self.dim):
            raise ValueError("jump_gain_y must have shape (steps, dim)")
        if not (np.isfinite(self.jump_gain_x).all() and np.isfinite(self.jump_gain_y).all()):
            raise ValueError("jump gains must be finite")


def _span(values, scenarios: int, steps: int, count: int, dim: int | None, name: str) -> np.ndarray:
    """Broadcast scalar/per-point/per-step input to (scenarios|1, steps, count[, dim])."""
    arr = np.asarray(values, dtype=float)
    target = (1, steps, count) if dim is None else (1, steps, count, dim)
    if arr.ndim == 0:
        if dim is not None and dim != 1:
            raise ValueError(f"{name}: scalar input is ambiguous for dim={dim}; pass a vector")
        arr = arr.reshape((1,) * len(target))
    elif dim is None:
        if arr.shape == (count,):
            arr = arr[None, None, :]
        elif arr.shape == (steps, count):
            arr = arr[None]
        elif arr.shape[-2:] == (steps, count) and arr.ndim == 3:
            target = (arr.shape[0], steps, count)
        else:
            raise ValueError(f"{name}: cannot broadcast shape {arr.shape} to {target}")
    else:
        if arr.shape == (dim,):
            arr = arr[None, None, None, :]
        elif arr.shape == (count, dim):
            arr = arr[None, None]
        elif arr.shape == (steps, count, dim):
            arr = arr[None]
        elif arr.ndim == 4 and arr.shape[1:] == (steps, count, dim):
            target = (arr.shape[0], steps, count, dim)
        else:
            raise ValueError(f"{name}: cannot broadcast shape {arr.shape} to {target}")
    if arr.shape[0] not in (1, scenarios):
        raise ValueError(f"{name}: scenario axis {arr.shape[0]} != {scenarios}")
    out = np.broadcast_to(arr, (arr.shape[0],) + target[1:])
    if not np.isfinite(out).all():
        raise ValueError(f"{name}: non-finite coefficient samples")
    return out


@dataclass(frozen=True)
class DenseCoefficientField(CoefficientField):
    """Coefficient field backed by in-memory arrays (broadcast views allowed)."""

    grid: ActionGrid
    drift_level: np.ndarray   # (S|1, steps, count)
    drift_slope: np.ndarray   # (S|1, steps, count)
    vol_level: np.ndarray     # (S|1, steps, count, dim)
    vol_slope: np.ndarray     # (S|1, steps, count, dim)
    jump_gain_x: np.ndarray   # (steps, dim)
    jump_gain_y: np.ndarray   # (steps, dim)
    scenarios: int
    vol_slope_bound: float = 0.0

    def __post_init__(self):
        self.validate()

    @property
    def steps(self) -> int:  # type: ignore[override]
        return self.drift_level.shape[1]

    @property
    def dim(self) -> int:  # type: ignore[override]
        return self.vol_level.shape[3]

    def drift_level_at(self, k, rows=None):
        sl = self.drift_level[:, k]
        return sl if (rows is None or sl.shape[0] == 1) else sl[rows]

    def drift_slope_at(self, k, rows=None):
        sl = self.drift_slope[:, k]
        return sl if (rows is None or sl.shape[0] == 1) else sl[rows]

    def vol_level_at(self, k, rows=None):
        sl = self.vol_level[:, k]
        return sl if (rows is None or sl.shape[0] == 1) else sl[rows]

    def vol_slope_at(self, k, rows=None):
        sl = self.vol_slope[:, k]
        return sl if (rows is None or sl.shape[0] == 1) else sl[rows]


def dense_field(
    tg: TimeGrid,
    grid: ActionGrid,
    scenarios: int,
    dim: int,
    *,
    drift_level=0.0,
    drift_slope=0.0,
    vol_level=None,
    vol_slope=None,
    jump_gain_x=None,
    jump_gain_y=None,
) -> DenseCoefficientField:
    """Build a dense field from scalars, per-point, per-step or full tables."""
    m = grid.count
    n = tg.steps
    if vol_level is None:
        vol_level = np.zeros(dim)
    if vol_slope is None:
        vol_slope = np.zeros(dim)
    gx = np.zeros((n, dim)) if jump_gain_x is None else _gain_table(jump_gain_x, n, dim)
    gy = np.zeros((n, dim)) if jump_gain_y is None else _gain_table(jump_gain_y, n, dim)
    vs = _span(vol_slope, scenarios, n, m, dim, "vol_slope")
    return DenseCoefficientField(
        grid=grid,
        drift_level=_span(drift_level, scenarios, n, m, None, "drift_level"),
        drift_slope=_span(drift_slope, scenarios, n, m, None, "drift_slope"),
        vol_level=_span(vol_level, scenarios, n, m, dim, "vol_level"),
        vol_slope=vs,
        jump_gain_x=gx,
        jump_gain_y=gy,
        scenarios=scenarios,
        vol_slope_bound=float(np.max(np.abs(vs))),
    )


def coefficient_integrals(field: CoefficientField, k: int, weights: np.ndarray):
    """Integrate the four coefficient slices at step k against a measure row.

    Returns (drift_level, drift_slope, vol_level, vol_slope) with shapes
    (scenarios | 1,) and (scenarios | 1, dim).
    """
    return (
        integrate_against(field.drift_level_at(k), weights, axis=-1),
        integrate_against(field.drift_slope_at(k), weights, axis=-1),
        integrate_against(field.vol_level_at(k), weights, axis=-2),
        integrate_against(field.vol_slope_at(k), weights, axis=-2),
    )


def _gain_table(values, steps: int, dim: int) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.shape == (dim,):
        arr = np.broadcast_to(arr, (steps, dim)).copy()
    if arr.shape != (steps, dim):
        raise ValueError(f"jump gain must have shape ({dim},) or ({steps}, {dim})")
    return arr


@dataclass(frozen=True)
class StockModel:
    """Drift/diffusion callbacks for the second state component.

    Each callable maps (t, y_array) to (scenarios,) for the drift and its
    y-derivative, and to (scenarios, dim) for the diffusion and its
    y-derivative.
    """

    drift: callable
    drift_dy: callable
    diffusion: callable
    diffusion_dy: callable


def linear_stock(lam: float, rho: float, dim: int, component: int = 1) -> StockModel:
    """Geometric-Brownian stock: drift lam*y, diffusion rho*y on one noise axis."""
    if not 0 <= component < dim:
        raise ValueError("driving component outside the Brownian dimension")
    unit = np.zeros(dim)
    unit[component] = 1.0

    return StockModel(
        drift=lambda t, y: lam * y,
        drift_dy=lambda t, y: np.full_like(y, lam),
        diffusion=lambda t, y: rho * y[:, None] * unit,
        diffusion_dy=lambda t, y: np.broadcast_to(rho * unit, (y.shape[0], dim)),
    )


def inert_stock(dim: int) -> StockModel:
    """Constant second component (zero drift and diffusion)."""
    return StockModel(
        drift=lambda t, y: np.zeros_like(y),
        drift_dy=lambda t, y: np.zeros_like(y),
        diffusion=lambda t, y: np.zeros((y.shape[0], dim)),
        diffusion_dy=lambda t, y: np.zeros((y.shape[0], dim)),
    )


def sample_coefficients(
    model: dict,
    tg: TimeGrid,
    grid: ActionGrid,
    scenarios: int,
    seed: int,
    noise: np.ndarray | None = None,
) -> CoefficientField:
    """Sample a coefficient field for the given model specification.

    Supported model names: ``deterministic-constant`` (scalars or per-point /
    per-step tables, identical across scenarios), ``tabulated`` (explicit
    arrays, optionally per scenario), and ``finance`` (bond-market fields
    built from the same Brownian draws as the forward simulation).

    Values at step k depend only on increments before k, so the field is
    adapted to the driving noise.
    """
    name = model.get("model")
    dim = int(model.get("dim", 1))
    common = dict(
        drift_level=model.get("drift_level", 0.0),
        drift_slope=model.get("drift_slope", 0.0),
        vol_level=model.get("vol_level"),
        vol_slope=model.get("vol_slope"),
        jump_gain_x=model.get("jump_gain_x"),
        jump_gain_y=model.get("jump_gain_y"),
    )
    if name in ("deterministic-constant", "tabulated"):
        for key in ("vol_level", "vol_slope", "jump_gain_x", "jump_gain_y"):
            if common[key] is not None:
                common[key] = np.asarray(common[key], float)
        return dense_field(tg, grid, scenarios, dim, **common)
    if name == "finance":
        from . import finance

        return finance.build_coefficient_field(model, tg, grid, scenarios, seed, noise)
    raise ValueError(f"unknown coefficient model {name!r}")


@dataclass(frozen=True)
class TrajectoryBundle:
    """Simulated scenario paths plus the inputs needed to reproduce them."""

    tg: TimeGrid
    x: np.ndarray       # (scenarios, steps + 1)
    y: np.ndarray       # (scenarios, steps + 1)
    noise: np.ndarray   # (scenarios, steps, dim)
    mu: RelaxedControl
    xi: SingularControl
    x0: float
    y0: float

    @property
    def scenarios(self) -> int:
        return self.x.shape[0]

    @property
    def dim(self) -> int:
        return self.noise.shape[2]


def _check_finite(arr: np.ndarray, component: str, step: int) -> None:
    if not np.isfinite(arr).all():
        scenario = int(np.flatnonzero(~np.isfinite(arr))[0])
        raise NonFiniteStateError(component, step, scenario)


def _simulate_block(field, mu_w, xi_inc, stock, tg, noise, x0, y0, rows, jump_x, jump_y):
    scenarios = noise.shape[0]
    n = tg.steps
    dt = tg.dt
    times = tg.times()
    x = np.empty((scenarios, n + 1))
    y = np.empty((scenarios, n + 1))
    x[:, 0] = x0
    y[:, 0] = y0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n):
            w = mu_w[k]
            dw = noise[:, k]
            xk = x[:, k]
            yk = y[:, k]
            lev = integrate_against(field.drift_level_at(k, rows), w, axis=-1)
            slo = integrate_against(field.drift_slope_at(k, rows), w, axis=-1)
            vlev = integrate_against(field.vol_level_at(k, rows), w, axis=-2)
            vslo = integrate_against(field.vol_slope_at(k, rows), w, axis=-2)
            diff = vlev + vslo * xk[:, None]
            x[:, k + 1] = xk + (lev + slo * xk) * dt + (diff * dw).sum(axis=-1) + jump_x[k]
            sy = stock.diffusion(times[k], yk)
            y[:, k + 1] = yk + stock.drift(times[k], yk) * dt + (sy * dw).sum(axis=-1) + jump_y[k]
            _check_finite(x[:, k + 1], "x", k + 1)
            _check_finite(y[:, k + 1], "y", k + 1)
    return x, y


def simulate_forward(
    field: CoefficientField,
    mu: RelaxedControl,
    xi: SingularControl,
    x0: float,
    y0: float,
    stock: StockModel,
    tg: TimeGrid,
    seed: int | None = None,
    noise: np.ndarray | None = None,
    threads: int = 1,
) -> TrajectoryBundle:
    """Euler-Maruyama simulation under a relaxed and a singular control.

    Parameters
    ----------
    field : CoefficientField
        Sampled coefficients; must cover (tg.steps, grid, dim).
    mu, xi : controls
        Relaxed weights and singular increments; shapes must match the field.
    stock : StockModel
        Drift/diffusion callbacks for the second component.
    seed, noise
        Either a master seed (increments derived per scenario) or explicit
        increments of shape (scenarios, steps, dim).  Passing the same noise
        that sampled the field keeps coefficients and paths on one filtration.
    threads : int
        Scenario-chunk parallelism; results are identical to the serial pass.

    Raises
    ------
    NonFiniteStateError
        If a path overflows; the error names the step and scenario.
    """
    if mu.steps != tg.steps or xi.steps != tg.steps:
        raise ValueError("controls must have one row per time step")
    if mu.count != field.grid.count:
        raise ValueError("relaxed control does not match the field's grid")
    if xi.dim != field.dim:
        raise ValueError("singular control dimension does not match the field")
    if noise is None:
        if seed is None:
            raise ValueError("either seed or noise must be given")
        noise = brownian_increments(seed, field.scenarios, tg.steps, field.dim, tg.dt)
    if noise.shape != (field.scenarios, tg.steps, field.dim):
        raise ValueError(f"noise shape {noise.shape} does not match the field")

    jump_x = (field.jump_gain_x * xi.increments).sum(axis=1)
    jump_y = (field.jump_gain_y * xi.increments).sum(axis=1)
    scenarios = field.scenarios

    if threads <= 1 or scenarios < 2 * threads:
        x, y = _simulate_block(
            field, mu.weights, xi.increments, stock, tg, noise, x0, y0, None, jump_x, jump_y
        )
    else:
        bounds = np.linspace(0, scenarios, threads + 1).astype(int)
        x = np.empty((scenarios, tg.steps + 1))
        y = np.empty((scenarios, tg.steps + 1))

        def run(i):
            rows = slice(bounds[i], bounds[i + 1])
            return rows, _simulate_block(
                field, mu.weights, xi.increments, stock, tg,
                noise[rows], x0, y0, rows, jump_x, jump_y,
            )

        with ThreadPoolExecutor(max_workers=threads) as pool:
            for rows, (xb, yb) in pool.map(run, range(threads)):
                x[rows] = xb
                y[rows] = yb

    return TrajectoryBundle(tg=tg, x=x, y=y, noise=noise, mu=mu, xi=xi, x0=x0, y0=y0)


def simulate_forward_strict(
    field: CoefficientField,
    action_indices,
    xi: SingularControl,
    x0: float,
    y0: float,
    stock: StockModel,
    tg: TimeGrid,
    seed: int | None = None,
    noise: np.ndarray | None = None,
) -> TrajectoryBundle:
    """Simulate under a strict (grid-indexed) control path.

    Gathers coefficient values at the chosen index each step instead of
    integrating against a measure; with the same noise this is bit-identical
    to `simulate_forward` with the corresponding point-mass rows.
    """
    idx = np.asarray(action_indices, dtype=int)
    if idx.shape != (tg.steps,):
        raise ValueError("need one grid index per time step")
    if noise is None:
        if seed is None:
            raise ValueError("either seed or noise must be given")
        noise = brownian_increments(seed, field.scenarios, tg.steps, field.dim, tg.dt)

    jump_x = (field.jump_gain_x * xi.increments).sum(axis=1)
    jump_y = (field.jump_gain_y * xi.increments).sum(axis=1)
    n, dt = tg.steps, tg.dt
    times = tg.times()
    x = np.empty((field.scenarios, n + 1))
    y = np.empty((field.scenarios, n + 1))
    x[:, 0] = x0
    y[:, 0] = y0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n):
            j = idx[k]
            dw = noise[:, k]
            xk, yk = x[:, k], y[:, k]
            lev = field.drift_level_at(k)[:, j]
            slo = field.drift_slope_at(k)[:, j]
            diff = field.vol_level_at(k)[:, j] + field.vol_slope_at(k)[:, j] * xk[:, None]
            x[:, k + 1] = xk + (lev + slo * xk) * dt + (diff * dw).sum(axis=-1) + jump_x[k]
            sy = stock.diffusion(times[k], yk)
            y[:, k + 1] = yk + stock.drift(times[k], yk) * dt + (sy * dw).sum(axis=-1) + jump_y[k]
            _check_finite(x[:, k + 1], "x", k + 1)
            _check_finite(y[:, k + 1], "y", k + 1)
    mu = RelaxedControl.from_indices(idx, field.grid.count)
    return TrajectoryBundle(tg=tg, x=x, y=y, noise=noise, mu=mu, xi=xi, x0=x0, y0=y0)


@dataclass(frozen=True)
class MomentReport:
    """Empirical moment diagnostics for a simulated bundle."""

    order: float
    sup_moment_x: float
    sup_moment_y: float
    terminal_moment_x: float
    terminal_moment_y: float
    drift_slope_exp_moment: float
    exploded: bool
    non_finite: bool

    EXPLOSION_THRESHOLD = 1e12

    def to_json(self) -> dict:
        def safe(v):
            return v if np.isfinite(v) else None  # strict-JSON friendly

        return {
            "order": self.order,
            "sup_moment_x": safe(self.sup_moment_x),
            "sup_moment_y": safe(self.sup_moment_y),
            "terminal_moment_x": safe(self.terminal_moment_x),
            "terminal_moment_y": safe(self.terminal_moment_y),
            "drift_slope_exp_moment": safe(self.drift_slope_exp_moment),
            "exploded": self.exploded,
            "non_finite": self.non_finite,
        }


def moment_diagnostics(bundle: TrajectoryBundle, field: CoefficientField, p: float = 2.0) -> MomentReport:
    """Sample sup/terminal moments of the paths and the exponential moment
    of the integrated drift slope (worst grid point).  Flags non-finite or
    exploding estimates instead of raising."""
    if p < 1.0:
        raise ValueError("moment order must be >= 1")
    with np.errstate(over="ignore"):
        sup_x = float(np.mean(np.abs(bundle.x).max(axis=1) ** p))
        sup_y = float(np.mean(np.abs(bundle.y).max(axis=1) ** p))
        term_x = float(np.mean(np.abs(bundle.x[:, -1]) ** p))
        term_y = float(np.mean(np.abs(bundle.y[:, -1]) ** p))
        acc = None
        for k in range(bundle.tg.steps):
            sl = field.drift_slope_at(k)
            acc = sl * bundle.tg.dt if acc is None else acc + sl * bundle.tg.dt
        exp_moment = float(np.exp(p * acc).mean(axis=0).max())
    values = (sup_x, sup_y, term_x, term_y, exp_moment)
    non_finite = any(not np.isfinite(v) for v in values)
    exploded = non_finite or any(v > MomentReport.EXPLOSION_THRESHOLD for v in values)
    return MomentReport(
        order=p,
        sup_moment_x=sup_x,
        sup_moment_y=sup_y,
        terminal_moment_x=term_x,
        terminal_moment_y=term_y,
        drift_slope_exp_moment=exp_moment,
        exploded=exploded,
        non_finite=non_finite,
    )


def bundle_to_csv(bundle: TrajectoryBundle, path) -> None:
    """One row per (scenario, step); increment columns are empty at the
    terminal step."""
    times = bundle.tg.times()
    d = bundle.dim
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["scenario", "step", "t", "x", "y"] + [f"dW{i}" for i in range(d)]
        )
        for s in range(bundle.scenarios):
            for k in range(bundle.tg.steps + 1):
                row = [s, k, repr(float(times[k])), repr(float(bundle.x[s, k])),
                       repr(float(bundle.y[s, k]))]
                if k < bundle.tg.steps:
                    row += [repr(float(v)) for v in bundle.noise[s, k]]
                else:
                    row += [""] * d
                writer.writerow(row)
