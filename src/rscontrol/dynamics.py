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

Since none of the coefficients depends on x, that step is computed as
``x[k+1] = x[k] * a[k] + b[k]``, with the multiplier ``a = (1 + slope dt) +
vol_slope . dW`` (the step factor of the fundamental flow) and the offset
``b = (level dt + vol_level . dW) + gain_x . dxi``; both are set up for a
block of steps at a time.

Each coefficient is a short sum of scenario factors times point tables
(``Factored``), summed in one fixed order everywhere, so integrating against
a point mass reproduces the gathered value bit for bit.

Every stage is given its Brownian increments; only ``ControlProblem.noise``
draws them.  The relaxed and the strict simulation share one Euler loop that
slices the noise into scenario chunks, so chunked or parallel execution
reproduces the single-pass arrays exactly.  Every (scenario, step) path array
is stored step-major (Fortran order, same shapes), so that each recurrence
reads and writes one contiguous block per step; the layout changes no value.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .measures import ActionGrid, RelaxedControl, SingularControl
from .measures import integrate_against  # noqa: F401  (perfbench wraps this module attribute)

NOISE_BLOCK = 256   # scenarios per generator call in ``brownian_increments``
FACTOR_BUDGET = 65536   # scenario-steps of x's step factors set up at once in ``simulate_forward``
# the tables of a canonical coefficient model, ``dense_field``'s keyword inputs
COEFFICIENT_TABLES = ("drift_level", "drift_slope", "vol_level", "vol_slope",
                      "jump_gain_x", "jump_gain_y")


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
    """Brownian increments, shape (scenarios, steps, dim), from one generator per seed.

    Stored step-major, filled by blocks of ``NOISE_BLOCK`` scenarios that
    continue one stream as a single C-order draw would: it is deterministic in
    ``(seed, shape)`` and its first ``s`` scenarios equal an ``s``-scenario
    draw.  ``ControlProblem.noise`` is its one caller; the stages take its array.
    """
    rng = np.random.default_rng(seed)
    out = np.empty((scenarios, steps, dim), order="F")
    block = np.empty((min(NOISE_BLOCK, scenarios), steps, dim))
    for first in range(0, scenarios, NOISE_BLOCK):
        rows = out[first:first + NOISE_BLOCK]
        draw = rng.standard_normal(out=block[:len(rows)])
        draw *= np.sqrt(dt)
        rows.T[...] = draw.T   # copied through the transposes, in the target's memory order
    return out


@dataclass(frozen=True)
class Factored:
    """One coefficient as a short sum of products: term ``j`` pairs a
    scenario factor ``A_j`` (S|1, steps) with a point table ``B_j`` (steps,
    count) or, for a vector coefficient, (steps, count, dim); the value at
    (s, k, u) is ``sum_j A_j[s, k] * B_j[k, u]``, summed left to right from 0.
    """

    terms: tuple        # ((A_j, B_j), ...); empty for an identically zero coefficient
    point_shape: tuple  # (count,) or (count, dim)

    @classmethod
    def from_table(cls, table: np.ndarray) -> "Factored":
        """Terms of a (S|1, steps, count[, dim]) table: one term ``A = 1`` when
        the table is shared, else one term per point entry with a unit table."""
        steps, tail = table.shape[1], table.shape[2:]
        if table.shape[0] == 1:
            return cls(((np.ones((1, steps)), table[0]),), tail)
        flat = table.reshape(table.shape[:2] + (-1,))
        units = np.eye(flat.shape[2]).reshape((-1,) + tail)
        return cls(tuple((flat[:, :, i], np.broadcast_to(units[i], (steps,) + tail))
                         for i in range(flat.shape[2])), tail)

    def combine(self, parts, lead: tuple = ()) -> np.ndarray:
        """Sum of per-term parts, left to right from zeros of the parts' shape."""
        out = np.zeros((1,) + lead + self.point_shape[len(lead):])
        for part in parts:
            out = out + part
        return out

    def at(self, k: int) -> np.ndarray:
        """Per-point values at step k, shape (S|1, count[, dim])."""
        return self.combine(np.multiply.outer(A[:, k], B[k]) for A, B in self.terms)

    def integral(self, weights: np.ndarray) -> np.ndarray:
        """Integrals against one measure row per step, (steps, count) weights;
        shape (S|1, steps[, dim])."""
        parts = (np.einsum("sk,k...->sk...", A, np.einsum("kc...,kc->k...", B, weights))
                 for A, B in self.terms)
        return self.combine(parts, lead=(weights.shape[0],))


@dataclass(frozen=True)
class CoefficientField:
    """Per-scenario coefficient processes sampled on (step, grid point).

    Each of the four coefficients is a :class:`Factored` sum of scenario
    factors times point tables; a scenario axis of length 1 means the factor
    is shared by all scenarios (deterministic coefficients).
    ``jump_gain_x`` / ``jump_gain_y`` are the per-step deterministic jump
    gains, shape (steps, dim).
    """

    grid: ActionGrid
    steps: int
    dim: int
    scenarios: int
    drift_level: Factored   # point shape (count,)
    drift_slope: Factored   # point shape (count,)
    vol_level: Factored     # point shape (count, dim)
    vol_slope: Factored     # point shape (count, dim)
    jump_gain_x: np.ndarray
    jump_gain_y: np.ndarray

    def __post_init__(self):
        if self.jump_gain_x.shape != (self.steps, self.dim):
            raise ValueError("jump_gain_x must have shape (steps, dim)")
        if self.jump_gain_y.shape != (self.steps, self.dim):
            raise ValueError("jump_gain_y must have shape (steps, dim)")
        if not (np.isfinite(self.jump_gain_x).all() and np.isfinite(self.jump_gain_y).all()):
            raise ValueError("jump gains must be finite")

    def drift_level_at(self, k: int) -> np.ndarray:
        """Drift intercept slice, shape (scenarios | 1, count)."""
        return self.drift_level.at(k)

    def drift_slope_at(self, k: int) -> np.ndarray:
        """Drift slope slice, shape (scenarios | 1, count)."""
        return self.drift_slope.at(k)

    def vol_level_at(self, k: int) -> np.ndarray:
        """Diffusion intercept slice, shape (scenarios | 1, count, dim)."""
        return self.vol_level.at(k)

    def vol_slope_at(self, k: int) -> np.ndarray:
        """Diffusion slope slice, shape (scenarios | 1, count, dim)."""
        return self.vol_slope.at(k)


def _broadcast_tail(values, shape: tuple, name: str, scenarios: int | None = None) -> np.ndarray:
    """``values`` as a read-only view of ``shape``, repeated over the leading
    axes it lacks: it may be any trailing part of ``shape``, from a scalar to
    the whole.  With ``scenarios`` the view has a leading scenario axis, of 1
    unless ``values`` is the whole shape under a scenario axis of 1 or
    ``scenarios`` rows.  Raises ValueError naming the input for any other
    shape, an entry that is not a number, or a non-finite entry."""
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{name}: {exc}") from None
    rows = () if scenarios is None else (1,)
    if scenarios is not None and arr.ndim == len(shape) + 1 and arr.shape[1:] == shape:
        rows = arr.shape[:1]
        if rows[0] not in (1, scenarios):
            raise ValueError(f"{name}: scenario axis {rows[0]} is neither 1 nor {scenarios}")
    elif arr.ndim > len(shape) or arr.shape != shape[len(shape) - arr.ndim:]:
        raise ValueError(f"{name}: shape {arr.shape} is not a trailing part of {shape}"
                         + ("" if scenarios is None else " under an optional scenario axis"))
    out = np.broadcast_to(arr, rows + shape)
    if not np.isfinite(out).all():
        raise ValueError(f"{name}: non-finite entries")
    return out


def _span(values, scenarios: int, steps: int, count: int, dim: int | None, name: str) -> np.ndarray:
    """Broadcast scalar/per-point/per-step input to (scenarios|1, steps, count[, dim])."""
    if dim is not None and dim != 1 and np.ndim(values) == 0:
        raise ValueError(f"{name}: scalar input is ambiguous for dim={dim}; pass a vector")
    return _broadcast_tail(values, (steps, count) + (() if dim is None else (dim,)), name, scenarios)


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
) -> CoefficientField:
    """Build a field from scalars, per-point, per-step or full tables."""
    m = grid.count
    n = tg.steps
    if vol_level is None:
        vol_level = np.zeros(dim)
    if vol_slope is None:
        vol_slope = np.zeros(dim)
    gx, gy = (_broadcast_tail(0.0 if gain is None else gain, (n, dim), name).copy()
              for gain, name in ((jump_gain_x, "jump_gain_x"), (jump_gain_y, "jump_gain_y")))
    return CoefficientField(
        grid=grid,
        steps=n,
        dim=dim,
        scenarios=scenarios,
        drift_level=Factored.from_table(_span(drift_level, scenarios, n, m, None, "drift_level")),
        drift_slope=Factored.from_table(_span(drift_slope, scenarios, n, m, None, "drift_slope")),
        vol_level=Factored.from_table(_span(vol_level, scenarios, n, m, dim, "vol_level")),
        vol_slope=Factored.from_table(_span(vol_slope, scenarios, n, m, dim, "vol_slope")),
        jump_gain_x=gx,
        jump_gain_y=gy,
    )


def coefficient_integrals(field: CoefficientField, mu: RelaxedControl):
    """Integrate the coefficients, over all scenarios and the whole horizon,
    against each step's measure row.  Returns (drift_level, drift_slope,
    vol_level, vol_slope) with shapes (scenarios | 1, steps) and
    (scenarios | 1, steps, dim); a coefficient with no terms costs nothing.
    """
    w = mu.weights
    return tuple(c.integral(w) for c in
                 (field.drift_level, field.drift_slope, field.vol_level, field.vol_slope))


@dataclass(frozen=True)
class StockModel:
    """Drift/diffusion callbacks for the second state component.

    Each callable maps (t, y) to y's shape for the drift and its y-derivative,
    and to y's shape + (dim,) for the diffusion and its y-derivative.  y is
    (scenarios,), or for the derivatives also an (S, m) block with (m,) times.
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
        diffusion=lambda t, y: np.multiply((rho * y)[:, None], unit, order="F"),
        diffusion_dy=lambda t, y: np.broadcast_to(rho * unit, y.shape + (dim,)),
    )


def inert_stock(dim: int) -> StockModel:
    """Constant second component (zero drift and diffusion)."""
    return StockModel(
        drift=lambda t, y: np.zeros_like(y),
        drift_dy=lambda t, y: np.zeros_like(y),
        diffusion=lambda t, y: np.zeros((y.shape[0], dim)),
        diffusion_dy=lambda t, y: np.zeros(y.shape + (dim,)),
    )


def sample_coefficients(
    model: dict,
    tg: TimeGrid,
    grid: ActionGrid,
    scenarios: int,
    noise: np.ndarray | None = None,
) -> CoefficientField:
    """Sample a coefficient field for the given model specification.

    Supported model names: ``deterministic-constant`` (scalars or per-point /
    per-step tables, identical across scenarios), ``tabulated`` (explicit
    arrays, optionally per scenario), and ``finance`` (bond-market fields
    built from ``noise``, the forward simulation's Brownian increments).

    Values at step k depend only on increments before k, so the field is
    adapted to the driving noise.
    """
    name = model.get("model")
    if name in ("deterministic-constant", "tabulated"):
        unknown = sorted(set(model) - {"model", "dim", *COEFFICIENT_TABLES})
        if unknown:
            raise ValueError(f"unknown coefficient keys {unknown}")
        tables = {key: model[key] for key in COEFFICIENT_TABLES if key in model}
        return dense_field(tg, grid, scenarios, int(model.get("dim", 1)), **tables)
    if name == "finance":
        from . import finance

        return finance.build_coefficient_field(model, tg, grid, scenarios, noise)
    raise ValueError(f"unknown coefficient model {name!r}")


@dataclass(frozen=True)
class TrajectoryBundle:
    """Simulated scenario paths, stored step-major, plus the inputs needed to reproduce them."""

    tg: TimeGrid
    x: np.ndarray       # (scenarios, steps + 1)
    y: np.ndarray       # (scenarios, steps + 1)
    noise: np.ndarray   # (scenarios, steps, dim)
    mu: RelaxedControl
    xi: SingularControl

    @property
    def scenarios(self) -> int:
        return self.x.shape[0]

    @property
    def dim(self) -> int:
        return self.noise.shape[2]


def _affine_columns(level, slope, x) -> np.ndarray:
    """``level + slope * x[:, None]``, step-major so numpy loops over scenarios."""
    return np.add(level, np.multiply(slope, x[:, None], order="F"), order="F")


def _product_order(dim: int) -> str:
    """Memory order of a product summed over its last axis of length ``dim``:
    step-major, so that numpy adds whole columns instead of looping over
    short rows; from 8 columns on numpy's C-order sum pairs terms, so C
    order is kept there."""
    return "F" if dim < 8 else "C"


def _dot_last(a, b, out=None, product=None) -> np.ndarray:
    """``(a * b).sum(axis=-1)`` bit for bit, over a product in
    ``_product_order``; written into ``out``, through the buffer ``product``
    (in that order), when given."""
    if product is None:
        product = np.multiply(a, b, order=_product_order(max(np.shape(a)[-1], np.shape(b)[-1])))
    else:
        np.multiply(a, b, out=product)
    return product.sum(axis=-1, out=out)


def _x_factors(integrals, dw, jump_x, dt, a, b, sums, product):
    """Multipliers and offsets of x's Euler steps, ``x[k+1] = x[k] * a + b``,
    for the steps of ``dw`` (S, m, dim) and the matching (S|1, m[, dim])
    ``integrals``, written into ``a`` and ``b`` with ``sums`` and ``product``
    as scratch buffers.  ``a`` is ``(1 + slope dt) + vol_slope . dW``,
    bit for bit the fundamental flow's step factor, and ``b`` is
    ``(level dt + vol_level . dW) + jump``."""
    lev, slo, vlev, vslo = integrals
    np.add(1.0, np.multiply(slo, dt, out=a), out=a)
    a += _dot_last(vslo, dw, sums, product)
    np.multiply(lev, dt, out=b)
    b += _dot_last(vlev, dw, sums, product)
    b += jump_x
    return a, b


def _check_finite(x, y, start: int, stop: int, first: int) -> None:
    """Raise for the earliest non-finite state of steps ``start + 1 .. stop``:
    by step, then x before y, then scenario (``first`` offsets the index)."""
    span = slice(start + 1, stop + 1)
    if np.isfinite(x[:, span]).all() and np.isfinite(y[:, span]).all():
        return
    for k in range(start + 1, stop + 1):
        for component, path in (("x", x), ("y", y)):
            bad = ~np.isfinite(path[:, k])
            if bad.any():
                raise NonFiniteStateError(component, k, first + int(np.flatnonzero(bad)[0]))


def _simulate_block(integrals, stock, tg, noise, x, y, first, jump_x, jump_y, buffers):
    """Euler steps for the scenario block at rows ``first``.. of ``integrals``,
    written into its rows ``x``, ``y`` of the shared paths (step 0 is set).
    x's factors are set up in the block's rows of the factor ``buffers``,
    as many steps at a time as they hold; the paths are checked once per
    such block of steps."""
    dt, size = tg.dt, buffers[0].shape[1]
    times = tg.times()
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, tg.steps, size):
            stop = min(start + size, tg.steps)
            span = slice(start, stop)
            a, b = _x_factors(tuple(c[:, span] for c in integrals), noise[:, span], jump_x[span],
                              dt, *(buf[:, :stop - start] for buf in buffers))
            for k in range(start, stop):
                xn = np.multiply(x[:, k], a[:, k - start], out=x[:, k + 1])
                xn += b[:, k - start]
                yk = y[:, k]
                sy = stock.diffusion(times[k], yk)
                yn = np.add(yk, stock.drift(times[k], yk) * dt, out=y[:, k + 1])
                yn += _dot_last(sy, noise[:, k])
                yn += jump_y[k]
            _check_finite(x, y, start, stop, first)


def _forward_inputs(field, mu, xi, tg, noise):
    """Check the controls and noise of a forward simulation; returns x's and y's per-step jumps."""
    if mu.steps != tg.steps or xi.steps != tg.steps:
        raise ValueError("controls must have one row per time step")
    if mu.count != field.grid.count:
        raise ValueError("relaxed control does not match the field's grid")
    if xi.dim != field.dim:
        raise ValueError("singular control dimension does not match the field")
    if noise.shape != (field.scenarios, tg.steps, field.dim):
        raise ValueError(f"noise shape {noise.shape} does not match the field")
    return tuple((gain * xi.increments).sum(axis=1)
                 for gain in (field.jump_gain_x, field.jump_gain_y))


def _euler_paths(integrals, jumps, x0, y0, stock, tg, noise, threads=1):
    """The Euler paths x, y (S, steps + 1) of the per-step x coefficients
    ``integrals`` (S|1, steps[, dim]) and the per-step ``jumps`` of x and y,
    run on up to ``threads`` scenario chunks.  Raises the NonFiniteStateError
    that a serial pass meets first."""
    scenarios = noise.shape[0]
    x = np.empty((scenarios, tg.steps + 1), order="F")
    y = np.empty_like(x)
    x[:, 0], y[:, 0] = x0, y0
    # ``_x_factors``' buffers for one block of steps; allocated here, not in
    # the threads, so that they never grow a thread's allocation arena
    shape = (scenarios, min(tg.steps, max(1, FACTOR_BUDGET // max(1, scenarios))))
    buffers = (*(np.empty(shape, order="F") for _ in range(3)),
               np.empty(shape + noise.shape[2:], order=_product_order(noise.shape[2])))
    chunks = 1 if threads <= 1 or scenarios < 2 * threads else threads
    bounds = np.linspace(0, scenarios, chunks + 1).astype(int).tolist()

    def run(i):
        rows = slice(bounds[i], bounds[i + 1])
        block = tuple(a if a.shape[0] == 1 else a[rows] for a in integrals)
        try:
            _simulate_block(block, stock, tg, noise[rows], x[rows], y[rows], rows.start,
                            *jumps, tuple(buf[rows] for buf in buffers))
        except NonFiniteStateError as exc:
            return exc
        return None

    if chunks == 1:
        errors = [run(0)]
    else:
        with ThreadPoolExecutor(max_workers=chunks) as pool:
            errors = list(pool.map(run, range(chunks)))
    errors = [exc for exc in errors if exc is not None]
    if errors:   # the one a serial pass meets first: by step, then x before y, then scenario
        raise min(errors, key=lambda exc: (exc.step, exc.component != "x", exc.scenario))
    return x, y


def simulate_forward(
    field: CoefficientField,
    mu: RelaxedControl,
    xi: SingularControl,
    x0: float,
    y0: float,
    stock: StockModel,
    tg: TimeGrid,
    noise: np.ndarray,
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
    noise : ndarray
        Brownian increments of shape (scenarios, steps, dim), such as
        ``ControlProblem.noise`` draws.  Passing the noise that sampled the
        field keeps coefficients and paths on one filtration.
    threads : int
        Scenario-chunk parallelism.  The coefficients are integrated against
        ``mu`` once over all scenarios before chunking, so every thread count
        gives bit-identical paths.

    Raises
    ------
    NonFiniteStateError
        If a path overflows; the error names the step and scenario, the
        same ones at every thread count.
    """
    jumps = _forward_inputs(field, mu, xi, tg, noise)
    x, y = _euler_paths(coefficient_integrals(field, mu), jumps, x0, y0, stock, tg, noise, threads)
    return TrajectoryBundle(tg=tg, x=x, y=y, noise=noise, mu=mu, xi=xi)


def simulate_forward_strict(
    field: CoefficientField,
    action_indices,
    xi: SingularControl,
    x0: float,
    y0: float,
    stock: StockModel,
    tg: TimeGrid,
    noise: np.ndarray,
) -> TrajectoryBundle:
    """Simulate under a strict (grid-indexed) control path.

    Gathers each step's coefficients at its index, in place of integrating
    them against a measure, then runs `simulate_forward`'s Euler loop; with
    the same noise it is bit-identical to `simulate_forward` on point masses.
    """
    idx = np.asarray(action_indices, dtype=int)
    if idx.shape != (tg.steps,):
        raise ValueError("need one grid index per time step")
    mu = RelaxedControl.from_indices(idx, field.grid.count)   # raises on an index off the grid
    jumps = _forward_inputs(field, mu, xi, tg, noise)
    gathered = tuple(np.stack([at(k)[:, j] for k, j in enumerate(idx.tolist())], axis=1)
                     for at in (field.drift_level_at, field.drift_slope_at,
                                field.vol_level_at, field.vol_slope_at))
    x, y = _euler_paths(gathered, jumps, x0, y0, stock, tg, noise)
    return TrajectoryBundle(tg=tg, x=x, y=y, noise=noise, mu=mu, xi=xi)


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
        # non-finite values become null, for strict JSON
        return {k: v if np.isfinite(v) else None for k, v in asdict(self).items()}


def _sup_abs(path: np.ndarray) -> np.ndarray:
    """``np.abs(path).max(axis=1)`` without an (S, steps + 1) temporary; ``+ 0.0``
    turns a -0.0 into 0.0, as the absolute value would."""
    return np.maximum(path.max(axis=1), -path.min(axis=1)) + 0.0


def moment_diagnostics(bundle: TrajectoryBundle, field: CoefficientField, p: float = 2.0) -> MomentReport:
    """Sample sup/terminal moments of the paths and the exponential moment
    of the integrated drift slope (worst grid point).  Flags non-finite
    paths, and infinite or exploding estimates, instead of raising."""
    if p < 1.0:
        raise ValueError("moment order must be >= 1")
    sups = [_sup_abs(path) for path in (bundle.x, bundle.y)]
    non_finite = not all(np.isfinite(sup).all() for sup in sups)
    with np.errstate(over="ignore"):
        sup_x, sup_y = (float(np.mean(sup ** p)) for sup in sups)
        term_x = float(np.mean(np.abs(bundle.x[:, -1]) ** p))
        term_y = float(np.mean(np.abs(bundle.y[:, -1]) ** p))
        slope = field.drift_slope
        acc = slope.combine(A @ B for A, B in slope.terms) * bundle.tg.dt
        exp_moment = float(np.exp(p * acc).mean(axis=0).max())
    values = (sup_x, sup_y, term_x, term_y, exp_moment)
    exploded = non_finite or not all(v <= MomentReport.EXPLOSION_THRESHOLD for v in values)
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

