"""Backward adjoint (costate) solvers for the controlled linear SDE.

Two independent methods are provided and cross-validated in the test suite:

* an explicit construction through the fundamental solution of the
  homogeneous linear SDE plus a regression estimate of the martingale part,
  mirroring the analytical derivation of the costate, and
* a backward least-squares Monte Carlo scheme on the adjoint backward SDE,
  the production method.

Both estimate conditional expectations by cross-scenario polynomial
regression in the state pair (x, y).  One ``Projector`` per time step holds
that regression on the step's sample (basis, standardization, normal matrix,
degree fallback) and fits every target of the step against it: both costate
components and their diffusion loadings.  The solvers set up a block of
steps' projectors in one pass (``_backward_projectors``), bit for bit as one
step at a time.  That projection is exact when the
true costate is a polynomial of the states (the toy problems used for validation);
with state-dependent diffusion slopes the fundamental-solution method
acquires a projection bias because the flow itself is an extra state, so the
regression scheme is preferred for production runs.

Both adjoints and the first variation (in :mod:`rscontrol.optimizer`) read
one per-step linearization of both state components, ``_path_slopes``, and
carry x and y on one component axis.  The fundamental flow has one
recurrence, ``_flows``, which the fundamental-solution adjoint runs as its
forward pass, evaluating each step's slopes once; the first variation
shares its Euler step factor, ``_step_factor``.  Both backward loops are
step-major: every per-step (S, 2) and (S, 2, dim) operand, the fits
included, has its scenarios contiguous.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .dynamics import CoefficientField, StockModel, TrajectoryBundle, coefficient_integrals
from .dynamics import _dot_last
from .measures import RelaxedControl, integrate_against  # noqa: F401  (perfbench wraps integrate_against)
from .problems import RunningCost, TerminalCost, _running_rows

CONDITION_LIMIT = 1e12
SETUP_BUDGET = 16384   # scenario-steps per block of projector set-ups and slopes


def _set_up(x: np.ndarray, y: np.ndarray, degree: int, ridge: float) -> list:
    """Regression set-up of the samples in the columns of ``x``, ``y`` (S, m).

    Returns one (design, gram, degree) per column, bit for bit those of a
    C-ordered (S, k) basis of each column on its own: the monomial basis is
    held as (S, m, k), so numpy sums its S rows in sequence for the means,
    as it does for one (S, k) basis (a scenario-contiguous layout would be
    summed pairwise, which changes bits).  The designs are C-ordered (S, k),
    the Gram matrices one stacked matmul, and ``np.linalg.cond`` runs once
    on the finite ones.  A column whose Gram matrix is non-finite or
    ill-conditioned is set up again one degree lower, with one warning per
    conditioning fallback; degree 0 (the intercept alone) is always kept.
    """
    if not 0 <= degree <= 2:
        raise ValueError("regression basis supports total degree 0 to 2")
    scen, m = x.shape
    k = (1, 3, 6)[degree]
    basis = np.empty((scen, m, k))
    basis[:, :, 0] = 1.0
    if degree >= 1:
        basis[:, :, 1], basis[:, :, 2] = x, y
    if degree >= 2:
        np.multiply(x, x, out=basis[:, :, 3])
        np.multiply(x, y, out=basis[:, :, 4])
        np.multiply(y, y, out=basis[:, :, 5])
    shift = basis.sum(axis=0) / scen
    shift[:, 0] = 0.0
    centered = np.subtract(basis, shift, out=basis)
    scale = np.sqrt((centered * centered).sum(axis=0) / scen)
    scale[scale == 0.0] = 1.0
    design = np.divide(centered.transpose(1, 0, 2), scale[:, None], out=np.empty((m, scen, k)))
    gram = design.transpose(0, 2, 1) @ design / scen
    diag = np.arange(k)
    gram[:, diag, diag] += ridge
    gram[:, 0, 0] -= ridge
    finite = np.isfinite(gram).all(axis=(1, 2))
    ok = finite.copy()
    if degree > 0 and finite.any():
        ok[finite] = ~(np.linalg.cond(gram[finite]) > CONDITION_LIMIT)
    out = []
    for j in range(m):
        if ok[j] or degree == 0:
            out.append((design[j], gram[j], degree))
            continue
        if finite[j]:
            warnings.warn(f"singular regression design; falling back to degree {degree - 1}",
                          RuntimeWarning, stacklevel=2)
        out.append(_set_up(x[:, j:j + 1], y[:, j:j + 1], degree - 1, ridge)[0])
    return out


class Projector:
    """Least-squares projection on the (x, y) monomial basis of one sample.

    The design is set up once: RMS-standardized monomial columns (non-
    intercept columns centered, so the ridge never biases the mean) and the
    ridge-regularized normal matrix.  If that matrix is numerically singular
    the degree is lowered (ultimately to the plain mean) with one warning per
    lowered degree.  ``fit`` then projects any number of targets on the same
    design with one solve.  This is the one-step case of the block set-up
    that the adjoint solvers use (``_backward_projectors``).
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, degree: int = 2, ridge: float = 1e-8):
        self.design, self.gram, self.degree = _set_up(x[:, None], y[:, None], degree, ridge)[0]

    @classmethod
    def _of(cls, design, gram, degree) -> "Projector":
        proj = cls.__new__(cls)
        proj.design, proj.gram, proj.degree = design, gram, degree
        return proj

    def fit(self, target: np.ndarray) -> np.ndarray:
        """E[target | x, y] on the sample; ``target`` is (scenarios,) or
        (scenarios, r), and the result has the same shape.  A 2-D fit is
        F-ordered (each target's fit contiguous), bit for bit ``design @ coef``."""
        t = np.asarray(target, dtype=float)
        if self.degree == 0:
            # numpy sums a one-column design against the target in the
            # target's memory order; gemm (wider designs) does not depend on it
            t = np.ascontiguousarray(t)
        coef = np.linalg.solve(self.gram, self.design.T @ t / self.design.shape[0])
        if coef.ndim == 1:
            return self.design @ coef
        return (coef.T @ self.design.T).T


def _backward_projectors(x: np.ndarray, y: np.ndarray, degree: int, ridge: float):
    """Projectors of steps n-1, ..., 0 of the (S, n + 1) paths ``x``, ``y``,
    set up ``max(1, SETUP_BUDGET // S)`` steps at a time."""
    scen, n = x.shape[0], x.shape[1] - 1
    size = max(1, SETUP_BUDGET // scen)
    for stop in range(n, 0, -size):
        start = max(0, stop - size)
        for setup in reversed(_set_up(x[:, start:stop], y[:, start:stop], degree, ridge)):
            yield Projector._of(*setup)


def fit_conditional(
    target: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    degree: int = 2,
    ridge: float = 1e-8,
):
    """One-shot ``Projector(x, y, degree, ridge).fit(target)``.

    Returns (fitted, degree_used); ``target`` may be (scenarios,) or
    (scenarios, r) for a shared design matrix.
    """
    proj = Projector(x, y, degree, ridge)
    return proj.fit(target), proj.degree


@dataclass(frozen=True)
class AdjointSolution:
    """Costate paths for both state components.

    px, py : (scenarios, steps + 1) costate values; the terminal slice equals
        the terminal-cost gradient exactly.
    Px, Py : (scenarios, steps, dim) diffusion loadings of the costates.
    Both solvers store them step-major, so ``px[:, k]`` is contiguous.
    """

    px: np.ndarray
    Px: np.ndarray
    py: np.ndarray
    Py: np.ndarray
    method: str

    def __post_init__(self):
        for name, arr in (("px", self.px), ("Px", self.Px), ("py", self.py), ("Py", self.Py)):
            if not np.isfinite(arr).all():
                raise FloatingPointError(f"adjoint path {name} contains non-finite values")


def _path_slopes(integrals, bundle, stock):
    """The linearization of both state components along the paths.

    ``integrals`` is ``coefficient_integrals(field, mu)``.  Returns ``at(k)``,
    giving step k's drift slopes (S, 2) and diffusion slopes (S, 2, dim):
    component 0 is x, with the measure-integrated slopes, and component 1 is
    y, with the stock model's derivatives at ``bundle.y[:, k]``.  Both are
    F-contiguous views into an aligned block of ``max(1, SETUP_BUDGET // S)``
    steps, filled by one call of each stock derivative.
    """
    _, slope, _, vol_slope = integrals
    times, size = bundle.tg.times(), max(1, SETUP_BUDGET // bundle.scenarios)

    @functools.lru_cache(maxsize=1)
    def block(start):   # F-ordered (S, 2, m) drift and (S, 2, dim, m) diffusion slopes
        s = slice(start, min(start + size, bundle.tg.steps))
        t, y = times[s], bundle.y[:, s]
        drift, vol = np.empty((len(t), 2, len(y))).T, np.empty((len(t), bundle.dim, 2, len(y))).T
        drift[:, 0], drift[:, 1] = slope[:, s], stock.drift_dy(t, y)
        vol[:, 0] = vol_slope[:, s].transpose(0, 2, 1)
        vol[:, 1] = np.moveaxis(stock.diffusion_dy(t, y), -1, 1)
        return drift, vol

    return lambda k: tuple(a[..., k % size] for a in block(k - k % size))


def _step_factor(slo, vslo, dw, dt):
    """The Euler factor ``1 + slope dt + vol_slope . dW`` of one step of the
    homogeneous linear SDE, for step slopes of ``_path_slopes`` and the step's
    Brownian increments ``dw`` (S, dim)."""
    return 1.0 + slo * dt + _dot_last(vslo, dw[:, None])


def _flows(slopes, bundle):
    """The fundamental flows of both components, (S, 2, steps + 1) and
    step-major: products of the ``_step_factor`` of the per-step ``slopes``
    of ``_path_slopes``."""
    n, dt = bundle.tg.steps, bundle.tg.dt
    flow = np.empty((bundle.scenarios, 2, n + 1), order="F")
    flow[:, :, 0] = 1.0
    for k in range(n):
        flow[:, :, k + 1] = flow[:, :, k] * _step_factor(*slopes(k), bundle.noise[:, k], dt)
    return flow


def _loading_buffer(scen: int, dim: int) -> np.ndarray:
    """An (S, 2, dim) buffer stored scenarios first, then Brownian axes, then
    components: its (S, 2 * dim) reshape is an F-ordered view whose column
    c * dim + i holds component c on axis i, the column order of a C-order
    reshape."""
    return np.empty((scen, dim, 2), order="F").transpose(0, 2, 1)


def _gradient_paths(field, mu, bundle, running):
    """Measure-integrated running-cost gradients along the paths,
    (S, 2, steps) step-major, with component 0 for x and 1 for y, integrated
    in ``_running_rows``' blocks of ``max(1, SWEEP_BUDGET // (S * count))``
    steps, like every running-cost table; a ``None`` gradient is +0.0."""
    h = np.zeros((bundle.scenarios, 2, bundle.tg.steps), order="F")
    for c, grad in enumerate((running.dx, running.dy)):
        if grad is not None:
            for start, rows in _running_rows(grad, bundle, field.grid.points, mu.weights):
                h[:, c, start:start + len(rows)] = rows.T
    return h


def solve_adjoint_phi(
    field: CoefficientField,
    mu: RelaxedControl,
    bundle: TrajectoryBundle,
    running: RunningCost,
    terminal: TerminalCost,
    stock: StockModel,
    degree: int = 2,
    ridge: float = 1e-8,
) -> AdjointSolution:
    """Costates via the fundamental-solution construction.

    For each component the flow-weighted terminal and running gradients form
    one terminal variable; its conditional expectation (the martingale) is
    projected per step on the (x, y) basis, the accumulated running part is
    stripped and the flow deflated.  The diffusion loading comes from
    projecting the martingale increments on the Brownian increments.  Both
    components share one projector per step.  Terminal slices are set to the
    exact gradients.
    """
    slopes = _path_slopes(coefficient_integrals(field, mu), bundle, stock)
    n, dt = bundle.tg.steps, bundle.tg.dt
    scen, d = bundle.scenarios, bundle.dim
    xn, yn = bundle.x[:, n], bundle.y[:, n]
    load = np.empty((scen, 2, n, d), order="F")
    flow = _flows(slopes, bundle)
    deflator = 1.0 / flow

    # axis 1 indexes the component: 0 for x, 1 for y
    p = np.empty((scen, 2, n + 1), order="F")
    p[:, 0, n], p[:, 1, n] = terminal.dx(xn, yn), terminal.dy(xn, yn)
    # C order, so that the step sum is numpy's pairwise sum along contiguous rows
    weighted = np.ascontiguousarray(flow[:, :, :n] * _gradient_paths(field, mu, bundle, running) * dt)
    total = flow[:, :, n] * p[:, :, n]
    total += weighted.sum(axis=2)
    prefix = np.zeros((scen, 2, n + 1), order="F")
    np.cumsum(weighted, axis=2, out=prefix[:, :, 1:])
    mart_next = total
    incr = _loading_buffer(scen, d)
    projectors = _backward_projectors(bundle.x, bundle.y, degree, ridge)
    for k, proj in zip(range(n - 1, -1, -1), projectors):
        mart = proj.fit(total)
        p[:, :, k] = (mart - prefix[:, :, k]) * deflator[:, :, k]
        np.multiply((mart_next - mart)[:, :, None], bundle.noise[:, k, None], out=incr)
        mart_next = mart
        integrand = proj.fit(incr.reshape(scen, 2 * d) / dt).reshape(scen, 2, d)
        load[:, :, k] = deflator[:, :, k, None] * integrand - slopes(k)[1] * p[:, :, k, None]
    return AdjointSolution(px=p[:, 0], Px=load[:, 0], py=p[:, 1], Py=load[:, 1],
                           method="phi-construction")


def solve_adjoint_regression(
    field: CoefficientField,
    mu: RelaxedControl,
    bundle: TrajectoryBundle,
    running: RunningCost,
    terminal: TerminalCost,
    stock: StockModel,
    degree: int = 2,
    ridge: float = 1e-8,
) -> AdjointSolution:
    """Costates via backward least-squares Monte Carlo.

    Backward Euler on the adjoint backward SDEs: the diffusion loading is the
    covariance regression of the next costate against the Brownian increment
    (centered by the projected costate, which leaves the estimand unchanged
    and removes the dominant variance term), and the costate is the projected
    one-step target

        p[k] = E[ p[k+1] + (slope * p[k+1] + vol_slope . P[k] + h') dt | x, y ].

    Both components share one projector per step, with three stacked fits.
    """
    n, dt = bundle.tg.steps, bundle.tg.dt
    scen, d = bundle.scenarios, bundle.dim
    x, y, dw = bundle.x, bundle.y, bundle.noise
    slopes = _path_slopes(coefficient_integrals(field, mu), bundle, stock)
    h = _gradient_paths(field, mu, bundle, running)

    p = np.empty((scen, 2, n + 1), order="F")
    load = np.empty((scen, 2, n, d), order="F")
    p[:, 0, n], p[:, 1, n] = terminal.dx(x[:, n], y[:, n]), terminal.dy(x[:, n], y[:, n])
    nxt = p[:, :, n]
    prod = _loading_buffer(scen, d)
    projectors = _backward_projectors(x, y, degree, ridge)
    for k, proj in zip(range(n - 1, -1, -1), projectors):
        resid = nxt - proj.fit(nxt)
        np.multiply(resid[:, :, None], dw[:, k, None], out=prod)
        loads = proj.fit(prod.reshape(scen, 2 * d) / dt).reshape(scen, 2, d)
        slo, vslo = slopes(k)
        nxt = proj.fit(nxt + (slo * nxt + _dot_last(vslo, loads) + h[:, :, k]) * dt)
        p[:, :, k] = nxt
        load[:, :, k] = loads
    return AdjointSolution(px=p[:, 0], Px=load[:, 0], py=p[:, 1], Py=load[:, 1],
                           method="regression")
