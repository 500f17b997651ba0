"""Backward adjoint (costate) solvers for the controlled linear SDE.

Two independent methods are provided and cross-validated in the test suite:

* an explicit construction through the fundamental solution of the
  homogeneous linear SDE plus a regression estimate of the martingale part,
  mirroring the analytical derivation of the costate, and
* a backward least-squares Monte Carlo scheme on the adjoint backward SDE,
  the production method.

Both estimate conditional expectations by cross-scenario polynomial
regression in the state pair (x, y).  One ``Projector`` per time step holds
that regression on the step's sample (design, inverse normal matrix, degree
after fallback) and fits every target of the step against it: both costate
components and their diffusion loadings.  That projection is exact when the
true costate is a polynomial of the states (the toy problems used for validation);
with state-dependent diffusion slopes the fundamental-solution method
acquires a projection bias because the flow itself is an extra state, so the
regression scheme is preferred for production runs.

Both backward loops run one step stream, ``_backward_steps``: blocks of
steps down from the horizon, each block's projectors set up in one pass (bit
for bit as one step at a time) and then its linearization of both state
components filled.  The loops carry x and y on one component axis.  The
fundamental flows, ``_flows``, which the fundamental-solution adjoint runs
as its forward pass, are the forward simulation's own Euler loop
(``dynamics._euler_paths``) from 1 with zero levels and jumps, as the first
variation (in :mod:`rscontrol.optimizer`) is from 0.  Both backward loops
are step-major: every per-step (S, 2) and (S, 2, dim) operand, the fits
included, has its scenarios contiguous.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dynamics import CoefficientField, NonFiniteStateError, StockModel, TrajectoryBundle
from .dynamics import _dot_last, _euler_paths, coefficient_integrals
from .measures import RelaxedControl, integrate_against  # noqa: F401  (perfbench wraps integrate_against)
from .problems import RunningCost, TerminalCost, _running_rows

CONDITION_LIMIT = 1e12
SETUP_BUDGET = 16384   # scenario-steps per block of projector set-ups and slopes


def _set_up(x: np.ndarray, y: np.ndarray, degree: int, ridge: float) -> list:
    """Regression set-up of the samples in the columns of ``x``, ``y`` (S, m).

    Returns one (design, inverse, degree) per column, bit for bit those of an
    F-ordered (S, k) basis of each column on its own.  The basis is held
    scenario-contiguous, (m, k, S), its slope rows centered and scaled in
    place with pairwise sums; each design is the F-ordered (S, k) view
    ``basis.transpose(0, 2, 1)[j]``, the Gram matrices one stacked matmul with
    the ridge r on the slope columns only.  Their eigenvalues then lie in {1}
    and [r, k - 1 + r], so ``np.linalg.cond`` runs only where the bound
    max(1, k - 1 + r) / min(1, r) exceeds ``CONDITION_LIMIT``.  The columns
    that keep the degree take ``inverse``, ``inv(gram) / S``, from one stacked
    ``np.linalg.inv``.  A column whose Gram matrix is non-finite or ill-
    conditioned is set up again one degree lower, with one warning per
    conditioning fallback; degree 0 is always kept (its Gram is exactly [[1.0]]).
    """
    if not 0 <= degree <= 2:
        raise ValueError("regression basis supports total degree 0 to 2")
    scen, m = x.shape
    k = (1, 3, 6)[degree]
    basis = np.empty((m, k, scen))
    basis[:, 0] = 1.0
    if degree >= 1:
        basis[:, 1], basis[:, 2] = x.T, y.T
    if degree >= 2:
        np.multiply(basis[:, 1:3], basis[:, 1:2], out=basis[:, 3:5])   # x * x, y * x
        np.multiply(basis[:, 2], basis[:, 2], out=basis[:, 5])
    slopes = basis[:, 1:]
    slopes -= slopes.sum(axis=2, keepdims=True) / scen
    scale = np.sqrt(np.square(slopes).sum(axis=2, keepdims=True) / scen)
    scale[scale == 0.0] = 1.0
    slopes /= scale
    design = basis.transpose(0, 2, 1)
    gram = basis @ design / scen
    diag = np.arange(1, k)
    gram[:, diag, diag] += ridge
    finite = np.isfinite(gram).all(axis=(1, 2))
    ok = finite.copy()
    if degree > 0 and finite.any() and max(1, k - 1 + ridge) > CONDITION_LIMIT * min(1, ridge):
        ok[finite] = ~(np.linalg.cond(gram[finite]) > CONDITION_LIMIT)
    # the whole block when every column keeps the degree (a boolean-indexed copy
    # costs what the inverse saves), scaled in place (a temporary raised peak RSS)
    inverse = np.linalg.inv(gram if ok.all() else gram[ok])
    inverse /= scen
    inverses = iter(inverse)
    out = []
    for j in range(m):
        if ok[j]:
            out.append((design[j], next(inverses), degree))
            continue
        if finite[j]:
            warnings.warn(f"singular regression design; falling back to degree {degree - 1}",
                          RuntimeWarning, stacklevel=2)
        out.append(_set_up(x[:, j:j + 1], y[:, j:j + 1], degree - 1, ridge)[0])
    return out


class Projector:
    """Least-squares projection on the (x, y) monomial basis of one sample.

    A projector carries what a fit reads: ``design``, RMS-standardized
    monomial columns (non-intercept columns centered, so the ridge never
    biases the mean), ``inverse``, ``inv(gram) / S`` of the normal matrix with
    the ridge on the slope columns only, and ``degree``.  If that matrix is
    numerically singular the degree is lowered (ultimately to the plain mean,
    whose Gram matrix is exactly [[1.0]]) with one warning per lowered degree.
    ``design`` is an F-ordered view into the set-up's basis.  ``fit``
    projects any number of targets with three matmuls and no solve.  It is
    the one-step case of the adjoint solvers' block set-up.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, degree: int = 2, ridge: float = 1e-8):
        self.design, self.inverse, self.degree = _set_up(x[:, None], y[:, None], degree, ridge)[0]

    @classmethod
    def _of(cls, design, inverse, degree) -> "Projector":
        proj = cls.__new__(cls)
        proj.design, proj.inverse, proj.degree = design, inverse, degree
        return proj

    def fit(self, target: np.ndarray) -> np.ndarray:
        """E[target | x, y] on the sample; ``target`` is (scenarios,) or (scenarios, r), read
        F-ordered (gemm on the F-ordered design depends on the target's layout from 6 columns),
        and the result has the same shape: a 2-D fit F-ordered, bit for bit ``design @ coef``."""
        coef = self.inverse @ (self.design.T @ np.asfortranarray(target, dtype=float))
        if coef.ndim == 1:
            return self.design @ coef
        return (coef.T @ self.design.T).T


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


def _backward_steps(integrals, bundle, stock, degree: int, ridge: float):
    """Steps n-1, ..., 0 of both backward loops, as (k, projector, drift,
    vol): step k's ``Projector`` on the (x, y) sample and the linearization
    of both state components, drift slopes (S, 2) and diffusion slopes
    (S, 2, dim).  Component 0 is x, with the slopes of ``integrals``
    (``coefficient_integrals(field, mu)``), and component 1 the linear stock
    y, with its constant ``drift`` and ``vol``.  Blocks of
    ``max(1, SETUP_BUDGET // S)`` steps are taken down from the horizon.  Each
    block's projectors are set up before its slopes are allocated (the other
    order holds the slopes through the set-up's peak), and the slopes are
    filled F-ordered, so that each step's are F-contiguous views into the block."""
    _, slope, _, vol_slope = integrals
    scen, n = bundle.scenarios, bundle.tg.steps
    size = max(1, SETUP_BUDGET // scen)
    for stop in range(n, 0, -size):
        s = slice(max(0, stop - size), stop)
        setups = _set_up(bundle.x[:, s], bundle.y[:, s], degree, ridge)
        m = len(setups)
        drift, vol = np.empty((m, 2, scen)).T, np.empty((m, bundle.dim, 2, scen)).T
        drift[:, 0], drift[:, 1] = slope[:, s], stock.drift
        vol[:, 0] = vol_slope[:, s].transpose(0, 2, 1)
        vol[:, 1] = stock.vol[:, None]
        for j in range(m - 1, -1, -1):
            yield s.start + j, Projector._of(*setups[j]), drift[..., j], vol[..., j]


def _flows(integrals, bundle, stock):
    """The fundamental flows of both components, (S, 2, steps + 1) and
    step-major: the paths of ``_euler_paths`` from 1 on the slopes of
    ``integrals`` (``coefficient_integrals(field, mu)``) and ``stock``, with
    zero levels and jumps.  A flow that overflows raises FloatingPointError."""
    n, zero = bundle.tg.steps, np.zeros(bundle.tg.steps)
    homogeneous = (zero[None], integrals[1], np.zeros((1, n, bundle.dim)), integrals[3])
    flow = np.empty((bundle.scenarios, 2, n + 1), order="F")
    try:
        flow[:, 0], flow[:, 1] = _euler_paths(homogeneous, (zero, zero), 1.0, 1.0, stock,
                                              bundle.tg, bundle.noise)
    except NonFiniteStateError as exc:
        raise FloatingPointError(f"adjoint path p{exc.component} contains non-finite values "
                                 f"(its flow: {exc})") from None
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
    steps, whose (m, S|1) rows broadcast over the scenarios; a ``None`` gradient is +0.0."""
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
    integrals = coefficient_integrals(field, mu)
    n, dt = bundle.tg.steps, bundle.tg.dt
    scen, d = bundle.scenarios, bundle.dim
    xn, yn = bundle.x[:, n], bundle.y[:, n]
    flow = _flows(integrals, bundle, stock)

    # axis 1 indexes the component: 0 for x, 1 for y
    p = np.empty((scen, 2, n + 1), order="F")
    p[:, 0, n], p[:, 1, n] = terminal.dx(xn, yn), terminal.dy(xn, yn)
    # C order, so that the step sum is numpy's pairwise sum along contiguous rows
    weighted = np.multiply(flow[:, :, :n], _gradient_paths(field, mu, bundle, running),
                           out=np.empty((scen, 2, n)))
    weighted *= dt
    total = flow[:, :, n] * p[:, :, n]
    total += weighted.sum(axis=2)
    # p's column k holds the running prefix (the weighted sum of steps before
    # k) until step k of the backward loop overwrites it with the costate
    p[:, :, 0] = 0.0
    np.cumsum(weighted[:, :, :n - 1], axis=2, out=p[:, :, 1:n])
    del weighted
    deflator = np.divide(1.0, flow, out=flow)
    load = np.empty((scen, 2, n, d), order="F")
    mart_next = total
    incr = _loading_buffer(scen, d)
    for k, proj, _, vslo in _backward_steps(integrals, bundle, stock, degree, ridge):
        mart = proj.fit(total)
        p[:, :, k] = (mart - p[:, :, k]) * deflator[:, :, k]
        np.multiply((mart_next - mart)[:, :, None], bundle.noise[:, k, None], out=incr)
        mart_next = mart
        integrand = proj.fit(incr.reshape(scen, 2 * d) / dt).reshape(scen, 2, d)
        load[:, :, k] = deflator[:, :, k, None] * integrand - vslo * p[:, :, k, None]
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
    h = _gradient_paths(field, mu, bundle, running)

    p = np.empty((scen, 2, n + 1), order="F")
    load = np.empty((scen, 2, n, d), order="F")
    p[:, 0, n], p[:, 1, n] = terminal.dx(x[:, n], y[:, n]), terminal.dy(x[:, n], y[:, n])
    nxt = p[:, :, n]
    prod = _loading_buffer(scen, d)
    steps = _backward_steps(coefficient_integrals(field, mu), bundle, stock, degree, ridge)
    for k, proj, slo, vslo in steps:
        resid = nxt - proj.fit(nxt)
        np.multiply(resid[:, :, None], dw[:, k, None], out=prod)
        loads = proj.fit(prod.reshape(scen, 2 * d) / dt).reshape(scen, 2, d)
        nxt = proj.fit(nxt + (slo * nxt + _dot_last(vslo, loads) + h[:, :, k]) * dt)
        p[:, :, k] = nxt
        load[:, :, k] = loads
    return AdjointSolution(px=p[:, 0], Px=load[:, 0], py=p[:, 1], Py=load[:, 1],
                           method="regression")
