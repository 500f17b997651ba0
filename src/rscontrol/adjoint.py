"""Backward adjoint (costate) solvers for the controlled linear SDE.

Two independent methods are provided and cross-validated in the test suite:

* an explicit construction through the fundamental solution of the
  homogeneous linear SDE plus a regression estimate of the martingale part,
  mirroring the analytical derivation of the costate, and
* a backward least-squares Monte Carlo scheme on the adjoint backward SDE,
  the production method.

Both estimate conditional expectations by cross-scenario polynomial
regression in the state pair (x, y).  One ``Projector`` per time step sets up
that regression on the step's sample (basis, standardization, normal matrix,
degree fallback) and fits every target of the step against it: both costate
components and their diffusion loadings.  That projection is exact when the
true costate is a polynomial of the states (the toy problems used for validation);
with state-dependent diffusion slopes the fundamental-solution method
acquires a projection bias because the flow itself is an extra state, so the
regression scheme is preferred for production runs.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from .dynamics import CoefficientField, StockModel, TrajectoryBundle
from .measures import RelaxedControl, integrate_against
from .problems import RunningCost, TerminalCost

CONDITION_LIMIT = 1e12


def polynomial_basis(x: np.ndarray, y: np.ndarray, degree: int) -> np.ndarray:
    """Monomials in (x, y) of total degree <= degree, shape (scenarios, k)."""
    cols = [np.ones_like(x)]
    if degree >= 1:
        cols += [x, y]
    if degree >= 2:
        cols += [x * x, x * y, y * y]
    if degree >= 3:
        raise ValueError("regression basis supports total degree <= 2")
    return np.column_stack(cols)


class Projector:
    """Least-squares projection on the (x, y) monomial basis of one sample.

    The design is set up once: RMS-standardized monomial columns (non-
    intercept columns centered, so the ridge never biases the mean) and the
    ridge-regularized normal matrix.  If that matrix is numerically singular
    the degree is lowered (ultimately to the plain mean) with one warning per
    lowered degree.  ``fit`` then projects any number of targets on the same
    design with one solve.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, degree: int = 2, ridge: float = 1e-8):
        for deg in range(degree, -1, -1):
            basis = polynomial_basis(x, y, deg)
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
                warnings.warn(
                    f"singular regression design; falling back to degree {deg - 1}",
                    RuntimeWarning,
                    stacklevel=2,
                )
                continue
            break
        # degree 0 always ends the loop: its design is the intercept alone
        self.design, self.gram, self.degree = design, gram, deg

    def fit(self, target: np.ndarray) -> np.ndarray:
        """E[target | x, y] on the sample; ``target`` is (scenarios,) or
        (scenarios, r), and the result has the same shape."""
        t = np.asarray(target, dtype=float)
        rhs = self.design.T @ t / self.design.shape[0]
        return self.design @ np.linalg.solve(self.gram, rhs)


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
class FundamentalPair:
    """Fundamental solution of the homogeneous linear SDE and its inverse.

    ``flow_inv`` is the exact reciprocal used downstream; ``flow_inv_sde``
    integrates the inverse's own SDE with the same Euler steps and is kept as
    a consistency diagnostic (the product flow * flow_inv_sde drifts from 1
    at rate O(dt)).
    """

    flow: np.ndarray          # (scenarios, steps + 1)
    flow_inv: np.ndarray
    flow_inv_sde: np.ndarray

    def __post_init__(self):
        if not np.isfinite(self.flow).all():
            k = int(np.argwhere(~np.isfinite(self.flow))[0][1])
            raise FloatingPointError(f"fundamental solution non-finite at step {k}")
        if np.any(self.flow[:, 0] != 1.0):
            raise ValueError("fundamental solution must start at 1")

    def inverse_defect(self) -> float:
        """max_k |flow * flow_inv_sde - 1|, the Euler consistency error."""
        return float(np.abs(self.flow * self.flow_inv_sde - 1.0).max())


@dataclass(frozen=True)
class AdjointSolution:
    """Costate paths for both state components.

    px, py : (scenarios, steps + 1) costate values; the terminal slice equals
        the terminal-cost gradient exactly.
    Px, Py : (scenarios, steps, dim) diffusion loadings of the costates.
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


def solve_fundamental(
    field: CoefficientField,
    mu: RelaxedControl,
    bundle: TrajectoryBundle,
    stock: StockModel,
):
    """Forward Euler on the fundamental solutions for both components.

    Reuses the bundle's Brownian increments.  Returns (pair_x, pair_y) where
    the x-pair uses the measure-integrated drift/diffusion slopes and the
    y-pair the stock model's derivatives along the simulated y path.
    """
    tg = bundle.tg
    n, dt = tg.steps, tg.dt
    times = tg.times()
    scen = bundle.scenarios
    flow_x = np.empty((scen, n + 1))
    inv_x = np.empty((scen, n + 1))
    flow_y = np.empty((scen, n + 1))
    inv_y = np.empty((scen, n + 1))
    flow_x[:, 0] = inv_x[:, 0] = flow_y[:, 0] = inv_y[:, 0] = 1.0
    for k in range(n):
        w = mu.weights[k]
        dw = bundle.noise[:, k]
        slo = integrate_against(field.drift_slope_at(k), w, axis=-1)
        vslo = integrate_against(field.vol_slope_at(k), w, axis=-2)
        shock = (vslo * dw).sum(axis=-1)
        quad = (vslo * vslo).sum(axis=-1)
        flow_x[:, k + 1] = flow_x[:, k] * (1.0 + slo * dt + shock)
        inv_x[:, k + 1] = inv_x[:, k] * (1.0 + (quad - slo) * dt - shock)
        yk = bundle.y[:, k]
        bdy = stock.drift_dy(times[k], yk)
        sdy = stock.diffusion_dy(times[k], yk)
        shock_y = (sdy * dw).sum(axis=-1)
        quad_y = (sdy * sdy).sum(axis=-1)
        flow_y[:, k + 1] = flow_y[:, k] * (1.0 + bdy * dt + shock_y)
        inv_y[:, k + 1] = inv_y[:, k] * (1.0 + (quad_y - bdy) * dt - shock_y)
    pair_x = FundamentalPair(flow=flow_x, flow_inv=1.0 / flow_x, flow_inv_sde=inv_x)
    pair_y = FundamentalPair(flow=flow_y, flow_inv=1.0 / flow_y, flow_inv_sde=inv_y)
    return pair_x, pair_y


def _gradient_paths(field, mu, bundle, running):
    """Measure-integrated running-cost gradients along the paths, (S, steps)."""
    tg = bundle.tg
    times = tg.times()
    pts = field.grid.points
    scen = bundle.scenarios
    hx = np.empty((scen, tg.steps))
    hy = np.empty((scen, tg.steps))
    for k in range(tg.steps):
        w = mu.weights[k]
        xk, yk = bundle.x[:, k], bundle.y[:, k]
        hx[:, k] = integrate_against(running.dx(times[k], xk, yk, pts), w, axis=-1)
        hy[:, k] = integrate_against(running.dy(times[k], xk, yk, pts), w, axis=-1)
    return hx, hy


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
    pair_x, pair_y = solve_fundamental(field, mu, bundle, stock)
    hx, hy = _gradient_paths(field, mu, bundle, running)
    tg = bundle.tg
    n, dt = tg.steps, tg.dt
    times = tg.times()
    scen, d = bundle.scenarios, bundle.dim
    xn, yn = bundle.x[:, n], bundle.y[:, n]

    # axis 1 indexes the component: 0 for x, 1 for y
    flow = np.stack([pair_x.flow, pair_y.flow], axis=1)
    flow_inv = np.stack([pair_x.flow_inv, pair_y.flow_inv], axis=1)
    del pair_x, pair_y  # release the unstacked copies before the backward pass
    grad = np.column_stack([terminal.dx(xn, yn), terminal.dy(xn, yn)])
    weighted = flow[:, :, :n] * np.stack([hx, hy], axis=1) * dt
    total = flow[:, :, n] * grad + weighted.sum(axis=2)
    prefix = np.zeros((scen, 2, n + 1))
    np.cumsum(weighted, axis=2, out=prefix[:, :, 1:])
    p = np.empty((scen, 2, n + 1))
    p[:, :, n] = grad
    load = np.empty((scen, 2, n, d))
    mart_next = total
    for k in range(n - 1, -1, -1):
        proj = Projector(bundle.x[:, k], bundle.y[:, k], degree, ridge)
        mart = proj.fit(total)
        p[:, :, k] = (mart - prefix[:, :, k]) * flow_inv[:, :, k]
        incr = (mart_next - mart)[:, :, None] * bundle.noise[:, k, None] / dt
        mart_next = mart
        integrand = proj.fit(incr.reshape(scen, 2 * d)).reshape(scen, 2, d)
        slope = np.stack(np.broadcast_arrays(
            integrate_against(field.vol_slope_at(k), mu.weights[k], axis=-2),
            stock.diffusion_dy(times[k], bundle.y[:, k]),
        ), axis=1)
        load[:, :, k] = flow_inv[:, :, k, None] * integrand - slope * p[:, :, k, None]
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
    tg = bundle.tg
    n, dt = tg.steps, tg.dt
    times = tg.times()
    scen, d = bundle.scenarios, bundle.dim
    x, y, dw = bundle.x, bundle.y, bundle.noise
    pts = field.grid.points

    px = np.empty((scen, n + 1))
    py = np.empty((scen, n + 1))
    Px = np.empty((scen, n, d))
    Py = np.empty((scen, n, d))
    px[:, n] = terminal.dx(x[:, n], y[:, n])
    py[:, n] = terminal.dy(x[:, n], y[:, n])
    for k in range(n - 1, -1, -1):
        w = mu.weights[k]
        xk, yk = x[:, k], y[:, k]
        proj = Projector(xk, yk, degree, ridge)
        nxt = np.column_stack([px[:, k + 1], py[:, k + 1]])
        resid = nxt - proj.fit(nxt)
        loads = proj.fit((resid[:, :, None] * dw[:, k, None]).reshape(scen, 2 * d) / dt)
        Px[:, k], Py[:, k] = loads[:, :d], loads[:, d:]
        slo = integrate_against(field.drift_slope_at(k), w, axis=-1)
        vslo = integrate_against(field.vol_slope_at(k), w, axis=-2)
        hxk = integrate_against(running.dx(times[k], xk, yk, pts), w, axis=-1)
        hyk = integrate_against(running.dy(times[k], xk, yk, pts), w, axis=-1)
        target_x = px[:, k + 1] + (slo * px[:, k + 1] + (vslo * Px[:, k]).sum(-1) + hxk) * dt
        bdy = stock.drift_dy(times[k], yk)
        sdy = stock.diffusion_dy(times[k], yk)
        target_y = py[:, k + 1] + (bdy * py[:, k + 1] + (sdy * Py[:, k]).sum(-1) + hyk) * dt
        px[:, k], py[:, k] = proj.fit(np.column_stack([target_x, target_y])).T
    return AdjointSolution(px=px, Px=Px, py=py, Py=Py, method="regression")


def adjoints_to_csv(adj: AdjointSolution, tg, path) -> None:
    """One row per (scenario, step); loading columns empty at the terminal step."""
    times = tg.times()
    d = adj.Px.shape[2]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["scenario", "step", "t", "px", "py"]
        header += [f"Px{i}" for i in range(d)] + [f"Py{i}" for i in range(d)]
        writer.writerow(header)
        for s in range(adj.px.shape[0]):
            for k in range(tg.steps + 1):
                row = [s, k, repr(float(times[k])),
                       repr(float(adj.px[s, k])), repr(float(adj.py[s, k]))]
                if k < tg.steps:
                    row += [repr(float(v)) for v in adj.Px[s, k]]
                    row += [repr(float(v)) for v in adj.Py[s, k]]
                else:
                    row += [""] * (2 * d)
                writer.writerow(row)
