"""Shared toy problem instances with known structure.

drift_control_toy: the drift carries the action, costs are deterministic in
the state, so the relaxed optimum is a constant point mass computable by
enumeration and the costates are deterministic.

rich_toy: action-dependent drift level/slope and diffusion level, quadratic
terminal cost and affine running cost; the true costates are polynomials of
the states, so the degree-2 regression basis is exact and the two adjoint
methods can be compared without model bias.

coefficient_fields: one field of each stored form (shared tables,
per-scenario tables, the bond market) for checks against per-point formulas.

path_slopes, rate_paths: reference reads of a field's linearization along
the paths and of the bond market's short-rate and price-of-risk paths.

window_toy: zero singular cost with a jump gain active only inside a
mid-horizon window, creating a constructed negative-slack region that an
optimal singular control must fill exclusively.
"""

from __future__ import annotations

import numpy as np

import rscontrol as rc


def drift_control_toy(steps=100, horizon=1.0, points=9, k_level=10.0,
                      gx1=0.5, gy1=0.2, quad=1.0, vol=0.2):
    """dx = u dt + vol dW1, h = quad*u^2/2, g = gx1*x + gy1*y, GBM second leg.

    The relaxed optimum is the constant point mass at
    argmin_u (quad*u^2/2 + gx1*u); with the default grid that is u = -0.5.
    """
    tg = rc.TimeGrid(horizon, steps)
    pts = np.linspace(-1.0, 1.0, points)
    grid = rc.ActionGrid(pts)
    return rc.ControlProblem(
        tg=tg, grid=grid, dim=2, x0=1.0, y0=1.0,
        coefficients={
            "model": "deterministic-constant", "dim": 2,
            "drift_level": pts,
            "vol_level": [vol, 0.0],
            "jump_gain_x": [1.0, 0.0],
            "jump_gain_y": [0.0, 1.0],
        },
        stock=rc.linear_stock(0.05, 0.2, 2),
        running=rc.affine_quadratic_running(quad=quad),
        terminal=rc.linear_quadratic_terminal(gx1=gx1, gy1=gy1),
        k_path=np.full((steps, 2), k_level),
    )


def drift_control_optimum_index(problem) -> int:
    """Grid index minimizing the per-step cost rate quad*u^2/2 + gx1*u."""
    pts = problem.grid.flat()
    xn = problem.x0 * np.ones(1)
    # rate at u: running cost plus the terminal-gradient-weighted drift
    gx1 = float(problem.terminal.dx(xn, xn)[0])
    rate = 0.5 * pts * pts + gx1 * pts
    return int(np.argmin(rate))


def rich_toy(steps=100, horizon=1.0, points=5):
    """Affine coefficients varying over the action; diffusion slope kept zero
    so the degree-2 regression is exact for both adjoint methods."""
    tg = rc.TimeGrid(horizon, steps)
    pts = np.linspace(-1.0, 1.0, points)
    grid = rc.ActionGrid(pts)
    return rc.ControlProblem(
        tg=tg, grid=grid, dim=2, x0=1.0, y0=1.0,
        coefficients={
            "model": "deterministic-constant", "dim": 2,
            "drift_level": 0.3 * pts,
            "drift_slope": -0.2 + 0.1 * pts,
            "vol_level": np.column_stack([0.15 + 0.1 * pts, np.zeros(points)]),
            "jump_gain_x": [0.8, -0.5],
            "jump_gain_y": [-0.3, 0.7],
        },
        stock=rc.linear_stock(0.05, 0.2, 2),
        running=rc.affine_quadratic_running(cx=0.2, cy=0.1, quad=0.5),
        terminal=rc.linear_quadratic_terminal(gx1=0.5, gx2=0.3, gy1=0.3, gy2=0.2),
        k_path=np.full((steps, 2), 0.05),
    )


def window_toy(steps=90, horizon=1.0, points=5, slope=-0.3):
    """Zero singular cost; the x jump gain is 1 inside [T/3, 2T/3) and 0
    outside, and the terminal gradient is ``slope``, so the singular slack is
    ``slope`` inside the window and exactly 0 elsewhere."""
    tg = rc.TimeGrid(horizon, steps)
    pts = np.linspace(-1.0, 1.0, points)
    grid = rc.ActionGrid(pts)
    gain = np.zeros((steps, 1))
    lo, hi = steps // 3, 2 * steps // 3
    gain[lo:hi, 0] = 1.0
    return rc.ControlProblem(
        tg=tg, grid=grid, dim=1, x0=1.0, y0=0.0,
        coefficients={
            "model": "deterministic-constant", "dim": 1,
            "drift_level": pts,
            "vol_level": [0.1],
            "jump_gain_x": gain,
            "jump_gain_y": np.zeros((steps, 1)),
        },
        stock=rc.inert_stock(1),
        running=rc.affine_quadratic_running(quad=1.0),
        terminal=rc.linear_quadratic_terminal(gx1=slope),
        k_path=np.zeros((steps, 1)),
        tv_cap=10.0,
    ), lo, hi


def mean_argmax_vertex(field, bundle, adj, running) -> rc.RelaxedControl:
    """Per-step point mass at the argmax of the scenario-mean Hamiltonian,
    built slice by slice from ``hamiltonian_slice``."""
    times = bundle.tg.times()
    idx = [np.argmax(rc.hamiltonian_slice(field, k, bundle.x[:, k], bundle.y[:, k],
                                          adj.px[:, k], adj.Px[:, k], running,
                                          bundle.mu.weights[k], times[k]).values.mean(axis=0))
           for k in range(bundle.tg.steps)]
    return rc.RelaxedControl.from_indices(np.array(idx), field.grid.count)


def random_admissible_controls(rng, steps, count, dim, tv_cap=10.0, scale=0.004):
    """Random measure rows (Dirichlet) and random capped increments."""
    mu = rc.RelaxedControl(rng.dirichlet(np.ones(count), size=steps))
    inc = rng.uniform(0.0, scale, size=(steps, dim))
    total = inc.sum()
    if total > 0.5 * tv_cap:
        inc *= 0.5 * tv_cap / total
    xi = rc.SingularControl(inc, tv_cap=tv_cap)
    return mu, xi


def coefficient_fields(rng, scenarios=6, steps=5, points=4):
    """(name, field) for a shared dense field, a per-scenario tabulated field
    and the bond-market field, all on two Brownian axes with random tables."""
    tg = rc.TimeGrid(1.0, steps)
    grid = rc.ActionGrid(np.linspace(-1.0, 1.0, points))

    def tables(lead):
        return dict(
            drift_level=rng.normal(size=lead + (steps, points)),
            drift_slope=rng.normal(size=lead + (steps, points)) * 0.3,
            vol_level=rng.normal(size=lead + (steps, points, 2)) * 0.2,
            vol_slope=rng.normal(size=lead + (steps, points, 2)) * 0.1,
        )

    market = rc.MarketModel(volatility="hull-white", sigma=0.02, mean_reversion=0.1,
                            maturities=[1.0, 2.0, 4.0], consumption=[0.01, 0.05, 0.15])
    bond = rc.build_portfolio_problem(market, rc.PortfolioParams(), tg).problem
    return [
        ("shared dense", rc.dense_field(tg, grid, scenarios, 2, **tables(()))),
        ("per-scenario tabulated", rc.dense_field(tg, grid, scenarios, 2, **tables((scenarios,)))),
        ("finance", bond.sample_field(scenarios, int(rng.integers(0, 2**31)))),
    ]


def path_slopes(integrals, bundle, stock):
    """The linearization of both state components at steps 0, ..., n-1, as
    a list of C-ordered drift slopes (S, 2) and diffusion slopes (S, 2, dim):
    component 0 is x, with the slopes of ``integrals``
    (``coefficient_integrals(field, mu)``), and component 1 the linear stock
    y, with its constant ``drift`` and ``vol``."""
    _, slope, _, vol_slope = integrals
    scen, dim = bundle.scenarios, bundle.dim
    out = []
    for k in range(bundle.tg.steps):
        drift, vol = np.empty((scen, 2)), np.empty((scen, 2, dim))
        drift[:, 0], drift[:, 1] = slope[:, k], stock.drift
        vol[:, 0], vol[:, 1] = vol_slope[:, k], stock.vol
        out.append((drift, vol))
    return out


def rate_paths(field):
    """The bond market's short-rate and price-of-risk paths, (S|1, steps)
    each: the scenario factors of the first two drift-slope terms."""
    (rate, _), (theta, _), _ = field.drift_slope.terms
    return rate, theta
