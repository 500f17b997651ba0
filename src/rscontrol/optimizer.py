"""Conditional-gradient improvement of a control pair.

Each iteration linearizes the cost through the adjoint-based directional
derivative, picks the extreme direction of the feasible set (per-step point
masses for the measure part, bang-bang capped increments for the singular
part), and steps with a diminishing schedule safeguarded by Armijo
backtracking on the common-random-number cost.  All simulations inside one
optimization reuse a single draw of Brownian increments, so accepted steps
never increase the sampled cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .adjoint import _gradient_paths, solve_adjoint_regression
from .adjoint import solve_adjoint_phi  # noqa: F401  (perfbench wraps this module attribute)
from .dynamics import CoefficientField, TrajectoryBundle, _euler_paths, coefficient_integrals
from .maxprinciple import VariationalDerivative, _derivative, _mean_argmax, _mean_stderr
from .maxprinciple import gap_tolerance, slack_paths
from .maxprinciple import variational_derivative  # noqa: F401  (perfbench wraps this module attribute)
from .measures import RelaxedControl, SingularControl, combine_singular, convex_combine
from .measures import integrate_against, stieltjes_integral  # noqa: F401  (perfbench wraps integrate_against)
from .problems import ControlProblem, RunningCost, TerminalCost, _running_rows


SINGULAR_RATE = 1.0   # the singular direction's max increment per unit time and component
ARMIJO_C1 = 1e-4      # sufficient-decrease fraction of the linearized decrease theta * gap


@dataclass(frozen=True)
class CostEstimate:
    """Monte Carlo cost estimate; non-finite scenarios are excluded and counted."""

    value: float
    stderr: float
    excluded: int
    samples: np.ndarray = field(repr=False)


def evaluate_cost(
    bundle: TrajectoryBundle,
    running: RunningCost,
    k_path: np.ndarray,
    terminal: TerminalCost,
    fieldref: CoefficientField,
) -> CostEstimate:
    """Sample mean and standard error of the cost functional.

    Left-point quadrature of the running cost integrated against the relaxed
    control on the field's grid points, plus the singular cost against the
    jump increments, plus the terminal cost.
    """
    pts = fieldref.grid.points
    run = np.zeros(bundle.scenarios)
    for _, rows in _running_rows(running.value, bundle, pts, bundle.mu.weights):
        for row in rows:
            run += row * bundle.tg.dt
    samples = run + stieltjes_integral(k_path, bundle.xi) + terminal.value(
        bundle.x[:, -1], bundle.y[:, -1]
    )
    finite = np.isfinite(samples)
    excluded = int(bundle.scenarios - finite.sum())
    if excluded == bundle.scenarios:
        raise FloatingPointError("every cost sample is non-finite")
    value, se = _mean_stderr(samples[finite])
    return CostEstimate(value=value, stderr=se, excluded=excluded, samples=samples)


@dataclass(frozen=True)
class FirstVariation:
    """State sensitivities to a convex perturbation of the controls.

    ``alpha_x`` and ``alpha_y`` respond to the singular direction, ``beta``
    to the measure direction; all start at zero.
    """

    alpha_x: np.ndarray   # (scenarios, steps + 1), step-major
    alpha_y: np.ndarray
    beta: np.ndarray


def solve_first_variation(
    fieldref: CoefficientField,
    mu: RelaxedControl,
    bundle: TrajectoryBundle,
    stock,
    direction,
) -> FirstVariation:
    """Forward Euler on the three linear sensitivity equations.

    The alpha equations carry the coefficient slopes at the base measure and
    are driven by the jump gains against (eta - xi); beta carries the same
    homogeneous part and is driven by the drift/diffusion increments from
    replacing the base measure by the direction measure along the base path.
    Each is a path from 0 of the forward Euler loop (``_euler_paths``) on the
    bundle's noise: alpha with zero levels and the direction's jumps, beta the
    x path with those increments as levels.  A sensitivity that overflows
    raises NonFiniteStateError naming its step (x for alpha_x and beta).
    """
    q, eta = direction
    n, zero = bundle.tg.steps, np.zeros(bundle.tg.steps)
    gains = np.stack([fieldref.jump_gain_x, fieldref.jump_gain_y], axis=1)
    jump = (gains * (eta.increments - bundle.xi.increments)[:, None]).sum(axis=-1)
    _, slo, _, vslo = at_mu = coefficient_integrals(fieldref, mu)
    d_lev, d_slo, d_vlev, d_vslo = (b - a for a, b in zip(at_mu, coefficient_integrals(fieldref, q)))
    alpha_x, alpha_y = _euler_paths((zero[None], slo, np.zeros((1, n, bundle.dim)), vslo),
                                    jump.T, 0.0, 0.0, stock, bundle.tg, bundle.noise)
    x = bundle.x[:, :n]
    drift_diff = np.add(d_lev, np.multiply(d_slo, x, order="F"), order="F")
    vol_diff = np.add(d_vlev, np.multiply(d_vslo, x[:, :, None], order="F"), order="F")
    beta, _ = _euler_paths((drift_diff, slo, vol_diff, vslo), (zero, zero), 0.0, 0.0, stock,
                           bundle.tg, bundle.noise)
    return FirstVariation(alpha_x=alpha_x, alpha_y=alpha_y, beta=beta)


def first_variation_derivative(
    fieldref: CoefficientField,
    bundle: TrajectoryBundle,
    fv: FirstVariation,
    running: RunningCost,
    terminal: TerminalCost,
    k_path: np.ndarray,
    direction,
) -> VariationalDerivative:
    """Directional derivative assembled from the first-variation processes.

    The singular addend pairs the terminal/running gradients with the alpha
    sensitivities plus the direct singular cost; the measure addend pairs the
    x-gradients with beta plus the running-cost increment of the direction
    measure.  An independent estimate of the same quantity as
    :func:`rscontrol.maxprinciple.variational_derivative`.
    """
    q, eta = direction
    dt = bundle.tg.dt
    pts = fieldref.grid.points
    xn, yn = bundle.x[:, -1], bundle.y[:, -1]
    gx = terminal.dx(xn, yn)
    gy = terminal.dy(xn, yn)
    h = _gradient_paths(fieldref, bundle.mu, bundle, running)

    singular = gx * fv.alpha_x[:, -1] + gy * fv.alpha_y[:, -1]
    measure = gx * fv.beta[:, -1]
    for start, rows in _running_rows(running.value, bundle, pts, q.weights - bundle.mu.weights):
        for k, h_dq in enumerate(rows, start):
            singular += (h[:, 0, k] * fv.alpha_x[:, k] + h[:, 1, k] * fv.alpha_y[:, k]) * dt
            measure += (h[:, 0, k] * fv.beta[:, k] + h_dq) * dt
    delta = eta.increments - bundle.xi.increments
    singular = singular + float(np.sum(k_path * delta))
    return VariationalDerivative.from_samples(singular, measure)


@dataclass(frozen=True)
class OptimizerOptions:
    """Knobs for the conditional-gradient loop: the iteration and halving
    budgets, and the regression adjoint's basis degree and ridge."""

    max_iter: int = 50
    max_halvings: int = 12
    adjoint_degree: int = 2
    ridge: float = 1e-8


@dataclass(frozen=True)
class IterationRecord:
    """Post-iteration snapshot appended to the optimization trace."""

    iteration: int
    cost: float
    cost_stderr: float
    gap: float
    gap_stderr: float
    theta: float
    accepted: bool
    halvings: int = 0         # Armijo trial steps rejected in this iteration


@dataclass(frozen=True)
class IterationState:
    """Current control pair with its sampled cost and last duality gap."""

    mu: RelaxedControl
    xi: SingularControl
    bundle: TrajectoryBundle = field(repr=False)
    cost: float = np.nan
    cost_stderr: float = 0.0
    gap: float = np.inf
    gap_stderr: float = 0.0
    iteration: int = 0
    converged: bool = False   # set only when the duality gap is within tolerance
    reason: str = ""          # why the loop stopped; empty while it runs


def _singular_direction(mean_slack: np.ndarray, rate: float, dt: float, cap: float) -> SingularControl:
    """Extreme point of the capped increment set against the mean slack.

    Fills the most negative slack entries first at the per-step rate cap
    until the total-variation budget is exhausted; entries with nonnegative
    slack stay at zero.
    """
    inc = np.zeros_like(mean_slack)
    tiny = 1e-12 * (1.0 + float(np.abs(mean_slack).max(initial=0.0)))
    order = np.argsort(mean_slack, axis=None)
    budget = cap
    per_step = rate * dt
    for flat in order:
        if mean_slack.flat[flat] >= -tiny or budget <= 0.0:
            break
        amount = min(per_step, budget)
        inc.flat[flat] = amount
        budget -= amount
    return SingularControl(inc, tv_cap=cap)


def frank_wolfe_iterate(
    state: IterationState,
    problem: ControlProblem,
    fieldref: CoefficientField,
    noise: np.ndarray,
    options: OptimizerOptions | None = None,
    threads: int = 1,
):
    """One conditional-gradient iteration.

    Computes regression adjoints for the current pair, builds the extreme
    descent direction, and steps with the 2/(n+2) schedule backed off by
    Armijo halving on the fixed-noise cost.  Returns (state, record); the
    state's ``reason`` is set when the loop should stop (gap within
    ``gap_tolerance``, which also sets ``converged``, or no halving produces
    descent).  Each Armijo trial re-simulates over ``threads`` scenario chunks.
    """
    opts = options or OptimizerOptions()
    adj = solve_adjoint_regression(
        fieldref, state.mu, state.bundle, problem.running, problem.terminal,
        problem.stock, opts.adjoint_degree, opts.ridge,
    )
    slack = slack_paths(fieldref, problem.k_path, adj)
    eta_star = _singular_direction(slack.mean(axis=0), SINGULAR_RATE, problem.tg.dt,
                                   problem.tv_cap)
    # one Hamiltonian sweep gives both the vertex q* (per-step point mass at
    # the scenario-mean maximizer) and its shortfall against the control
    q_rows = np.zeros_like(state.mu.weights)
    deriv = _derivative(fieldref, state.bundle, adj, problem.running, slack,
                        eta_star.increments, _mean_argmax(q_rows))
    del adj, slack   # the Armijo re-simulations read neither
    q_star = RelaxedControl(q_rows)
    gap = -deriv.total + 0.0   # normalize -0.0
    gap_se = deriv.stderr

    theta, halvings = 0.0, 0
    if gap <= gap_tolerance(gap_se):
        new = replace(state, gap=gap, gap_stderr=gap_se, converged=True,
                      reason="duality gap within tolerance")
    else:
        theta = min(1.0, 2.0 / (state.iteration + 2.0))
        for halvings in range(opts.max_halvings + 1):
            mu_new = convex_combine(state.mu, q_star, theta)
            xi_new = combine_singular(state.xi, eta_star, theta)
            bundle_new = problem.simulate(fieldref, mu_new, xi_new, noise, threads=threads)
            cost_new = evaluate_cost(
                bundle_new, problem.running, problem.k_path, problem.terminal, fieldref=fieldref
            )
            bound = state.cost - ARMIJO_C1 * theta * gap + 1e-12 * (1.0 + abs(state.cost))
            if cost_new.value <= bound:
                new = IterationState(
                    mu=mu_new, xi=xi_new, bundle=bundle_new,
                    cost=cost_new.value, cost_stderr=cost_new.stderr,
                    gap=gap, gap_stderr=gap_se,
                    iteration=state.iteration + 1,
                )
                break
            theta *= 0.5
        else:
            theta, halvings = 0.0, opts.max_halvings + 1
            new = replace(state, gap=gap, gap_stderr=gap_se,
                          reason="no descent step within halving budget")
    return new, IterationRecord(
        iteration=new.iteration, cost=new.cost, cost_stderr=new.cost_stderr,
        gap=gap, gap_stderr=gap_se, theta=theta, accepted=not new.reason,
        halvings=halvings,
    )


@dataclass(frozen=True)
class OptimizeResult:
    state: IterationState
    records: list
    fieldref: CoefficientField = field(repr=False)


def optimize_problem(
    problem: ControlProblem,
    scenarios: int,
    seed: int,
    mu0: RelaxedControl | None = None,
    xi0: SingularControl | None = None,
    options: OptimizerOptions | None = None,
    threads: int = 1,
) -> OptimizeResult:
    """Run the conditional-gradient loop from the given (or default) controls.

    One noise draw and one coefficient field are shared by the whole run, so
    the iteration trace is deterministic in (problem, scenarios, seed).
    """
    opts = options or OptimizerOptions()
    noise = problem.noise(scenarios, seed)
    fieldref = problem.sample_field(scenarios, seed, noise)
    mu, xi = problem.default_controls()
    mu = mu0 if mu0 is not None else mu
    xi = xi0 if xi0 is not None else xi
    bundle = problem.simulate(fieldref, mu, xi, noise, threads=threads)
    cost = evaluate_cost(bundle, problem.running, problem.k_path, problem.terminal, fieldref=fieldref)
    state = IterationState(mu=mu, xi=xi, bundle=bundle, cost=cost.value, cost_stderr=cost.stderr)
    records: list[IterationRecord] = []
    while not state.reason and state.iteration < opts.max_iter:
        state, record = frank_wolfe_iterate(state, problem, fieldref, noise, opts, threads)
        records.append(record)
    if not state.reason:
        state = replace(state, reason="max iterations reached")
    return OptimizeResult(state=state, records=records, fieldref=fieldref)
