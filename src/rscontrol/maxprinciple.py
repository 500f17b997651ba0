"""Hamiltonian evaluation and verification of the optimality conditions.

The Hamiltonian is affine in the measure, so its supremum over probability
measures on the grid is attained at a point mass; the verifier therefore
reduces the measure supremum to a finite maximum over grid points.  One
evaluator, ``_hamiltonian_block``, serves the optimizer, the directional
derivative and the verifier: H is affine in (p, p x, P, P x) times the
field's scenario factors, so a block of steps is one stacked matrix product,
and ``hamiltonian_slice`` is its one-step case.  Every use is a sweep of
block evaluations along the paths, accumulating in step order the
per-scenario shortfall of H at the control against H at a compared measure:
the direction's measure (the derivative), the pointwise grid maximum (the
verifier) or the point mass at the scenario-mean maximizer (the optimizer's
vertex).  The block size changes no bit of the result.  Three statistics
are reported: the integrated Hamiltonian gap, the minimum of the singular
slack ``k + gain_x * px + gain_y * py``, and the complementarity mass placed
where that slack is strictly positive.

The conditions are almost-sure, pathwise statements.  Controls in this
package are deterministic time paths, so on problems whose Hamiltonian
ranking genuinely varies across scenarios (random coefficients) the best
deterministic control can satisfy the conditions only in scenario-mean form;
the report then quantifies the pathwise violation rather than hiding it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .adjoint import AdjointSolution
from .dynamics import CoefficientField, TrajectoryBundle
from .measures import _integrate, integrate_against  # noqa: F401  (perfbench wraps integrate_against)
from .problems import RunningCost, _running_table


# The statistical tolerances of the three optimality conditions: the gap's is
# GAP_SE_MULTIPLIER standard errors of its estimate plus a numerical floor;
# slack's and complementarity's are relative to the costate scale and to the
# total variation of xi.
GAP_SE_MULTIPLIER = 3.0
GAP_FLOOR = 1e-10
SLACK_SCALE = 1e-6
COMP_SCALE = 1e-6

# values per block array: sweeps and running-cost integrals take ``_sweep_steps``
# steps at a time, so one (steps, S, count) block of H or running costs is 0.5 MB
SWEEP_BUDGET = 65536


@dataclass(frozen=True)
class HamiltonianSlice:
    """Per-grid-point Hamiltonian values at one time step plus the measure value."""

    values: np.ndarray   # (..., count)
    at_mu: np.ndarray    # (...)


def _hamiltonian_block(fieldref, start, stop, x, y, p, P, running, weights, times):
    """Per-point values (m, S, count) and measure values (m, S) of H at the
    m = stop - start steps start..stop-1, each step bit for bit as if alone.

    H(u) = -p * (level(u) + slope(u) x) - P . (vol_level(u) + vol_slope(u) x)
           - h(t, x, y, u);  the measure value integrates these against the
    step's measure row.

    Each feature (p, p x, P, P x) times a term's scenario factor is a row of
    an (m, f, S) feature stack, multiplied step by step by the terms' (m, f,
    count) point-table rows in one stacked matrix product.  ``x, y, p`` are
    (S|1, m), ``P`` is (S|1, m, dim), ``weights`` holds the m measure rows and
    ``times`` the m step times.
    """
    if not all(np.isfinite(a).all() for a in (x, y, p, P)):
        raise ValueError("non-finite inputs to the Hamiltonian")
    m = stop - start
    PT = P.transpose(1, 2, 0)
    # one feature block (1, dim or S wide) and one table row block per term;
    # a shared scenario factor is folded into the table rows
    factors = ((fieldref.drift_level, p.T[:, None]), (fieldref.drift_slope, (p * x).T[:, None]),
               (fieldref.vol_level, PT), (fieldref.vol_slope, PT * x.T[:, None]))
    cols, rows = [], []
    for coeff, g in factors:
        for A, B in coeff.terms:
            row = B[start:stop].reshape(m, B.shape[1], -1).transpose(0, 2, 1)
            cols.append(g if len(A) == 1 else g * A[:, start:stop].T[:, None])
            rows.append(A[0, start:stop, None, None] * row if len(A) == 1 else row)
    rows = np.concatenate(rows, axis=1)
    features = np.empty((m, rows.shape[1], max(col.shape[2] for col in cols)))
    i = 0
    for col in cols:
        features[:, i:i + col.shape[1]] = col
        i += col.shape[1]
    values = np.matmul(features.transpose(0, 2, 1), rows)
    np.negative(values, out=values)
    if values.shape[1] < max(len(x), len(y)):   # scalar costates: only the running cost spans S
        values = np.repeat(values, max(len(x), len(y)), axis=1)
    values -= _running_table(running.value, times, x, y, fieldref.grid.points)
    return values, _integrate(values, weights)


def hamiltonian_slice(
    fieldref: CoefficientField,
    k: int,
    x,
    y,
    p,
    P,
    running: RunningCost,
    mu_row: np.ndarray,
    t: float,
) -> HamiltonianSlice:
    """Evaluate H per grid point at step k for given states and costates: the
    one-step case of the block evaluator.

    ``x, y, p`` may be scalars or (scenarios,); ``P`` is (dim,) or
    (scenarios, dim).
    """
    xv, yv, pv = (np.atleast_1d(np.asarray(a, dtype=float))[:, None] for a in (x, y, p))
    Pv = np.asarray(P, dtype=float)
    Pv = (Pv[None] if Pv.ndim == 1 else Pv)[:, None]
    values, at_mu = _hamiltonian_block(fieldref, k, k + 1, xv, yv, pv, Pv, running,
                                       np.asarray(mu_row, dtype=float)[None], np.array([t], float))
    if np.ndim(x) == 0 and values.shape[1] == 1:
        return HamiltonianSlice(values=values[0, 0], at_mu=at_mu[0].reshape(()))
    return HamiltonianSlice(values=values[0], at_mu=at_mu[0])


def _shortfall(fieldref, bundle, adj, running, compared) -> np.ndarray:
    """Per-scenario sum over steps of (H(mu[k]) - compared value) dt.

    Sweeps the paths ``_sweep_steps`` steps at a time;
    ``compared(start, values)`` reads a block's (m, S) compared values off its
    (m, S, count) per-point values.  The sum runs in step order.
    """
    times = bundle.tg.times()
    dt = bundle.tg.dt
    n = bundle.tg.steps
    block = _sweep_steps(bundle.scenarios, fieldref.grid.count)
    out = np.zeros(bundle.scenarios)
    for start in range(0, n, block):
        stop = min(start + block, n)
        values, at_mu = _hamiltonian_block(
            fieldref, start, stop,
            bundle.x[:, start:stop], bundle.y[:, start:stop],
            adj.px[:, start:stop], adj.Px[:, start:stop],
            running, bundle.mu.weights[start:stop], times[start:stop],
        )
        for diff in at_mu - compared(start, values):
            out += diff * dt
    return out


def _sweep_steps(scenarios: int, count: int) -> int:
    """Steps per block of sweeps and running-cost integrals: ``max(1, SWEEP_BUDGET // (S * count))``."""
    return max(1, SWEEP_BUDGET // (scenarios * count))


def _grid_max(start, values) -> np.ndarray:
    """The verifier's compared values: the pointwise grid maximum, a running
    ``np.maximum`` over the point columns (exact, like ``max``)."""
    top = values[..., 0].copy()
    for c in range(1, values.shape[-1]):
        np.maximum(top, values[..., c], out=top)
    return top


def _against(weights: np.ndarray):
    """The derivative's compared values: H integrated against the direction's
    measure rows ``weights`` (steps, count)."""
    return lambda start, values: _integrate(values, weights[start:start + len(values)])


def _mean_argmax(q_rows: np.ndarray):
    """The Frank–Wolfe vertex's compared values: each step's point mass at
    the first maximizer of the scenario-mean H is written into the zeroed
    ``q_rows`` (steps, count), and H is integrated against it."""

    def compared(start, values):
        stop = start + len(values)
        q_rows[np.arange(start, stop), _scenario_mean(values).argmax(axis=1)] = 1.0
        return _integrate(values, q_rows[start:stop])

    return compared


def _scenario_mean(values: np.ndarray) -> np.ndarray:
    """``values.mean(axis=1)`` of an (m, S, count) block, bit for bit when
    count > 1: the scenario-major copy adds the same rows in the same order,
    in inner loops m * count long instead of count long.  (At count 1 numpy
    sums the contiguous scenarios pairwise; the argmax is 0 either way.)"""
    m, scen, count = values.shape
    rows = np.ascontiguousarray(values.transpose(1, 0, 2)).reshape(scen, m * count)
    return (rows.sum(axis=0) / scen).reshape(m, count)


def slack_paths(fieldref, k_path: np.ndarray, adj: AdjointSolution) -> np.ndarray:
    """Singular slack k + gain_x * px + gain_y * py, shape (scenarios, steps, dim),
    C-ordered whatever the costates' layout: the callers' einsums sum in memory order."""
    n, dim = k_path.shape
    slack = np.empty((adj.px.shape[0], n, dim))
    for j in range(dim):
        slack[:, :, j] = (k_path[:, j] + fieldref.jump_gain_x[:, j] * adj.px[:, :n]
                          + fieldref.jump_gain_y[:, j] * adj.py[:, :n])
    return slack


def gap_tolerance(stderr: float) -> float:
    """The largest duality or Hamiltonian gap that passes, given the standard
    error of its estimate: the Frank–Wolfe stop test and the verifier's."""
    return GAP_SE_MULTIPLIER * stderr + GAP_FLOOR


def _mean_stderr(samples: np.ndarray) -> tuple[float, float]:
    """Sample mean and its standard error (0 for a single sample)."""
    n = samples.shape[0]
    return float(samples.mean()), (float(samples.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0)


@dataclass(frozen=True)
class VariationalDerivative:
    """Monte Carlo directional-derivative estimate with its two addends.

    ``singular_term`` integrates the slack against the singular direction;
    ``measure_term`` integrates the Hamiltonian shortfall of the measure
    direction.  ``samples`` are per-scenario values of the total.
    """

    total: float
    singular_term: float
    measure_term: float
    stderr: float
    samples: np.ndarray = field(repr=False)

    @staticmethod
    def from_samples(singular, measure) -> "VariationalDerivative":
        samples = singular + measure
        total, se = _mean_stderr(samples)
        return VariationalDerivative(
            total=total,
            singular_term=float(singular.mean()),
            measure_term=float(measure.mean()),
            stderr=se,
            samples=samples,
        )


def _derivative(fieldref, bundle, adj, running, slack, increments, compared) -> VariationalDerivative:
    """The slack against the singular direction's ``increments`` less xi's, plus
    the shortfall of H at the control against ``compared`` (see ``_shortfall``)."""
    singular = np.einsum("snd,nd->s", slack, increments - bundle.xi.increments)
    measure = _shortfall(fieldref, bundle, adj, running, compared)
    return VariationalDerivative.from_samples(singular, measure)


def variational_derivative(
    fieldref: CoefficientField,
    bundle: TrajectoryBundle,
    adj: AdjointSolution,
    running: RunningCost,
    k_path: np.ndarray,
    direction,
) -> VariationalDerivative:
    """Directional derivative of the cost along a convex perturbation.

    ``direction`` is a pair (q, eta).  The estimate is

        E sum_k slack[k] . (d_eta[k] - d_xi[k])
        + E sum_k (H(mu[k]) - H(q[k])) dt

    evaluated pathwise with the supplied adjoints; it vanishes identically in
    the direction (mu, xi) and is nonnegative in every direction at an
    optimum.
    """
    q, eta = direction
    if q.weights.shape != bundle.mu.weights.shape:
        raise ValueError("measure direction does not match the control shape")
    if eta.increments.shape != bundle.xi.increments.shape:
        raise ValueError("singular direction does not match the control shape")
    return _derivative(fieldref, bundle, adj, running, slack_paths(fieldref, k_path, adj),
                       eta.increments, _against(q.weights))


@dataclass(frozen=True)
class OptimalityReport:
    """Pass/fail verdict for the pointwise maximum condition, slack
    nonnegativity and complementarity, with the underlying statistics."""

    hamiltonian_gap: float
    gap_stderr: float
    gap_tolerance: float
    slack_min: float
    slack_tolerance: float
    complementarity_violation: float
    comp_tolerance: float
    costate_scale: float
    xi_total_variation: float
    pass_hamiltonian: bool
    pass_slack: bool
    pass_complementarity: bool

    @property
    def passed(self) -> bool:
        return self.pass_hamiltonian and self.pass_slack and self.pass_complementarity

    def to_json(self) -> dict:
        return {**asdict(self), "passed": self.passed}

    def render_table(self) -> str:
        rows = [
            ("hamiltonian gap", self.hamiltonian_gap, f"<= {self.gap_tolerance:.3e}",
             self.pass_hamiltonian),
            ("slack minimum", self.slack_min, f">= {-self.slack_tolerance:.3e}",
             self.pass_slack),
            ("complementarity", self.complementarity_violation,
             f"<= {self.comp_tolerance:.3e}", self.pass_complementarity),
        ]
        lines = [f"{'condition':<18} {'value':>14} {'tolerance':>16} {'status':>8}"]
        for name, value, tol, ok in rows:
            lines.append(f"{name:<18} {value:>14.6e} {tol:>16} {'PASS' if ok else 'FAIL':>8}")
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def check_max_principle(
    fieldref: CoefficientField,
    bundle: TrajectoryBundle,
    adj: AdjointSolution,
    running: RunningCost,
    k_path: np.ndarray,
) -> OptimalityReport:
    """Evaluate the three necessary optimality conditions on a solved state.

    The grid maximum stands in for the supremum over measures (the
    Hamiltonian is affine in the measure), and the almost-sure conditions are
    verified up to statistical tolerances derived from the sample.
    """
    # the gap samples are minus the shortfall against the grid maximum
    mean, gap_se = _mean_stderr(_shortfall(fieldref, bundle, adj, running, _grid_max))
    gap = -mean + 0.0   # normalize -0.0
    gap_tol = gap_tolerance(gap_se)

    slack = slack_paths(fieldref, k_path, adj)
    slack_min = float(slack.min())
    px2, py2 = (np.square(p, order="C") for p in (adj.px, adj.py))   # summed in memory order
    scale = float(np.sqrt(np.mean(px2) + np.mean(py2)))
    slack_tol = SLACK_SCALE * scale

    over = slack > slack_tol
    comp_samples = np.einsum("snd,nd->s", over.astype(float), bundle.xi.increments)
    violation = float(comp_samples.mean())
    comp_tol = COMP_SCALE * bundle.xi.total_variation

    return OptimalityReport(
        hamiltonian_gap=gap,
        gap_stderr=gap_se,
        gap_tolerance=gap_tol,
        slack_min=slack_min,
        slack_tolerance=slack_tol,
        complementarity_violation=violation,
        comp_tolerance=comp_tol,
        costate_scale=scale,
        xi_total_variation=bundle.xi.total_variation,
        pass_hamiltonian=gap <= gap_tol,
        pass_slack=slack_min >= -slack_tol,
        pass_complementarity=violation <= comp_tol,
    )
