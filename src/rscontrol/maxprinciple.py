"""Hamiltonian evaluation and verification of the optimality conditions.

The Hamiltonian is affine in the measure, so its supremum over probability
measures on the grid is attained at a point mass; the verifier therefore
reduces the measure supremum to a finite maximum over grid points.  Three
statistics are reported: the integrated Hamiltonian gap, the minimum of the
singular slack ``k + gain_x * px + gain_y * py``, and the complementarity
mass placed where that slack is strictly positive.

The conditions are almost-sure, pathwise statements.  Controls in this
package are deterministic time paths, so on problems whose Hamiltonian
ranking genuinely varies across scenarios (random coefficients) the best
deterministic control can satisfy the conditions only in scenario-mean form;
the report then quantifies the pathwise violation rather than hiding it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .adjoint import AdjointSolution
from .dynamics import CoefficientField, TrajectoryBundle
from .measures import integrate_against
from .problems import RunningCost


@dataclass(frozen=True)
class HamiltonianSlice:
    """Per-grid-point Hamiltonian values at one time step plus the measure value."""

    values: np.ndarray   # (..., count)
    at_mu: np.ndarray    # (...)


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
    """Evaluate H per grid point at step k for given states and costates.

    H(u) = -p * (level(u) + slope(u) x) - P . (vol_level(u) + vol_slope(u) x)
           - h(t, x, y, u);  the measure value integrates these against mu_row.

    ``x, y, p`` may be scalars or (scenarios,); ``P`` is (dim,) or
    (scenarios, dim).
    """
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    yv = np.atleast_1d(np.asarray(y, dtype=float))
    pv = np.atleast_1d(np.asarray(p, dtype=float))
    Pv = np.asarray(P, dtype=float)
    if Pv.ndim == 1:
        Pv = Pv[None, :]
    if not (np.isfinite(xv).all() and np.isfinite(pv).all() and np.isfinite(Pv).all()):
        raise ValueError("non-finite inputs to the Hamiltonian")
    lev = fieldref.drift_level_at(k)
    slo = fieldref.drift_slope_at(k)
    vlev = fieldref.vol_level_at(k)
    vslo = fieldref.vol_slope_at(k)
    drift_pt = lev + slo * xv[:, None]
    vol_pt = vlev + vslo * xv[:, None, None]
    values = (
        -pv[:, None] * drift_pt
        - (vol_pt * Pv[:, None, :]).sum(axis=-1)
        - running.value(t, xv, yv, fieldref.grid.points)
    )
    at_mu = integrate_against(values, mu_row, axis=-1)
    if np.ndim(x) == 0 and values.shape[0] == 1:
        return HamiltonianSlice(values=values[0], at_mu=np.asarray(at_mu).reshape(()))
    return HamiltonianSlice(values=values, at_mu=np.atleast_1d(at_mu))


def pointwise_maximizer(slc: HamiltonianSlice):
    """Grid index of the per-point maximum and the gap to the measure value.

    Ties break to the lowest index.  For batched slices the index and gap are
    returned per scenario.
    """
    vals = np.asarray(slc.values, dtype=float)
    idx = np.argmax(vals, axis=-1)
    gap = np.max(vals, axis=-1) - np.asarray(slc.at_mu)
    if vals.ndim == 1:
        return int(idx), float(gap)
    return idx, gap


def _path_slices(fieldref, bundle, adj, running, mu):
    """Yield (k, slice values (S, count), value at mu (S,)) along the paths."""
    times = bundle.tg.times()
    for k in range(bundle.tg.steps):
        slc = hamiltonian_slice(
            fieldref, k,
            bundle.x[:, k], bundle.y[:, k],
            adj.px[:, k], adj.Px[:, k],
            running, mu.weights[k], times[k],
        )
        yield k, slc.values, slc.at_mu


def mean_hamiltonian_values(fieldref, bundle, adj, running, mu) -> np.ndarray:
    """Scenario-mean Hamiltonian per (step, grid point), shape (steps, count)."""
    out = np.empty((bundle.tg.steps, fieldref.grid.count))
    for k, values, _ in _path_slices(fieldref, bundle, adj, running, mu):
        out[k] = values.mean(axis=0)
    return out


def slack_paths(fieldref, k_path: np.ndarray, adj: AdjointSolution) -> np.ndarray:
    """Singular slack k + gain_x * px + gain_y * py, shape (scenarios, steps, dim)."""
    n = fieldref.jump_gain_x.shape[0]
    return (
        k_path[None, :, :]
        + fieldref.jump_gain_x[None, :, :] * adj.px[:, :n, None]
        + fieldref.jump_gain_y[None, :, :] * adj.py[:, :n, None]
    )


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
        n = samples.shape[0]
        se = float(samples.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
        return VariationalDerivative(
            total=float(samples.mean()),
            singular_term=float(singular.mean()),
            measure_term=float(measure.mean()),
            stderr=se,
            samples=samples,
        )


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
    dt = bundle.tg.dt
    slack = slack_paths(fieldref, k_path, adj)
    delta = eta.increments - bundle.xi.increments
    singular = np.einsum("snd,nd->s", slack, delta)
    measure = np.zeros(bundle.scenarios)
    for k, values, at_mu in _path_slices(fieldref, bundle, adj, running, bundle.mu):
        at_q = values @ q.weights[k]
        measure += (at_mu - at_q) * dt
    return VariationalDerivative.from_samples(singular, measure)


@dataclass(frozen=True)
class MaxPrincipleTolerances:
    """Statistical tolerances for the three optimality conditions.

    The gap tolerance is ``gap_se_multiplier`` standard errors of the gap
    estimate plus a numerical floor; slack and complementarity tolerances are
    relative to the costate scale and to the total variation of xi.
    """

    gap_se_multiplier: float = 3.0
    gap_floor: float = 1e-10
    slack_scale: float = 1e-6
    comp_scale: float = 1e-6

    def to_json(self) -> dict:
        return {
            "gap_se_multiplier": self.gap_se_multiplier,
            "gap_floor": self.gap_floor,
            "slack_scale": self.slack_scale,
            "comp_scale": self.comp_scale,
        }


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
    tolerances: MaxPrincipleTolerances

    @property
    def passed(self) -> bool:
        return self.pass_hamiltonian and self.pass_slack and self.pass_complementarity

    def to_json(self) -> dict:
        return {
            "hamiltonian_gap": self.hamiltonian_gap,
            "gap_stderr": self.gap_stderr,
            "gap_tolerance": self.gap_tolerance,
            "slack_min": self.slack_min,
            "slack_tolerance": self.slack_tolerance,
            "complementarity_violation": self.complementarity_violation,
            "comp_tolerance": self.comp_tolerance,
            "costate_scale": self.costate_scale,
            "xi_total_variation": self.xi_total_variation,
            "pass_hamiltonian": self.pass_hamiltonian,
            "pass_slack": self.pass_slack,
            "pass_complementarity": self.pass_complementarity,
            "passed": self.passed,
            "tolerances": self.tolerances.to_json(),
        }

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
    tolerances: MaxPrincipleTolerances | None = None,
) -> OptimalityReport:
    """Evaluate the three necessary optimality conditions on a solved state.

    The grid maximum stands in for the supremum over measures (the
    Hamiltonian is affine in the measure), and the almost-sure conditions are
    verified up to statistical tolerances derived from the sample.
    """
    tol = tolerances or MaxPrincipleTolerances()
    dt = bundle.tg.dt
    gap_samples = np.zeros(bundle.scenarios)
    for _, values, at_mu in _path_slices(fieldref, bundle, adj, running, bundle.mu):
        gap_samples += (values.max(axis=-1) - at_mu) * dt
    gap = float(gap_samples.mean())
    gap_se = float(gap_samples.std(ddof=1) / np.sqrt(bundle.scenarios)) if bundle.scenarios > 1 else 0.0
    gap_tol = tol.gap_se_multiplier * gap_se + tol.gap_floor

    slack = slack_paths(fieldref, k_path, adj)
    slack_min = float(slack.min())
    scale = float(np.sqrt(np.mean(adj.px ** 2) + np.mean(adj.py ** 2)))
    slack_tol = tol.slack_scale * scale

    over = slack > slack_tol
    comp_samples = np.einsum("snd,nd->s", over.astype(float), bundle.xi.increments)
    violation = float(comp_samples.mean())
    comp_tol = tol.comp_scale * bundle.xi.total_variation

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
        tolerances=tol,
    )


def save_report(report: OptimalityReport, path) -> None:
    Path(path).write_text(json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n")
