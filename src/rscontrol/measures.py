"""Atomic probability measures on a finite action grid and admissible singular paths.

A relaxed control is a row-stochastic weight matrix over the grid (one
probability vector per time step); a singular control is a componentwise
nondecreasing step path stored through its nonnegative per-step increments.
Both are immutable after construction and safe to share across workers.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROW_SUM_TOL = 1e-12
DEFAULT_TV_CAP = 10.0

CONTROLS_SCHEMA = "rscontrol-controls/1"


def _frozen_array(values, dtype=float) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


def _float_array(values, name: str, message: str = "{} must be numbers") -> np.ndarray:
    """``values`` as a float array; a ValueError naming ``name`` if they are not numbers."""
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(message.format(name)) from None


@dataclass(frozen=True)
class ActionGrid:
    """Finite grid on the compact action space.

    points : (count, action_dim) array, strictly increasing in lexicographic
        order.  One-dimensional input is promoted to a single-column grid.
    box_lo, box_hi : optional bounding box of the action space; defaults to
        the hull of the points.
    """

    points: np.ndarray
    box_lo: np.ndarray | None = None
    box_hi: np.ndarray | None = None

    def __post_init__(self):
        pts = _float_array(self.points, "grid points")
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ValueError("grid points must form a nonempty (count, dim) array")
        if not np.isfinite(pts).all():
            raise ValueError("grid points must be finite")
        for i in range(pts.shape[0] - 1):
            if tuple(pts[i]) >= tuple(pts[i + 1]):
                raise ValueError(
                    f"grid points must be strictly increasing (lexicographic); "
                    f"violated at rows {i}, {i + 1}"
                )
        lo = np.min(pts, axis=0) if self.box_lo is None else _float_array(self.box_lo, "box_lo")
        hi = np.max(pts, axis=0) if self.box_hi is None else _float_array(self.box_hi, "box_hi")
        if lo.shape != (pts.shape[1],) or hi.shape != (pts.shape[1],):
            raise ValueError("bounding box must match the action dimension")
        if not (np.all(pts >= lo) and np.all(pts <= hi)):   # a NaN bound fails too
            raise ValueError("grid points must lie inside the declared bounding box")
        object.__setattr__(self, "points", _frozen_array(pts))
        object.__setattr__(self, "box_lo", _frozen_array(lo))
        object.__setattr__(self, "box_hi", _frozen_array(hi))

    @property
    def count(self) -> int:
        return self.points.shape[0]

    @property
    def action_dim(self) -> int:
        return self.points.shape[1]

    def flat(self) -> np.ndarray:
        """Points squeezed to (count,) when the action space is scalar."""
        return self.points[:, 0] if self.action_dim == 1 else self.points


@dataclass(frozen=True)
class RelaxedControl:
    """Time-indexed probability weights on an action grid.

    weights : (steps, count) array; every row is a probability vector
        (entries nonnegative, sum 1 within ``ROW_SUM_TOL``).
    """

    weights: np.ndarray

    def __post_init__(self):
        w = _float_array(self.weights, "weights")
        if w.ndim != 2 or w.shape[0] < 1 or w.shape[1] < 1:
            raise ValueError("weights must be a (steps, count) matrix")
        if not np.isfinite(w).all():
            raise ValueError("measure weights must be finite")
        if np.any(w < 0.0):
            raise ValueError("measure weights must be nonnegative")
        sums = w.sum(axis=1)
        bad = np.flatnonzero(np.abs(sums - 1.0) > ROW_SUM_TOL)
        if bad.size:
            raise ValueError(f"weight rows must sum to 1; first violation at step {bad[0]}")
        object.__setattr__(self, "weights", _frozen_array(w))

    @property
    def steps(self) -> int:
        return self.weights.shape[0]

    @property
    def count(self) -> int:
        return self.weights.shape[1]

    @classmethod
    def uniform(cls, steps: int, count: int) -> "RelaxedControl":
        return cls(np.full((steps, count), 1.0 / count))

    @classmethod
    def from_indices(cls, indices, count: int) -> "RelaxedControl":
        """Embed a strict control path as per-step point masses."""
        idx = np.asarray(indices, dtype=int)
        if idx.ndim != 1:
            raise ValueError("indices must be a 1-d path of grid indices")
        if np.any(idx < 0) or np.any(idx >= count):
            raise IndexError("strict control index outside the grid")
        w = np.zeros((idx.size, count))
        w[np.arange(idx.size), idx] = 1.0
        return cls(w)


@dataclass(frozen=True)
class SingularControl:
    """Componentwise nondecreasing, left-continuous step path started at 0.

    increments : (steps, dim) array of nonnegative jumps, one applied at the
        start of each step.  Total variation (sum of all increments) must not
        exceed ``tv_cap``.
    """

    increments: np.ndarray
    tv_cap: float = DEFAULT_TV_CAP

    def __post_init__(self):
        inc = _float_array(self.increments, "increments")
        if inc.ndim != 2 or inc.shape[0] < 1 or inc.shape[1] < 1:
            raise ValueError("increments must be a (steps, dim) matrix")
        if np.any(inc < 0.0):
            raise ValueError("singular increments must be nonnegative")
        if np.isnan(self.tv_cap):
            raise ValueError("total-variation cap must be a number, got nan")
        tv = float(inc.sum())
        if not np.isfinite(tv) or tv > self.tv_cap * (1.0 + 1e-9) + 1e-12:
            raise ValueError(f"total variation {tv} exceeds cap {self.tv_cap}")
        object.__setattr__(self, "increments", _frozen_array(inc))

    @property
    def steps(self) -> int:
        return self.increments.shape[0]

    @property
    def dim(self) -> int:
        return self.increments.shape[1]

    @property
    def total_variation(self) -> float:
        return float(self.increments.sum())

    @classmethod
    def zero(cls, steps: int, dim: int, tv_cap: float = DEFAULT_TV_CAP) -> "SingularControl":
        return cls(np.zeros((steps, dim)), tv_cap=tv_cap)


def dirac(grid: "ActionGrid | int", index: int) -> np.ndarray:
    """Point mass at a grid index, as a weight row."""
    count = grid if isinstance(grid, int) else grid.count
    if not 0 <= index < count:
        raise IndexError(f"dirac index {index} outside grid of size {count}")
    row = np.zeros(count)
    row[index] = 1.0
    return row


def integrate_against(values, weights, axis: int = 0):
    """Integrate grid-sampled values against a measure row.

    ``values`` carries the grid along ``axis`` (scalar fields ``(count,)``,
    vector fields ``(count, dim)``, batched fields with the grid on any axis);
    the result drops that axis.  Linear in both arguments.
    """
    vals = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1:
        raise ValueError("weights must be a single measure row")
    ax = axis % vals.ndim if vals.ndim else 0
    if vals.ndim == 0 or vals.shape[ax] != w.shape[0]:
        raise ValueError(
            f"grid-size mismatch: values axis {axis} has length "
            f"{vals.shape[ax] if vals.ndim else 0}, measure has {w.shape[0]}"
        )
    out = (vals if ax == vals.ndim - 1 else np.moveaxis(vals, ax, -1)) @ w
    return float(out) if out.ndim == 0 else out


def _integrate(values, weights) -> np.ndarray:
    """Each step's point-major (count, S|1) values integrated against its measure
    row, (m, S|1): one stacked vector-matrix product over contiguous scenario rows,
    step by step the same as ``weights[j] @ values[j]``."""
    return np.matmul(weights[:, None, :], values)[:, 0]


def convex_combine(mu: RelaxedControl, q: RelaxedControl, theta: float) -> RelaxedControl:
    """Rowwise mixture mu + theta * (q - mu) for theta in [0, 1]."""
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"mixture parameter must lie in [0, 1], got {theta}")
    if mu.weights.shape != q.weights.shape:
        raise ValueError("relaxed controls must share (steps, count) shape")
    if theta == 0.0:
        return mu
    if theta == 1.0:
        return q
    return RelaxedControl((1.0 - theta) * mu.weights + theta * q.weights)


def combine_singular(xi: SingularControl, eta: SingularControl, theta: float) -> SingularControl:
    """Incrementwise mixture xi + theta * (eta - xi); preserves admissibility."""
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"mixture parameter must lie in [0, 1], got {theta}")
    if xi.increments.shape != eta.increments.shape:
        raise ValueError("singular controls must share (steps, dim) shape")
    cap = max(xi.tv_cap, eta.tv_cap)
    if theta == 0.0:
        return SingularControl(xi.increments, tv_cap=cap)
    if theta == 1.0:
        return SingularControl(eta.increments, tv_cap=cap)
    return SingularControl(
        (1.0 - theta) * xi.increments + theta * eta.increments, tv_cap=cap
    )


def stieltjes_integral(values, xi: SingularControl) -> float:
    """Left-point integral of per-step values against the jump increments.

    ``values`` is ``(steps, dim)``, or ``(steps,)`` which applies the same
    value to every component.
    """
    vals = np.asarray(values, dtype=float)
    if vals.ndim == 1:
        vals = vals[:, None]
    if vals.shape[0] != xi.steps or vals.shape[1] not in (1, xi.dim):
        raise ValueError(
            f"shape mismatch: values {vals.shape} vs increments {xi.increments.shape}"
        )
    return float(np.sum(vals * xi.increments))


def controls_to_json(
    grid: ActionGrid,
    mu: RelaxedControl,
    xi: SingularControl,
    horizon: float,
) -> dict:
    return {
        "schema": CONTROLS_SCHEMA,
        "horizon": float(horizon),
        "steps": mu.steps,
        "grid": {
            "points": grid.points.tolist(),
            "box_lo": grid.box_lo.tolist(),
            "box_hi": grid.box_hi.tolist(),
        },
        "relaxed_weights": mu.weights.tolist(),
        "singular_increments": xi.increments.tolist(),
        "tv_cap": xi.tv_cap,
    }


def controls_from_json(doc: dict):
    """Inverse of :func:`controls_to_json`; returns (grid, mu, xi, horizon)."""
    if not isinstance(doc, dict):
        raise ValueError("controls document must be a JSON object")
    if doc.get("schema") != CONTROLS_SCHEMA:
        raise ValueError(f"unsupported controls schema: {doc.get('schema')!r}")
    if not isinstance(doc.get("grid"), dict):
        raise ValueError("controls grid must be a JSON object")
    missing = sorted({"horizon", "steps", "relaxed_weights", "singular_increments"} - doc.keys())
    if missing:
        raise ValueError(f"controls document lacks {missing}")
    for name in ("horizon", "tv_cap"):
        if name in doc and (isinstance(doc[name], bool) or not isinstance(doc[name], numbers.Real)):
            raise ValueError(f"controls {name} must be a number, got {doc[name]!r}")
    grid = ActionGrid(**doc["grid"])
    mu = RelaxedControl(_float_array(doc["relaxed_weights"], "relaxed_weights"))
    xi = SingularControl(
        _float_array(doc["singular_increments"], "singular_increments"),
        tv_cap=float(doc.get("tv_cap", DEFAULT_TV_CAP)),
    )
    if mu.steps != doc["steps"] or xi.steps != doc["steps"]:
        raise ValueError("controls step count disagrees with declared steps")
    if mu.count != grid.count:
        raise ValueError("relaxed weights do not match the grid size")
    return grid, mu, xi, float(doc["horizon"])


def save_controls(path, grid, mu, xi, horizon) -> None:
    Path(path).write_text(
        json.dumps(controls_to_json(grid, mu, xi, horizon), indent=2, sort_keys=True)
        + "\n"
    )


def load_controls(path):
    return controls_from_json(json.loads(Path(path).read_text()))
