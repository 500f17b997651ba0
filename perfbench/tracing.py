"""Spans recorded from outside the package, and the per-layer metrics they give.

A ``Tracer`` replaces functions at the module attribute where their caller
looks them up (for example ``rscontrol.adjoint.fit_conditional``, which the
adjoint solvers call through their module globals) with a wrapper that
records a span: name, start, end, parent span and run id.  Spans are kept in
memory and written out once, at the end.  Only the main thread records spans;
calls made from worker threads (the threaded forward simulation) pass through
unrecorded, so their time stays inside the enclosing span.

A span's self time is its duration minus the durations of its direct child
spans.  Every ``*_s`` layer metric is a sum of self times, so the layers do
not count the same interval twice.
"""

from __future__ import annotations

import csv
import importlib
import threading
import time
from dataclasses import dataclass

# (span name, module, attribute) for every call site the traced run wraps.
# Class attributes are given as "Class.method".
WRAP_POINTS = (
    ("dynamics.noise", "rscontrol.problems", "brownian_increments"),
    ("dynamics.field", "rscontrol.problems", "sample_coefficients"),
    ("dynamics.simulate", "rscontrol.problems", "simulate_forward"),
    ("dynamics.simulate", "rscontrol.dynamics", "simulate_forward"),
    ("dynamics.moments", "rscontrol.dynamics", "moment_diagnostics"),
    ("finance.slice", "rscontrol.finance", "FinanceCoefficientField.drift_level_at"),
    ("finance.slice", "rscontrol.finance", "FinanceCoefficientField.drift_slope_at"),
    ("finance.slice", "rscontrol.finance", "FinanceCoefficientField.vol_level_at"),
    ("finance.slice", "rscontrol.finance", "FinanceCoefficientField.vol_slope_at"),
    ("adjoint.fit", "rscontrol.adjoint", "fit_conditional"),
    ("adjoint.regression", "rscontrol.optimizer", "solve_adjoint_regression"),
    ("adjoint.regression", "rscontrol.cli", "solve_adjoint_regression"),
    ("adjoint.regression", "rscontrol.adjoint", "solve_adjoint_regression"),
    ("adjoint.phi", "rscontrol.optimizer", "solve_adjoint_phi"),
    ("adjoint.phi", "rscontrol.adjoint", "solve_adjoint_phi"),
    ("maxprinciple.hamiltonian", "rscontrol.maxprinciple", "hamiltonian_slice"),
    ("maxprinciple.derivative", "rscontrol.optimizer", "variational_derivative"),
    ("maxprinciple.check", "rscontrol.cli", "check_max_principle"),
    ("maxprinciple.check", "rscontrol.maxprinciple", "check_max_principle"),
    ("optimizer.optimize", "rscontrol.cli", "optimize_problem"),
    ("optimizer.optimize", "rscontrol.optimizer", "optimize_problem"),
    ("optimizer.iterate", "rscontrol.optimizer", "frank_wolfe_iterate"),
    ("optimizer.cost", "rscontrol.optimizer", "evaluate_cost"),
    ("measures.integrate", "rscontrol.dynamics", "integrate_against"),
    ("measures.integrate", "rscontrol.adjoint", "integrate_against"),
    ("measures.integrate", "rscontrol.maxprinciple", "integrate_against"),
    ("measures.integrate", "rscontrol.optimizer", "integrate_against"),
    ("cli.command", "rscontrol.cli", "cmd_optimize"),
    ("cli.command", "rscontrol.cli", "cmd_verify"),
    ("cli.config", "rscontrol.cli", "_prepare"),
    ("cli.write", "rscontrol.cli", "adjoints_to_csv"),
    ("cli.write", "rscontrol.cli", "save_controls"),
    ("cli.write", "rscontrol.cli", "_write_json"),
)

# Per-layer metrics: name -> (unit, better).  Times are sums of self time per
# pass; counts are per pass.
LAYER_METRICS = {
    "dynamics.noise_s": ("s", "lower"),
    "dynamics.simulate_s": ("s", "lower"),
    "dynamics.simulate_calls": ("count", "lower"),
    "dynamics.scenario_steps": ("count", "lower"),
    "dynamics.field_s": ("s", "lower"),
    "dynamics.moments_s": ("s", "lower"),
    "dynamics.thread_speedup": ("ratio", "higher"),
    "finance.slice_s": ("s", "lower"),
    "finance.slice_calls": ("count", "lower"),
    "adjoint.regression_s": ("s", "lower"),
    "adjoint.regression_calls": ("count", "lower"),
    "adjoint.phi_s": ("s", "lower"),
    "adjoint.fit_s": ("s", "lower"),
    "adjoint.fit_calls": ("count", "lower"),
    "adjoint.fit_fallbacks": ("count", "lower"),
    "adjoint.fit_ok_ratio": ("ratio", "higher"),
    "maxprinciple.hamiltonian_s": ("s", "lower"),
    "maxprinciple.hamiltonian_calls": ("count", "lower"),
    "maxprinciple.derivative_s": ("s", "lower"),
    "maxprinciple.check_s": ("s", "lower"),
    "optimizer.iterations": ("count", "lower"),
    "optimizer.line_search_sims": ("count", "lower"),
    "optimizer.accept_ratio": ("ratio", "higher"),
    "optimizer.cost_eval_s": ("s", "lower"),
    "optimizer.self_s": ("s", "lower"),
    "measures.integrate_s": ("s", "lower"),
    "measures.integrate_calls": ("count", "lower"),
    "cli.config_s": ("s", "lower"),
    "cli.write_s": ("s", "lower"),
    "cli.bytes_written": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None   # index of the parent span in the same list
    run_id: int
    note: object = None  # fallback flag for fits, accepted flag for iterations, S*n for sims


def _fit_note(args, kwargs, result):
    degree = kwargs.get("degree", args[3] if len(args) > 3 else 2)
    return result[1] < degree


def _simulate_note(args, kwargs, result):
    return result.x.shape[0] * (result.x.shape[1] - 1)


def _iterate_note(args, kwargs, result):
    return bool(result[1].accepted)


NOTES = {"adjoint.fit": _fit_note, "dynamics.simulate": _simulate_note,
         "optimizer.iterate": _iterate_note}


def _lookup(module_name: str, attr: str):
    """(owner, leaf name, current value) of a wrap point; value None if absent."""
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    if isinstance(owner, type):
        return owner, leaf, owner.__dict__.get(leaf)
    return owner, leaf, getattr(owner, leaf, None)


class Tracer:
    """Installs span-recording wrappers; ``spans`` accumulates across passes."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = 0
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list = []
        self._main = threading.main_thread().ident

    def _wrap(self, name, fn):
        spans, stack, note_of, main = self.spans, self._stack, NOTES.get(name), self._main

        def wrapper(*args, **kwargs):
            if threading.get_ident() != main:
                return fn(*args, **kwargs)
            index = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None, self.run_id)
            spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if note_of is not None:
                span.note = note_of(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every wrap point; names that no longer exist go to ``missing``."""
        self.missing = []
        for name, module_name, attr in WRAP_POINTS:
            owner, leaf, original = _lookup(module_name, attr)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    def write(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "name", "start", "end", "parent", "run_id", "note"])
            for i, s in enumerate(self.spans):
                writer.writerow([i, s.name, repr(s.start), repr(s.end),
                                 "" if s.parent is None else s.parent, s.run_id,
                                 "" if s.note is None else s.note])


def self_times(spans: list[Span], offset: int = 0) -> list[float]:
    """Duration of each span minus the durations of its direct children.

    ``spans`` may be a tail of the tracer's list starting at index ``offset``;
    parent indices refer to the whole list.
    """
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None and s.parent >= offset:
            out[s.parent - offset] -= s.end - s.start
    return out


def pass_metrics(spans: list[Span], offset: int = 0) -> dict:
    """Layer metrics for the spans of one pass, which start at index ``offset``."""
    selfs = self_times(spans, offset)
    time_of: dict[str, float] = {}
    count_of: dict[str, int] = {}
    for s, t in zip(spans, selfs):
        time_of[s.name] = time_of.get(s.name, 0.0) + t
        count_of[s.name] = count_of.get(s.name, 0) + 1

    def t(name):
        return time_of.get(name, 0.0)

    def n(name):
        return count_of.get(name, 0)

    fits = [s for s in spans if s.name == "adjoint.fit"]
    fallbacks = sum(1 for s in fits if s.note)
    iterate_ids = {i for i, s in enumerate(spans, offset) if s.name == "optimizer.iterate"}
    line_search = sum(1 for s in spans if s.name == "dynamics.simulate" and s.parent in iterate_ids)
    accepted = sum(1 for s in spans if s.name == "optimizer.iterate" and s.note)
    return {
        "dynamics.noise_s": t("dynamics.noise"),
        "dynamics.simulate_s": t("dynamics.simulate"),
        "dynamics.simulate_calls": n("dynamics.simulate"),
        "dynamics.scenario_steps": sum(s.note for s in spans if s.name == "dynamics.simulate"),
        "dynamics.field_s": t("dynamics.field"),
        "dynamics.moments_s": t("dynamics.moments"),
        "finance.slice_s": t("finance.slice"),
        "finance.slice_calls": n("finance.slice"),
        "adjoint.regression_s": t("adjoint.regression"),
        "adjoint.regression_calls": n("adjoint.regression"),
        "adjoint.phi_s": t("adjoint.phi"),
        "adjoint.fit_s": t("adjoint.fit"),
        "adjoint.fit_calls": len(fits),
        "adjoint.fit_fallbacks": fallbacks,
        "adjoint.fit_ok_ratio": (len(fits) - fallbacks) / len(fits) if fits else 0.0,
        "maxprinciple.hamiltonian_s": t("maxprinciple.hamiltonian"),
        "maxprinciple.hamiltonian_calls": n("maxprinciple.hamiltonian"),
        "maxprinciple.derivative_s": t("maxprinciple.derivative"),
        "maxprinciple.check_s": t("maxprinciple.check"),
        "optimizer.iterations": len(iterate_ids),
        "optimizer.line_search_sims": line_search,
        "optimizer.accept_ratio": accepted / line_search if line_search else 0.0,
        "optimizer.cost_eval_s": t("optimizer.cost"),
        "optimizer.self_s": t("optimizer.optimize") + t("optimizer.iterate"),
        "measures.integrate_s": t("measures.integrate"),
        "measures.integrate_calls": n("measures.integrate"),
        "cli.config_s": t("cli.config"),
        "cli.write_s": t("cli.write"),
    }
