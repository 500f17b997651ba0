"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench -q
"""

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import rscontrol  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_self_time_on_hand_built_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3]
    spans = [
        Span("root", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("c", 2.0, 3.0, 1, 0),
        Span("b", 5.0, 9.0, 0, 0),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    # a tail of a longer list: parents before the offset are ignored
    assert tracing.self_times(spans[1:], offset=1) == pytest.approx([2.0, 1.0, 4.0])


def test_pass_metrics_attribute_self_time_and_counts():
    spans = [
        Span("bench.pass", 0.0, 10.0, None, 1),
        Span("optimizer.iterate", 1.0, 6.0, 0, 1, note=True),
        Span("adjoint.regression", 1.0, 3.0, 1, 1),
        Span("adjoint.fit", 1.5, 2.0, 2, 1, note=False),
        Span("adjoint.fit", 2.0, 2.5, 2, 1, note=True),
        Span("dynamics.simulate", 3.0, 4.0, 1, 1, note=500),
        Span("dynamics.simulate", 4.0, 5.0, 1, 1, note=500),
        Span("dynamics.simulate", 7.0, 8.0, 0, 1, note=500),
    ]
    m = tracing.pass_metrics(spans)
    assert m["adjoint.regression_s"] == pytest.approx(1.0)
    assert m["adjoint.fit_s"] == pytest.approx(1.0)
    assert m["adjoint.fit_calls"] == 2
    assert m["adjoint.fit_fallbacks"] == 1
    assert m["adjoint.fit_ok_ratio"] == pytest.approx(0.5)
    assert m["optimizer.self_s"] == pytest.approx(1.0)
    assert m["optimizer.line_search_sims"] == 2
    assert m["optimizer.accept_ratio"] == pytest.approx(0.5)
    assert m["dynamics.simulate_calls"] == 3
    assert m["dynamics.scenario_steps"] == 1500
    assert m["dynamics.simulate_s"] == pytest.approx(3.0)
    # every reported time is a self time, so they sum to at most the pass
    total = sum(v for k, v in m.items() if k.endswith("_s"))
    assert total <= 10.0 - tracing.self_times(spans)[0] + 1e-12


def test_host_scaled_times_and_lower_quartile():
    # a pass that took twice the reference kernel time while the kernel ran 2x slow
    # counts the same as one at full speed
    scaled = run.host_scaled([0.4, 0.8], [run.CAL_REFERENCE_S, 2 * run.CAL_REFERENCE_S])
    assert scaled == pytest.approx([0.4, 0.4])
    assert run.lower_quartile([5.0, 1.0, 3.0, 2.0, 4.0]) == pytest.approx(2.0)
    assert run.lower_quartile([7.0]) == 7.0


def test_metric_names_and_benchmark_file_agree():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += list(tracing.LAYER_METRICS) + list(run.END_TO_END)
    for name in names:
        assert NAME.fullmatch(name), name
    assert [m["name"] for m in bench["per_layer"]] == list(tracing.LAYER_METRICS)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    computed = set(tracing.pass_metrics([Span("bench.pass", 0.0, 1.0, None, 0)]))
    assert computed < set(tracing.LAYER_METRICS)


def test_every_wrap_point_exists_and_uninstall_restores():
    import rscontrol.adjoint as adjoint

    original = adjoint.fit_conditional
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        assert adjoint.fit_conditional is not original
    finally:
        tracer.uninstall()
    assert adjoint.fit_conditional is original


def _bond_outputs(tmp_path, cost, stderr=0.0014, verdicts=None):
    ref = workloads.REFERENCE["workloads"]["bond-cli"]
    verdicts = dict(ref["verify_verdicts"] if verdicts is None else verdicts)
    out = tmp_path / "pass0"
    (out / "optimize").mkdir(parents=True)
    (out / "verify").mkdir(parents=True)
    (out / "optimize" / "report.json").write_text(
        json.dumps({"final_cost": cost, "final_cost_stderr": stderr}))
    (out / "verify" / "report.json").write_text(json.dumps(verdicts))
    load = workloads.BondCli(HERE.parent, 7, tmp_path)
    load.initial_cost = ref["cost"] + 0.2
    return load, out, ref


def test_bond_check_accepts_reference_output(tmp_path):
    ref_cost = workloads.REFERENCE["workloads"]["bond-cli"]["cost"]
    load, out, ref = _bond_outputs(tmp_path, ref_cost)
    result = load.check((out, 0, ref["verify_exit"]))
    assert result.failures == []
    assert result.final_cost == ref_cost
    assert not out.exists()


def test_bond_check_flags_perturbed_report_cost(tmp_path):
    ref_cost = workloads.REFERENCE["workloads"]["bond-cli"]["cost"]
    load, out, ref = _bond_outputs(tmp_path, ref_cost * 1.02)
    result = load.check((out, 0, ref["verify_exit"]))
    assert any("standard errors" in msg for msg in result.failures)


def test_bond_check_flags_changed_verdict_and_exit(tmp_path):
    ref_cost = workloads.REFERENCE["workloads"]["bond-cli"]["cost"]
    flipped = {k: not v for k, v in
               workloads.REFERENCE["workloads"]["bond-cli"]["verify_verdicts"].items()}
    load, out, ref = _bond_outputs(tmp_path, ref_cost, verdicts=flipped)
    assert len(load.check((out, 0, ref["verify_exit"])).failures) == 3
    load, out, ref = _bond_outputs(tmp_path, ref_cost)
    assert load.check((out, 0, 0)).failures == ["verify exited 0, expected 1"]
    load, out, ref = _bond_outputs(tmp_path, ref_cost)
    assert load.check((out, 2, 1)).failures == ["optimize exited 2"]


def test_forward_check_flags_cost_and_moments(tmp_path):
    ref = workloads.REFERENCE["workloads"]["forward-scale"]
    load = workloads.ForwardScale(HERE.parent, 1, tmp_path)
    good = rscontrol.CostEstimate(ref["cost"], 1e-3, 0, samples=None)
    bad = rscontrol.CostEstimate(ref["cost"] + 0.05, 1e-3, 0, samples=None)
    finite = rscontrol.MomentReport(2.0, 1.0, 1.0, 1.0, 1.0, 1.0, False, False)
    exploded = rscontrol.MomentReport(2.0, float("inf"), 1.0, 1.0, 1.0, 1.0, True, True)
    assert load.check((good, finite)).failures == []
    assert len(load.check((bad, finite)).failures) == 1
    assert len(load.check((good, exploded)).failures) == 1
