"""Benchmark of the rscontrol pipeline, end to end and layer by layer.

    python3 perfbench/run.py --workload bond-cli --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 20 --trace 1

Run it from the root of a checkout; it imports the package from ``src/``.
Workloads, their shapes and the reasons they were chosen are in
``perfbench/reference.json``.  Each workload runs in a fresh child process
(``worker.py``) so that its peak RSS is its own; set-up time is measured in
further fresh interpreters that the child starts between its passes.  The
last line of standard output is one JSON object: ``correct``, ``attempted`` and ``failed`` count passes and their
output checks, and ``metrics`` holds the end-to-end metrics (``--trace 0``)
or the per-layer metrics (``--trace 1``).

End-to-end metrics, measured with tracing off.  The two times are in
reference seconds (see ``host_scaled``): wall seconds scaled by how fast the
host ran a fixed calibration kernel, timed just before and after each of
them, so that the times of runs made while a shared host is busy and while
it is idle can be compared.  The raw wall seconds are printed beside them.

- ``run_s``: reference seconds of one pass, after set-up: the lower
  quartile over the run's passes, which all repeat the same work;
- ``setup_s``: median over fresh interpreters, started every few seconds
  through the run, of the reference seconds to import rscontrol and build
  the config and problem;
- ``peak_rss_mb``: the workload process's own peak resident memory;

and, printed but not in the JSON because they can be zero or negative:
``output_mb`` (artifact bytes per pass), ``final_cost`` (sampled cost of the
returned control; the output checks bound it) and ``error_rate``.

Per-layer metrics (``tracing.LAYER_METRICS``) are named ``<layer>.<metric>``,
the layer being the rscontrol module whose calls the spans wrap; layers that
a workload never calls report 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
TIME_LIMIT_S = 170.0  # whole invocation, per workload

CAL_REFERENCE_S = 0.005  # about the calibration kernel's time on the baseline machine
END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def child(args: list[str], timeout: float) -> dict:
    """Run the worker; returns its last stdout line as JSON."""
    proc = subprocess.run([sys.executable, str(WORKER), *args], capture_output=True,
                          text=True, timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def lower_quartile(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def host_scaled(seconds: list[float], calibration: list[float]) -> list[float]:
    """Wall seconds converted to reference seconds.

    The vCPUs of a shared host run at up to half speed for seconds to minutes
    at a time, when other tenants are busy, so whole runs can be slow.  Each
    time is multiplied by ``CAL_REFERENCE_S`` over the calibration kernel's
    time around it (``worker.calibration_s``); the kernel does not touch
    rscontrol, so a change to the program moves these times as it moves
    wall time."""
    return [s * CAL_REFERENCE_S / c for s, c in zip(seconds, calibration)]


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return ""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f" (q1 {q1:.4f}, q3 {q3:.4f})"


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Runs one workload; returns {"doc": worker output, "metrics": ...}."""
    doc = child(["run", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(int(trace))], TIME_LIMIT_S)
    if trace:
        metrics = doc["layers"]
    else:
        metrics = {
            "run_s": lower_quartile(host_scaled(doc["run_s"], doc["calibration_s"])),
            "setup_s": statistics.median(host_scaled(doc["setup_s"],
                                                     doc["setup_calibration_s"])),
            "peak_rss_mb": doc["peak_rss_mb"],
        }
    report(workload, doc, trace)
    return {"doc": doc, "metrics": metrics}


def report(workload: str, doc: dict, trace: bool) -> None:
    """Human-readable lines: environment, the six end-to-end metrics, failures."""
    env = doc["env"]
    blas = env["blas"]
    print(f"== {workload}  seed {env['seed']}  nproc {env['nproc']}  python {env['python']}"
          f"  numpy {env['numpy']}  blas {blas['name']} {blas['version']}"
          f" ({blas['threads']} threads)")
    if not trace:
        runs = host_scaled(doc["run_s"], doc["calibration_s"])
        setup = host_scaled(doc["setup_s"], doc["setup_calibration_s"])
        print(f"  run_s        {lower_quartile(runs):.4f} s   lower quartile of {len(runs)}"
              f" passes, reference seconds{quartiles(runs)}; wall median"
              f" {statistics.median(doc['run_s']):.4f} s")
        print(f"  setup_s      {statistics.median(setup):.4f} s   median of {len(setup)} fresh"
              f" interpreters, reference seconds{quartiles(setup)}; wall median"
              f" {statistics.median(doc['setup_s']):.4f} s")
        print(f"  calibration  {statistics.median(doc['calibration_s']) * 1e3:.3f} ms"
              f"   median; reference {CAL_REFERENCE_S * 1e3:.1f} ms")
    print(f"  peak_rss_mb  {doc['peak_rss_mb']:.1f} MB")
    print(f"  output_mb    {statistics.median(doc['output_bytes'] or [0]) / 1e6:.3f} MB"
          " per pass")
    print(f"  final_cost   {statistics.median(doc['final_cost'] or [float('nan')]):.6f}"
          f"   median of {len(doc['final_cost'])} checked passes")
    print(f"  error_rate   {doc['failed'] / doc['attempted']:.3f}"
          f"   {doc['failed']} of {doc['attempted']} passes failed a check or crashed")
    if trace:
        print(f"  traced passes {len(doc['traced_s'])}; spans in {doc['spans_file']}")
        for name, value in doc["layers"].items():
            print(f"  {name:<32} {value:.6g}")
        if doc["trace_missing"]:
            print(f"  not wrapped (no longer present): {', '.join(doc['trace_missing'])}")
    for line in doc["failures"]:
        print(f"  FAILED {line}")


def layer_units() -> dict:
    sys.path.insert(0, str(HERE))
    from tracing import LAYER_METRICS

    return {name: unit for name, (unit, _) in LAYER_METRICS.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "rscontrol" / "__init__.py").is_file() \
            or not (ROOT / "scenarios" / "example_bond.json").is_file():
        print(f"error: {ROOT} is not an rscontrol checkout (src/rscontrol and "
              "scenarios/example_bond.json are needed)", file=sys.stderr)
        return 2
    names = list(json.loads((HERE / "reference.json").read_text())["workloads"])
    if args.workload != "all" and args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from {names} or all",
              file=sys.stderr)
        return 2
    selected = names if args.workload == "all" else [args.workload]
    units = layer_units() if args.trace else END_TO_END

    results = {}
    for name in selected:
        try:
            results[name] = measure(name, args.seed, args.seconds, bool(args.trace))
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
            print(f"error: workload {name}: {exc}", file=sys.stderr)
            return 1

    def entry(metrics):
        return {key: {"value": metrics[key], "unit": units[key]} for key in units}

    if len(selected) == 1:
        metrics = entry(results[selected[0]]["metrics"])
    else:
        metrics = {f"{name}.{key}": value for name in selected
                   for key, value in entry(results[name]["metrics"]).items()}
    attempted = sum(r["doc"]["attempted"] for r in results.values())
    failed = sum(r["doc"]["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
