"""Serial against two-thread forward simulation across sample sizes: where
two scenario chunks start to beat one.

    python3 experiments/thread_floor.py --out thread_floor.json

Run it from the root of a checkout; it imports the package from ``src/`` and
the forward-scale workload's problem (the rich 5-point problem, dimension 2)
from ``perfbench/``.  For each scenario count it times ``simulate_forward``
at 200 steps serially and on two scenario chunks: one call per side per
round, the side that goes first alternating between rounds, after one
warm-up call each.  It writes the medians and their ratio (two threads over
serial, so below 1 the threads pay) as one JSON object and prints them as a
table.  Two threads split every sample of 4 scenarios or more.  At most two
threads run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import rscontrol  # noqa: E402
from perfbench.workloads import rich_problem  # noqa: E402

SCENARIOS = (1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000, 10_000, 20_000, 50_000)
STEPS = 200


def timings(scenarios: int, rounds: int) -> dict:
    """Median milliseconds of one serial and one two-chunk simulation."""
    problem = rich_problem(STEPS, 5)
    noise = problem.noise(scenarios, 1)
    field = problem.sample_field(scenarios, 1, noise)
    mu, xi = problem.default_controls()

    def call(threads):
        started = time.perf_counter()
        bundle = problem.simulate(field, mu, xi, noise, threads=threads)
        return time.perf_counter() - started, bundle

    serial, split = call(1)[1], call(2)[1]
    if not (np.array_equal(serial.x, split.x) and np.array_equal(serial.y, split.y)):
        raise AssertionError(f"two threads differ from serial at {scenarios} scenarios")
    del serial, split
    seconds = {1: [], 2: []}
    for r in range(rounds):
        for threads in ((1, 2) if r % 2 == 0 else (2, 1)):
            seconds[threads].append(call(threads)[0])
    serial_ms, two_ms = (1e3 * statistics.median(seconds[t]) for t in (1, 2))
    return {"scenarios": scenarios, "serial_ms": round(serial_ms, 2),
            "two_threads_ms": round(two_ms, 2), "ratio": round(two_ms / serial_ms, 3)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=Path("thread_floor.json"))
    parser.add_argument("--rounds", type=int, default=15)
    parser.add_argument("--scenarios", type=int, nargs="+", default=SCENARIOS)
    args = parser.parse_args(argv)

    rows = []
    print(f"{'scenarios':>10} {'serial ms':>10} {'2 threads ms':>13} {'ratio':>6}")
    for scenarios in args.scenarios:
        row = timings(scenarios, args.rounds)
        rows.append(row)
        print(f"{row['scenarios']:>10} {row['serial_ms']:>10.2f} "
              f"{row['two_threads_ms']:>13.2f} {row['ratio']:>6.3f}", flush=True)
    doc = {
        "problem": "perfbench rich_problem, 5 points, dimension 2, uniform control",
        "steps": STEPS,
        "rounds": args.rounds,
        "host": {"cpus": len(os.sched_getaffinity(0)), "machine": platform.machine(),
                 "python": platform.python_version(), "numpy": np.__version__,
                 "rscontrol": rscontrol.__version__},
        "rows": rows,
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
