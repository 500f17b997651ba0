"""Child process of the benchmark; ``run.py`` starts it, one fresh process per job.

    python3 perfbench/worker.py setup --workload NAME --seed N
    python3 perfbench/worker.py run --workload NAME --seed N --seconds S --trace 0|1

``setup`` imports rscontrol and builds the workload's config and problem,
then prints the seconds that took and the time of the calibration kernel.
``run`` builds the workload and repeats timed passes, each between two
timings of the calibration kernel, until ``--seconds`` have gone by; with
``--trace 0`` it also starts a ``setup`` child every ``SETUP_EVERY_S``
seconds, between passes, so that the set-up times are spread over the whole
run.  With ``--trace 1`` the passes alternate between untraced and traced,
and the traced ones give the per-layer metrics.  Each mode prints one JSON
object as its last line.
"""

import time

STARTED = time.perf_counter()  # set-up time counts from here, before any other import

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from run import lower_quartile  # noqa: E402

SETUP_EVERY_S = 3.0
SETUP_TIMEOUT_S = 60.0
CAL_SMALL = np.random.default_rng(0).standard_normal(20_000)  # 160 KB: stays in cache
CAL_LARGE = np.random.default_rng(1).standard_normal(1_000_000)  # 8 MB: streams from memory


def blas_info() -> dict:
    """BLAS name, version and thread count of the numpy in use."""
    info = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        pass
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def environment(seed: int) -> dict:
    return {
        "nproc": workloads.nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "seed": seed,
    }


def median(values: list):
    """Median; for counts the lower middle value, so that a count stays a whole number."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def workdir(name: str) -> Path:
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{name}-", dir=scratch))


def cmd_setup(args) -> dict:
    directory = workdir(args.workload)
    try:
        workloads.CLASSES[args.workload](ROOT, args.seed, directory).setup()
        seconds = time.perf_counter() - STARTED
        return {"setup_s": seconds, "calibration_s": calibration_s()}
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def setup_child(args) -> dict:
    """Set-up seconds measured in a fresh interpreter, with the calibration kernel
    timed there right after; the caller waits for it."""
    proc = subprocess.run([sys.executable, __file__, "setup", "--workload", args.workload,
                           "--seed", str(args.seed)], capture_output=True, text=True,
                          timeout=SETUP_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"setup child exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def calibration_s() -> float:
    """Shortest of three timings of a fixed kernel that does not touch rscontrol:
    an interpreter loop, in-cache numpy and memory-streaming numpy, the three
    kinds of work the workloads do.  Timed around every untraced pass, it
    tracks how fast the host runs the process at that moment.  A set-up child
    times it right after its set-up."""
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for i in range(20_000):
            total += i * i
        for _ in range(4):
            np.sin(CAL_SMALL).sum()
        (CAL_LARGE * 1.5).sum()
        best = min(best, time.perf_counter() - started)
    return best


def timed_pass(load, tracer, index: int):
    """One pass: (seconds, outputs or None, failure message or None)."""
    if tracer is not None:
        tracer.run_id = index
        tracer.install()
    started = time.perf_counter()
    try:
        outputs = load.run_pass()
        return time.perf_counter() - started, outputs, None
    except Exception:
        return time.perf_counter() - started, None, traceback.format_exc(limit=3)
    finally:
        if tracer is not None:
            tracer.uninstall()


def cmd_run(args) -> dict:
    directory = workdir(args.workload)
    try:
        load = workloads.CLASSES[args.workload](ROOT, args.seed, directory)
        load.setup()
        load.prepare_checks()
        return run_passes(load, args)
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def run_passes(load, args) -> dict:
    tracer = tracing.Tracer() if args.trace else None
    untraced, calibration, traced, layers, speedups = [], [], [], [], []
    costs, nbytes, failures, failed, setup, setup_calibration = [], [], [], set(), [], []
    started = time.perf_counter()
    deadline = started + args.seconds
    next_setup = started
    index = 0
    while True:
        step_started = time.perf_counter()
        if tracer is None and step_started >= next_setup:
            measured = setup_child(args)
            setup.append(measured["setup_s"])
            setup_calibration.append(measured["calibration_s"])
            next_setup = time.perf_counter() + SETUP_EVERY_S
        is_traced = tracer is not None and index % 2 == 1
        offset = len(tracer.spans) if tracer is not None else 0
        if is_traced:
            seconds, outputs, error = timed_pass(load, tracer, index)
            traced.append(seconds)
        else:
            before = calibration_s()
            seconds, outputs, error = timed_pass(load, None, index)
            calibration.append((before + calibration_s()) / 2.0)
            untraced.append(seconds)
        if error is not None:
            failed.add(index)
            failures.append(f"pass {index}: {error}")
        else:
            try:
                result = load.check(outputs)
            except Exception:
                result = workloads.PassResult(float("nan"), 0, [traceback.format_exc(limit=3)])
            if is_traced:
                layers.append(tracing.pass_metrics(tracer.spans[offset:], offset))
                if isinstance(load, workloads.ForwardScale):
                    serial_s, same = load.serial_repeat(outputs)
                    threaded_s = sum(s.end - s.start for s in tracer.spans[offset:]
                                     if s.name == "dynamics.simulate")
                    speedups.append(serial_s / threaded_s)
                    if not same:
                        result.failures.append("threaded and serial simulations differ")
            if result.failures:
                failed.add(index)
            failures += [f"pass {index}: {msg}" for msg in result.failures]
            costs.append(result.final_cost)
            nbytes.append(result.output_bytes)
        del outputs  # free this pass's arrays before the next pass allocates
        index += 1
        # stop before a pass that would end after the deadline, judged by the last one
        now = time.perf_counter()
        if now + (now - step_started) > deadline and (tracer is None or traced):
            break

    doc = {
        "workload": args.workload,
        "attempted": index,
        "failed": len(failed),
        "failures": failures,
        "run_s": untraced,
        "calibration_s": calibration,
        "setup_s": setup,
        "setup_calibration_s": setup_calibration,
        "final_cost": costs,
        "output_bytes": nbytes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(args.seed),
    }
    if tracer is not None:
        doc["traced_s"] = traced
        doc["trace_missing"] = tracer.missing
        metrics = {key: median([p[key] for p in layers]) for key in layers[0]} if layers else {}
        metrics["dynamics.thread_speedup"] = statistics.median(speedups) if speedups else 0.0
        metrics["cli.bytes_written"] = median(nbytes) if nbytes else 0
        metrics["trace.overhead_s"] = lower_quartile(traced) - lower_quartile(untraced)
        doc["layers"] = metrics
        spans_path = ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.csv"
        tracer.write(spans_path)
        doc["spans_file"] = str(spans_path.relative_to(ROOT))
    return doc


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    doc = cmd_setup(args) if args.mode == "setup" else cmd_run(args)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
