"""Benchmark entry point: one workload per process, end to end or traced.

Run from the repository root; the program is imported from ``src/``::

    python3 perfbench/run.py --workload digits-g1 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all      # each workload in its own process

``--trace 0`` measures the end-to-end metrics with nothing wrapped:

- ``setup_s``: median wall time of five fresh processes that start the
  interpreter, import, make the inputs (writing and loading IDX files where
  the workload does), build the model and run the warm-up;
- ``wall_s``: seconds of the fastest repetition of the workload (its
  program calls, not the benchmark's output checks);
- ``samples_per_s``: rows per second of the fastest repetition (training
  rows on the two training workloads, replayed plus evaluated rows
  otherwise);
- ``peak_rss_mb``: the process's peak resident memory.

Repetitions run back to back for ``--seconds`` (at least three). The timings
take the fastest repetition, not the median, because other tenants of a
shared machine slow the CPU for a share of each second that drifts over
minutes, and that only ever adds time. On a shared 2-core cloud VM (Intel
Xeon, OpenBLAS 0.3.31) the fastest ``toy-quickstart`` repetition spread
less between runs than the median (IQR/median 0.05 against 0.07 over ten
seeds); on the digit workloads the two spread about equally. The median is
printed beside it.

``--trace 1`` makes the same untraced measurement, then sets up and runs one
repetition again with every layer's public functions wrapped (see
``tracing.py``), and reports per-layer busy seconds, call and work counts,
the tracing overhead and the kernel micro-benchmark.

The lines before the last give the environment and every metric with its
unit and sample count; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``attempted`` counts
output checks; a repetition that raises counts as a failed check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

WORKLOAD_NAMES = ("toy-quickstart", "digits-g1", "digits-replay-eval")
MIN_REPS = 3
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
CHILD_TIMEOUT_S = 900

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "samples_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def core_count() -> int:
    return len(os.sched_getaffinity(0))


def pin_blas_threads() -> int:
    """Cap BLAS threads at the usable cores; must run before numpy loads."""
    cores = core_count()
    try:
        wanted = int(os.environ.get("OPENBLAS_NUM_THREADS", cores))
    except ValueError:
        wanted = cores
    threads = max(1, min(wanted, cores))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(threads: int) -> dict[str, str]:
    import numpy as np

    from clare import kernels

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas_text = "unknown"
    return {
        "backend": kernels.backend_name(),
        "numpy": np.__version__,
        "blas": blas_text,
        "python": platform.python_version(),
        "blas_threads": str(threads),
        "cores": str(core_count()),
        "cpu": cpu_model(),
    }


class Tally:
    """Output checks attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def record(self, checks: dict[str, bool]) -> None:
        for what, ok in checks.items():
            self.expect(ok, what)


def probe_setup(name: str, seed: int) -> float:
    """Wall time of a fresh process that only sets the workload up."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(seed), "--setup-probe"]
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=PROBE_TIMEOUT_S)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    return elapsed


def measure(workload, state, seconds: float, tally: Tally):
    """Run repetitions back to back for about ``seconds``; at least MIN_REPS."""
    reps = []
    started = time.perf_counter()
    while True:
        try:
            rep = workload.run_once(state)
        except Exception:  # noqa: BLE001 - a failed repetition is a result
            tally.expect(False, f"repetition {len(reps)} raised:\n{traceback.format_exc()}")
            break
        tally.record(rep.checks)
        if reps:
            tally.expect(
                rep.fingerprint == reps[0].fingerprint,
                f"repetition {len(reps)} on one seed differs from the first",
            )
        reps.append(rep)
        if len(reps) >= MIN_REPS and time.perf_counter() - started + rep.seconds > seconds:
            break
    return reps


def traced_pass(workload, seed: int, workdir: str, untraced_rep_s: float, first, tally: Tally):
    """Set up and run one repetition with every layer wrapped."""
    import tracing

    tracer = tracing.LayerTracer()
    with tracer.installed():
        t0 = time.perf_counter()
        state = workload.setup(seed, workdir)
        t1 = time.perf_counter()
        before = tracer.snapshot()
        rep = workload.run_once(state)
        after = tracer.snapshot()
    tally.expect(not tracer.leftovers(), f"wrappers left installed: {tracer.leftovers()}")
    tally.record(rep.checks)
    tally.expect(rep.fingerprint == first.fingerprint,
                 "traced repetition differs from the untraced one")
    rep_busy = {m: after[m][1] - before[m][1] for m in after}
    values = tracer.metrics(t1 - t0, rep.seconds, untraced_rep_s, rep_busy)
    values.update(tracing.bench_kernels())
    return values, tracer.missing


def run_workload(args, threads: int) -> int:
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.setup_probe:
            workload.setup(args.seed, workdir)
            return 0
        setups = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        tally = Tally()
        state = workload.setup(args.seed, workdir)
        reps = measure(workload, state, args.seconds, tally)
        if not reps:
            print("\n".join(tally.failures), file=sys.stderr)
            return 1
        tally.record(workload.finish(state, reps))
        del state
        walls = [rep.seconds for rep in reps]
        rates = [rep.rows / rep.seconds for rep in reps]
        samples = {
            "setup_s": (statistics.median(setups), len(setups)),
            "wall_s": (min(walls), len(walls)),
            "samples_per_s": (max(rates), len(rates)),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        }
        extras = {"wall_s_median": (statistics.median(walls), "s"), **workload.extras(reps)}
        if args.trace:
            layer, missing = traced_pass(
                workload, args.seed, workdir, statistics.median(walls), reps[0], tally
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload: {args.workload}   seed: {args.seed}   trace: {args.trace}")
    for key, value in environment(threads).items():
        print(f"env.{key}: {value}")
    for name, (value, n) in samples.items():
        print(f"{name:<22} {value:>14.6g} {END_TO_END[name]:<6} n={n}")
    for name, (value, unit) in extras.items():
        print(f"{name:<22} {value:>14.6g} {unit:<6} n={len(reps)}")
    fail_frac = len(tally.failures) / tally.attempted
    print(f"{'fail_frac':<22} {fail_frac:>14.6g} {'ratio':<6} "
          f"n={tally.attempted} ({len(tally.failures)} failed)")
    for failure in tally.failures:
        print(f"FAILED: {failure}", file=sys.stderr)

    if args.trace:
        import tracing

        for name, (unit, _) in tracing.PER_LAYER_METRICS.items():
            print(f"{name:<34} {layer[name]:>14.6g} {unit}")
        if missing:
            print(f"not in the program, read as zero: {', '.join(missing)}")
        metrics = {
            name: {"value": layer[name], "unit": unit}
            for name, (unit, _) in tracing.PER_LAYER_METRICS.items()
        }
    else:
        metrics = {
            name: {"value": value, "unit": END_TO_END[name]}
            for name, (value, _) in samples.items()
        }
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]) + "\n")
        if done.returncode != 0 or not lines:
            status = 1
            totals["correct"] = False
            continue
        result = json.loads(lines[-1])
        totals["correct"] &= result["correct"]
        totals["attempted"] += result["attempted"]
        totals["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            totals["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(totals))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "clare", "__init__.py")):
        print(f"error: no program to measure: {SRC}/clare is missing", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    # Termination unwinds like an error, so the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    threads = pin_blas_threads()
    sys.path.insert(0, SRC)
    return run_workload(args, threads)


if __name__ == "__main__":
    sys.exit(main())
