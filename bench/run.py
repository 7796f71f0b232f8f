#!/usr/bin/env python3
"""Benchmark of the aitax CLI, run in-process.

    python3 bench/run.py --workload desk --seed 1 --seconds 25 --trace 0

One process, one caller, closed loop: after an untimed warm-up round the
workload's operations run back to back, in whole rounds, until the timed
operations add up to ``--seconds``.  Every operation calls
``aitax.cli.main(argv)`` and its outputs are checked against independent
formulas (``reference.py``) outside the timed region.  Times are reported
at a reference machine speed, measured between the operations
(``speed.py``); the summary lines also give them as measured.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` installs the
span wrappers of ``tracing.py`` and prints the per-layer metrics instead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A failed check,
or a counter that recorded nothing, ends the run with exit status 1 and
no result line.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import CheckError
from speed import EVERY_S, Speed
from tracing import PER_LAYER_UNITS, CounterGuardError, EvalCounter, Tracer
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# fresh interpreters timed for setup_s, half before and half after the timed
# window so that one slow spell of the machine does not set the median; one
# more runs first, to warm bytecode and file caches, and is discarded
SETUP_PROBES = 6

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "cpu_ms_per_op": "ms",
    "kkt_evals_per_op": "count",
    "peak_rss_mb": "MB",
}


def import_program() -> None:
    """Import ``aitax`` from this checkout's ``src``, or stop."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import aitax.cli
    except ImportError as exc:
        sys.exit(f"bench: cannot import aitax from {src}: {exc}")
    if not Path(aitax.cli.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"bench: aitax was imported from {aitax.cli.__file__}, not from {src}")


def setup_times(args, count: int, speed: Speed) -> list[float]:
    """Wall times of fresh interpreters that import the CLI and prepare the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(count):
        speed.sample()
        start = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def parse_args():
    parser = argparse.ArgumentParser(description="aitax CLI benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not args.seconds > 0.0:
        parser.error("--seconds must be positive")
    return args


def measure(workload, seconds: float, speed: Speed) -> tuple[list[float], list[float], int]:
    """Whole rounds until the timed operations add up to ``seconds``.

    A speed slice runs before the first operation and then after every
    ``EVERY_S`` of operation time, outside the timed operations."""
    walls, cpus, failed = [], [], 0
    since_slice = EVERY_S
    while sum(walls) < seconds:
        for op in workload.round():
            if since_slice >= EVERY_S:
                speed.sample()
                since_slice = 0.0
            wall, cpu = time.perf_counter(), time.process_time()
            outcome = workload.run_op(op)
            walls.append(time.perf_counter() - wall)
            cpus.append(time.process_time() - cpu)
            since_slice += walls[-1]
            failed += workload.check(op, outcome)
    return walls, cpus, failed


def tail(walls: list[float]) -> str:
    """The highest percentile of operation time with ten operations beyond it."""
    n = len(walls)
    if n < 40:
        return f"{n} operations: too few for a tail beyond the median"
    return (f"op_p{100 * (n - 10) / n:.0f}_ms = {sorted(walls)[n - 11] * 1e3:.6g} ms "
            f"(10 of {n} operations beyond it)")


def main() -> int:
    args = parse_args()
    import_program()
    run_dir = BENCH / "out" / f"{args.workload}-{os.getpid()}"
    try:
        workload = WORKLOADS[args.workload](ROOT, run_dir, args.seed)
        run_dir.mkdir(parents=True)
        workload.prepare()
        if args.setup_probe:
            return 0
        setup_speed = Speed()
        setup = [] if args.trace else setup_times(args, 1 + SETUP_PROBES // 2, setup_speed)[1:]

        probe = Tracer() if args.trace else EvalCounter()
        probe.install()
        workload.warm_up()
        probe.clear()
        speed = Speed()
        walls, cpus, failed = measure(workload, args.seconds, speed)
        n, scale = len(walls), speed.scale()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args.trace:
            metrics = probe.metrics(n, sum(walls), scale, workload.required_spans, args.workload)
            probe.dump(BENCH / "spans" / f"{args.workload}.npz")
            units = PER_LAYER_UNITS
        else:
            probe.guard(args.workload)
            setup += setup_times(args, SETUP_PROBES - len(setup), setup_speed)
            measured = (f"as measured: setup {statistics.median(setup):.4g} s, "
                        f"{n / sum(walls):.4g} ops/s, op_p50 {statistics.median(walls) * 1e3:.4g} ms, "
                        f"cpu {sum(cpus) / n * 1e3:.4g} ms/op")
            metrics = {
                "setup_s": statistics.median(setup) * setup_speed.scale(),
                "ops_per_s": n / (sum(walls) * scale),
                "op_p50_ms": statistics.median(walls) * scale * 1e3,
                "cpu_ms_per_op": sum(cpus) / n * scale * 1e3,
                "kkt_evals_per_op": probe.evals / n,
                "peak_rss_mb": peak_rss_mb,
            }
            units = END_TO_END_UNITS
    except (CheckError, CounterGuardError) as exc:
        print(f"bench: {args.workload}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            run_dir.parent.rmdir()  # only when no other run is using it

    print(f"workload {args.workload}, seed {args.seed}: attempted {n}, failed {failed}")
    print(f"  machine speed {scale:.3f} of the reference (speed.py); metrics are at the reference speed")
    if not args.trace:
        print(f"  {measured}")
    print(f"  as measured: {tail(walls)}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": True,
        "attempted": n,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
