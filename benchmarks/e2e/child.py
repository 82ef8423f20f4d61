"""The workload child: one workload, one process, one JSON result.

``run.py`` starts this file in a fresh session and reads the result from
the file descriptor named by ``--result-fd``.  Everything that imports
``repro`` or forks workers happens here, never in the orchestrator.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import signal
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Tuple

WARMUPS = 3
SETUP_REPEATS = 3


def cpu_seconds() -> float:
    """User+system CPU of this process and every descendant it has reaped."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mib() -> float:
    """Largest resident set among this process and its reaped descendants."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def fingerprint() -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg_1min_at_start": os.getloadavg()[0],
    }


def set_up(workload_class, seed: int, tmp: Path):
    """One full set-up pass: build, oracle/twin runs, warm-up iterations."""
    workload = workload_class(seed, tmp)
    workload.setup()
    for index in range(WARMUPS):
        sample = workload.warmup(-1 - index)
        if not sample.ok:
            raise RuntimeError(f"warm-up iteration failed its check: {sample.note}")
    return workload


def measure(args, import_s: float) -> Dict[str, Any]:
    """The untraced pass: set-up, then the closed loop for ``--seconds``."""
    from workloads import WORKLOADS, percentile

    workload_class = WORKLOADS[args.workload]
    tmp = Path(args.tmp)
    setup_walls = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        workload = set_up(workload_class, args.seed, tmp)
        setup_walls.append(time.perf_counter() - started)

    attempted = failed = 0
    #: per passing iteration, in order: (wall s, cpu s, ops, latency samples ms)
    passing: List[Tuple[float, float, int, List[float]]] = []
    reference = None
    notes: List[str] = []
    started = time.perf_counter()
    deadline = started + args.seconds

    def more() -> bool:
        if args.iterations:
            return attempted < args.iterations
        return time.perf_counter() < deadline

    while more():
        attempted += 1
        wall_before, cpu_before = time.perf_counter(), cpu_seconds()
        # every iteration starts from a collected heap: the cyclic garbage
        # of a run is the program's cost and stays inside the iteration's
        # wall and CPU, but a gen-2 pass no longer lands in every second
        # latency sample
        gc.collect()
        try:
            sample = workload.iterate(attempted)
        except Exception:  # a raising iteration is a failed op, never retried
            sample = None
            notes.append(traceback.format_exc(limit=4))
        it_wall, it_cpu = time.perf_counter() - wall_before, cpu_seconds() - cpu_before
        workload.tidy()
        if sample is None:
            failed += 1
            continue
        if sample.timed_s:
            it_wall, it_cpu = sample.timed_s
        if reference is None:
            reference = sample.counts
        if not sample.ok or sample.counts != reference:
            failed += 1
            notes.append(sample.note or f"exact counts changed: {sample.counts} != {reference}")
            continue
        passing.append((it_wall, it_cpu, sample.ops, sample.latencies_ms))
    wall = time.perf_counter() - started

    metrics = {}
    if passing:
        latencies = sorted(ms for record in passing for ms in record[3])
        # medians over iterations, not totals over the run: a stretch that a
        # neighbour slowed down (or that the disk sped up) moves a total
        metrics = {
            "setup_s": (import_s + statistics.median(setup_walls), "s"),
            "ops_per_s": (statistics.median(n / w for w, _c, n, _ in passing), "op/s"),
            "cpu_ms_per_op": (statistics.median(c * 1e3 / n for _w, c, n, _ in passing), "ms"),
            "lat_p50_ms": (percentile(latencies, 50), "ms"),
            "lat_tail_ms": (percentile(latencies, workload.tail_pct), "ms"),
            "peak_rss_mb": (peak_rss_mib(), "MiB"),
        }
    return {
        "correct": failed == 0 and bool(passing),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "detail": {
            "workload": workload.name,
            "op": workload.op,
            "latency_of": workload.latency_of,
            "tail_pct": workload.tail_pct,
            "latency_samples": sum(len(record[3]) for record in passing),
            "ops": sum(record[2] for record in passing),
            "timed_wall_s": wall,
            "import_s": import_s,
            "setup_walls_s": setup_walls,
            "counts": reference or {},
            "failures": notes[:5],
            "fingerprint": args.fingerprint,
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--iterations", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result-fd", type=int, required=True)
    args = parser.parse_args()
    args.fingerprint = fingerprint()

    # SIGTERM unwinds through the backends' finally blocks, so workers,
    # socket directories and shared-memory segments are released
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # socket directories and every other tempfile land under the run's one directory
    tempfile.tempdir = args.tmp

    started = time.perf_counter()
    import repro.api  # noqa: F401 - timed: import is part of set-up
    import workloads  # noqa: F401

    import_s = time.perf_counter() - started
    if args.trace:
        from layers import trace

        result = trace(args)
    else:
        result = measure(args, import_s)
    with os.fdopen(args.result_fd, "w") as pipe:
        json.dump(result, pipe)
    return 0


if __name__ == "__main__":
    sys.exit(main())
