#!/usr/bin/env python3
"""End-to-end wall-clock benchmark: the orchestrator.

    python3 benchmarks/e2e/run.py                       # every workload, untraced
    python3 benchmarks/e2e/run.py --trace               # ... then the traced pass
    python3 benchmarks/e2e/run.py --workload burst_shm --seed 3 --seconds 10 --trace 0
    python3 benchmarks/e2e/run.py --selfcheck           # two sets, compared to the bounds

This file stays thin on purpose: it never imports ``repro`` or
``multiprocessing``.  Each workload runs in its own child process
(``child.py``) started in a new session; the child returns one JSON
result over a pipe and is bounded by a hard timeout.  On every exit path
the child's process group is killed and reaped and ``/proc`` is scanned
for survivors of that session, so nothing the run started outlives it.

With ``--workload`` the last line of standard output is one JSON object
with exactly the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; everything above it is for people.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: scratch root inside the checkout; short, because unix socket paths
#: (at most 107 bytes) are created beneath it
TMP_ROOT = ROOT / ".e2e_tmp"
OUT_DIR = HERE / "out"

#: the contract allows 180 s per run; leave room for teardown
CHILD_TIMEOUT_S = 150.0
#: how long a child gets to unwind after SIGTERM before it is killed
GRACE_S = 5.0
#: longest socket path the net backend builds under the temp dir:
#: "/fixd-net-XXXXXXXX/shard-N.sock"
SOCKET_SUFFIX_LEN = 32
SUN_PATH_MAX = 107
EXACT_COUNTS = ("events_executed", "projection_sha", "messages_delivered", "pickled_msgs")


class Interrupted(Exception):
    def __init__(self, signum: int) -> None:
        super().__init__(f"signal {signum}")
        self.signum = signum


def _raise_interrupted(signum, _frame) -> None:
    raise Interrupted(signum)


# ----------------------------------------------------------------------
# process hygiene
# ----------------------------------------------------------------------
def session_pids(sid: int) -> List[int]:
    """Live (non-zombie) processes whose session id is ``sid``."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue  # exited while we were looking
        # pid (comm) state ppid pgrp session ... ; comm may contain spaces
        fields = stat[stat.rindex(")") + 2 :].split()
        if fields[0] != "Z" and int(fields[3]) == sid:
            found.append(int(entry))
    return found


def wait_until(predicate, timeout: float) -> bool:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.02)
    return True


def stop_session(child: subprocess.Popen) -> Tuple[int, int]:
    """Stop the child's whole session; returns (stragglers, procs_left_running).

    Order matters for shared memory: the leader is asked first (SIGTERM
    unwinds the backends' ``finally`` blocks), then killed alone so
    Python's resource tracker — which ignores SIGTERM and outlives the
    leader by design — can unlink any segment still registered, and only
    then is the group killed.
    """
    sid = child.pid  # start_new_session=True made the child its session's leader
    if child.poll() is None:
        child.send_signal(signal.SIGTERM)
        try:
            child.wait(GRACE_S)
        except subprocess.TimeoutExpired:
            child.kill()
    child.wait()
    stragglers = len(session_pids(sid))
    wait_until(lambda: not session_pids(sid), 2.0)
    try:
        os.killpg(sid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    for pid in session_pids(sid):  # anything that left the group but not the session
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    wait_until(lambda: not session_pids(sid), 2.0)
    return stragglers, len(session_pids(sid))


def shm_entries() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


# ----------------------------------------------------------------------
# one workload, one child
# ----------------------------------------------------------------------
def run_child(
    workload: str, seed: int, seconds: float, trace: int, iterations: int
) -> Dict[str, Any]:
    """Run one workload in a fresh session and return its result.

    The returned dict always carries ``housekeeping``; ``result`` is None
    when the child died, timed out or returned something unreadable.
    """
    TMP_ROOT.mkdir(exist_ok=True)
    shm_before = shm_entries()
    tmp = tempfile.TemporaryDirectory(dir=TMP_ROOT, prefix="r")
    if len(tmp.name) + SOCKET_SUFFIX_LEN > SUN_PATH_MAX:
        raise SystemExit(
            f"checkout path too long for unix sockets under {tmp.name!r}; "
            "move the checkout to a shorter path"
        )
    read_fd, write_fd = os.pipe()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    command = [
        sys.executable,
        str(HERE / "child.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--iterations", str(iterations),
        "--trace", str(trace),
        "--tmp", tmp.name,
        "--out", str(OUT_DIR),
        "--result-fd", str(write_fd),
    ]  # fmt: skip
    result = None
    status = "ok"
    child = subprocess.Popen(
        command,
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,  # nothing the child prints may follow our last line
        pass_fds=(write_fd,),
        start_new_session=True,
    )
    try:
        os.close(write_fd)
        payload = bytearray()
        deadline = time.monotonic() + CHILD_TIMEOUT_S
        os.set_blocking(read_fd, False)
        # Not "read until EOF": a worker the child forked holds a copy of
        # the write end, so the pipe may stay open after the child is gone.
        while True:
            if time.monotonic() >= deadline:
                status = "timeout"
                break
            exited = child.poll() is not None
            select.select([read_fd], [], [], 0.0 if exited else 0.1)
            try:
                block = os.read(read_fd, 1 << 16)
            except BlockingIOError:
                block = None
            if block:
                payload += block
            elif block == b"" or exited:
                break
        if status == "ok":
            try:
                child.wait(GRACE_S)
            except subprocess.TimeoutExpired:
                status = "lingered"
            try:
                result = json.loads(payload)
            except ValueError:
                status = f"no result (exit code {child.returncode})"
    finally:
        os.close(read_fd)
        stragglers, left = stop_session(child)
        tmp.cleanup()
        housekeeping = {
            "status": status,
            "stragglers_at_exit": stragglers,
            "procs_left_running": left,
            "shm_left": sorted(shm_entries() - shm_before),
            "tmp_left": os.path.exists(tmp.name),
        }
    return {"workload": workload, "result": result, "housekeeping": housekeeping}


def clean(run: Dict[str, Any]) -> bool:
    keeping = run["housekeeping"]
    return (
        keeping["status"] == "ok"
        and keeping["procs_left_running"] == 0
        and not keeping["shm_left"]
        and not keeping["tmp_left"]
    )


def passed(run: Dict[str, Any]) -> bool:
    return clean(run) and run["result"] is not None and bool(run["result"]["correct"])


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------
def contract_result(run: Dict[str, Any]) -> Dict[str, Any]:
    """The four keys the driver reads, and nothing else."""
    result = run["result"]
    return {
        "correct": passed(run),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }


def print_run(run: Dict[str, Any]) -> None:
    keeping = run["housekeeping"]
    result = run["result"]
    print(f"== {run['workload']} ==")
    if result is not None:
        detail = result.get("detail", {})
        for name, metric in result["metrics"].items():
            print(f"  {name:<44} {metric['value']:>14.4f} {metric['unit']}")
        print(
            f"  attempted={result['attempted']} failed={result['failed']} "
            f"correct={result['correct']}"
        )
        for key in ("op", "latency_of", "tail_pct", "latency_samples", "counts",
                    "focus", "layer_self_ms", "spans_file"):  # fmt: skip
            if key in detail:
                print(f"  {key}: {detail[key]}")
        for note in detail.get("failures", []):
            print(f"  FAILED: {note}")
        if "fingerprint" in detail:
            print(f"  fingerprint: {json.dumps(detail['fingerprint'], sort_keys=True)}")
    print(
        f"  status={keeping['status']} stragglers_at_exit={keeping['stragglers_at_exit']} "
        f"procs_left_running={keeping['procs_left_running']} "
        f"shm_left={len(keeping['shm_left'])} tmp_left={keeping['tmp_left']}"
    )
    sys.stdout.flush()


def selfcheck(spec: Dict[str, Any], workloads: List[str], seed: int, seconds: float) -> int:
    """Two sets of the same code, workload order alternating; compare to the bounds."""
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    sets = []
    for order in (workloads, workloads[::-1]):
        runs = {}
        for workload in order:
            runs[workload] = run_child(workload, seed, seconds, 0, 0)
            print_run(runs[workload])
        sets.append(runs)
    bad = 0
    print(f"{'workload':<16}{'metric':<16}{'set 1':>14}{'set 2':>14}{'worse by':>10}{'bound':>8}")
    for workload in workloads:
        first, second = sets[0][workload], sets[1][workload]
        if not (passed(first) and passed(second)):
            print(f"{workload:<16}did not pass in both sets")
            bad += 1
            continue
        for name, (better, bound) in bounds.items():
            a = first["result"]["metrics"][name]["value"]
            b = second["result"]["metrics"][name]["value"]
            worse_by = (b - a) / a if better == "lower" else (a - b) / a
            verdict = "" if worse_by <= bound else "  OUT OF BOUND"
            bad += bool(verdict)
            print(f"{workload:<16}{name:<16}{a:>14.4f}{b:>14.4f}{worse_by:>+10.3f}{bound:>8.2f}{verdict}")
        counts = [run["result"]["detail"]["counts"] for run in (first, second)]
        for key in EXACT_COUNTS:
            if counts[0].get(key) != counts[1].get(key):
                print(f"{workload:<16}{key}: {counts[0].get(key)} != {counts[1].get(key)}  EXACT COUNT DIFFERS")
                bad += 1
    print("selfcheck:", "ok" if not bad else f"{bad} problem(s)")
    return 1 if bad else 0


def main() -> int:
    # BENCHMARK.json is the one list of workloads and bounds
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads, help="run one workload (contract mode)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0, help="timed phase per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument(
        "--iterations", type=int, default=0, help="fixed iteration count instead of --seconds"
    )
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()

    if not (SRC / "repro" / "api" / "__init__.py").is_file():
        print(f"run.py: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, _raise_interrupted)
    try:
        if args.selfcheck:
            return selfcheck(spec, workloads, args.seed, args.seconds)
        if args.workload:
            run = run_child(args.workload, args.seed, args.seconds, args.trace, args.iterations)
            print_run(run)
            if run["result"] is None:
                return 1
            print(json.dumps(contract_result(run)))
            return 0 if passed(run) else 1
        # no --workload: the untraced pass over every workload, then (with
        # --trace) the traced pass; end-to-end numbers only ever come from
        # the untraced one
        runs = []
        for trace in range(args.trace + 1):
            for workload in workloads:
                runs.append(run_child(workload, args.seed, args.seconds, trace, args.iterations))
                print_run(runs[-1])
        print(json.dumps([{"workload": r["workload"], "trace": i // len(workloads),
                           **(contract_result(r) if r["result"] else {"correct": False})}
                          for i, r in enumerate(runs)]))  # fmt: skip
        return 0 if all(passed(run) for run in runs) else 1
    except Interrupted as stop:
        # run_child's finally has already stopped and reaped the session
        print(f"run.py: interrupted by signal {stop.signum}", file=sys.stderr)
        return 128 + stop.signum
    finally:
        try:
            TMP_ROOT.rmdir()  # only when empty: another run.py may be using it
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
