#!/usr/bin/env python
"""Kill-and-continue smoke: SIGKILL a durable run mid-flight, then finish it.

The durable-store test suite simulates crashes by injecting faults into
blob writes; this script is the real thing.  It

1. runs an uninterrupted twin of the scenario in-process (its own store),
2. spawns a child process running the same scenario against the victim
   store; a runtime hook SIGKILLs the child the first time simulated
   time reaches the kill point — no atexit, no cleanup, exactly like a
   crashed driver,
3. verifies the child died by signal, resumes the victim run from its
   store (``Experiment.resume`` replays the persisted Scroll forward to
   the crash point), continues it to the scenario horizon, and
4. asserts the continued run landed on the uninterrupted twin's
   application state.

Wired into ``make resume-smoke``; exits non-zero on any mismatch.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import shutil

SCENARIO_NAME = "kv-kill-continue"
HORIZON = 8.0
KILL_AT = 5.0


def kv_scenario(store: str, flush_mode: str = "sync"):
    from repro.api import Scenario

    return Scenario(
        app="kvstore",
        name=SCENARIO_NAME,
        params={"replicas": 2, "clients": 1},
        seed=11,
        until=HORIZON,
        auto_commit_interval=2.0,
        checkpoint_store="disk",
        store_path=store,
        flush_mode=flush_mode,
    )


def run_victim(store: str, flush_mode: str = "sync") -> None:
    """Child: run the scenario, then die by SIGKILL mid-run.

    Mirrors ``run_scenario`` with one addition — a hook that SIGKILLs
    this process the first time a handler finishes at or past KILL_AT.
    FixD's hooks are installed first, so the auto-commits (and their
    Scroll flushes) before the kill point have already landed on disk.
    """
    from repro.api import apps as app_registry
    from repro.api.experiment import _fixd_config
    from repro.core.fixd import FixD
    from repro.dsim.cluster import Cluster, ClusterConfig
    from repro.dsim.hooks import RuntimeHook

    scenario = kv_scenario(store, flush_mode)
    cluster = Cluster(
        ClusterConfig(seed=scenario.seed, halt_on_violation=False),
        backend=scenario.backend,
    )
    app_registry.build(cluster, scenario.app, **scenario.params)
    fixd = FixD(_fixd_config(scenario))
    fixd.attach(cluster)
    fixd.time_machine.durable_store.set_run_metadata(
        {"scenario": scenario.to_dict()}
    )

    durable = fixd.time_machine.durable_store

    class SigkillAt(RuntimeHook):
        def after_handler(self, pid, description, time):
            if time >= KILL_AT:
                # simulated time outruns wall time by orders of magnitude,
                # so in pipelined mode the background writer may not have
                # landed a manifest yet (a real deployment runs at wall
                # speed, where it keeps up).  Wait for one committed line
                # AND the scroll sidecar to be durable — both were
                # enqueued by the auto-commits before the kill point —
                # then kill; later flushes stay queued, so the SIGKILL
                # still lands mid-pipeline.
                import time as wall

                deadline = wall.monotonic() + 10.0
                while not list(durable.run_dir.glob("line-*.json")) or not (
                    durable.run_dir / "scroll.json"
                ).exists():
                    if wall.monotonic() > deadline:
                        break
                    wall.sleep(0.01)
                os.kill(os.getpid(), signal.SIGKILL)

    cluster.add_hook(SigkillAt())
    cluster.run(until=HORIZON, max_events=scenario.max_events)
    raise SystemExit(f"victim survived to the horizon without reaching t={KILL_AT}")


def run_cycle(flush_mode: str) -> int:
    """One full kill-resume-continue cycle in the given durable flush mode."""
    from repro.api import Experiment

    twin_store = tempfile.mkdtemp(prefix=f"kill-continue-twin-{flush_mode}-")
    victim_store = tempfile.mkdtemp(prefix=f"kill-continue-victim-{flush_mode}-")
    try:
        twin = Experiment([kv_scenario(twin_store, flush_mode)]).run()[0]

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH", "")) if p
        )
        child = subprocess.run(
            [
                sys.executable,
                os.path.abspath(__file__),
                "--victim",
                victim_store,
                flush_mode,
            ],
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        if child.returncode != -signal.SIGKILL:
            print(
                f"FAIL[{flush_mode}]: victim exited with {child.returncode}, "
                f"expected death by SIGKILL ({-signal.SIGKILL})",
                file=sys.stderr,
            )
            return 1
        print(f"[{flush_mode}] victim died by SIGKILL mid-run (rc={child.returncode})")

        resumed = Experiment.resume(SCENARIO_NAME, victim_store)
        if not resumed.replays or not all(
            replay.ok for replay in resumed.replays.values()
        ):
            print(
                f"FAIL[{flush_mode}]: replay-forward diverged: {resumed.replays}",
                file=sys.stderr,
            )
            return 1
        print(
            f"[{flush_mode}] resumed {resumed.run_id!r} at committed line "
            f"{resumed.line_index}; replayed "
            f"{sum(r.events_replayed for r in resumed.replays.values())} "
            "recorded events forward"
        )

        continued = resumed.continue_run(until=HORIZON)
        if continued.state_projection() != twin.state_projection():
            print(
                f"FAIL[{flush_mode}]: continued state != uninterrupted twin state",
                file=sys.stderr,
            )
            print(f"  twin      : {twin.state_projection()}", file=sys.stderr)
            print(f"  continued : {continued.state_projection()}", file=sys.stderr)
            return 1
        if not continued.consistent:
            print(
                f"FAIL[{flush_mode}]: continued run failed its consistency check",
                file=sys.stderr,
            )
            return 1
        print(
            f"[{flush_mode}] continued to t={continued.final_time:.1f}: state "
            "matches the uninterrupted twin"
        )
        return 0
    finally:
        shutil.rmtree(twin_store, ignore_errors=True)
        shutil.rmtree(victim_store, ignore_errors=True)


def main() -> int:
    # both durable flush modes take the same kill: a SIGKILL under the
    # pipelined writer is the real test of its FIFO crash-window ordering
    for flush_mode in ("sync", "pipelined"):
        code = run_cycle(flush_mode)
        if code:
            return code
    print("kill-and-continue smoke passed in both flush modes")
    return 0


if __name__ == "__main__":
    if len(sys.argv) >= 3 and sys.argv[1] == "--victim":
        run_victim(sys.argv[2], sys.argv[3] if len(sys.argv) > 3 else "sync")
        raise SystemExit(1)  # unreachable unless the kill never fired
    raise SystemExit(main())
