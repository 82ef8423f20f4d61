"""The seven end-to-end workloads.

Each workload is a closed loop: :meth:`Workload.iterate` runs one
iteration to completion, checks its output, and returns a
:class:`Sample`; the driver (``child.py``) starts the next iteration
only when the previous one returned.  A workload fixes

* its **op** — what ``ops_per_s`` and ``cpu_ms_per_op`` count;
* its **latency sample** — what ``lat_p50_ms`` / ``lat_tail_ms`` are taken
  over — and the tail percentile (``tail_pct``) that sample supports;
* its **exact counts** — numbers that must repeat on every iteration and
  between runs of the same seed, so a "speed-up" that changes simulated
  behaviour shows as a count, not as noise.

Shapes (apps, parameters, backends) are fixed here and never scale with
``--seconds``; only the number of iterations does.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import math
import shutil
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.api import (
    Cluster,
    ClusterConfig,
    Corrupt,
    Experiment,
    FaultSchedule,
    FixD,
    FixDConfig,
    Outcome,
    Scenario,
    run_scenario,
)
from repro.api import apps as registry
from repro.api.modelcheck import InvestigatorConfig
from repro.healer.patch import generate_patch

import apps as bench_apps

WORDS_PER_CHUNK = 12  # the wordcount_burst registry default, needed by the oracle


@dataclass
class Sample:
    """What one iteration produced."""

    ok: bool
    ops: int
    latencies_ms: List[float]
    counts: Dict[str, Any] = field(default_factory=dict)
    #: why ``ok`` is false (first failed gate), for the operator
    note: str = ""
    #: (wall s, CPU s) the ops are counted over when that is a part of the
    #: iteration; None means the whole iteration, as the driver timed it
    timed_s: Optional[Tuple[float, float]] = None


def digest(payload: Any) -> str:
    """Short stable hash of a JSON-able structure (exact-count fingerprint)."""
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def percentile(ordered: List[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def no_span(name: str, layer: str):
    """The untraced pass's span: nothing.  ``layers.Tracer.span`` replaces it."""
    return contextlib.nullcontext()


def first_failed(gates: List[Tuple[str, bool]]) -> str:
    """Name of the first gate that is false ('' when all hold)."""
    return next((name for name, held in gates if not held), "")


class Workload:
    name = ""
    op = ""
    latency_of = ""
    tail_pct = 90

    def __init__(self, seed: int, tmp: Path) -> None:
        #: the one Scenario seed this run uses, derived from ``--seed``
        self.seed = zlib.crc32(f"{seed}:{self.name}".encode()) & 0x7FFFFFFF
        self.tmp = tmp

    def setup(self) -> None:
        """Oracle/twin runs and anything else paid once before the loop."""

    def iterate(self, index: int, span=no_span) -> Sample:
        """One closed-loop iteration; ``span(name, layer)`` brackets its phases."""
        raise NotImplementedError

    def warmup(self, index: int) -> Sample:
        sample = self.iterate(index)
        self.tidy()
        return sample

    def tidy(self) -> None:
        """Housekeeping between iterations, outside every timer."""


# ----------------------------------------------------------------------
# the word-count burst: one scenario shape on four substrates
# ----------------------------------------------------------------------
class _Burst(Workload):
    workers = 2
    chunks = 0
    backend = "sim"
    transport = "pipe"

    def scenario(self, chunks: int | None = None) -> Scenario:
        real = self.backend != "sim"
        return Scenario(
            app="wordcount_burst",
            name=self.name,
            params={"workers": self.workers, "chunks": chunks or self.chunks},
            backend=self.backend,
            transport=self.transport,
            seed=self.seed,
            until=2000 if real else None,
            max_events=None,
        )

    def setup(self) -> None:
        expected_counts = registry.app("wordcount_burst").exports["expected_counts"]
        self.expected = expected_counts(self.chunks, WORDS_PER_CHUNK)

    def gates(self, outcome: Outcome) -> List[Tuple[str, bool]]:
        return [
            ("outcome.passed", outcome.passed),
            ("quiescent", outcome.stopped_reason == "quiescent"),
            ("word counts", outcome.final_states["master"]["counts"] == self.expected),
        ]


class SimBurst(_Burst):
    name = "sim_burst"
    op = "simulated event"
    latency_of = "iteration wall"
    tail_pct = 90
    chunks = 400

    def iterate(self, index: int, span=no_span) -> Sample:
        with span("api.run_scenario", "api"):
            outcome = run_scenario(self.scenario())
        return Sample(
            ok=not (note := first_failed(self.gates(outcome))),
            ops=outcome.events_executed,
            latencies_ms=[outcome.wall_time_s * 1e3],
            counts={
                "events_executed": outcome.events_executed,
                "projection_sha": digest(outcome.projection()),
            },
            note=note,
        )


class _RealBurst(_Burst):
    op = "message delivered"
    latency_of = "iteration wall (spawn, quiescence, teardown)"
    tail_pct = 75
    chunks = 1000
    #: the default pipe link pickles every message; shm and net must not
    pickles = False

    def iterate(self, index: int, span=no_span) -> Sample:
        with span("api.run_scenario", "api"):
            outcome = run_scenario(self.scenario())
        #: the link probes read batching and wire counters from here
        self.last_transport = transport = outcome.transport or {}
        delivered = transport.get("messages_delivered", 0)
        pickled = transport.get("messages_pickled", -1)
        gates = self.gates(outcome) + [
            ("messages_delivered == 2*chunks", delivered == 2 * self.chunks),
            ("messages_pickled", pickled == (2 * delivered if self.pickles else 0)),
        ]
        return Sample(
            ok=not (note := first_failed(gates)),
            ops=delivered,
            latencies_ms=[outcome.wall_time_s * 1e3],
            counts={
                "events_executed": outcome.events_executed,
                "messages_delivered": delivered,
                "pickled_msgs": pickled,
            },
            note=note,
        )


class BurstPipe(_RealBurst):
    name = "burst_pipe"
    backend = "mp"
    pickles = True


class BurstShm(_RealBurst):
    name = "burst_shm"
    backend = "mp"
    transport = "shm"


class BurstNet(_RealBurst):
    name = "burst_net"
    backend = "net"


# ----------------------------------------------------------------------
# fault_heal: detected -> collected -> rolled back -> investigated ->
# reported -> healed, on a fixed deck of three cases
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultCase:
    scenario: Scenario
    patch_from: str
    patch_to: str
    patch_targets: Tuple[str, ...]
    #: simulated time of the violation, found by an oracle run in set-up
    fault_at: float = 0.0


#: phase A stops this far before the violation; phase B runs this far past it
FAULT_EPSILON = 0.01
FAULT_WINDOW = 0.5


def fault_deck(seed: int) -> List[FaultCase]:
    def case(app, params, faults, investigate, patch_from, patch_to, targets):
        return FaultCase(
            Scenario(
                app=app,
                name=f"fault_heal-{app}",
                params=params,
                seed=seed,
                faults=faults,
                investigate=investigate,
                expect_violation=True,
                max_events=None,
            ),
            patch_from,
            patch_to,
            targets,
        )

    return [
        case(
            "kvstore",
            {"replicas": 3, "clients": 1, "stale_backups": True, "rewriting_clients": True},
            FaultSchedule(),
            True,
            "KVReplicaStale",
            "KVReplica",
            ("replica1", "replica2"),
        ),
        case(
            "bank",
            {"branches": 3},
            FaultSchedule.of(
                Corrupt(pid="branch1", at=8.05, ops=(("set", ("accounts", "branch1-acct0"), -5),))
            ),
            False,
            "BankBranch",
            "BankBranchFixed",
            (),
        ),
        case(
            # ~300 recorded entries of history sit behind this fault
            "wordcount",
            {"workers": 3, "chunks": 100},
            FaultSchedule.of(
                Corrupt(pid="master", at=80.5, ops=(("set", ("aggregated",), 10**6),))
            ),
            False,
            "WordCountMaster",
            "WordCountMaster",
            ("master",),
        ),
    ]


def attach_fault_case(case: FaultCase):
    """What ``repro.api.execute`` does up to ``run``, plus the registered patch."""
    scenario = case.scenario
    cluster = Cluster(ClusterConfig(seed=scenario.seed, halt_on_violation=False))
    registry.build(cluster, scenario.app, **scenario.params)
    fixd = FixD(
        FixDConfig(
            investigate_on_fault=scenario.investigate,
            investigator=InvestigatorConfig(max_states=2000, max_depth=50),
            max_faults_handled=scenario.max_faults_handled,
        )
    )
    fixd.attach(cluster)
    exports = registry.app(scenario.app).exports
    fixd.register_patch(
        generate_patch(
            exports[case.patch_from], exports[case.patch_to], target_pids=case.patch_targets
        )
    )
    plan = scenario.faults.to_plan()
    if not plan.is_empty():
        cluster.set_failure_plan(plan)
    return cluster, fixd


def run_fault_case(case: FaultCase, span=no_span) -> Tuple[float, Outcome, int]:
    """One fault in two phases: A builds history, B (the timed op) handles the fault.

    Returns phase B's wall in ms, the outcome over both phases, and the
    number of violations seen before the fault was due (must be none).
    """
    cluster, fixd = attach_fault_case(case)
    with span("dsim.history_build", "dsim"):
        history = cluster.run(until=case.fault_at - FAULT_EPSILON)
    started = time.perf_counter()
    with span("fault_heal.phase_b", "dsim"):
        result = cluster.run(until=case.fault_at + FAULT_WINDOW)
    phase_b_ms = (time.perf_counter() - started) * 1e3
    check = registry.app(case.scenario.app).check(case.scenario.check)
    outcome = Outcome.from_run(case.scenario, cluster, fixd, result, check)
    outcome.events_executed += history.events_executed
    return phase_b_ms, outcome, len(history.violations)


def fault_gates(outcome: Outcome, violations_before_fault: int) -> List[Tuple[str, bool]]:
    reports = outcome.bug_reports
    return [
        ("history is fault-free", violations_before_fault == 0),
        ("outcome.passed", outcome.passed),
        ("one report", len(reports) == 1),
        ("handled", all(report["handled"] for report in reports)),
        ("healed", all(report["healed"] for report in reports)),
        ("consistent after heal", outcome.consistent),
    ]


class FaultHeal(Workload):
    name = "fault_heal"
    op = "fault handled"
    latency_of = "phase-B wall (fault to healed)"
    tail_pct = 90

    def setup(self) -> None:
        self.deck = []
        for case in fault_deck(self.seed):
            # oracle: where does this case's violation land?
            cluster, _fixd = attach_fault_case(case)
            result = cluster.run()
            if not result.violations:
                raise RuntimeError(f"{case.scenario.name}: the oracle run provoked no violation")
            self.deck.append(
                FaultCase(
                    case.scenario,
                    case.patch_from,
                    case.patch_to,
                    case.patch_targets,
                    fault_at=result.violations[0].time,
                )
            )

    def iterate(self, index: int, span=no_span) -> Sample:
        latencies, events, shas, note = [], 0, [], ""
        for case in self.deck:
            phase_b_ms, outcome, early_violations = run_fault_case(case, span)
            latencies.append(phase_b_ms)
            events += outcome.events_executed
            shas.append(digest(outcome.projection()))
            note = note or first_failed(fault_gates(outcome, early_violations))
        return Sample(
            ok=not note,
            ops=len(self.deck),
            latencies_ms=latencies,
            counts={"events_executed": events, "projection_sha": digest(shas)},
            note=note,
        )


# ----------------------------------------------------------------------
# durable_resume: big state, disk in the path, stop, resume, continue
# ----------------------------------------------------------------------
class DurableResume(Workload):
    name = "durable_resume"
    op = "recorded entry replayed by Experiment.resume()"
    latency_of = "Experiment.resume() wall"
    tail_pct = 75

    #: 2048 keys = 8 x cow_chunk_threshold; 16 draws of a key per tick < 2%
    params = {"keys": 2048, "ticks": 12, "mutations_per_tick": 16}
    commit_interval = 2.0
    cut = 8.5  # mid-interval: lines commit at t=4, 6, 8
    horizon = 14.0
    #: an iteration costs ~0.5 s (three synced commits, then the continuation's)
    #: and a resume ~12 ms: three resumes per crashed store keep the latency
    #: sample above 40 in 10 s
    resumes = 3

    def scenario(self, store: str | None, until: float, flush_mode: str = "sync") -> Scenario:
        durable = (
            {"checkpoint_store": "disk", "store_path": store, "flush_mode": flush_mode}
            if store
            else {}
        )
        return Scenario(
            app="bench_ledger",
            name=self.name,
            params=self.params,
            seed=self.seed,
            until=until,
            max_events=None,
            auto_commit_interval=self.commit_interval,
            **durable,
        )

    def setup(self) -> None:
        bench_apps.register()
        twin = run_scenario(self.scenario(None, self.horizon))
        if not twin.passed:
            raise RuntimeError(f"uninterrupted twin failed: {twin.failures}")
        self.twin_states = twin.state_projection()
        self.stores = self.tmp / f"stores-{time.monotonic_ns()}"
        self.stores.mkdir()

    def iterate(self, index: int, span=no_span) -> Sample:
        # a fresh store per iteration: a shared one would dedupe every
        # chunk after the first iteration and take the writes out of the loop
        self.last_store = store = str(self.stores / f"it{index}")
        with span("api.run_to_cut", "api"):
            crashed = run_scenario(self.scenario(store, self.cut))
        # Only the resumes are the timed op.  The commits before them and
        # the continuation's after them run and are checked every
        # iteration, but ~530 fsyncs on a shared virtual disk swing by 2x
        # from minute to minute; their cost is reported per layer instead.
        # Resume only reads, so one crashed store yields several samples;
        # the last handle is the one continued.
        resume_ms, resume_cpu_s, replayed = [], 0.0, 0
        for _ in range(self.resumes):
            gc.collect()  # as before every timed call: the sample starts from a collected heap
            started, cpu_started = time.perf_counter(), time.process_time()
            with span("api.resume", "api"):
                resumed = Experiment.resume(crashed.run_id, store)
            resume_ms.append((time.perf_counter() - started) * 1e3)
            resume_cpu_s += time.process_time() - cpu_started
            replayed += sum(r.events_replayed + r.draws_consumed for r in resumed.replays.values())
        with span("api.continue", "api"):
            continued = resumed.continue_run(until=self.horizon)
        events = crashed.events_executed + continued.events_executed
        lines = (crashed.store or {}).get("lines_committed", 0)
        gates = [
            ("run-to-cut passed", crashed.passed),
            (">= 3 lines committed", lines >= 3),
            ("replay-forward clean", all(r.ok for r in resumed.replays.values())),
            ("continuation passed", continued.passed),
            ("state equals uninterrupted twin", continued.state_projection() == self.twin_states),
        ]
        return Sample(
            ok=not (note := first_failed(gates)),
            ops=replayed,
            latencies_ms=resume_ms,
            timed_s=(sum(resume_ms) / 1e3, resume_cpu_s),
            counts={
                "events_executed": events,
                "entries_replayed": replayed,
                "lines_committed": lines,
                "projection_sha": digest(continued.state_projection()),
            },
            note=note,
        )


    def tidy(self) -> None:
        # one store deep: thousands of blob files per iteration add up
        shutil.rmtree(self.last_store, ignore_errors=True)


# ----------------------------------------------------------------------
# pingpong_pipe: nothing to batch, one message in flight
# ----------------------------------------------------------------------
class PingpongPipe(Workload):
    name = "pingpong_pipe"
    op = "round trip"
    latency_of = "app-level RTT (pinger's own clock)"
    tail_pct = 99
    rounds = 250
    warmup_rounds = 25
    backend = "mp"
    transport = "pipe"

    def setup(self) -> None:
        bench_apps.register()

    def scenario(self, rounds: int) -> Scenario:
        real = self.backend != "sim"
        return Scenario(
            app="bench_pingpong",
            name=self.name,
            params={"rounds": rounds},
            backend=self.backend,
            transport=self.transport,
            seed=self.seed,
            until=3000 if real else None,
            max_events=None,
        )

    def play(self, rounds: int, span=no_span) -> Sample:
        with span("api.run_scenario", "api"):
            outcome = run_scenario(self.scenario(rounds))
        rtts = outcome.final_states.get("pinger", {}).get("rtts", [])
        gates = [
            ("outcome.passed", outcome.passed),
            ("quiescent", outcome.stopped_reason == "quiescent"),
            ("len(rtts) == rounds", len(rtts) == rounds),
        ]
        return Sample(
            ok=not (note := first_failed(gates)),
            ops=len(rtts),
            latencies_ms=[rtt / 1e6 for rtt in rtts],
            counts={"rounds": len(rtts)},
            note=note,
        )

    def iterate(self, index: int, span=no_span) -> Sample:
        return self.play(self.rounds, span)

    def warmup(self, index: int) -> Sample:
        return self.play(self.warmup_rounds)


WORKLOADS = {
    workload.name: workload
    for workload in (
        SimBurst,
        FaultHeal,
        DurableResume,
        BurstPipe,
        BurstShm,
        BurstNet,
        PingpongPipe,
    )
}
