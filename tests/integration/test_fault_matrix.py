"""The fault-scenario matrix, declared through the ``repro.api`` facade.

Every cell of the 6-app x 6-fault matrix is now a declarative
:class:`repro.api.Scenario` — the app addressed by registry name, the
injected trouble a serializable :class:`FaultSchedule`, the promises
(`expect_violation`, `recovering`, the named consistency check) part of
the scenario itself — and the assertions read off the structured
:class:`Outcome` instead of poking clusters and FixD internals.  The
three FixD promises per cell are unchanged:

1. **detection** — ``outcome.observed`` has evidence for every injected
   fault kind (Scroll entries, fault-engine rule hits, network drops)
   and provoked violations reached the detector;
2. **reporting** — the run-level incident report exists, plus a
   :class:`BugReport` summary per provoked violation;
3. **recovery/consistency** — the app's declared global check holds
   over the final states, crashed processes with scheduled recoveries
   are back, and FixD rolled back every provoked violation.

Beyond the single-fault matrix this file adds what the facade makes
cheap: **multi-fault schedules** (crash during partition, corruption
under a duplicate storm), a serialized **suite file** loaded with
``load_suite`` and asserted end to end, and an **mp-backend slice**
(crash / drop / delay on real OS processes, plus the kvstore corruption
cell on mp and net — marked ``slow`` so ``-m matrix`` runs it but the
default tier doesn't boot workers).
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import pytest

from repro.api import (
    Corrupt,
    Crash,
    Delay,
    Drop,
    Duplicate,
    Experiment,
    FaultSchedule,
    Partition,
    Scenario,
    load_suite,
    run_scenario,
)

#: Small hot window so every scenario also exercises the tiered Scroll.
MATRIX_HOT_WINDOW = 48

#: Repo-level suite artefact: the multi-fault schedules as shareable JSON.
SUITE_PATH = Path(__file__).resolve().parents[2] / "suites" / "crash_during_partition.json"

APP_PARAMS = {
    "kvstore": {"replicas": 2, "clients": 1},
    "bank": {"branches": 3, "fixed": True},
    "token_ring": {"nodes": 3, "max_rounds": 4},
    "leader_election": {"nodes": 4},
    "two_phase_commit": {"participants": 3, "transactions": 2},
    "wordcount": {"workers": 2, "chunks": 8},
}


def cell(app: str, fault: str, schedule: FaultSchedule, **overrides) -> Scenario:
    """One matrix cell as a Scenario named ``<app>-<fault>``."""
    settings = dict(
        app=app,
        name=f"{app}-{fault}",
        params=APP_PARAMS[app],
        seed=7,
        max_events=4000,
        faults=schedule,
        hot_window=MATRIX_HOT_WINDOW,
    )
    settings.update(overrides)
    return Scenario(**settings)


SCENARIOS = [
    # ------------------------------------------------------------------
    # primary/backup key-value store: backups may lag but never lead
    # ------------------------------------------------------------------
    cell(
        "kvstore", "crash",
        FaultSchedule.of(Crash("replica1", at=3.0, recover_at=8.0)),
        recovering=("replica1",),
    ),
    cell("kvstore", "drop", FaultSchedule.of(Drop(match_kind="REPLICATE"))),
    cell("kvstore", "duplicate", FaultSchedule.of(Duplicate(match_kind="REPLICATE"))),
    cell(
        "kvstore", "delay",
        FaultSchedule.of(Delay(match_kind="REPLICATE", count=2, extra_delay=3.0)),
    ),
    cell(
        # The backup is cut off mid-replication: it lags but never leads.
        "kvstore", "partition",
        FaultSchedule.of(
            Partition(groups=(("replica0", "client0"), ("replica1",)), start=2.0, end=6.0)
        ),
    ),
    cell(
        # A rogue key appears on the backup without a version entry —
        # the versions-track-store invariant fires and FixD rolls back.
        "kvstore", "state_corruption",
        FaultSchedule.of(
            Corrupt(
                pid="replica1", at=4.0,
                ops=(("set", ("store", "rogue"), "corrupt"),),
                description="rogue unversioned key on backup",
            )
        ),
        expect_violation=True,
    ),
    # ------------------------------------------------------------------
    # bank (fixed branches): money is conserved across transfers
    # ------------------------------------------------------------------
    cell(
        "bank", "crash",
        FaultSchedule.of(Crash("branch2", at=3.0, recover_at=7.0)),
        recovering=("branch2",), check="conservation-bound",
    ),
    cell(
        "bank", "drop",
        FaultSchedule.of(Drop(match_kind="TRANSFER")),
        check="conservation",
    ),
    cell(
        # A duplicated acknowledgement double-settles one transfer:
        # in-flight accounting goes negative — a provoked violation FixD
        # must detect and roll back.
        "bank", "duplicate",
        FaultSchedule.of(Duplicate(match_kind="TRANSFER_ACK")),
        check="local", expect_violation=True,
    ),
    cell(
        "bank", "delay",
        FaultSchedule.of(Delay(match_kind="TRANSFER", count=2, extra_delay=4.0)),
        check="conservation",
    ),
    cell(
        # Transfers into the isolated branch drop: money stays tracked
        # as in-flight debits, so the one-sided conservation bound holds.
        "bank", "partition",
        FaultSchedule.of(
            Partition(groups=(("branch0", "branch1"), ("branch2",)), start=2.0, end=6.0)
        ),
        check="conservation-bound",
    ),
    cell(
        # In-flight accounting is silently driven negative — a provoked
        # violation of in-flight-non-negative that FixD must roll back.
        "bank", "state_corruption",
        FaultSchedule.of(
            Corrupt(
                pid="branch1", at=3.5,
                ops=(("set", ("in_flight_debits",), -5),),
                description="in-flight debit counter corrupted negative",
            )
        ),
        check="local", expect_violation=True,
    ),
    # ------------------------------------------------------------------
    # token ring: at most one token / one process in its critical section
    # ------------------------------------------------------------------
    cell(
        "token_ring", "crash",
        FaultSchedule.of(Crash("node1", at=2.5, recover_at=6.0)),
        recovering=("node1",),
    ),
    cell("token_ring", "drop", FaultSchedule.of(Drop(match_kind="TOKEN"))),
    cell("token_ring", "duplicate", FaultSchedule.of(Duplicate(match_kind="TOKEN"))),
    cell(
        "token_ring", "delay",
        FaultSchedule.of(Delay(match_kind="TOKEN", count=1, extra_delay=2.5)),
    ),
    cell(
        # The token is lost crossing the cut — a lost token is benign for
        # safety: at most one holder / one critical section still holds.
        "token_ring", "partition",
        FaultSchedule.of(
            Partition(groups=(("node0",), ("node1", "node2")), start=0.5, end=3.0)
        ),
    ),
    cell(
        # A node is forced into its critical section without the token —
        # the cs-requires-token invariant fires immediately.  (3.5: node1
        # has already passed the token on at 3.0.)
        "token_ring", "state_corruption",
        FaultSchedule.of(
            Corrupt(
                pid="node1", at=3.5,
                ops=(("set", ("in_critical_section",), True),),
                description="critical section entered without token",
            )
        ),
        expect_violation=True,
    ),
    # ------------------------------------------------------------------
    # leader election: never two leaders, crashed nodes come back
    # ------------------------------------------------------------------
    cell(
        "leader_election", "crash",
        FaultSchedule.of(Crash("elector3", at=1.5, recover_at=20.0)),
        recovering=("elector3",),
    ),
    cell("leader_election", "drop", FaultSchedule.of(Drop(match_kind="ELECTION"))),
    cell("leader_election", "duplicate", FaultSchedule.of(Duplicate(match_kind="ELECTION"))),
    cell(
        "leader_election", "delay",
        FaultSchedule.of(Delay(match_kind="ELECTED", count=1, extra_delay=4.0)),
    ),
    cell(
        # Election traffic across the cut drops; whatever happens, two
        # nodes never both believe they are the leader.
        "leader_election", "partition",
        FaultSchedule.of(
            Partition(
                groups=(("elector0", "elector1"), ("elector2", "elector3")),
                start=1.5, end=7.0,
            )
        ),
    ),
    cell(
        # A node is corrupted into believing it leads without recording a
        # leader id — self-leader-consistent fires.
        "leader_election", "state_corruption",
        FaultSchedule.of(
            Corrupt(
                pid="elector1", at=2.5,
                ops=(("set", ("is_leader",), True),),
                description="node believes it leads without an election",
            )
        ),
        expect_violation=True,
    ),
    # ------------------------------------------------------------------
    # two-phase commit: no transaction both committed and aborted
    # ------------------------------------------------------------------
    cell(
        "two_phase_commit", "crash",
        FaultSchedule.of(Crash("participant1", at=1.5, recover_at=10.0)),
        recovering=("participant1",),
    ),
    cell("two_phase_commit", "drop", FaultSchedule.of(Drop(match_kind="VOTE_YES"))),
    cell("two_phase_commit", "duplicate", FaultSchedule.of(Duplicate(match_kind="VOTE_YES"))),
    cell(
        "two_phase_commit", "delay",
        FaultSchedule.of(Delay(match_kind="COMMIT", count=1, extra_delay=5.0)),
    ),
    cell(
        # One participant is unreachable during prepare: its vote never
        # arrives, the coordinator times out and aborts — atomically.
        "two_phase_commit", "partition",
        FaultSchedule.of(
            Partition(
                groups=(("coordinator", "participant0", "participant1"), ("participant2",)),
                start=1.0, end=4.0,
            )
        ),
        max_events=6000,
    ),
    cell(
        # A participant's decision log is corrupted to hold a transaction
        # both committed and aborted — not-both fires, FixD rolls back.
        "two_phase_commit", "state_corruption",
        FaultSchedule.of(
            Corrupt(
                pid="participant1", at=3.0,
                ops=(
                    ("append", ("committed",), 99),
                    ("append", ("aborted",), 99),
                ),
                description="transaction recorded both committed and aborted",
            )
        ),
        expect_violation=True,
    ),
    # ------------------------------------------------------------------
    # wordcount: aggregation never outruns dispatch or the corpus
    # ------------------------------------------------------------------
    cell(
        "wordcount", "crash",
        FaultSchedule.of(Crash("worker0", at=4.0, recover_at=8.0)),
        recovering=("worker0",),
    ),
    cell("wordcount", "drop", FaultSchedule.of(Drop(match_kind="COUNT"))),
    cell(
        # A duplicated result message double-counts one chunk, pushing
        # the master past its corpus bound — provoked violation.
        "wordcount", "duplicate",
        FaultSchedule.of(Duplicate(match_kind="COUNTED")),
        expect_violation=True,
    ),
    cell(
        "wordcount", "delay",
        FaultSchedule.of(Delay(match_kind="COUNT", count=2, extra_delay=3.0)),
    ),
    cell(
        # Chunks routed to the cut-off worker drop: aggregation simply
        # never outruns dispatch.
        "wordcount", "partition",
        FaultSchedule.of(
            Partition(groups=(("master", "worker0"), ("worker1",)), start=2.0, end=6.0)
        ),
    ),
    cell(
        # The master's aggregation counter jumps ahead of dispatch — the
        # aggregated-bounded-by-dispatched invariant fires.
        "wordcount", "state_corruption",
        FaultSchedule.of(
            Corrupt(
                pid="master", at=4.0,
                ops=(("add", ("aggregated",), 5),),
                description="aggregation counter corrupted past dispatch",
            )
        ),
        expect_violation=True,
    ),
]

#: Multi-fault composition: several fault kinds in one schedule, the
#: ROADMAP "matrix multi-fault schedules" item.
MULTI_FAULT_SCENARIOS = [
    Scenario(
        # The backup crashes *while* the network is partitioned and must
        # still be back (and consistent) after both faults clear.
        app="kvstore", name="kvstore-crash-during-partition",
        params=APP_PARAMS["kvstore"], seed=7, hot_window=MATRIX_HOT_WINDOW,
        faults=FaultSchedule.of(
            Partition(groups=(("replica0", "client0"), ("replica1",)), start=2.0, end=6.0),
            Crash(pid="replica1", at=3.0, recover_at=8.0),
        ),
        recovering=("replica1",),
    ),
    Scenario(
        # Corruption lands while duplicated acknowledgements storm the
        # branches: FixD must still detect and roll back the violation.
        app="bank", name="bank-corruption-under-duplicate-storm",
        params=APP_PARAMS["bank"], seed=7, hot_window=MATRIX_HOT_WINDOW, check="local",
        faults=FaultSchedule.of(
            Duplicate(match_kind="TRANSFER_ACK", count=2),
            Corrupt(
                pid="branch1", at=3.5,
                ops=(("set", ("in_flight_debits",), -5),),
                description="in-flight debit counter corrupted negative",
            ),
        ),
        expect_violation=True,
    ),
    Scenario(
        # A crashed worker plus a duplicated result: recovery and the
        # double-count rollback must compose in one run.
        app="wordcount", name="wordcount-crash+duplicate",
        params=APP_PARAMS["wordcount"], seed=7, hot_window=MATRIX_HOT_WINDOW,
        faults=FaultSchedule.of(
            Crash(pid="worker0", at=4.0, recover_at=8.0),
            Duplicate(match_kind="COUNTED", count=None),
        ),
        recovering=("worker0",), expect_violation=True,
    ),
    Scenario(
        # A delayed token and then a dropped one: liveness suffers,
        # safety (single token, single critical section) must not.  The
        # delay rule comes first — once the drop kills the token the
        # ring goes quiet, so a trailing delay rule would never fire.
        app="token_ring", name="token_ring-delay+drop",
        params=APP_PARAMS["token_ring"], seed=7, hot_window=MATRIX_HOT_WINDOW,
        faults=FaultSchedule.of(
            Delay(match_kind="TOKEN", count=1, extra_delay=2.5),
            Drop(match_kind="TOKEN", count=1),
        ),
    ),
]

#: The mp slice: real OS processes, wall-clock quiescence — crash, drop
#: and delay injection must be detected on the real substrate too.
MP_SCENARIOS = [
    Scenario(
        app="wordcount", name="wordcount-crash-mp", backend="mp",
        params=APP_PARAMS["wordcount"], seed=7, until=200.0, time_scale=0.01,
        faults=FaultSchedule.of(Crash(pid="worker0", at=4.0, recover_at=8.0)),
        recovering=("worker0",),
    ),
    Scenario(
        app="kvstore", name="kvstore-drop-mp", backend="mp",
        params=APP_PARAMS["kvstore"], seed=7, until=400.0, time_scale=0.01,
        faults=FaultSchedule.of(Drop(match_kind="REPLICATE")),
    ),
    Scenario(
        app="token_ring", name="token_ring-delay-mp", backend="mp",
        params=APP_PARAMS["token_ring"], seed=7, until=200.0, time_scale=0.01,
        faults=FaultSchedule.of(Delay(match_kind="TOKEN", count=1, extra_delay=2.5)),
    ),
]


#: The sim matrix's kvstore corruption cell, run on real processes too:
#: its ``(op, path, value)`` ops ship to the worker as plain data.
KVSTORE_CORRUPTION = next(s for s in SCENARIOS if s.name == "kvstore-state_corruption")


def assert_promises(scenario: Scenario, outcome) -> None:
    """The three FixD promises, read off the structured outcome."""
    # detection + expectation evaluation (consistency, recovery, handling)
    assert outcome.passed, f"{scenario.name}: {outcome.failures}"
    assert outcome.detected, f"{scenario.name}: missing evidence {outcome.observed}"
    # reporting: the run-level incident artefact pairs plan and observation
    assert "Injected faults" in outcome.incident
    assert "Observed on the Scroll" in outcome.incident
    if scenario.expect_violation:
        assert outcome.reports >= 1
        assert outcome.rolled_back
        for report in outcome.bug_reports:
            assert report["handled"] and report["scroll_tail_entries"] > 0
    for pid in scenario.recovering:
        assert outcome.recovered[pid], f"{pid} did not recover"


@pytest.mark.matrix
@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.name)
def test_fault_scenario(scenario: Scenario):
    outcome = run_scenario(scenario)
    assert_promises(scenario, outcome)
    # every scenario exercises the tiered Scroll in integration
    storage = outcome.scroll["storage"]
    assert storage["tiered"]
    if outcome.scroll["entries"] > MATRIX_HOT_WINDOW:
        assert storage["spilled_entries"] + storage["collected_entries"] > 0


@pytest.mark.matrix
@pytest.mark.parametrize("scenario", MULTI_FAULT_SCENARIOS, ids=lambda s: s.name)
def test_multi_fault_scenario(scenario: Scenario):
    outcome = run_scenario(scenario)
    assert_promises(scenario, outcome)
    assert len(scenario.faults.kinds) >= 2
    for kind in scenario.faults.kinds:
        assert outcome.observed[kind], f"no evidence for injected {kind}"


@pytest.mark.matrix
def test_multi_fault_suite_detect_report_recover():
    """The crash-during-partition schedule travels as a JSON suite artefact."""
    scenarios = load_suite(SUITE_PATH)
    by_name = {scenario.name: scenario for scenario in scenarios}
    assert "kvstore-crash-during-partition" in by_name
    crash_partition = by_name["kvstore-crash-during-partition"]
    assert set(crash_partition.faults.kinds) == {"partition", "crash"}

    experiment = Experiment(scenarios)
    outcomes = experiment.run()
    assert experiment.passed, experiment.describe()
    for scenario, outcome in zip(scenarios, outcomes):
        assert_promises(scenario, outcome)

    # the artefact round-trips canonically: load -> serialize -> load
    for scenario in scenarios:
        assert Scenario.from_json(scenario.to_json()) == scenario


@pytest.mark.matrix
@pytest.mark.slow
@pytest.mark.parametrize("transport", ["pipe", "shm"])
@pytest.mark.parametrize("scenario", MP_SCENARIOS, ids=lambda s: s.name)
def test_mp_fault_slice(scenario: Scenario, transport: str):
    """Fault injection detected on the real-process substrate via the facade.

    The crash/drop/delay slice must pass unchanged on both mp
    transports — the shared-memory rings preserve the fault-plan
    mapping, FIFO order and the flush protocol the assertions rely on.
    """
    if transport != "pipe":
        scenario = replace(
            scenario, name=f"{scenario.name}-{transport}", transport=transport
        )
    outcome = run_scenario(scenario)
    assert outcome.passed, f"{scenario.name}: {outcome.failures}"
    assert outcome.detected, f"{scenario.name}: missing evidence {outcome.observed}"
    assert "Observed on the Scroll" in outcome.incident
    # MP recording depth: both transports surface the same counters
    assert outcome.transport is not None
    assert "rng_draws" in outcome.transport and "clock_reads" in outcome.transport


@pytest.mark.matrix
@pytest.mark.slow
@pytest.mark.parametrize("scenario", MP_SCENARIOS, ids=lambda s: s.name.replace("-mp", "-net"))
def test_net_fault_slice(scenario: Scenario):
    """The same crash/drop/delay slice on the socket substrate.

    The net backend reuses the mp worker protocol over sharded socket
    routers; the fault-schedule mapping (control frames, router-side
    drop/delay, dead letters) must be observationally identical.
    """
    scenario = replace(
        scenario, name=scenario.name.replace("-mp", "-net"), backend="net"
    )
    outcome = run_scenario(scenario)
    assert outcome.passed, f"{scenario.name}: {outcome.failures}"
    assert outcome.detected, f"{scenario.name}: missing evidence {outcome.observed}"
    assert "Observed on the Scroll" in outcome.incident
    assert outcome.transport is not None
    # the socket substrate keeps the delivery hot path pickle-free
    assert outcome.transport["messages_pickled"] == 0
    assert outcome.transport["socket_writes"] > 0


@pytest.mark.matrix
@pytest.mark.slow
@pytest.mark.parametrize("backend", ["mp", "net"])
def test_corruption_detected_and_reported_on_real_processes(backend: str):
    """The sim cell's corruption fires inside the worker, is detected and reported.

    Real-process substrates have no checkpoint/rollback, so FixD only
    reports there: no report is handled or rolled back, and the rogue
    key survives to fail the consistency check — the one promise left
    unmet.
    """
    scenario = replace(
        KVSTORE_CORRUPTION, name=f"kvstore-state_corruption-{backend}", backend=backend,
        until=400.0, time_scale=0.01,
    )
    outcome = run_scenario(scenario)
    assert outcome.detected, f"{scenario.name}: missing evidence {outcome.observed}"
    assert outcome.observed == {"corruption": True, "violation": True}
    assert outcome.faults_detected >= 1 and outcome.reports >= 1
    for report in outcome.bug_reports:
        assert not report["handled"] and not report["rolled_back"]
        assert report["scroll_tail_entries"] > 0
    assert "  corruption: 1\n" in outcome.incident
    assert outcome.failures == [
        f"consistency check {scenario.check!r} failed over the final states"
    ]


@pytest.mark.matrix
def test_matrix_covers_all_apps_and_faults():
    """The matrix itself must stay complete: 6 apps x 6 fault types."""
    cells = {(s.app, s.name.split("-", 1)[1]) for s in SCENARIOS}
    apps = {app for app, _fault in cells}
    faults = {fault for _app, fault in cells}
    assert len(apps) == 6
    assert faults == {"crash", "drop", "duplicate", "delay", "partition", "state_corruption"}
    assert cells == {(app, fault) for app in apps for fault in faults}, (
        "every app must face every fault kind"
    )
    assert len(SCENARIOS) >= 36
    names = [s.name for s in SCENARIOS + MULTI_FAULT_SCENARIOS + MP_SCENARIOS]
    assert len(set(names)) == len(names)
    # the multi-fault extension and mp slice stay present
    assert all(len(s.faults.kinds) >= 2 for s in MULTI_FAULT_SCENARIOS)
    assert {s.faults.kinds[0] for s in MP_SCENARIOS} >= {"crash", "drop", "delay"}
