"""Unit tests for the Time Machine: checkpoints, COW store, recovery lines,
speculations, checkpoint policies and rollback."""

from __future__ import annotations

import pytest

from repro.api import apps as registry
from repro.dsim.clock import VectorTimestamp
from repro.dsim.cluster import Cluster, ClusterConfig
from repro.dsim.failure import Duplicate, FaultSchedule
from repro.dsim.process import Process, ProcessCheckpoint, handler
from repro.errors import CheckpointError, RecoveryLineError, SimulationError, SpeculationError
from repro.scroll.recorder import ScrollRecorder
from repro.timemachine.checkpoint import CheckpointStore, GlobalCheckpoint, LocalCheckpointLog
from repro.timemachine.comm_induced import CommunicationInducedCheckpointing, PeriodicCheckpointing
from repro.timemachine.coordinated import CoordinatedSnapshotter
from repro.timemachine.cow import CowPageStore, full_checkpoint_bytes
from repro.timemachine.recovery_line import (
    compute_recovery_line,
    inconsistent_pairs,
    is_consistent,
    unsafe_line,
)
from repro.timemachine.rollback import RollbackManager
from repro.timemachine.speculation import SpeculationManager, SpeculationStatus
from repro.timemachine.time_machine import CheckpointPolicy, TimeMachine, TimeMachineConfig

from tests.conftest import PingPong, RandomWorker, assert_pages_match_log, make_cluster


class Counter(Process):
    """Counts the INC messages it receives."""

    def on_start(self):
        self.state["n"] = 0

    @handler("INC")
    def on_inc(self, message):
        self.state["n"] += 1


def checkpoint(pid: str, sequence: int, time: float, vt: dict, state: dict | None = None):
    """Hand-rolled ProcessCheckpoint for consistency tests."""
    return ProcessCheckpoint(
        pid=pid,
        sequence=sequence,
        time=time,
        state=state or {"x": sequence},
        vt=VectorTimestamp.from_mapping(vt),
        lamport=sum(vt.values()),
        rng_draws=0,
        sent_count=0,
        received_count=0,
    )


# ----------------------------------------------------------------------
# Checkpoint logs and stores
# ----------------------------------------------------------------------
class TestCheckpointStore:
    def test_log_rejects_wrong_pid(self):
        log = LocalCheckpointLog("a")
        with pytest.raises(CheckpointError):
            log.add(checkpoint("b", 1, 0.0, {}))

    def test_log_resequences_restarted_process(self):
        log = LocalCheckpointLog("a")
        log.add(checkpoint("a", 1, 0.0, {}))
        log.add(checkpoint("a", 5, 1.0, {}))
        restarted = checkpoint("a", 1, 2.0, {})
        log.add(restarted)
        assert [c.sequence for c in log] == [1, 5, 6]

    def test_store_drop_before_releases_cow_pages(self):
        cluster = make_cluster({"p0": PingPong, "p1": PingPong}, seed=1)
        cluster.start()
        store = CheckpointStore()
        process = cluster.process("p0")
        taken = []
        for count in range(3):
            process.state["count"] = count
            taken.append(store.capture(process, float(count)))
        assert all(c.cow is not None for c in taken)
        freed = store.drop_before("p0", taken[2].sequence)
        assert freed >= 1 and store.pages_freed == freed
        assert store.log_for("p0").all() == [taken[2]]
        assert_pages_match_log(store)
        assert taken[2].state == {"count": 2}
        with pytest.raises(CheckpointError):
            taken[0].fresh_state()  # its pages are gone with it
        assert store.drop_before("nobody", 5) == 0

    def test_store_release_drops_one_checkpoint_and_its_pages(self):
        cluster = make_cluster({"p0": PingPong, "p1": PingPong}, seed=1)
        cluster.start()
        store = CheckpointStore()
        process = cluster.process("p0")
        kept = store.capture(process, 0.0)
        process.state["count"] = 7
        dropped = store.hold(store.capture(process, 1.0))
        assert store.release(dropped) >= 1
        assert store.release(dropped) == 0  # already gone: nothing to release twice
        assert store.log_for("p0").all() == [kept]
        assert kept.state == {"count": 0}

    def test_store_drop_before_spares_held_checkpoints_until_released(self):
        cluster = make_cluster({"p0": PingPong, "p1": PingPong}, seed=1)
        cluster.start()
        store = CheckpointStore()
        process = cluster.process("p0")
        older = store.capture(process, 0.0)
        process.state["count"] = 1
        held = store.hold(store.capture(process, 1.0))
        process.state["count"] = 2
        member = store.capture(process, 2.0)
        store.drop_before("p0", member.sequence)
        assert store.log_for("p0").all() == [held, member]
        with pytest.raises(CheckpointError):
            older.fresh_state()
        assert held.fresh_state() == {"count": 1}
        assert store.release(held) >= 1
        assert store.log_for("p0").all() == [member]
        assert_pages_match_log(store)

    def test_a_released_checkpoint_refuses_to_materialise(self):
        # an identical later capture keeps every page alive, but reading
        # the released checkpoint is a use-after-release, not a lucky hit
        cluster = make_cluster({"p0": PingPong, "p1": PingPong}, seed=1)
        cluster.start()
        store = CheckpointStore()
        process = cluster.process("p0")
        released = store.hold(store.capture(process, 0.0))
        twin = store.capture(process, 1.0)
        assert store.release(released) == 0
        with pytest.raises(CheckpointError):
            released.fresh_state()
        assert twin.fresh_state() == process.state

    def test_store_release_keeps_a_committed_member(self):
        cluster = make_cluster({"p0": PingPong, "p1": PingPong}, seed=1)
        cluster.start()
        store = CheckpointStore()
        process = cluster.process("p0")
        member = store.hold(store.capture(process, 0.0))
        store.drop_before("p0", member.sequence)  # a commit adopted it
        assert store.release(member) == 0
        assert store.log_for("p0").all() == [member]
        assert member.fresh_state() == {"count": 0}

    def test_checkpoint_holds_a_state_or_a_capture_not_both(self):
        with pytest.raises(SimulationError):
            ProcessCheckpoint(pid="a", sequence=1, time=0.0)
        with pytest.raises(SimulationError):
            ProcessCheckpoint(pid="a", sequence=1, time=0.0, state={}, cow=object())

    def test_latest_before(self):
        log = LocalCheckpointLog("a")
        for index in range(1, 4):
            log.add(checkpoint("a", index, float(index), {}))
        assert log.latest_before(2.5).sequence == 2
        assert log.latest_before(0.5) is None

    def test_by_sequence_lookup(self):
        log = LocalCheckpointLog("a")
        log.add(checkpoint("a", 1, 0.0, {}))
        assert log.by_sequence(1).sequence == 1
        with pytest.raises(CheckpointError):
            log.by_sequence(9)

    def test_store_latest_global_requires_checkpoints(self):
        store = CheckpointStore()
        store.add(checkpoint("a", 1, 0.0, {"a": 1}))
        store.log_for("b")   # registered but empty
        with pytest.raises(CheckpointError):
            store.latest_global()

    def test_store_counts_and_bytes(self):
        store = CheckpointStore()
        store.add(checkpoint("a", 1, 0.0, {"a": 1}))
        store.add(checkpoint("a", 2, 1.0, {"a": 2}))
        store.add(checkpoint("b", 1, 0.0, {"b": 1}))
        assert store.checkpoint_counts() == {"a": 2, "b": 1}
        assert store.total_checkpoints() == 3
        assert store.total_bytes() > 0

    def test_global_checkpoint_time_bounds(self):
        bundle = GlobalCheckpoint()
        bundle.add(checkpoint("a", 1, 3.0, {"a": 1}))
        bundle.add(checkpoint("b", 1, 7.0, {"b": 1}))
        assert bundle.min_time() == 3.0 and bundle.max_time() == 7.0
        assert "a" in bundle and bundle["a"].pid == "a"


# ----------------------------------------------------------------------
# Copy-on-write store
# ----------------------------------------------------------------------
class TestCowStore:
    def test_identical_states_share_all_pages(self):
        store = CowPageStore(page_size=64)
        state = {"blob": "x" * 500}
        first = store.capture("a", state, 0.0)
        second = store.capture("a", state, 1.0)
        assert second.new_bytes == 0
        assert second.sharing_ratio == pytest.approx(1.0)
        assert store.stored_bytes() < store.logical_bytes()

    def test_small_mutation_stores_few_new_pages(self):
        store = CowPageStore(page_size=64)
        state = {"blob": "x" * 2000, "counter": 0}
        store.capture("a", state, 0.0)
        state["counter"] = 1
        second = store.capture("a", state, 1.0)
        assert 0 < second.new_pages < second.pages

    def test_restore_reconstructs_exact_state(self):
        store = CowPageStore(page_size=32)
        state = {"numbers": list(range(50)), "name": "fixd"}
        ckpt = store.capture("a", state, 0.0)
        assert store.restore(ckpt) == state

    def test_restore_after_releasing_an_older_capture(self):
        store = CowPageStore(page_size=32)
        first = store.capture("a", {"v": 1}, 0.0)
        second = store.capture("a", {"v": 2}, 1.0)
        store.release(first)
        assert store.restore(second) == {"v": 2}
        with pytest.raises(CheckpointError):
            store.restore(first)

    def test_savings_ratio_grows_with_repeated_checkpoints(self):
        store = CowPageStore(page_size=128)
        state = {"payload": "y" * 4000}
        for index in range(5):
            state["tick"] = index
            store.capture("a", state, float(index))
        assert store.savings_ratio() > 0.5

    def test_full_checkpoint_bytes_matches_serialized_size(self):
        assert full_checkpoint_bytes({"a": 1}) > 0

    def test_unpicklable_state_rejected(self):
        store = CowPageStore()
        with pytest.raises(CheckpointError):
            store.capture("a", {"fn": lambda x: x}, 0.0)

    def test_invalid_page_size_rejected(self):
        with pytest.raises(ValueError):
            CowPageStore(page_size=0)


# ----------------------------------------------------------------------
# Recovery lines
# ----------------------------------------------------------------------
class TestRecoveryLines:
    def test_consistent_set_accepted(self):
        checkpoints = {
            "a": checkpoint("a", 1, 1.0, {"a": 2, "b": 1}),
            "b": checkpoint("b", 1, 1.0, {"b": 2, "a": 1}),
        }
        assert is_consistent(checkpoints)
        assert inconsistent_pairs(checkpoints) == []

    def test_orphan_message_detected(self):
        # b observed 3 events of a, but a's checkpoint only accounts for 1.
        checkpoints = {
            "a": checkpoint("a", 1, 1.0, {"a": 1}),
            "b": checkpoint("b", 1, 1.0, {"b": 2, "a": 3}),
        }
        assert not is_consistent(checkpoints)
        assert ("b", "a") in inconsistent_pairs(checkpoints)

    def test_compute_rolls_back_the_observer(self):
        store = CheckpointStore()
        store.add(checkpoint("a", 1, 1.0, {"a": 1}))
        store.add(checkpoint("b", 1, 1.0, {"b": 1}))
        store.add(checkpoint("b", 2, 2.0, {"b": 2, "a": 3}))  # b saw a:3 that a never had
        line = compute_recovery_line(store)
        assert line.checkpoints["b"].sequence == 1
        assert line.rolled_back_steps == {"a": 0, "b": 1}
        assert is_consistent(line.checkpoints)

    def test_not_after_bound_is_respected(self):
        store = CheckpointStore()
        store.add(checkpoint("a", 1, 1.0, {"a": 1}))
        store.add(checkpoint("a", 2, 5.0, {"a": 2}))
        store.add(checkpoint("b", 1, 1.0, {"b": 1}))
        line = compute_recovery_line(store, not_after={"a": 2.0})
        assert line.checkpoints["a"].sequence == 1

    def test_no_line_when_bound_excludes_all_checkpoints(self):
        store = CheckpointStore()
        store.add(checkpoint("a", 1, 5.0, {"a": 1}))
        with pytest.raises(RecoveryLineError):
            compute_recovery_line(store, not_after={"a": 1.0})

    def test_empty_store_rejected(self):
        with pytest.raises(RecoveryLineError):
            compute_recovery_line(CheckpointStore())

    def test_impossible_consistency_reported(self):
        store = CheckpointStore()
        # Single checkpoints that are mutually inconsistent and cannot be rolled back further.
        store.add(checkpoint("a", 1, 1.0, {"a": 1, "b": 5}))
        store.add(checkpoint("b", 1, 1.0, {"b": 1, "a": 5}))
        with pytest.raises(RecoveryLineError):
            compute_recovery_line(store)

    def test_unsafe_line_is_just_latest_checkpoints(self):
        store = CheckpointStore()
        store.add(checkpoint("a", 1, 1.0, {"a": 1}))
        store.add(checkpoint("a", 2, 2.0, {"a": 2}))
        store.add(checkpoint("b", 1, 1.0, {"b": 1}))
        naive = unsafe_line(store)
        assert naive["a"].sequence == 2

    def test_domino_effect_flagged(self):
        store = CheckpointStore()
        # a's later checkpoints each observe ever more of b than b ever checkpoints.
        store.add(checkpoint("a", 1, 0.0, {"a": 1}))
        store.add(checkpoint("a", 2, 1.0, {"a": 2, "b": 5}))
        store.add(checkpoint("a", 3, 2.0, {"a": 3, "b": 9}))
        store.add(checkpoint("b", 1, 0.0, {"b": 1}))
        line = compute_recovery_line(store)
        assert line.checkpoints["a"].sequence == 1
        assert line.domino_effect
        assert line.total_rollback_steps() == 2

    def test_line_as_global_checkpoint(self):
        store = CheckpointStore()
        store.add(checkpoint("a", 1, 1.0, {"a": 1}))
        store.add(checkpoint("b", 1, 1.0, {"b": 1}))
        line = compute_recovery_line(store)
        bundle = line.as_global_checkpoint()
        assert set(bundle.pids()) == {"a", "b"}


# ----------------------------------------------------------------------
# Checkpoint policies on a live cluster
# ----------------------------------------------------------------------
class TestCheckpointPolicies:
    def test_comm_induced_checkpoints_once_per_receive(self):
        cluster = make_cluster({"p0": PingPong, "p1": PingPong}, seed=1)
        policy = CommunicationInducedCheckpointing()
        cluster.add_hook(policy)
        result = cluster.run()
        receives = result.network_stats["delivered"]
        # one checkpoint per process at start + one per receive
        assert policy.total_checkpoints() == receives + len(cluster.pids)

    def test_periodic_policy_takes_fewer_checkpoints(self):
        cluster_a = make_cluster({"p0": PingPong, "p1": PingPong}, seed=1)
        comm = CommunicationInducedCheckpointing()
        cluster_a.add_hook(comm)
        cluster_a.run()

        cluster_b = make_cluster({"p0": PingPong, "p1": PingPong}, seed=1)
        periodic = PeriodicCheckpointing(period=5)
        cluster_b.add_hook(periodic)
        cluster_b.run()
        assert periodic.total_checkpoints() < comm.total_checkpoints()

    def test_periodic_policy_validates_period(self):
        with pytest.raises(ValueError):
            PeriodicCheckpointing(period=0)

    def test_comm_induced_line_is_always_consistent(self):
        cluster = make_cluster({"r0": RandomWorker, "r1": RandomWorker}, seed=7)
        policy = CommunicationInducedCheckpointing()
        cluster.add_hook(policy)
        cluster.run()
        line = compute_recovery_line(policy.store)
        assert is_consistent(line.checkpoints)

    def test_coordinated_snapshot_includes_in_flight_messages(self):
        cluster = make_cluster({"p0": PingPong, "p1": PingPong}, seed=1)
        snapshotter = CoordinatedSnapshotter()
        cluster.start()
        cluster.run(max_events=3)
        snapshot = snapshotter.take_snapshot(cluster)
        assert snapshot.consistent
        assert snapshot.global_checkpoint.pids() == ["p0", "p1"]
        assert isinstance(snapshot.in_flight, list)
        assert snapshotter.latest() is snapshot
        assert snapshotter.as_recovery_line().domino_effect is False

    def test_coordinated_restore_reschedules_in_flight(self):
        cluster = make_cluster({"p0": PingPong, "p1": PingPong}, seed=1)
        snapshotter = CoordinatedSnapshotter()
        cluster.start()
        cluster.run(max_events=3)
        snapshot = snapshotter.take_snapshot(cluster)
        in_flight = len(snapshot.in_flight)
        cluster.run(max_events=3)
        snapshotter.restore_latest(cluster)
        pending = cluster.scheduler.pending()
        assert len(pending) >= in_flight


# ----------------------------------------------------------------------
# Speculations
# ----------------------------------------------------------------------
class TestSpeculations:
    def _attached(self, seed=1):
        cluster = make_cluster({"p0": PingPong, "p1": PingPong}, seed=seed)
        manager = SpeculationManager()
        cluster.add_hook(manager)
        cluster.start()
        return cluster, manager

    def test_begin_requires_attachment(self):
        with pytest.raises(SpeculationError):
            SpeculationManager().begin("p0", "assumption")

    def test_commit_discards_rollback_obligation(self):
        cluster, manager = self._attached()
        spec = manager.begin("p0", "remote will ack")
        cluster.process("p0").state["count"] = 42
        manager.commit(spec.spec_id)
        assert cluster.process("p0").state["count"] == 42
        assert manager.get(spec.spec_id).status is SpeculationStatus.COMMITTED

    def test_abort_rolls_back_initiator(self):
        cluster, manager = self._attached()
        spec = manager.begin("p0", "remote will ack")
        original = dict(cluster.process("p0").state)
        cluster.process("p0").state["count"] = 42
        manager.abort(spec.spec_id)
        assert cluster.process("p0").state == original
        assert manager.rollbacks_performed == 1

    def test_abort_invokes_alternate_path(self):
        cluster, manager = self._attached()
        invoked = []
        spec = manager.begin("p0", "assumption", alternate_path=invoked.append)
        manager.abort(spec.spec_id)
        assert invoked == ["p0"]

    def test_double_resolution_rejected(self):
        cluster, manager = self._attached()
        spec = manager.begin("p0", "assumption")
        manager.commit(spec.spec_id)
        with pytest.raises(SpeculationError):
            manager.abort(spec.spec_id)
        with pytest.raises(SpeculationError):
            manager.commit(spec.spec_id)

    def test_speculation_ids_are_scoped_to_their_manager(self):
        _cluster, first = self._attached()
        _cluster, second = self._attached()
        assert first.begin("p0", "a").spec_id == "spec-1"
        assert second.begin("p0", "b").spec_id == "spec-1"
        assert first.begin("p1", "c").spec_id == "spec-2"

    def test_unknown_speculation_rejected(self):
        cluster, manager = self._attached()
        with pytest.raises(SpeculationError):
            manager.commit("spec-does-not-exist")

    def test_absorption_through_messages(self):
        cluster, manager = self._attached()
        spec = manager.begin("p0", "token will return")
        cluster.run(max_events=10)
        # p0 sent messages inside the speculation; p1 received one and is absorbed.
        assert "p1" in manager.get(spec.spec_id).members
        assert manager.absorptions >= 1
        assert "p1" in manager.active_for("p1") or spec.spec_id in manager.active_for("p1")

    def test_abort_rolls_back_absorbed_members(self):
        cluster, manager = self._attached()
        spec = manager.begin("p0", "token will return")
        cluster.run(max_events=10)
        count_before_abort = cluster.process("p1").state["count"]
        manager.abort(spec.spec_id)
        assert cluster.process("p1").state["count"] <= count_before_abort
        stats = manager.stats()
        assert stats["aborted"] == 1 and stats["total"] == 1

    def _time_machine(self):
        cluster = make_cluster({"p0": PingPong, "p1": PingPong}, seed=1)
        tm = TimeMachine()
        tm.attach(cluster)
        cluster.start()
        return cluster, tm

    def test_abort_after_a_commit_past_its_entry_is_refused(self):
        cluster, tm = self._time_machine()
        spec = tm.speculations.begin("p0", "token will return")
        entry = spec.checkpoints["p0"]
        cluster.run(max_events=20)
        line = tm.latest_recovery_line()
        assert line.checkpoints["p0"].sequence > entry.sequence
        tm.rollback_manager.commit(line)
        state = dict(cluster.process("p0").state)
        # restoring the entry would cross the committed line
        with pytest.raises(SpeculationError, match="committed"):
            tm.speculations.abort(spec.spec_id)
        assert cluster.process("p0").state == state
        assert tm.speculations.get(spec.spec_id).active
        # the commit spared the entry checkpoint the speculation still holds
        assert tm.store.log_for("p0").earliest is entry
        # it can still commit; resolved, nothing older than the line is held
        tm.speculations.commit(spec.spec_id)
        for pid, member in line.checkpoints.items():
            assert tm.store.log_for(pid).earliest is member
        assert_pages_match_log(tm.store)

    def test_refused_abort_leaves_a_consistent_recovery_line(self):
        cluster = Cluster(ClusterConfig(seed=0, halt_on_violation=False))
        registry.build(cluster, "bank")
        tm = TimeMachine()
        tm.attach(cluster)
        cluster.start()
        first = tm.speculations.begin("branch0", "the transfer clears")
        second = tm.speculations.begin("branch0", "the audit passes")
        cluster.run(max_events=8)
        tm.rollback_manager.commit(tm.latest_recovery_line())
        tm.speculations.commit(first.spec_id)
        with pytest.raises(SpeculationError, match="committed"):
            tm.speculations.abort(second.spec_id)
        tm.speculations.begin("branch0", "the next transfer clears")
        # an abort that crossed the commit left no consistent line here
        line = tm.latest_recovery_line()
        assert set(line.checkpoints) == set(cluster.pids)
        tm.speculations.commit(second.spec_id)

    def test_duplicate_of_a_speculative_message_is_tainted(self):
        cluster = make_cluster({"a": Counter, "b": Counter}, seed=1)
        cluster.set_failure_plan(FaultSchedule.of(Duplicate(match_kind="INC", count=1)))
        manager = SpeculationManager()
        cluster.add_hook(manager)
        cluster.start()
        spec = manager.begin("a", "b will not need the increment")
        cluster.process("a").send("b", "INC")
        cluster.run()
        assert cluster.process("b").state["n"] == 2  # the copy and the original
        # the copy runs first: it must absorb b before b applies it
        manager.abort(spec.spec_id)
        assert cluster.process("b").state["n"] == 0

    @pytest.mark.parametrize("resolve", ["commit", "abort"])
    def test_speculation_resolving_after_its_entry_was_committed_keeps_it(self, resolve):
        cluster, tm = self._time_machine()
        spec = tm.speculations.begin("p0", "token will return")
        line = tm.latest_recovery_line()
        assert line.checkpoints["p0"] is spec.checkpoints["p0"]
        tm.rollback_manager.commit(line)
        getattr(tm.speculations, resolve)(spec.spec_id)
        assert tm.store.log_for("p0").earliest is spec.checkpoints["p0"]
        cluster.resume()
        cluster.run(max_events=10)
        tm.rollback_to(line)  # the committed line is still restorable
        for pid, member in line.checkpoints.items():
            assert cluster.process(pid).state == member.state


# ----------------------------------------------------------------------
# Rollback manager and the TimeMachine facade
# ----------------------------------------------------------------------
class TestRollbackAndFacade:
    def test_rollback_restores_states_and_cancels_events(self):
        cluster = make_cluster({"p0": PingPong, "p1": PingPong}, seed=1)
        policy = CommunicationInducedCheckpointing()
        cluster.add_hook(policy)
        cluster.run(max_events=6)
        line = compute_recovery_line(policy.store)
        manager = RollbackManager(cluster)
        result = manager.rollback(line)
        assert set(result.restored_pids) == {"p0", "p1"}
        assert result.max_rollback_distance >= 0
        assert manager.rollbacks_performed == 1

    def test_rollback_refuses_inconsistent_line(self):
        cluster = make_cluster({"p0": PingPong, "p1": PingPong}, seed=1)
        cluster.start()
        manager = RollbackManager(cluster)
        from repro.timemachine.recovery_line import RecoveryLine

        bad = RecoveryLine(
            checkpoints={
                "p0": checkpoint("p0", 1, 0.0, {"p0": 1, "p1": 9}),
                "p1": checkpoint("p1", 1, 0.0, {"p1": 1}),
            },
            rolled_back_steps={},
            iterations=1,
            domino_effect=False,
        )
        with pytest.raises(RecoveryLineError):
            manager.rollback(bad)

    def test_alternate_path_invoked_on_rollback(self):
        cluster = make_cluster({"p0": PingPong, "p1": PingPong}, seed=1)
        policy = CommunicationInducedCheckpointing()
        cluster.add_hook(policy)
        cluster.run(max_events=6)
        manager = RollbackManager(cluster)
        seen = []
        manager.register_alternate_path("p0", lambda process: seen.append(process.pid))
        manager.rollback(compute_recovery_line(policy.store))
        assert seen == ["p0"]

    def test_commit_frontier_must_advance(self):
        """Regression: commit accepted a line at or below the frontier, so a
        stale line (auto-committer racing a rollback, replayed commit) was
        flushed as the newest durable manifest and a later resume restored
        regressed state.  Stale commits must be rejected *before* any
        durable write happens."""
        from repro.timemachine.recovery_line import RecoveryLine

        cluster = make_cluster({"p0": PingPong, "p1": PingPong}, seed=1)
        cluster.start()

        def line_at(position: int, sequence: int) -> RecoveryLine:
            member = ProcessCheckpoint(
                pid="p0",
                sequence=sequence,
                time=float(sequence),
                state={"x": sequence},
                vt=VectorTimestamp.from_mapping({"p0": sequence}),
                lamport=sequence,
                rng_draws=0,
                sent_count=0,
                received_count=0,
                extra={"scroll_position": position},
            )
            return RecoveryLine(
                checkpoints={"p0": member},
                rolled_back_steps={},
                iterations=1,
                domino_effect=False,
                label=f"pos{position}",
            )

        class FlushRecorder:
            def __init__(self):
                self.flushed = []

            def flush_line(self, line):
                self.flushed.append(line)
                return {}

            def flush_scroll(self, scroll, pending=None, now=0.0, committed_position=None):
                return {}

            def scroll_entries_pending(self, scroll):
                return 0

        durable = FlushRecorder()
        manager = RollbackManager(cluster, durable=durable)
        manager.commit(line_at(10, 2))
        assert len(durable.flushed) == 1
        with pytest.raises(RecoveryLineError, match="commits must advance"):
            manager.commit(line_at(10, 3))  # equal to the frontier: stale
        with pytest.raises(RecoveryLineError, match="commits must advance"):
            manager.commit(line_at(4, 4))  # below the frontier
        # rejected before anything durable was written
        assert len(durable.flushed) == 1
        assert len(manager.committed_lines) == 1
        manager.commit(line_at(11, 5))  # advancing is fine
        assert len(manager.committed_lines) == 2

    def test_time_machine_facade_end_to_end(self):
        cluster = make_cluster({"r0": RandomWorker, "r1": RandomWorker}, seed=3)
        tm = TimeMachine()
        tm.attach(cluster)
        cluster.run(max_events=30)
        stats = tm.stats()
        assert stats["checkpoints"] > 0
        assert stats["cow_logical_bytes"] >= stats["cow_stored_bytes"]
        result = tm.rollback_to_consistent_state()
        assert tm.stats()["rollbacks"] == 1
        assert set(result.restored_pids) == {"r0", "r1"}

    def test_time_machine_checkpoints_reference_their_cow_capture(self):
        cluster = make_cluster({"r0": RandomWorker, "r1": RandomWorker}, seed=3)
        tm = TimeMachine()
        tm.attach(cluster)
        cluster.run(max_events=30)
        for pid in tm.store.pids():
            log = tm.store.log_for(pid).all()
            assert log and all(c.cow is not None for c in log)
        assert_pages_match_log(tm.store)

    def test_auto_commit_bounds_retained_checkpoints(self):
        """A commit releases every checkpoint it makes unreachable: with
        auto-commit on, the store ends holding only checkpoints at or after
        the last committed line, and no page outlives its checkpoints."""
        from repro.core.fixd import FixD, FixDConfig

        cluster = make_cluster({"r0": RandomWorker, "r1": RandomWorker}, seed=3)
        fixd = FixD(FixDConfig(auto_commit_interval=2.0)).attach(cluster)
        cluster.run(until=30.0)
        tm = fixd.time_machine
        assert fixd.auto_committer.commits >= 1
        taken = fixd.time_machine._policy_hook.total_checkpoints()
        assert tm.store.total_checkpoints() < taken
        assert tm.stats()["cow_pages_freed"] == tm.store.pages_freed
        last = tm.rollback_manager.committed_lines[-1]
        for pid, member in last.checkpoints.items():
            assert tm.store.log_for(pid).earliest.sequence >= member.sequence
        live = {d for pid in tm.store.pids() for c in tm.store.log_for(pid) for d in c.cow.page_hashes}
        assert tm.store.cow.stored_pages() == len(live)

    def test_time_machine_periodic_policy(self):
        cluster = make_cluster({"p0": PingPong, "p1": PingPong}, seed=1)
        tm = TimeMachine(TimeMachineConfig(policy=CheckpointPolicy.PERIODIC, periodic_interval=3))
        tm.attach(cluster)
        cluster.run()
        assert tm.stats()["policy"] == "periodic"
        assert tm.store.total_checkpoints() > 0

    def test_time_machine_coordinated_snapshot_on_demand(self):
        cluster = make_cluster({"p0": PingPong, "p1": PingPong}, seed=1)
        tm = TimeMachine(TimeMachineConfig(policy=CheckpointPolicy.COORDINATED))
        tm.attach(cluster)
        cluster.start()
        cluster.run(max_events=4)
        bundle = tm.snapshot_now()
        assert set(bundle.pids()) == {"p0", "p1"}

    def test_checkpoint_process_on_demand(self):
        cluster = make_cluster({"p0": PingPong, "p1": PingPong}, seed=1)
        tm = TimeMachine(TimeMachineConfig(policy=CheckpointPolicy.COORDINATED))
        tm.attach(cluster)
        cluster.start()
        tm.checkpoint_process("p0")
        assert tm.store.latest("p0") is not None

    def test_unattached_facade_raises(self):
        tm = TimeMachine()
        with pytest.raises(CheckpointError):
            _ = tm.cluster
        with pytest.raises(CheckpointError):
            _ = tm.rollback_manager
