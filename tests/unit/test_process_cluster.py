"""Unit tests for the process programming model and the cluster run loop."""

from __future__ import annotations

import pytest

from repro.dsim.cluster import Cluster, ClusterConfig
from repro.dsim.failure import Corrupt, Crash, Drop, FaultSchedule, Partition
from repro.dsim.network import NetworkConfig
from repro.dsim.channel import ChannelConfig
from repro.dsim.process import Process, handler, invariant, timer_handler
from repro.errors import InvariantViolation, SimulationError, UnknownProcessError
from repro.scroll.entry import ActionKind
from repro.scroll.recorder import ScrollRecorder

from tests.conftest import BoundedCounterBuggy, PingPong, RandomWorker, make_cluster


# ----------------------------------------------------------------------
# Process basics
# ----------------------------------------------------------------------
class TestProcessBasics:
    def test_unbound_process_has_no_context(self):
        process = PingPong()
        with pytest.raises(SimulationError):
            _ = process.pid

    def test_handler_registration_from_decorators(self):
        process = PingPong()
        assert "PING" in process._handlers
        assert "count-bounded" in process._invariants

    def test_subclass_overrides_parent_handler(self):
        class Child(PingPong):
            @handler("PING")
            def on_ping(self, msg):
                self.state["count"] = 99

        cluster = make_cluster({"p0": Child, "p1": Child}, seed=1)
        cluster.run(max_events=10)
        assert cluster.process("p1").state["count"] == 99

    def test_unhandled_message_raises_by_default(self):
        class Sender(Process):
            def on_start(self):
                if self.pid == "s0":
                    self.send("s1", "UNKNOWN", None)

        cluster = make_cluster({"s0": Sender, "s1": Sender}, seed=1)
        with pytest.raises(SimulationError):
            cluster.run()

    def test_peers_excludes_self(self, ping_cluster):
        ping_cluster.start()
        assert ping_cluster.process("p0").peers == ("p1",)

    def test_vector_clock_advances_on_communication(self, ping_cluster):
        ping_cluster.run()
        vt0 = ping_cluster.process("p0").vector_timestamp
        vt1 = ping_cluster.process("p1").vector_timestamp
        assert vt0.component("p1") > 0
        assert vt1.component("p0") > 0

    def test_lamport_time_nonzero_after_run(self, ping_cluster):
        ping_cluster.run()
        assert ping_cluster.process("p0").lamport_time > 0

    def test_message_counters(self, ping_cluster):
        ping_cluster.run()
        p0 = ping_cluster.process("p0")
        assert p0.messages_sent > 0 and p0.messages_received > 0

    def test_negative_timer_delay_rejected(self, ping_cluster):
        ping_cluster.start()
        with pytest.raises(SimulationError):
            ping_cluster.process("p0").set_timer("x", -1.0)

    def test_checkpoint_and_restore_round_trip(self, ping_cluster):
        result = ping_cluster.run()
        process = ping_cluster.process("p1")
        checkpoint = process.capture_checkpoint(ping_cluster.now)
        original_count = process.state["count"]
        process.state["count"] = 999
        process.restore_checkpoint(checkpoint)
        assert process.state["count"] == original_count

    def test_checkpoint_restore_into_wrong_process_rejected(self, ping_cluster):
        ping_cluster.run()
        checkpoint = ping_cluster.process("p0").capture_checkpoint(0.0)
        with pytest.raises(SimulationError):
            ping_cluster.process("p1").restore_checkpoint(checkpoint)

    def test_checkpoint_restores_rng_cursor(self, random_worker_cluster):
        random_worker_cluster.run(max_events=50)
        process = random_worker_cluster.process("r1")
        checkpoint = process.capture_checkpoint(random_worker_cluster.now)
        value_after = process.randint(0, 100)
        process.restore_checkpoint(checkpoint)
        assert process.randint(0, 100) == value_after

    def test_invariant_violation_carries_pid_and_name(self):
        class Bad(Process):
            def on_start(self):
                self.state["x"] = -1

            @invariant("x-positive")
            def x_positive(self):
                return self.state["x"] >= 0

        cluster = make_cluster({"b0": Bad}, seed=1, raise_on_violation=True)
        with pytest.raises(InvariantViolation) as excinfo:
            cluster.run()
        assert excinfo.value.name == "x-positive"
        assert excinfo.value.pid == "b0"

    def test_invariant_exception_is_reported_as_violation(self):
        class Exploding(Process):
            def on_start(self):
                self.state["x"] = 1

            @invariant("boom")
            def boom(self):
                raise RuntimeError("invariant code crashed")

        cluster = make_cluster({"e0": Exploding}, seed=1)
        result = cluster.run()
        assert len(result.violations) == 1
        assert result.violations[0].invariant == "boom"


# ----------------------------------------------------------------------
# Cluster run loop
# ----------------------------------------------------------------------
class TestClusterRunLoop:
    def test_ping_pong_round_trip(self, ping_cluster):
        result = ping_cluster.run()
        assert result.stopped_reason == "quiescent"
        counts = sorted(p["count"] for p in result.process_states.values())
        assert counts == [4, 5]

    def test_same_seed_same_result(self):
        results = []
        for _ in range(2):
            cluster = make_cluster({"r0": RandomWorker, "r1": RandomWorker}, seed=9)
            results.append(cluster.run().process_states)
        assert results[0] == results[1]

    def test_different_seed_may_differ_in_draws(self):
        a = make_cluster({"r0": RandomWorker, "r1": RandomWorker}, seed=1).run().process_states
        b = make_cluster({"r0": RandomWorker, "r1": RandomWorker}, seed=2).run().process_states
        assert a != b

    def test_empty_cluster_rejected(self):
        with pytest.raises(SimulationError):
            Cluster().run()

    def test_duplicate_pid_rejected(self):
        cluster = Cluster()
        cluster.add_process("a", PingPong)
        with pytest.raises(SimulationError):
            cluster.add_process("a", PingPong)

    def test_add_process_after_start_rejected(self, ping_cluster):
        ping_cluster.start()
        with pytest.raises(SimulationError):
            ping_cluster.add_process("late", PingPong)

    def test_unknown_process_lookup(self, ping_cluster):
        with pytest.raises(UnknownProcessError):
            ping_cluster.process("nope")

    def test_event_limit_stops_run(self, ping_cluster):
        result = ping_cluster.run(max_events=2)
        assert result.stopped_reason == "event-limit"
        assert result.events_executed == 2

    def test_time_limit_stops_run(self):
        cluster = make_cluster({"r0": RandomWorker, "r1": RandomWorker}, seed=1)
        result = cluster.run(until=1.0)
        assert result.stopped_reason == "time-limit"
        assert result.final_time <= 1.0

    def test_add_processes_helper(self):
        cluster = Cluster(ClusterConfig(seed=1))
        pids = cluster.add_processes("w", 3, PingPong)
        assert pids == ["w0", "w1", "w2"]
        assert cluster.pids == ["w0", "w1", "w2"]

    def test_halt_on_violation_default(self, buggy_counter_cluster):
        result = buggy_counter_cluster.run(max_events=100)
        assert result.stopped_reason.startswith("invariant-violation")
        assert not result.ok

    def test_violations_recorded_without_halt(self):
        cluster = make_cluster(
            {"c0": BoundedCounterBuggy, "c1": BoundedCounterBuggy},
            seed=2,
            halt_on_violation=False,
        )
        result = cluster.run(max_events=60)
        assert len(result.violations) > 1
        assert result.violations_for("c1") or result.violations_for("c0")

    def test_check_invariants_can_be_disabled(self):
        cluster = make_cluster(
            {"c0": BoundedCounterBuggy, "c1": BoundedCounterBuggy},
            seed=2,
            check_invariants=False,
        )
        result = cluster.run(max_events=60)
        assert result.violations == []

    def test_scroll_records_sends_and_receives(self, ping_cluster):
        recorder = ScrollRecorder()
        ping_cluster.add_hook(recorder)
        ping_cluster.run()
        kinds = {entry.kind for entry in recorder.scroll}
        assert {ActionKind.SEND, ActionKind.RECEIVE} <= kinds

    def test_timer_cancellation(self):
        class Canceller(Process):
            def on_start(self):
                self.state["fired"] = 0
                self.set_timer("tick", 5.0)
                self.cancel_timer("tick")

            @timer_handler("tick")
            def on_tick(self, payload):
                self.state["fired"] += 1

        cluster = make_cluster({"t0": Canceller}, seed=1)
        cluster.run()
        assert cluster.process("t0").state["fired"] == 0

    def test_restart_process_requires_factory(self):
        cluster = Cluster(ClusterConfig(seed=1))
        cluster.add_process("inst", PingPong())   # instance, not factory
        cluster.add_process("fact", PingPong)
        cluster.start()
        with pytest.raises(SimulationError):
            cluster.restart_process("inst")
        fresh = cluster.restart_process("fact")
        assert fresh.state["count"] == 0


# ----------------------------------------------------------------------
# Fault injection behaviour in the cluster
# ----------------------------------------------------------------------
class TestClusterFaultInjection:
    def test_crash_stops_a_process(self):
        cluster = make_cluster({"p0": PingPong, "p1": PingPong}, seed=1)
        cluster.set_failure_plan(FaultSchedule.of(Crash("p1", at=2.0)))
        result = cluster.run()
        assert result.process_states["p1"]["count"] < 5

    def test_crash_and_recover_are_recorded(self):
        cluster = make_cluster({"p0": PingPong, "p1": PingPong}, seed=1)
        recorder = ScrollRecorder()
        cluster.add_hook(recorder)
        cluster.set_failure_plan(FaultSchedule.of(Crash("p1", at=2.0, recover_at=6.0)))
        cluster.run()
        kinds = [entry.kind for entry in recorder.scroll.entries_for("p1")]
        assert ActionKind.CRASH in kinds and ActionKind.RECOVER in kinds

    def test_simulator_run_reports_no_worker_errors(self):
        cluster = make_cluster({"p0": PingPong, "p1": PingPong}, seed=1)
        cluster.set_failure_plan(FaultSchedule.of(Crash("p1", at=2.0, recover_at=6.0)))
        assert cluster.run().errors == {}

    def test_handler_exception_propagates_out_of_run(self):
        class Exploder(PingPong):
            @handler("PING")
            def on_ping(self, msg):
                raise ValueError("boom")

        cluster = make_cluster({"p0": Exploder, "p1": Exploder}, seed=1)
        with pytest.raises(ValueError, match="boom"):
            cluster.run()

    def test_message_drop_fault(self):
        cluster = make_cluster({"p0": PingPong, "p1": PingPong}, seed=1)
        cluster.set_failure_plan(FaultSchedule.of(Drop(match_kind="PING", count=1)))
        result = cluster.run()
        # The very first PING is dropped, so nobody ever counts anything.
        assert all(state["count"] == 0 for state in result.process_states.values())

    def test_partition_fault_blocks_traffic(self):
        cluster = make_cluster({"p0": PingPong, "p1": PingPong}, seed=1)
        cluster.set_failure_plan(
            FaultSchedule.of(Partition([["p0"], ["p1"]], start=0.0, end=100.0))
        )
        result = cluster.run()
        assert all(state["count"] == 0 for state in result.process_states.values())
        assert result.network_stats["dropped"] >= 1

    def test_state_corruption_triggers_invariant(self):
        cluster = make_cluster({"p0": PingPong, "p1": PingPong}, seed=1)
        cluster.set_failure_plan(
            FaultSchedule.of(Corrupt("p1", at=3.0, ops=(("set", ("count",), 999),)))
        )
        result = cluster.run()
        assert any(v.invariant == "count-bounded" for v in result.violations)

    def test_lossy_network_config(self):
        config = ClusterConfig(
            seed=4, network=NetworkConfig(default_channel=ChannelConfig(drop_rate=1.0))
        )
        cluster = Cluster(config)
        cluster.add_process("p0", PingPong)
        cluster.add_process("p1", PingPong)
        result = cluster.run()
        assert result.network_stats["dropped"] >= 1
        assert all(state["count"] == 0 for state in result.process_states.values())


class TestBackendBinding:
    def test_backend_instance_cannot_be_shared_between_clusters(self):
        from repro.dsim.backend import SimBackend

        backend = SimBackend()
        first = Cluster(ClusterConfig(seed=1), backend=backend)
        assert first.backend is backend
        with pytest.raises(SimulationError, match="already bound"):
            Cluster(ClusterConfig(seed=1), backend=backend)

    def test_unknown_backend_spec_rejected(self):
        with pytest.raises(SimulationError, match="unknown backend"):
            Cluster(ClusterConfig(seed=1), backend="quantum")
