"""End-to-end integration tests across components, plus the multiprocessing backend."""

from __future__ import annotations

import sys

import pytest

from repro.apps.bank import BankBranch, BankBranchFixed, build_bank_cluster, total_balance_invariant
from repro.apps.kvstore import KVClient, KVReplica
from repro.apps.wordcount import build_wordcount_cluster, expected_counts
from repro.core.fixd import FixD, FixDConfig
from repro.dsim.cluster import Cluster, ClusterConfig
from repro.dsim.backend import MPBackend, MPBackendOptions
from repro.dsim.failure import Corrupt, Crash, Drop, FaultSchedule
from repro.dsim.hooks import RuntimeHook
from repro.dsim.process import Process, handler
from repro.healer.healer import Healer
from repro.healer.patch import generate_patch
from repro.healer.strategies import RecoveryStrategy
from repro.investigator.investigator import Investigator, InvestigatorConfig
from repro.scroll.recorder import ScrollRecorder
from repro.scroll.replayer import Replayer
from repro.scroll.storage import load_scroll, save_scroll
from repro.timemachine.time_machine import TimeMachine

from tests.conftest import PingPong, make_cluster


class TestRecordReplayRoundTrip:
    def test_record_save_load_replay_kvstore(self, tmp_path):
        factories = {
            "replica0": KVReplica,
            "replica1": KVReplica,
            "client0": KVClient,
        }
        cluster = make_cluster(factories, seed=17)
        recorder = ScrollRecorder()
        cluster.add_hook(recorder)
        result = cluster.run(max_events=2000)
        assert result.ok

        path = tmp_path / "kv.scroll.jsonl"
        save_scroll(recorder.scroll, path)
        loaded = load_scroll(path)
        report = Replayer(loaded, factories).replay_all()
        assert report.ok
        for pid, replay in report.processes.items():
            assert replay.final_state == result.process_states[pid]


class TestCrashRecoveryWithCheckpoints:
    def test_crashed_worker_resumes_from_checkpoint(self):
        cluster = Cluster(ClusterConfig(seed=11, halt_on_violation=False))
        build_wordcount_cluster(cluster, workers=2, chunks=8)
        time_machine = TimeMachine()
        time_machine.attach(cluster)
        cluster.set_failure_plan(FaultSchedule.of(Crash("worker0", at=5.0, recover_at=9.0)))
        result = cluster.run(max_events=4000)
        # Recovery lets the master finish aggregating every chunk it dispatched.
        master = cluster.process("master").state
        assert master["aggregated"] <= master["dispatched"]
        assert time_machine.store.total_checkpoints() > 0


class TestGlobalInvariantHealing:
    def test_bank_healed_by_fixd_global_investigation(self):
        """Detect the bank's conservation bug via the Investigator, then heal it."""
        cluster = Cluster(ClusterConfig(seed=13, halt_on_violation=False))
        build_bank_cluster(cluster, branches=3)
        time_machine = TimeMachine()
        time_machine.attach(cluster)
        cluster.run(until=6.0, max_events=200)

        investigation = Investigator(InvestigatorConfig(max_states=1500, max_depth=30)).investigate(
            {pid: BankBranch for pid in cluster.pids},
            checkpoint=time_machine.latest_recovery_line().as_global_checkpoint(),
            global_invariants={"conservation": total_balance_invariant},
        )
        assert investigation.found_violation

        healer = Healer(cluster, time_machine)
        report = healer.heal(
            generate_patch(BankBranch, BankBranchFixed, description="no fee"),
            strategy=RecoveryStrategy.RESUME_FROM_CHECKPOINT,
        )
        assert report.succeeded
        cluster.resume()
        cluster.run(max_events=500)
        assert all(isinstance(cluster.process(pid), BankBranchFixed) for pid in cluster.pids)


class TestRepeatedFaultHandling:
    def test_fixd_handles_multiple_faults_up_to_budget(self):
        class FlakyCounter(Process):
            def on_start(self):
                self.state["count"] = 0
                if self.pid == "f0":
                    self.send("f1", "TICK", None)

            @handler("TICK")
            def on_tick(self, msg):
                self.state["count"] += 1
                self.send(msg.src, "TICK", None)

            def check_invariants(self):
                from repro.errors import InvariantViolation

                if self.state["count"] in (2, 4):
                    raise InvariantViolation("count-not-even-checkpoint", self.pid)

        cluster = make_cluster({"f0": FlakyCounter, "f1": FlakyCounter}, seed=2)
        fixd = FixD(FixDConfig(max_faults_handled=3, investigate_on_fault=False))
        fixd.attach(cluster)
        cluster.run(max_events=60)
        assert 1 <= len(fixd.reports) <= 3


class _StopExploder(PingPong):
    """PingPong whose shutdown callback fails (worker error-path coverage)."""

    def on_stop(self):
        raise ValueError("boom in on_stop")


class _CountingHook(RuntimeHook):
    """Counts the sends, receives, handler completions and corruptions a run reports."""

    def __init__(self) -> None:
        self.counts = {"sent": 0, "received": 0, "handlers": 0}
        self.corruptions = []

    def on_send(self, pid, message, time, vt=None):
        self.counts["sent"] += 1

    def on_receive(self, pid, message, time, vt=None):
        self.counts["received"] += 1

    def after_handler(self, pid, description, time):
        self.counts["handlers"] += 1

    def on_corruption(self, pid, description, time, vt=None):
        self.corruptions.append((pid, description))


@pytest.mark.slow
class TestMultiprocessingBackend:
    """The same process classes running on real OS processes via the unified API."""

    @staticmethod
    def _mp_cluster(seed=1) -> Cluster:
        cluster = Cluster(ClusterConfig(seed=seed), backend=MPBackend())
        cluster.add_process("p0", PingPong)
        cluster.add_process("p1", PingPong)
        return cluster

    def test_ping_pong_on_real_processes(self):
        cluster = self._mp_cluster()
        result = cluster.run(until=60)
        assert result.stopped_reason == "quiescent"
        assert set(result.process_states) == {"p0", "p1"}
        counts = sorted(state["count"] for state in result.process_states.values())
        assert counts == [4, 5]
        assert cluster.backend.transport_stats["messages_routed"] >= 9

    def test_mp_backend_matches_simulator_results(self):
        simulated = make_cluster({"p0": PingPong, "p1": PingPong}, seed=1).run()
        real = self._mp_cluster().run(until=60)
        assert real.process_states == simulated.process_states

    def test_duplicate_pid_and_instance_rejected(self):
        cluster = Cluster(backend=MPBackend())
        cluster.add_process("p0", PingPong)
        with pytest.raises(Exception):
            cluster.add_process("p0", PingPong)
        # instances register fine on the frontend, but the mp backend
        # needs factories to build workers — the run rejects them.
        cluster.add_process("p1", PingPong())
        with pytest.raises(Exception):
            cluster.run(until=1.0)

    def test_cooperative_crash(self):
        cluster = self._mp_cluster()
        cluster.set_failure_plan(FaultSchedule.of(Crash("p1", at=1e-6)))
        result = cluster.run(until=60)
        assert result.process_states["p1"]["count"] <= 1

    def test_message_fault_injection_on_real_processes(self):
        cluster = self._mp_cluster()
        cluster.set_failure_plan(FaultSchedule.of(Drop(match_kind="PING", count=1)))
        result = cluster.run(until=60)
        # the very first PING is dropped: the conversation never starts
        counts = sorted(state["count"] for state in result.process_states.values())
        assert counts == [0, 0]
        assert sum(cluster.fault_engine.hit_counts().values()) == 1

    def test_hook_surface_on_real_processes(self):
        """Generic runtime hooks observe the run on the mp substrate too."""
        cluster = self._mp_cluster()
        hook = _CountingHook()
        cluster.add_hook(hook)
        cluster.run(until=60)
        totals = hook.counts
        assert totals["sent"] == 9 and totals["received"] == 9
        assert totals["handlers"] >= 9  # after_handler fires per delivery + on_start
        # msg_ids are cluster-unique across workers (per-worker id ranges)
        from repro.scroll.recorder import ScrollRecorder
        from repro.scroll.entry import ActionKind

        cluster2 = self._mp_cluster()
        recorder = ScrollRecorder()
        cluster2.add_hook(recorder)
        cluster2.run(until=60)
        sent_ids = [
            e.detail["message"]["msg_id"] for e in recorder.scroll.of_kind(ActionKind.SEND)
        ]
        assert len(sent_ids) == len(set(sent_ids)), "msg_ids collide across workers"

    def test_state_corruption_fires_even_after_app_quiesces(self):
        cluster = Cluster(
            ClusterConfig(seed=1, halt_on_violation=False),
            backend=MPBackend(MPBackendOptions(time_scale=0.01)),
        )
        cluster.add_process("p0", PingPong)
        cluster.add_process("p1", PingPong)
        # the ping-pong exchange is over almost immediately; the
        # corruption is scheduled long after — quiescence must wait
        cluster.set_failure_plan(
            FaultSchedule.of(
                Corrupt("p1", at=20.0, ops=(("add", ("count",), 100),), description="count overflow")
            )
        )
        hook = _CountingHook()
        cluster.add_hook(hook)
        result = cluster.run(until=200)
        assert hook.corruptions == [("p1", "count overflow")], "corruption never fired"
        assert result.violations, "corrupted invariant was not detected"

    def test_frontend_process_state_access_fails_loudly(self):
        cluster = self._mp_cluster()
        prototype = cluster.process("p0")  # fine before the run starts
        assert prototype.state == {}
        result = cluster.run(until=60)
        assert result.process_states["p0"]["count"] > 0
        with pytest.raises(Exception, match="RunResult.process_states"):
            cluster.process("p0")
        with pytest.raises(Exception, match="RunResult.process_states"):
            cluster.processes()

    def test_on_stop_exception_preserves_final_state(self):
        cluster = Cluster(ClusterConfig(seed=1), backend=MPBackend())
        cluster.add_process("s0", _StopExploder)
        cluster.add_process("s1", _StopExploder)
        result = cluster.run(until=60)
        assert result.stopped_reason.startswith("worker-error:")
        # final states survive the on_stop failure instead of vanishing
        assert set(result.process_states) == {"s0", "s1"}
        assert set(result.errors) == {"s0", "s1"}
        assert all(text.startswith("on_stop: ") for text in result.errors.values())

    def test_fault_plan_unknown_pid_rejected_before_spawn(self):
        from repro.errors import UnknownProcessError

        cluster = self._mp_cluster()
        cluster.set_failure_plan(FaultSchedule.of(Crash("ghost", at=0.5)))
        with pytest.raises(UnknownProcessError):
            cluster.run(until=1.0)
        # the failed validation must not poison the cluster
        cluster.set_failure_plan(FaultSchedule())
        assert cluster.run(until=60).stopped_reason == "quiescent"
