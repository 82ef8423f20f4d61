"""Unit tests for the example applications, the analysis helpers and the runtime hooks."""

from __future__ import annotations

import pytest

from repro.analysis.stats import compare_runs, overhead_ratio, summarize_scroll
from repro.analysis.trace import build_causal_trace, message_flows
from repro.apps.bank import (
    BankBranch,
    BankBranchFixed,
    build_bank_cluster,
    total_balance,
    total_balance_invariant,
)
from repro.apps.kvstore import (
    KVClient,
    KVReplica,
    KVReplicaStale,
    build_kvstore_cluster,
    replica_consistency_invariant,
)
from repro.apps.leader_election import (
    RingElector,
    at_most_one_leader_invariant,
    build_election_ring,
    elected_leader,
)
from repro.apps.token_ring import (
    TokenRingNode,
    TokenRingNodeBuggy,
    build_token_ring,
    mutual_exclusion_invariant,
    single_token_invariant,
)
from repro.apps.two_phase_commit import (
    Coordinator,
    Participant,
    ParticipantLossy,
    atomicity_invariant,
    build_2pc_cluster,
)
from repro.apps.wordcount import (
    WordCountMaster,
    build_wordcount_cluster,
    expected_counts,
    generate_corpus,
)
from repro.dsim.cluster import Cluster, ClusterConfig
from repro.dsim.failure import Crash, Drop, FaultSchedule
from repro.dsim.runtime import LatencyProbeHook, PeriodicActionHook, StatsHook, TraceHook
from repro.scroll.recorder import ScrollRecorder

from tests.conftest import PingPong, make_cluster


def run_app(builder, seed=11, max_events=3000, halt=False, **kwargs):
    cluster = Cluster(ClusterConfig(seed=seed, halt_on_violation=halt))
    builder(cluster, **kwargs)
    recorder = ScrollRecorder()
    cluster.add_hook(recorder)
    result = cluster.run(max_events=max_events)
    return cluster, result, recorder.scroll


# ----------------------------------------------------------------------
# KV store
# ----------------------------------------------------------------------
class TestKVStore:
    def test_writes_replicate_to_backups(self):
        cluster, result, _ = run_app(build_kvstore_cluster)
        primary = cluster.process("replica0").state["store"]
        for backup in ("replica1", "replica2"):
            assert cluster.process(backup).state["store"] == primary
        assert result.ok

    def test_client_receives_acks_and_replies(self):
        cluster, _, _ = run_app(build_kvstore_cluster)
        client = cluster.process("client0").state
        assert client["acks"] > 0 and client["replies"] >= 0
        assert not client["pending"]

    def test_replica_consistency_invariant_holds_for_correct_replicas(self):
        cluster, result, _ = run_app(build_kvstore_cluster)
        assert replica_consistency_invariant(result.process_states)

    def test_stale_replica_violates_version_invariant_on_overwrite(self):
        class Rewriter(KVClient):
            operations = [("put", "k", 1), ("put", "k", 2)]

        def builder(cluster):
            cluster.add_process("replica0", KVReplica)
            cluster.add_process("replica1", KVReplicaStale)
            cluster.add_process("client0", Rewriter)

        cluster, result, _ = run_app(builder)
        assert any(
            violation.invariant == "overwrite-bumps-version" and violation.pid == "replica1"
            for violation in result.violations
        )

    def test_correct_replica_survives_overwrites(self):
        class Rewriter(KVClient):
            operations = [("put", "k", 1), ("put", "k", 2), ("get", "k", None)]

        def builder(cluster):
            cluster.add_process("replica0", KVReplica)
            cluster.add_process("client0", Rewriter)

        cluster, result, _ = run_app(builder)
        assert result.ok
        assert cluster.process("replica0").state["versions"]["k"] == 2


# ----------------------------------------------------------------------
# Two-phase commit
# ----------------------------------------------------------------------
class TestTwoPhaseCommit:
    def test_all_yes_votes_commit_every_transaction(self):
        cluster, result, _ = run_app(build_2pc_cluster, transactions=2)
        coordinator = cluster.process("coordinator").state
        assert coordinator["completed"] == 2
        assert all(decision == "COMMIT" for decision in coordinator["decisions"].values())
        assert atomicity_invariant(result.process_states)

    def test_no_vote_aborts_transaction_for_everyone(self):
        class Refuser(Participant):
            def will_accept(self, txn):
                return txn != 1

        def builder(cluster):
            Coordinator.transactions = 2
            cluster.add_process("coordinator", Coordinator)
            cluster.add_process("participant0", Participant)
            cluster.add_process("participant1", Refuser)

        cluster, result, _ = run_app(builder)
        decisions = cluster.process("coordinator").state["decisions"]
        assert decisions[1] == "ABORT"
        assert atomicity_invariant(result.process_states)

    def test_lossy_participant_with_presumed_commit_breaks_atomicity(self):
        class PresumingCoordinator(Coordinator):
            assume_yes_on_timeout = True
            vote_timeout = 5.0
            transactions = 2

        def builder(cluster):
            cluster.add_process("coordinator", PresumingCoordinator)
            cluster.add_process("participant0", Participant)
            cluster.add_process("participant1", ParticipantLossy)

        cluster = Cluster(ClusterConfig(seed=11, halt_on_violation=False))
        builder(cluster)
        # Drop the no-vote so the coordinator's timeout presumes yes.
        cluster.set_failure_plan(FaultSchedule.of(Drop(match_kind="VOTE_NO", count=None)))
        result = cluster.run(max_events=500)
        assert not atomicity_invariant(result.process_states)

    def test_coordinator_decision_uniqueness_invariant(self):
        cluster, result, _ = run_app(build_2pc_cluster, transactions=1)
        assert result.ok


# ----------------------------------------------------------------------
# Token ring
# ----------------------------------------------------------------------
class TestTokenRing:
    def test_correct_ring_maintains_single_token(self):
        cluster, result, _ = run_app(build_token_ring, nodes=3, max_rounds=5)
        assert result.ok
        assert single_token_invariant(result.process_states)
        assert mutual_exclusion_invariant(result.process_states)
        entries = [state["entries"] for state in result.process_states.values()]
        assert all(count >= 1 for count in entries)

    def test_buggy_ring_duplicates_token(self):
        cluster, result, _ = run_app(
            build_token_ring, nodes=3, node_class=TokenRingNodeBuggy, max_rounds=6
        )
        assert not single_token_invariant(result.process_states)


# ----------------------------------------------------------------------
# Leader election
# ----------------------------------------------------------------------
class TestLeaderElection:
    def test_highest_id_wins(self):
        cluster, result, _ = run_app(build_election_ring, nodes=4)
        assert result.ok
        leader = elected_leader(result.process_states)
        expected = max(state["node_id"] for state in result.process_states.values())
        assert leader == expected
        assert at_most_one_leader_invariant(result.process_states)

    def test_all_nodes_learn_the_leader(self):
        cluster, result, _ = run_app(build_election_ring, nodes=5)
        leaders = {state["leader"] for state in result.process_states.values()}
        assert len(leaders) == 1 and None not in leaders

    def test_election_survives_follower_crash(self):
        cluster = Cluster(ClusterConfig(seed=11, halt_on_violation=False))
        build_election_ring(cluster, nodes=4)
        # elector1 has a low id and is not on the winning path's critical round
        cluster.set_failure_plan(FaultSchedule.of(Crash("elector1", at=30.0)))
        result = cluster.run(max_events=2000)
        assert at_most_one_leader_invariant(result.process_states)


# ----------------------------------------------------------------------
# Bank
# ----------------------------------------------------------------------
class TestBank:
    def test_buggy_bank_loses_money(self):
        cluster, result, _ = run_app(build_bank_cluster, branches=3)
        assert not total_balance_invariant(result.process_states)
        assert total_balance(result.process_states) < 600

    def test_fixed_bank_conserves_money(self):
        cluster, result, _ = run_app(build_bank_cluster, branches=3, fixed=True)
        assert total_balance_invariant(result.process_states)
        assert total_balance(result.process_states) == 600

    def test_local_invariants_hold_even_in_buggy_bank(self):
        cluster, result, _ = run_app(build_bank_cluster, branches=3)
        assert result.ok  # the bug is only visible globally


# ----------------------------------------------------------------------
# Word count
# ----------------------------------------------------------------------
class TestWordCount:
    def test_counts_match_ground_truth(self):
        cluster, result, _ = run_app(build_wordcount_cluster, workers=3, chunks=12)
        master = cluster.process("master").state
        assert master["aggregated"] == 12
        assert master["counts"] == expected_counts(12)

    def test_corpus_generator_is_deterministic(self):
        assert generate_corpus(4) == generate_corpus(4)
        assert sum(expected_counts(4).values()) == 4 * 20

    def test_crashed_worker_reduces_aggregated_chunks(self):
        cluster = Cluster(ClusterConfig(seed=11, halt_on_violation=False))
        build_wordcount_cluster(cluster, workers=2, chunks=10)
        cluster.set_failure_plan(FaultSchedule.of(Crash("worker0", at=4.0)))
        result = cluster.run(max_events=3000)
        assert cluster.process("master").state["aggregated"] < 10


# ----------------------------------------------------------------------
# Runtime hooks
# ----------------------------------------------------------------------
class TestRuntimeHooks:
    def test_trace_hook_collects_and_groups(self):
        cluster = make_cluster({"p0": PingPong, "p1": PingPong}, seed=1)
        trace = TraceHook()
        cluster.add_hook(trace)
        cluster.run()
        assert trace.records
        assert set(trace.by_process()) == {"p0", "p1"}
        assert trace.by_category("send")

    def test_stats_hook_totals(self):
        cluster = make_cluster({"p0": PingPong, "p1": PingPong}, seed=1)
        stats = StatsHook()
        cluster.add_hook(stats)
        cluster.run()
        totals = stats.totals()
        assert totals["sent"] == totals["received"]
        assert totals["handlers"] > 0

    def test_periodic_action_hook_counts_handlers(self):
        cluster = make_cluster({"p0": PingPong, "p1": PingPong}, seed=1)
        fired = []
        cluster.add_hook(PeriodicActionHook(2, lambda pid, time: fired.append(pid)))
        cluster.run()
        assert fired
        with pytest.raises(ValueError):
            PeriodicActionHook(0, lambda pid, time: None)

    def test_latency_probe_measures_channel_delay(self):
        cluster = make_cluster({"p0": PingPong, "p1": PingPong}, seed=1)
        probe = LatencyProbeHook()
        cluster.add_hook(probe)
        cluster.run()
        assert probe.mean_latency() == pytest.approx(1.0)  # default base_delay


# ----------------------------------------------------------------------
# Analysis helpers
# ----------------------------------------------------------------------
class TestAnalysis:
    def test_summarize_scroll_counts(self):
        _, _, scroll = run_app(build_kvstore_cluster)
        stats = summarize_scroll(scroll)
        assert stats.messages_sent == stats.messages_received  # reliable default network
        assert stats.delivery_ratio == pytest.approx(1.0)
        assert stats.nondeterministic_entries <= stats.total_entries
        assert "messages" in stats.describe()

    def test_message_flows_match_sends(self):
        _, _, scroll = run_app(build_kvstore_cluster)
        flows = message_flows(scroll)
        assert len(flows) == summarize_scroll(scroll).messages_sent
        assert all(flow.delivered and flow.latency >= 0 for flow in flows)

    def test_causal_trace_respects_send_before_receive(self):
        _, _, scroll = run_app(build_kvstore_cluster)
        trace = build_causal_trace(scroll)
        assert len(trace) == len(scroll)
        assert trace.respects_send_before_receive()
        assert trace.actions_of("client0")

    def test_compare_runs_identical_for_same_seed(self):
        _, first, _ = run_app(build_kvstore_cluster, seed=3)
        _, second, _ = run_app(build_kvstore_cluster, seed=3)
        comparison = compare_runs(first, second)
        assert comparison.identical_states
        assert comparison.events_delta == 0

    def test_compare_runs_detects_differences(self):
        _, buggy, _ = run_app(build_bank_cluster, seed=3)
        _, fixed, _ = run_app(build_bank_cluster, seed=3, fixed=True)
        comparison = compare_runs(buggy, fixed)
        assert not comparison.identical_states

    def test_overhead_ratio(self):
        assert overhead_ratio(1.0, 1.5) == pytest.approx(0.5)
        assert overhead_ratio(0.0, 1.0) is None
