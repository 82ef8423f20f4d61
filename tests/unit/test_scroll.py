"""Unit tests for the Scroll: entries, recording policies, storage and queries."""

from __future__ import annotations

import pytest

from repro.dsim.cluster import Cluster, ClusterConfig
from repro.dsim.failure import Crash, Drop, FaultSchedule
from repro.scroll.entry import ActionKind, ScrollEntry
from repro.scroll.interceptor import InterceptionMode, RecordingPolicy, ReplayClock, ReplayRandomStream
from repro.scroll.recorder import ScrollRecorder
from repro.scroll.scroll import Scroll
from repro.scroll.storage import append_entry, iter_scroll_records, load_scroll, save_scroll
from repro.errors import ReplayDivergenceError

from tests.conftest import PingPong, RandomWorker, make_cluster


# ----------------------------------------------------------------------
# Entries
# ----------------------------------------------------------------------
class TestScrollEntry:
    def test_round_trip_through_record(self):
        entry = ScrollEntry(pid="a", kind=ActionKind.RANDOM, time=2.0, detail={"value": 7})
        rebuilt = ScrollEntry.from_record(entry.to_record())
        assert rebuilt.pid == "a"
        assert rebuilt.kind is ActionKind.RANDOM
        assert rebuilt.detail == {"value": 7}
        assert rebuilt.seq == entry.seq

    def test_nondeterministic_classification(self):
        receive = ScrollEntry(pid="a", kind=ActionKind.RECEIVE, time=0.0)
        send = ScrollEntry(pid="a", kind=ActionKind.SEND, time=0.0)
        assert receive.is_nondeterministic
        assert not send.is_nondeterministic

    def test_describe_contains_pid_and_kind(self):
        entry = ScrollEntry(pid="worker", kind=ActionKind.TIMER, time=1.5, detail={"name": "t"})
        assert "worker" in entry.describe()
        assert "timer" in entry.describe()


# ----------------------------------------------------------------------
# Scroll container and queries
# ----------------------------------------------------------------------
class TestScrollQueries:
    def _scroll(self) -> Scroll:
        scroll = Scroll()
        scroll.record("a", ActionKind.SEND, 1.0, {"message": {"msg_id": 1, "src": "a", "dst": "b", "kind": "X"}})
        scroll.record("b", ActionKind.RECEIVE, 2.0, {"message": {"msg_id": 1, "src": "a", "dst": "b", "kind": "X"}})
        scroll.record("b", ActionKind.RANDOM, 2.0, {"method": "random", "value": 0.5})
        scroll.record("a", ActionKind.VIOLATION, 3.0, {"invariant": "inv"})
        return scroll

    def test_len_and_iteration(self):
        scroll = self._scroll()
        assert len(scroll) == 4
        assert len(list(scroll)) == 4

    def test_entries_for_process(self):
        scroll = self._scroll()
        assert len(scroll.entries_for("b")) == 2

    def test_of_kind_and_violations(self):
        scroll = self._scroll()
        assert len(scroll.of_kind(ActionKind.SEND, ActionKind.RECEIVE)) == 2
        assert len(scroll.violations()) == 1

    def test_between_uses_half_open_interval(self):
        scroll = self._scroll()
        assert len(scroll.between(1.0, 3.0)) == 3

    def test_counts(self):
        scroll = self._scroll()
        assert scroll.counts_by_kind()["random"] == 1
        assert scroll.counts_by_process()["a"] == 2

    def test_pids_sorted(self):
        assert self._scroll().pids() == ["a", "b"]

    def test_last_entry(self):
        scroll = self._scroll()
        assert scroll.last_entry().kind is ActionKind.VIOLATION
        assert scroll.last_entry("b").kind is ActionKind.RANDOM

    def test_prefix_until(self):
        scroll = self._scroll()
        prefix = scroll.prefix_until(lambda entry: entry.kind is ActionKind.VIOLATION)
        assert len(prefix) == 3

    def test_slice_for(self):
        scroll = self._scroll()
        only_b = scroll.slice_for(["b"])
        assert only_b.pids() == ["b"]

    def test_received_and_sent_messages(self):
        scroll = self._scroll()
        assert len(scroll.received_messages("b")) == 1
        assert len(scroll.sent_messages("a")) == 1
        assert scroll.random_outcomes("b") == [{"method": "random", "value": 0.5}]

    def test_merge_preserves_send_before_receive_weighting(self):
        a = Scroll()
        b = Scroll()
        a.record("a", ActionKind.SEND, 1.0, {"message": {"msg_id": 9}})
        b.record("b", ActionKind.RECEIVE, 1.0, {"message": {"msg_id": 9}})
        merged = Scroll.merge([b, a])
        assert len(merged) == 2

    def test_round_trip_records(self):
        scroll = self._scroll()
        rebuilt = Scroll.from_records(scroll.to_records())
        assert len(rebuilt) == len(scroll)
        assert rebuilt[0].pid == scroll[0].pid


# ----------------------------------------------------------------------
# Recording policies
# ----------------------------------------------------------------------
class TestRecordingPolicy:
    def test_syscall_mode_is_superset_of_library_mode(self):
        library = RecordingPolicy(InterceptionMode.LIBRARY).recorded_kinds()
        syscall = RecordingPolicy(InterceptionMode.SYSCALL).recorded_kinds()
        assert library < syscall
        assert ActionKind.CLOCK_READ in syscall and ActionKind.CLOCK_READ not in library

    def test_blackbox_mode_records_only_remote_interactions(self):
        kinds = RecordingPolicy(InterceptionMode.BLACKBOX).recorded_kinds()
        assert kinds == frozenset({ActionKind.SEND, ActionKind.RECEIVE})

    def test_should_record(self):
        policy = RecordingPolicy(InterceptionMode.LIBRARY)
        assert policy.should_record(ActionKind.RANDOM)
        assert not policy.should_record(ActionKind.CLOCK_READ)


# ----------------------------------------------------------------------
# Recorder attached to a cluster
# ----------------------------------------------------------------------
class TestScrollRecorder:
    def test_records_sends_receives_and_randomness(self):
        cluster = make_cluster({"r0": RandomWorker, "r1": RandomWorker}, seed=3)
        recorder = ScrollRecorder()
        cluster.add_hook(recorder)
        cluster.run()
        counts = recorder.scroll.counts_by_kind()
        assert counts["send"] >= 1
        assert counts["receive"] >= 1
        assert counts["random"] >= 1
        assert counts["timer"] >= 1
        assert counts["clock_read"] >= 1

    def test_library_mode_skips_clock_reads(self):
        cluster = make_cluster({"r0": RandomWorker, "r1": RandomWorker}, seed=3)
        recorder = ScrollRecorder(policy=RecordingPolicy(InterceptionMode.LIBRARY))
        cluster.add_hook(recorder)
        cluster.run()
        counts = recorder.scroll.counts_by_kind()
        assert "clock_read" not in counts
        assert counts["timer"] >= 1      # timers are library-visible (libc alarm/select)
        assert counts["send"] >= 1

    def test_blackbox_mode_records_fewer_entries(self):
        def run_with(policy):
            cluster = make_cluster({"r0": RandomWorker, "r1": RandomWorker}, seed=3)
            recorder = ScrollRecorder(policy=policy)
            cluster.add_hook(recorder)
            cluster.run()
            return len(recorder.scroll)

        blackbox = run_with(RecordingPolicy(InterceptionMode.BLACKBOX))
        syscall = run_with(RecordingPolicy(InterceptionMode.SYSCALL))
        assert blackbox < syscall

    def test_payloads_can_be_omitted(self):
        cluster = make_cluster({"p0": PingPong, "p1": PingPong}, seed=1)
        recorder = ScrollRecorder(policy=RecordingPolicy(record_payloads=False))
        cluster.add_hook(recorder)
        cluster.run()
        sends = recorder.scroll.of_kind(ActionKind.SEND)
        assert all(entry.detail["message"]["payload"] is None for entry in sends)

    def test_crash_and_drop_recorded(self):
        cluster = make_cluster({"p0": PingPong, "p1": PingPong}, seed=1)
        cluster.set_failure_plan(
            FaultSchedule.of(
                Crash("p1", at=3.0),
                Drop(match_kind="PING", count=1, after=1.5),
            )
        )
        recorder = ScrollRecorder()
        cluster.add_hook(recorder)
        cluster.run()
        counts = recorder.scroll.counts_by_kind()
        assert counts.get("crash") == 1
        assert counts.get("drop", 0) >= 1

    def test_violation_recorded(self, buggy_counter_cluster):
        recorder = ScrollRecorder()
        buggy_counter_cluster.add_hook(recorder)
        buggy_counter_cluster.run(max_events=100)
        assert len(recorder.scroll.violations()) >= 1


# ----------------------------------------------------------------------
# Replay-side substitutes
# ----------------------------------------------------------------------
class TestReplaySubstitutes:
    def test_replay_stream_returns_recorded_values_in_order(self):
        stream = ReplayRandomStream(
            "a",
            [{"method": "random", "value": 0.25}, {"method": "randint", "value": 7}],
        )
        assert stream.random() == 0.25
        assert stream.randint(0, 10) == 7
        assert stream.draws == 2

    def test_replay_stream_detects_method_mismatch(self):
        stream = ReplayRandomStream("a", [{"method": "random", "value": 0.25}])
        with pytest.raises(ReplayDivergenceError):
            stream.randint(0, 10)

    def test_replay_stream_detects_exhaustion(self):
        stream = ReplayRandomStream("a", [])
        with pytest.raises(ReplayDivergenceError):
            stream.random()

    def test_replay_stream_restore(self):
        stream = ReplayRandomStream("a", [{"method": "random", "value": 0.1}])
        stream.random()
        stream.restore(0)
        assert stream.random() == 0.1
        with pytest.raises(ReplayDivergenceError):
            stream.restore(5)

    def test_replay_clock_returns_recorded_then_fallback(self):
        clock = ReplayClock("a", [1.0, 2.0])
        assert clock.read() == 1.0
        assert clock.read() == 2.0
        assert clock.read() == 2.0
        clock.advance_fallback(9.0)
        assert clock.read() == 9.0


# ----------------------------------------------------------------------
# Storage
# ----------------------------------------------------------------------
class TestScrollStorage:
    def test_save_and_load_round_trip(self, tmp_path):
        cluster = make_cluster({"p0": PingPong, "p1": PingPong}, seed=1)
        recorder = ScrollRecorder()
        cluster.add_hook(recorder)
        cluster.run()
        path = tmp_path / "scroll.jsonl"
        written = save_scroll(recorder.scroll, path)
        loaded = load_scroll(path)
        assert written == len(recorder.scroll) == len(loaded)
        assert loaded[0].kind == recorder.scroll[0].kind

    def test_iter_scroll_records_streams_raw_dicts(self, tmp_path):
        scroll = Scroll()
        scroll.record("a", ActionKind.SEND, 0.0, {"message": {"msg_id": 1}})
        path = tmp_path / "s.jsonl"
        save_scroll(scroll, path)
        records = list(iter_scroll_records(path))
        assert records[0]["pid"] == "a"

    def test_append_entry_creates_file(self, tmp_path):
        path = tmp_path / "nested" / "s.jsonl"
        append_entry(path, ScrollEntry(pid="a", kind=ActionKind.ANNOTATION, time=0.0, detail={"text": "hi"}))
        append_entry(path, ScrollEntry(pid="a", kind=ActionKind.ANNOTATION, time=1.0, detail={"text": "bye"}))
        assert len(load_scroll(path)) == 2
