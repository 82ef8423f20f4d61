"""Tiered Scroll storage: segment store, spill behaviour, truncation, vt fast path."""

from __future__ import annotations

import pytest

from repro.core.fixd import FixD, FixDConfig
from repro.dsim.cluster import Cluster, ClusterConfig
from repro.dsim.message import Message
from repro.scroll.entry import ActionKind, ScrollEntry
from repro.scroll.interceptor import InterceptionMode, RecordingPolicy
from repro.scroll.recorder import ScrollRecorder
from repro.scroll.scroll import Scroll
from repro.scroll.scroll import RAW_CACHE_SEGMENTS
from repro.blobs import BlobStore
from repro.errors import BlobIntegrityError
from repro.timemachine.time_machine import TimeMachine

from tests.conftest import BoundedCounterBuggy, PingPong, RandomWorker, make_cluster


def make_entries(n: int, pids: int = 3):
    entries = []
    for index in range(n):
        pid = f"p{index % pids}"
        kind = [ActionKind.SEND, ActionKind.RECEIVE, ActionKind.RANDOM][index % 3]
        if kind is ActionKind.RANDOM:
            detail = {"method": "random", "value": index / 7.0}
        else:
            detail = {
                "message": {
                    "msg_id": index,
                    "src": pid,
                    "dst": "p0",
                    "kind": "X",
                    "payload": index,
                }
            }
        entries.append(ScrollEntry(pid=pid, kind=kind, time=index * 0.25, detail=detail))
    return entries


# ----------------------------------------------------------------------
# the cold tier: sealed segment blobs owned by the Scroll
# ----------------------------------------------------------------------
def blob_files(scroll):
    return sorted(path.stem for path in scroll._private.blob_root.glob("*/*.blob"))


class TestColdTier:
    def test_round_trip_point_and_range_reads(self, tmp_path):
        entries = make_entries(40)
        scroll = Scroll(entries, hot_window=10, storage_dir=tmp_path / "segs")
        assert scroll.spill_watermark >= 30
        assert scroll[0] == entries[0]
        assert scroll[29] == entries[29]
        assert scroll[10:30] == entries[10:30]
        assert list(scroll) == entries
        assert scroll.entries_for("p1") == [e for e in entries if e.pid == "p1"]
        # one blob per segment, each holding exactly its segment's frames
        segments = scroll.segments
        assert [s.first for s in segments] == [sum(t.count for t in segments[:i]) for i in range(len(segments))]
        assert blob_files(scroll) == sorted(s.blob for s in segments)
        assert all(len(s.offsets) == s.count + 1 for s in segments)
        assert scroll.storage_stats()["disk_bytes"] == sum(s.offsets[-1] for s in segments)

    def test_seal_of_nothing_is_none(self):
        scroll = Scroll(make_entries(5))
        assert scroll.seal() is not None
        assert scroll.seal() is None
        assert scroll.segments[-1].end == 5 and scroll.hot_entries == 5  # sealing never evicts

    def test_untiered_scroll_never_seals(self):
        scroll = Scroll(make_entries(500))
        assert scroll.segments == () and scroll._private is None

    def test_raw_cache_is_bounded(self):
        entries = make_entries(200)
        scroll = Scroll(entries, hot_window=8)
        assert len(scroll.segments) > RAW_CACHE_SEGMENTS
        assert [scroll[position] for position in range(200)] == entries
        assert scroll.storage_stats()["store"]["cached_segments"] == RAW_CACHE_SEGMENTS

    def test_truncate_reseals_the_boundary_prefix(self, tmp_path):
        entries = make_entries(30)
        scroll = Scroll(entries, hot_window=10, storage_dir=tmp_path / "t")
        before = scroll.segments
        assert [s.first for s in before] == [0, 5, 10, 15]
        assert scroll.truncate(12) == 18
        assert len(scroll) == 12
        first, second, boundary = scroll.segments
        assert (first, second) == before[:2]
        assert (boundary.first, boundary.count) == (10, 2)
        # the kept prefix is its own blob; the cut and dropped blobs are gone
        assert blob_files(scroll) == sorted(s.blob for s in scroll.segments)
        assert list(scroll) == entries[:12]
        with pytest.raises(IndexError):
            scroll[12]
        # appending after a truncate keeps positions contiguous
        for entry in entries[12:30]:
            scroll.append(entry)
        assert list(scroll) == entries
        assert scroll._at([11, 12, 13, 14]) == entries[11:15]

    def test_cold_read_verifies_each_blob_once(self):
        entries = make_entries(40)
        scroll = Scroll(entries, hot_window=10)
        segment = scroll.segments[0]
        path = scroll._private._path(segment.blob)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(BlobIntegrityError):
            scroll[0]
        assert scroll[20] == entries[20]  # an intact segment reads fine

    def test_persist_merges_private_segments_into_one_durable_segment(self, tmp_path):
        entries = make_entries(40)
        scroll = Scroll(entries, hot_window=10)
        durable = BlobStore(tmp_path / "durable")
        segment, raw = scroll.persist(durable)
        # the spilled segments and the hot tail are one segment now
        assert scroll.segments == (segment,)
        assert (segment.first, segment.count) == (0, 40) and len(segment.offsets) == 41
        assert blob_files(scroll) == [] and not durable.exists(segment.blob)
        assert list(scroll) == entries  # served from the pinned bytes until the put lands
        durable.put(raw)
        scroll.landed(segment.blob)
        scroll._raws.clear()
        assert list(scroll) == entries
        assert scroll.persist(durable) == (None, b"")
        # later spills seal privately again, beside the persisted segment
        for entry in make_entries(60)[40:]:
            scroll.append(entry)
        assert scroll.hot_entries <= 10
        assert scroll.segments[0] == segment
        assert blob_files(scroll) == sorted(s.blob for s in scroll.segments[1:])
        assert list(scroll) == make_entries(60)
        # a durable store keeps dropped blobs for its own gc()
        scroll.truncate(30)
        assert durable.exists(segment.blob)
        assert [s.count for s in scroll.segments] == [30]
        assert blob_files(scroll) == [scroll.segments[0].blob]  # the re-sealed prefix is private
        assert list(scroll) == entries[:30]

    def test_owned_tempdir_is_cleaned_on_close(self):
        scroll = Scroll(make_entries(20), hot_window=4)
        directory = scroll._private.root
        assert directory.exists()
        scroll.close()
        assert not directory.exists()


# ----------------------------------------------------------------------
# tiered Scroll
# ----------------------------------------------------------------------
class TestTieredScroll:
    def test_spills_past_hot_window_and_preserves_queries(self, tmp_path):
        entries = make_entries(400)
        memory = Scroll(entries)
        tiered = Scroll(entries, hot_window=64, storage_dir=tmp_path / "cold")
        assert tiered.is_tiered
        assert tiered.spill_watermark > 0
        assert tiered.hot_entries <= 64
        assert len(tiered) == len(memory) == 400
        for pid in ("p0", "p1", "p2"):
            assert tiered.entries_for(pid) == memory.entries_for(pid)
            assert tiered.received_messages(pid) == memory.received_messages(pid)
            assert tiered.random_outcomes(pid) == memory.random_outcomes(pid)
            assert list(tiered.iter_entries_for(pid, batch=17)) == memory.entries_for(pid)
        assert tiered.of_kind(ActionKind.SEND) == memory.of_kind(ActionKind.SEND)
        assert tiered.nondeterministic() == memory.nondeterministic()
        assert tiered.between(3.0, 77.0) == memory.between(3.0, 77.0)
        assert list(tiered) == entries
        assert tiered.entries == memory.entries
        assert tiered[0] == entries[0] and tiered[-1] == entries[-1]
        assert tiered[10:50] == entries[10:50]
        assert tiered.last_entry("p1") == memory.last_entry("p1")

    def test_resident_memory_tracks_hot_window(self, tmp_path):
        entries = make_entries(2000)
        memory = Scroll(entries)
        tiered = Scroll(entries, hot_window=200, storage_dir=tmp_path / "cold")
        assert memory.resident_bytes() / tiered.resident_bytes() >= 4.0

    def test_truncate_inside_hot_tier(self):
        entries = make_entries(100)
        tiered = Scroll(entries, hot_window=60)
        oracle = Scroll(entries[:80])
        assert tiered.truncate(80) == 20
        assert list(tiered) == list(oracle)
        assert tiered.counts_by_kind() == oracle.counts_by_kind()

    def test_truncate_into_cold_tier_then_append(self):
        entries = make_entries(300)
        tiered = Scroll(entries, hot_window=32)
        assert tiered.spill_watermark > 40
        tiered.truncate(40)
        oracle = Scroll(entries[:40])
        assert list(tiered) == list(oracle)
        for entry in entries[40:90]:
            tiered.append(entry)
            oracle.append(entry)
        assert list(tiered) == list(oracle)
        assert tiered.entries_for("p2") == oracle.entries_for("p2")
        assert tiered.pids() == oracle.pids()

    def test_interleaved_iterators_share_segment_reads_safely(self):
        """Two live iterators over the same spilled segments must not corrupt
        each other's stream (the raw segment cache is shared)."""
        entries = make_entries(50)
        tiered = Scroll(entries, hot_window=4)
        assert tiered.entries == tiered.entries  # two interleaved iterations
        paired = list(zip(iter(tiered), iter(tiered)))
        assert paired == [(entry, entry) for entry in entries]
        # a cache-missing point read in the middle of an iteration
        tiered._raws.clear()
        seen = []
        for index, entry in enumerate(tiered):
            if index % 7 == 0:
                tiered[index // 2]  # interleaved point get on the same segments
            seen.append(entry)
        assert seen == entries

    def test_iteration_survives_appends_that_spill(self):
        """Appending (and spilling) mid-iteration must never skip existing
        entries — recording while saving is a supported pattern."""
        entries = make_entries(16)
        tiered = Scroll(entries[:10], hot_window=4)
        extra = iter(entries[10:])
        seen = []
        for index, entry in enumerate(tiered._iter_tiered(chunk=2)):
            seen.append(entry)
            if index == 3:
                for late in extra:  # six appends -> at least one spill
                    tiered.append(late)
        assert seen == entries

    def test_iteration_survives_first_spill_mid_iteration(self):
        """Even a tiered Scroll that has not spilled yet must iterate
        append-safely: the FIRST spill shifts the hot list."""
        entries = make_entries(16)
        tiered = Scroll(entries[:8], hot_window=10)  # tiered, nothing spilled yet
        assert tiered.spill_watermark == 0
        seen = []
        appended = False
        for entry in tiered:
            seen.append(entry)
            if not appended:
                appended = True
                for late in entries[8:]:  # pushes past the window -> first spill
                    tiered.append(late)
        assert seen == entries

    def test_storage_stats_shape(self):
        tiered = Scroll(make_entries(100), hot_window=10)
        stats = tiered.storage_stats()
        assert stats["tiered"] and stats["entries"] == 100
        assert stats["spilled_entries"] + stats["hot_entries"] == 100
        assert stats["store"]["segments"] >= 1

    def test_hot_window_validation(self):
        with pytest.raises(ValueError):
            Scroll(hot_window=0)


# ----------------------------------------------------------------------
# recorder: tiered construction + vector timestamps in the hook payload
# ----------------------------------------------------------------------
class TestRecorderFastPath:
    def test_policy_hot_window_builds_tiered_scroll(self):
        recorder = ScrollRecorder(policy=RecordingPolicy(hot_window=128))
        assert recorder.scroll.is_tiered

    def test_recorder_uses_payload_vt_without_process_lookup(self, monkeypatch):
        recorder = ScrollRecorder()

        def boom(pid):  # the slow path must not run when vt is carried
            raise AssertionError("_vt_of consulted despite vt in payload")

        monkeypatch.setattr(recorder, "_vt_of", boom)
        cluster = make_cluster({"r0": RandomWorker, "r1": RandomWorker}, seed=3)
        cluster.add_hook(recorder)
        cluster.run(max_events=200)
        recorded = recorder.scroll
        assert len(recorded) > 0
        vt_kinds = (ActionKind.SEND, ActionKind.RECEIVE, ActionKind.RANDOM, ActionKind.TIMER)
        assert all(entry.vt is not None for entry in recorded.of_kind(*vt_kinds))

    def test_fallback_vt_lookup_still_works(self):
        recorder = ScrollRecorder()
        message = Message(src="a", dst="b", kind="X", payload=1)
        recorder.on_send("a", message, 1.0)  # no vt, no cluster -> vt stays None
        assert recorder.scroll.last_entry().vt is None

    def test_violation_entries_carry_vt(self):
        recorder = ScrollRecorder()
        cluster = make_cluster(
            {"c0": BoundedCounterBuggy, "c1": BoundedCounterBuggy},
            seed=2,
            halt_on_violation=False,
        )
        cluster.add_hook(recorder)
        cluster.run(max_events=40)
        violations = recorder.scroll.violations()
        assert violations and all(entry.vt is not None for entry in violations)


# ----------------------------------------------------------------------
# checkpoints record the spill watermark; rollback truncates both tiers
# ----------------------------------------------------------------------
class TestRollbackTruncation:
    def _run_with_recorder(self, hot_window=None):
        policy = RecordingPolicy(InterceptionMode.SYSCALL, hot_window=hot_window)
        recorder = ScrollRecorder(policy=policy)
        cluster = make_cluster({"p0": PingPong, "p1": PingPong}, seed=1)
        cluster.add_hook(recorder)
        time_machine = TimeMachine()
        time_machine.attach(cluster)
        cluster.run()
        return cluster, recorder.scroll, time_machine

    def test_checkpoints_stamp_scroll_position(self):
        _, scroll, time_machine = self._run_with_recorder()
        positions = [
            checkpoint.extra.get("scroll_position")
            for pid in time_machine.store.pids()
            for checkpoint in time_machine.store.log_for(pid)
        ]
        assert positions and all(p is not None for p in positions)
        assert max(positions) <= len(scroll)
        line_position = time_machine.latest_recovery_line().scroll_position()
        assert line_position is not None

    def test_rollback_truncates_both_tiers(self):
        cluster, scroll, time_machine = self._run_with_recorder(hot_window=4)
        assert scroll.spill_watermark > 0
        line = time_machine.latest_recovery_line()
        expected = line.scroll_position()
        before = len(scroll)
        result = time_machine.rollback_to(line, truncate_scroll=True)
        assert result.scroll_entries_truncated == before - expected
        assert len(scroll) == expected
        assert cluster.scroll is scroll

    def test_rollback_without_flag_keeps_scroll(self):
        _, scroll, time_machine = self._run_with_recorder()
        before = len(scroll)
        result = time_machine.rollback_to(time_machine.latest_recovery_line())
        assert result.scroll_entries_truncated == 0
        assert len(scroll) == before

    def test_fixd_truncates_after_report_assembly(self):
        cluster = make_cluster(
            {"c0": BoundedCounterBuggy, "c1": BoundedCounterBuggy},
            seed=2,
            halt_on_violation=False,
        )
        fixd = FixD(
            FixDConfig(
                investigate_on_fault=False,
                max_faults_handled=1,
                truncate_scroll_on_rollback=True,
            )
        )
        fixd.attach(cluster)
        cluster.run(max_events=60)
        assert fixd.reports
        report = fixd.reports[0]
        assert report.rollback is not None
        assert report.rollback.scroll_entries_truncated > 0
        # the report's tail was captured before truncation
        assert report.bug_report.scroll_tail
        assert len(fixd.scroll) <= report.rollback.recovery_line.scroll_position() + len(
            fixd.scroll.entries_for("c0")
        )


# ----------------------------------------------------------------------
# Segment garbage collection (committed recovery lines)
# ----------------------------------------------------------------------
class TestSegmentCollection:
    def _spilled_scroll(self, tmp_path, segments=4, per_segment=10):
        # one more segment's worth stays hot
        entries = make_entries((segments + 1) * per_segment + 1)
        scroll = Scroll(entries, hot_window=2 * per_segment, storage_dir=tmp_path / "segs")
        assert [s.count for s in scroll.segments] == [per_segment] * segments
        return scroll, entries

    def test_collect_deletes_whole_prefix_segments(self, tmp_path):
        scroll, entries = self._spilled_scroll(tmp_path)
        assert len(blob_files(scroll)) == 4
        # position 25 sits inside segment 2: only segments 0 and 1 qualify
        assert scroll.collect(25) == 20
        assert scroll.collected_base == 20
        assert len(scroll.segments) == 2
        assert blob_files(scroll) == sorted(s.blob for s in scroll.segments)
        # reachable reads are untouched, collected positions fail loudly
        for position in range(20, 51):
            assert scroll[position] == entries[position]
        with pytest.raises(IndexError):
            scroll[19]
        assert scroll._at(list(range(20, 51))) == entries[20:51]
        assert list(scroll) == entries[20:]

    def test_collect_shrinks_index_and_disk(self, tmp_path):
        scroll, _ = self._spilled_scroll(tmp_path)
        before = scroll.storage_stats()
        scroll.collect(20)
        after = scroll.storage_stats()
        assert after["store"]["index_bytes"] < before["store"]["index_bytes"]
        assert after["disk_bytes"] < before["disk_bytes"]
        assert after["collected_entries"] == 20
        assert len(scroll) == 51  # positions stay global

    def test_append_and_truncate_after_collect(self, tmp_path):
        scroll, entries = self._spilled_scroll(tmp_path)
        scroll.collect(20)
        extra = make_entries(70)[51:]
        for entry in extra:
            scroll.append(entry)
        assert len(scroll) == 70
        assert scroll[55] == extra[4]
        # truncation inside a cold segment still works entry-accurately
        assert scroll.spill_watermark > 42
        assert scroll.truncate(42) == 28
        assert scroll[41] == entries[41]
        with pytest.raises(IndexError):
            scroll[42]
        # truncation cannot descend below the collected base
        assert scroll.truncate(5) == 42 - 20
        assert len(scroll) == 20

    def test_collect_is_noop_below_segment_boundary(self, tmp_path):
        scroll, _ = self._spilled_scroll(tmp_path)
        assert scroll.collect(9) == 0  # inside the first segment
        assert scroll.collected_base == 0
        assert len(scroll.segments) == 4


class TestScrollCollection:
    def _tiered_scroll(self, n=60, hot_window=10):
        return Scroll(make_entries(n), hot_window=hot_window)

    def test_collect_trims_indexes_and_keeps_later_queries(self):
        scroll = self._tiered_scroll()
        watermark = scroll.spill_watermark
        assert watermark > 0
        all_entries = list(scroll)
        removed = scroll.collect(watermark // 2)
        assert removed > 0
        base = scroll.collected_base
        assert 0 < base <= watermark // 2
        assert len(scroll) == 60  # positions stay global
        # per-pid / per-kind queries only return reachable entries
        for pid in ("p0", "p1", "p2"):
            expected = [e for i, e in enumerate(all_entries) if i >= base and e.pid == pid]
            assert scroll.entries_for(pid) == expected
        expected_random = [
            e for i, e in enumerate(all_entries)
            if i >= base and e.kind is ActionKind.RANDOM
        ]
        assert scroll.of_kind(ActionKind.RANDOM) == expected_random
        # iteration and ranges skip the collected prefix
        assert list(scroll) == all_entries[base:]
        assert scroll[base] == all_entries[base]
        with pytest.raises(IndexError):
            scroll[base - 1]
        # contiguous and stepped slices agree: both silently skip the prefix
        assert scroll[0:base + 4] == all_entries[base:base + 4]
        assert scroll[0:base + 4:2] == [
            e for i, e in enumerate(all_entries[:base + 4]) if i % 2 == 0 and i >= base
        ]

    def test_collect_never_touches_the_hot_tier(self):
        scroll = self._tiered_scroll()
        removed = scroll.collect(len(scroll))  # ask for everything
        assert scroll.collected_base <= scroll.spill_watermark
        assert scroll.hot_entries > 0
        assert removed <= scroll.spill_watermark

    def test_untiered_scroll_collect_is_noop(self):
        scroll = Scroll(make_entries(20))
        assert scroll.collect(10) == 0
        assert scroll.collected_base == 0

    def test_append_after_collect_keeps_global_positions(self):
        scroll = self._tiered_scroll()
        scroll.collect(scroll.spill_watermark)
        entry = ScrollEntry(pid="p9", kind=ActionKind.TIMER, time=99.0, detail={"name": "t"})
        scroll.append(entry)
        assert scroll.last_entry("p9") == entry
        assert scroll.entries_for("p9") == [entry]

    def test_between_and_times_survive_collect(self):
        scroll = self._tiered_scroll()
        all_entries = list(scroll)
        scroll.collect(scroll.spill_watermark)
        base = scroll.collected_base
        # time-range queries bisect correctly through the re-based times column
        expected = [e for i, e in enumerate(all_entries) if i >= base and 5.0 <= e.time < 10.0]
        assert scroll.between(5.0, 10.0) == expected
        # appends after collection keep the time column aligned
        entry = ScrollEntry(pid="p0", kind=ActionKind.TIMER, time=200.0, detail={"name": "t"})
        scroll.append(entry)
        assert scroll.between(199.0, 201.0) == [entry]


class TestRollbackCommitCollectsSegments:
    def test_committed_line_unlinks_unreachable_segments(self):
        policy = RecordingPolicy(InterceptionMode.SYSCALL, hot_window=4)
        recorder = ScrollRecorder(policy=policy)
        cluster = make_cluster({"p0": PingPong, "p1": PingPong}, seed=1)
        cluster.add_hook(recorder)
        time_machine = TimeMachine()
        time_machine.attach(cluster)
        cluster.run()
        scroll = recorder.scroll
        assert scroll.spill_watermark > 0
        line = time_machine.latest_recovery_line()
        manager = time_machine.rollback_manager
        collected = manager.commit(line)
        assert manager.committed_lines == [line]
        assert collected >= 0
        assert scroll.collected_base <= (line.scroll_position() or 0)
        # the line itself and everything after it stay reachable
        for entry in scroll.entries_for("p0"):
            assert entry.pid == "p0"
        # a later rollback with truncation still works above the base
        result = time_machine.rollback_to(line, truncate_scroll=True)
        assert len(scroll) == line.scroll_position()
        assert result.restored_pids

    def test_commit_without_scroll_is_safe(self):
        cluster = make_cluster({"p0": PingPong, "p1": PingPong}, seed=1)
        time_machine = TimeMachine()
        time_machine.attach(cluster)
        cluster.run()
        line = time_machine.latest_recovery_line()
        assert time_machine.rollback_manager.commit(line) == 0


class TestCommittedLineEnforcement:
    def test_rollback_past_committed_line_is_refused(self):
        from repro.errors import RecoveryLineError

        policy = RecordingPolicy(InterceptionMode.SYSCALL, hot_window=4)
        recorder = ScrollRecorder(policy=policy)
        cluster = make_cluster({"p0": PingPong, "p1": PingPong}, seed=1)
        cluster.add_hook(recorder)
        time_machine = TimeMachine()
        time_machine.attach(cluster)
        # capture an early line mid-run, then a later one at the end
        cluster.run(max_events=4)
        early_line = time_machine.latest_recovery_line()
        cluster.resume()
        cluster.run()
        late_line = time_machine.latest_recovery_line()
        manager = time_machine.rollback_manager
        manager.commit(late_line)
        early = early_line.scroll_position()
        late = late_line.scroll_position()
        if early is not None and late is not None and early < late:
            with pytest.raises(RecoveryLineError, match="committed line"):
                manager.rollback(early_line)
        # rolling back to the committed line itself stays legal
        result = manager.rollback(late_line)
        assert result.restored_pids

    @pytest.mark.parametrize("below_watermark", [0, 12])
    def test_storage_stats_agree_after_collect(self, below_watermark):
        scroll = Scroll(make_entries(60), hot_window=10)
        scroll.collect(scroll.spill_watermark - below_watermark)
        stats = scroll.storage_stats()
        assert stats["collected_entries"] == scroll.collected_base
        assert stats["spilled_entries"] == scroll.spill_watermark - scroll.collected_base
        # spill-only: every sealed entry was evicted, none is hot
        assert stats["store"]["sealed_entries"] == stats["spilled_entries"]
        assert (stats["spilled_entries"] > 0) == (below_watermark > 0)
