"""Integration: ``Experiment.resume`` continues crashed runs from disk.

The simulator is deterministic, so a run that "crashes" (stops early) and an
uninterrupted twin of the same scenario commit byte-identical recovery lines
up to the crash point.  Resume of the crashed store restores the last
committed line, replays the persisted Scroll window forward to the crash
point, and ``continue_run`` finishes the run — landing on the same
application state the uninterrupted twin reached (checked through the facade
and at the content-address level: same committed state chunks to the same
blob names, whichever store wrote them).

Marked ``durable`` (disk stores under tmp_path); run via ``make resume-smoke``.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.api import Experiment, Scenario, execute
from repro.errors import CheckpointError, ScenarioError
from repro.timemachine import DurableCheckpointStore

pytestmark = pytest.mark.durable


@pytest.fixture(params=["sync", "pipelined"])
def flush_mode(request):
    """Key integration tests run against both durable flush modes."""
    return request.param


def kv_scenario(
    name: str,
    store: str,
    until: float,
    flush_mode: str = "sync",
    faults=None,
    hot_window=None,
) -> Scenario:
    return Scenario(
        app="kvstore",
        name=name,
        params={"replicas": 2, "clients": 1},
        seed=11,
        until=until,
        auto_commit_interval=2.0,
        checkpoint_store="disk",
        store_path=store,
        flush_mode=flush_mode,
        hot_window=hot_window,
        **({"faults": faults} if faults is not None else {}),
    )


def manifest_paths(store: str, run_id: str):
    run_dir = os.path.join(store, "runs", run_id)
    return sorted(
        os.path.join(run_dir, entry)
        for entry in os.listdir(run_dir)
        if entry.startswith("line-") and entry.endswith(".json")
    )


def _blob_names(store: str) -> set:
    blob_root = os.path.join(store, "blobs")
    names = set()
    for shard in os.listdir(blob_root):
        for entry in os.listdir(os.path.join(blob_root, shard)):
            if entry.endswith(".blob"):
                names.add(entry[: -len(".blob")])
    return names


class TestResume:
    def test_resume_restores_last_committed_line(self, store_path, flush_mode):
        outcome = Experiment(
            [kv_scenario("kv-run", store_path, until=6.0, flush_mode=flush_mode)]
        ).run()[0]
        assert outcome.store is not None
        assert outcome.store["lines_committed"] >= 2
        assert outcome.store["bytes_on_disk"] > 0
        # state chunks dedup against logical bytes; scroll segments and the
        # pending snapshot are the only other writers into the blob tree
        assert (
            outcome.store["bytes_on_disk"]
            <= outcome.store["logical_bytes"] + outcome.store["scroll_bytes"]
        )
        # every line commit flushed the Scroll window alongside the manifest
        assert outcome.store["scroll_flushes"] >= outcome.store["lines_committed"]
        # each execution gets its own uniquely-suffixed durable run id
        assert outcome.run_id.startswith("kv-run-")

        # resume accepts the scenario name and resolves it to that run
        resumed = Experiment.resume("kv-run", store_path)
        assert resumed.run_id == outcome.run_id
        assert resumed.scenario.app == "kvstore"
        assert resumed.line_index == outcome.store["lines_committed"]
        assert sorted(resumed.states()) == sorted(resumed.checkpoints)
        # the persisted Scroll was rebuilt and replayed forward cleanly:
        # the live cluster sits at the crash point, past the committed line
        assert resumed.scroll is not None and resumed.sidecar is not None
        assert resumed.replays
        assert all(replay.ok for replay in resumed.replays.values())
        # manifest schema v2 stamps the line's Scroll position; the sidecar
        # covers at least that far (the committed window is replayable)
        committed_position = resumed.manifest.get("scroll_position")
        assert isinstance(committed_position, int)
        assert int(resumed.sidecar["position"]) >= committed_position

    def test_crashed_run_resumes_to_uninterrupted_twin_line(self, tmp_path, flush_mode):
        """Parity: stop a run early ("crash"), resume, and continue to the
        twin's horizon — the continuation must land on the uninterrupted
        twin's application state."""
        full_store = str(tmp_path / "full")
        crashed_store = str(tmp_path / "crashed")
        full = Experiment(
            [kv_scenario("twin", full_store, until=6.0, flush_mode=flush_mode)]
        ).run()[0]
        crashed = Experiment(
            [kv_scenario("twin", crashed_store, until=4.0, flush_mode=flush_mode)]
        ).run()[0]

        resumed = Experiment.resume("twin", crashed_store)
        assert resumed.run_id == crashed.run_id
        crashed_lines = manifest_paths(crashed_store, crashed.run_id)
        full_lines = manifest_paths(full_store, full.run_id)
        assert len(full_lines) >= len(crashed_lines) >= 1

        # determinism + pure content addressing: the uninterrupted twin's
        # manifest at the crashed run's last line references the exact same
        # blob names for every state chunk
        with open(crashed_lines[-1]) as fh:
            crashed_manifest = json.load(fh)
        with open(full_lines[len(crashed_lines) - 1]) as fh:
            twin_manifest = json.load(fh)
        assert crashed_manifest["checkpoints"].keys() == twin_manifest["checkpoints"].keys()
        for pid in crashed_manifest["checkpoints"]:
            crashed_entry = crashed_manifest["checkpoints"][pid]
            twin_entry = twin_manifest["checkpoints"][pid]
            assert crashed_entry["state"] == twin_entry["state"]
            assert crashed_entry["vt"] == twin_entry["vt"]
            assert crashed_entry["rng_draws"] == twin_entry["rng_draws"]

        # replay-forward consumed the recorded post-line history cleanly
        assert resumed.replays
        assert all(replay.ok for replay in resumed.replays.values())

        # continuation parity: finishing the crashed run reaches the same
        # application state as the uninterrupted twin, and keeps appending
        # durable lines to the same run
        lines_before = len(manifest_paths(crashed_store, crashed.run_id))
        continued = resumed.continue_run(until=6.0)
        assert continued.state_projection() == full.state_projection()
        assert continued.consistent
        assert len(manifest_paths(crashed_store, crashed.run_id)) >= lines_before

        # a handle only continues once; resume again for another attempt
        with pytest.raises(ScenarioError):
            resumed.continue_run(until=6.0)

    def test_sync_and_pipelined_modes_commit_identical_manifests(self, tmp_path):
        """The pipelined writer is pure plumbing: the same scenario committed
        in both modes produces equal line manifests (modulo the unique run
        id) and the exact same content-addressed blob set."""
        stores = {}
        for mode in ("sync", "pipelined"):
            store = str(tmp_path / mode)
            outcome = Experiment(
                [kv_scenario("mode-twin", store, until=6.0, flush_mode=mode)]
            ).run()[0]
            stores[mode] = (store, outcome)
        sync_store, sync_outcome = stores["sync"]
        pipe_store, pipe_outcome = stores["pipelined"]
        sync_lines = manifest_paths(sync_store, sync_outcome.run_id)
        pipe_lines = manifest_paths(pipe_store, pipe_outcome.run_id)
        assert len(sync_lines) == len(pipe_lines) >= 2
        for sync_path, pipe_path in zip(sync_lines, pipe_lines):
            with open(sync_path) as fh:
                sync_manifest = json.load(fh)
            with open(pipe_path) as fh:
                pipe_manifest = json.load(fh)
            sync_manifest.pop("run_id")
            pipe_manifest.pop("run_id")
            assert sync_manifest == pipe_manifest
        assert _blob_names(sync_store) == _blob_names(pipe_store)
        # and the pipelined run re-pickled nothing on the commit path
        assert pipe_outcome.store["commit_pickled_bytes"] == 0

    def test_continuation_rearms_count_limited_message_faults(
        self, tmp_path, flush_mode
    ):
        """Regression: per-rule message-fault hit counts ride the pending
        snapshot and are restored on continuation.  Before that, the
        rebuilt engine re-armed an already-exhausted count-limited drop,
        so the continuation dropped one extra REPLICATE and its final
        state diverged from the uninterrupted twin's."""
        from repro.api import Drop, FaultSchedule

        schedule = FaultSchedule.of(Drop(match_kind="REPLICATE", count=1, after=0.5))
        full_store = str(tmp_path / "full")
        crashed_store = str(tmp_path / "crashed")
        full = Experiment(
            [
                kv_scenario(
                    "fault-twin", full_store, until=8.0,
                    flush_mode=flush_mode, faults=schedule,
                )
            ]
        ).run()[0]
        assert sum(full.fault_hits.values()) == 1  # budget consumed early
        Experiment(
            [
                kv_scenario(
                    "fault-twin", crashed_store, until=4.0,
                    flush_mode=flush_mode, faults=schedule,
                )
            ]
        ).run()

        resumed = Experiment.resume("fault-twin", crashed_store)
        continued = resumed.continue_run(until=8.0)
        # the drop fired before the crash; the continuation must not re-fire
        assert sum(continued.fault_hits.values()) == 1
        assert continued.state_projection() == full.state_projection()

    def test_continuation_records_what_the_twin_records(self, tmp_path, flush_mode):
        """Regression: the pending snapshot kept deliveries and timers in
        two lists and the continuation re-injected every delivery before
        every timer, so a timer due at the same instant as a delivery ran
        after it.  The continuation must record, from the resume point on,
        exactly the entries of the uninterrupted twin: the same actions
        at the same times, under the same entry seqs and message ids."""

        def bank(store: str, until: float) -> Scenario:
            return Scenario(
                app="bank",
                name="same-time",
                seed=11,
                until=until,
                auto_commit_interval=2.0,
                checkpoint_store="disk",
                store_path=store,
                flush_mode=flush_mode,
            )

        twin = execute(bank(str(tmp_path / "twin"), 8.0)).fixd.scroll
        crashed_store = str(tmp_path / "crashed")
        Experiment([bank(crashed_store, 4.0)]).run()
        resumed = Experiment.resume("same-time", crashed_store)
        events = resumed.pending["events"]
        # the persisted window holds a timer due with a later-queued delivery
        assert any(
            first[0] == "timer" and later[0] == "deliver" and first[1] == later[1]
            for index, first in enumerate(events)
            for later in events[index + 1 :]
        )
        resume_point = int(resumed.sidecar["position"])
        resumed.continue_run(until=8.0)
        continued = resumed.scroll
        assert len(continued) == len(twin)
        start = max(resume_point, twin.collected_base, continued.collected_base)

        def window(scroll):
            return [
                (entry.seq, entry.pid, entry.kind, entry.time, entry.detail)
                for entry in scroll[start:len(scroll)]
            ]

        assert window(continued) == window(twin)

    def test_mp_recorded_run_resumes_on_the_simulator(self, store_path):
        """Regression: resume used to rebuild the *recorded* backend, so an
        mp-recorded run spawned an MPBackend whose restore path died with a
        SimulationError in ``clear_in_flight``.  Resume must always rebuild
        on the simulator and note the original backend on the handle."""
        outcome = Experiment([kv_scenario("mp-rec", store_path, until=4.0)]).run()[0]
        run_json = os.path.join(store_path, "runs", outcome.run_id, "run.json")
        with open(run_json) as fh:
            metadata = json.load(fh)
        # rewrite the recorded scenario as an mp run would have written it
        metadata["scenario"]["backend"] = "mp"
        metadata["scenario"]["transport"] = "shm"
        with open(run_json, "w") as fh:
            json.dump(metadata, fh)

        resumed = Experiment.resume("mp-rec", store_path)
        assert resumed.original_backend == "mp"
        assert resumed.scenario.backend == "sim"
        assert resumed.scenario.transport == "pipe"
        assert sorted(resumed.states()) == sorted(resumed.checkpoints)
        assert type(resumed.cluster.backend).__name__ == "SimBackend"

    def test_repeated_runs_dedupe_in_a_shared_store(self, store_path):
        """Two identical runs under different run_ids share one blob set."""
        first = Experiment(
            [kv_scenario("first", store_path, until=4.0)]
        ).run()[0]
        second = Experiment(
            [kv_scenario("second", store_path, until=4.0)]
        ).run()[0]
        assert second.store["bytes_on_disk"] == first.store["bytes_on_disk"] or (
            second.store["chunks_deduped"] > 0
        )
        # the second run wrote (almost) nothing new: its lines dedupe against
        # the first run's blobs
        assert second.store["chunks_written"] < first.store["chunks_written"]

    def test_repeated_executions_of_one_name_get_distinct_runs(self, store_path):
        """Re-running a same-named scenario must not overwrite the earlier
        run's manifests; resume-by-name picks the most recent execution."""
        first = Experiment([kv_scenario("again", store_path, until=4.0)]).run()[0]
        second = Experiment([kv_scenario("again", store_path, until=4.0)]).run()[0]
        assert first.run_id != second.run_id
        assert set(DurableCheckpointStore.run_ids(store_path)) == {
            first.run_id,
            second.run_id,
        }
        # both runs kept their own complete manifest sequences
        for outcome in (first, second):
            lines = manifest_paths(store_path, outcome.run_id)
            assert len(lines) == outcome.store["lines_committed"]
            metadata = DurableCheckpointStore.run_metadata(store_path, outcome.run_id)
            assert metadata["scenario"]["name"] == "again"
        resumed = Experiment.resume("again", store_path)
        assert resumed.run_id == second.run_id
        # the exact run id still targets the older execution
        assert Experiment.resume(first.run_id, store_path).run_id == first.run_id

    def test_scenario_name_with_path_separator_rejected(self):
        with pytest.raises(ScenarioError):
            Scenario(app="kvstore", name="../evil")

    def test_resume_unknown_run_raises(self, store_path):
        Experiment([kv_scenario("present", store_path, until=4.0)]).run()
        with pytest.raises(CheckpointError):
            Experiment.resume("absent", store_path)

    def test_resume_without_committed_lines_raises(self, store_path):
        # until=1.0 ends before the first auto-commit at 2.0: metadata exists,
        # but no recovery line was ever committed
        Experiment([kv_scenario("too-short", store_path, until=1.0)]).run()
        with pytest.raises(CheckpointError):
            Experiment.resume("too-short", store_path)

    def test_disk_store_without_path_is_rejected(self):
        with pytest.raises(Exception):
            Scenario(
                app="kvstore",
                name="nopath",
                checkpoint_store="disk",
            )

    def test_memory_store_reports_no_store_stats(self):
        outcome = Experiment(
            [
                Scenario(
                    app="kvstore",
                    name="mem",
                    params={"replicas": 2, "clients": 1},
                    until=3.0,
                )
            ]
        ).run()[0]
        assert outcome.store is None


class TestOneScrollLog:
    """The Scroll owns its sealed segments; the sidecar names that same list."""

    def test_truncating_rollback_rewrites_the_durable_log(self, tmp_path, flush_mode):
        """Regression: the sidecar kept its own segment list and flush
        frontier, so after a truncating rollback the next flush named the
        rolled-back future at positions the new entries should hold."""
        from repro.scroll.entry import ActionKind
        from repro.scroll.interceptor import InterceptionMode, RecordingPolicy
        from repro.scroll.recorder import ScrollRecorder
        from repro.timemachine.time_machine import TimeMachine, TimeMachineConfig

        from tests.conftest import PingPong, make_cluster

        store = str(tmp_path / "store")
        recorder = ScrollRecorder(policy=RecordingPolicy(InterceptionMode.SYSCALL))
        cluster = make_cluster({"p0": PingPong, "p1": PingPong}, seed=1)
        cluster.add_hook(recorder)
        time_machine = TimeMachine(
            TimeMachineConfig(
                checkpoint_store="disk", store_path=store, run_id="cut", flush_mode=flush_mode
            )
        )
        time_machine.attach(cluster)
        cluster.run(max_events=8)
        scroll = recorder.scroll
        line = time_machine.latest_recovery_line()
        assert (len(scroll), line.scroll_position()) == (17, 13)
        manager = time_machine.rollback_manager
        assert manager.maybe_flush_scroll(1)
        time_machine.rollback_to(line, truncate_scroll=True)
        assert len(scroll) == 13
        time_machine.durable_store.drain()
        # the rollback already rewrote the sidecar: no rolled-back future
        _, sidecar, _ = DurableCheckpointStore.rebuild_scroll(store, "cut")
        assert sidecar["position"] == 13
        for value in range(6):
            scroll.record("p1", ActionKind.RANDOM, 20.0 + value, {"method": "random", "value": value})
        assert manager.maybe_flush_scroll(1)
        time_machine.durable_store.drain()
        rebuilt, sidecar, _ = DurableCheckpointStore.rebuild_scroll(store, "cut")
        assert sidecar["position"] == len(rebuilt) == 19
        assert rebuilt.to_records() == scroll.to_records()

    @pytest.mark.parametrize("damaged", ["segment", "pending"])
    def test_resume_refuses_a_corrupt_scroll(self, store_path, damaged):
        """Regression: resume swallowed every CheckpointError from the
        Scroll rebuild, so one flipped byte in a segment or pending blob
        silently degraded the run to a state-only resume."""
        from repro.errors import BlobIntegrityError

        outcome = Experiment([kv_scenario("corrupt", store_path, until=4.0)]).run()[0]
        sidecar = DurableCheckpointStore.load_scroll_sidecar(store_path, outcome.run_id)
        name = sidecar["segments"][0]["blob"] if damaged == "segment" else sidecar["pending"]
        path = os.path.join(store_path, "blobs", name[:2], f"{name}.blob")
        with open(path, "r+b") as fh:
            byte = fh.read(1)
            fh.seek(0)
            fh.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(BlobIntegrityError):
            Experiment.resume("corrupt", store_path)

    def test_resume_without_a_sidecar_is_state_only(self, store_path):
        outcome = Experiment([kv_scenario("no-sidecar", store_path, until=4.0)]).run()[0]
        os.unlink(os.path.join(store_path, "runs", outcome.run_id, "scroll.json"))
        resumed = Experiment.resume("no-sidecar", store_path)
        assert resumed.scroll is None and resumed.sidecar is None
        assert sorted(resumed.states()) == sorted(resumed.checkpoints)

    def test_resumed_run_keeps_its_hot_window(self, tmp_path, flush_mode):
        """Regression: the rebuilt Scroll had no tier, so a continuation
        of a ``hot_window`` run held its whole window in memory."""
        full = Experiment(
            [kv_scenario("tier", str(tmp_path / "full"), 8.0, flush_mode, hot_window=16)]
        ).run()[0]
        crashed_store = str(tmp_path / "crashed")
        Experiment([kv_scenario("tier", crashed_store, 4.0, flush_mode, hot_window=16)]).run()
        resumed = Experiment.resume("tier", crashed_store)
        assert resumed.scroll.is_tiered
        assert resumed.scroll.hot_entries <= 16
        assert all(replay.ok for replay in resumed.replays.values())
        continued = resumed.continue_run(until=8.0)
        assert resumed.scroll.is_tiered
        assert resumed.scroll.hot_entries <= 16
        assert continued.state_projection() == full.state_projection()


def _entries(count: int, first: int = 0):
    from repro.scroll.entry import ActionKind, ScrollEntry

    return [
        ScrollEntry(
            pid=f"p{index % 3}",
            kind=ActionKind.RANDOM,
            time=index * 0.5,
            detail={"method": "random", "value": index},
            seq=index + 1,
        )
        for index in range(first, first + count)
    ]


class TestSegmentsSurviveGc:
    """A ``gc()`` from another run on the same root never takes a blob the
    live Scroll or its sidecar still needs."""

    def _sweep(self, root) -> int:
        return DurableCheckpointStore(root, run_id="sweeper").gc()

    def test_gc_between_a_spill_and_the_next_flush(self, tmp_path, flush_mode):
        from repro.scroll.scroll import Scroll

        root = str(tmp_path / "store")
        store = DurableCheckpointStore(root, run_id="live", flush_mode=flush_mode)
        scroll = Scroll(hot_window=16)
        entries = _entries(120)
        for entry in entries[:40]:
            scroll.append(entry)
        store.flush_scroll(scroll)
        store.drain()
        for entry in entries[40:100]:
            scroll.append(entry)  # spills seal segments no sidecar names yet
        self._sweep(root)
        scroll._raws.clear()
        assert list(scroll) == entries[:100]
        store.flush_scroll(scroll)
        for entry in entries[100:]:
            scroll.append(entry)
        store.drain()
        self._sweep(root)
        scroll._raws.clear()
        assert list(scroll) == entries
        rebuilt, _, _ = DurableCheckpointStore.rebuild_scroll(root, "live", 16)
        assert list(rebuilt) == entries[:100]
        store.close()

    def test_gc_after_a_commit_keeps_segments_the_scroll_will_evict(self, tmp_path, flush_mode):
        from repro.scroll.scroll import Scroll

        root = str(tmp_path / "store")
        store = DurableCheckpointStore(root, run_id="live", flush_mode=flush_mode)
        scroll = Scroll(hot_window=16)
        entries = _entries(60)
        for entry in entries[:10]:
            scroll.append(entry)
        store.flush_scroll(scroll)  # one persisted segment, still hot
        for entry in entries[10:14]:
            scroll.append(entry)
        # a commit at 14: the first segment ends below the line but is not evicted
        assert scroll.collect(14) == 0
        store.flush_scroll(scroll, committed_position=14)
        store.drain()
        self._sweep(root)
        for entry in entries[14:]:
            scroll.append(entry)  # evicts the committed-over segment
        assert scroll.spill_watermark > 10
        scroll._raws.clear()
        assert list(scroll) == entries
        store.close()
