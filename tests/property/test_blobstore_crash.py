"""Property: writer crashes never corrupt the durable store.

A writer killed anywhere inside ``flush_line`` — including mid-``tmp+rename``
with a truncated tmp file on disk — must leave the store in a state where

* ``validate_integrity`` (plus its always-on tmp sweep) reports a clean store,
* GC still works, and
* resume restores exactly the last *committed* recovery line, never a
  partial one.

These tests simulate the kill by injecting a fault into the Nth blob write of
a flush (hypothesis picks N), leaving behind the same debris a real SIGKILL
would: a truncated ``*.tmp`` in the shard directory.  Marked ``durable``
(tmp dirs, disk I/O); run via ``make resume-smoke``.
"""

from __future__ import annotations

import copy
import os
import shutil
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.dsim.clock import VectorTimestamp
from repro.dsim.process import ProcessCheckpoint
from repro.timemachine import BlobStore, DurableCheckpointStore

# Every test runs in both flush modes; the fixture only patches class
# methods (no per-example state), so its once-per-function scope is safe
# to use under hypothesis.
pytestmark = [pytest.mark.durable, pytest.mark.usefixtures("durable_flush_mode")]
_SETTINGS = dict(
    deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


class WriterKilled(Exception):
    """Stands in for the SIGKILL in these simulations."""


class CrashingBlobStore(BlobStore):
    """A BlobStore whose writer dies on the Nth *new* blob write.

    The crash happens after the tmp file is (partially) written but before
    ``os.replace`` — the worst window — so the debris a real kill leaves
    (a truncated ``*.tmp`` in the shard dir) is left behind here too.
    """

    def __init__(self, root, crash_after_writes: int) -> None:
        super().__init__(root)
        self._writes_left = crash_after_writes

    def put(self, data):
        name = self.address(data)
        if not self._path(name).exists():
            if self._writes_left == 0:
                shard = self._path(name).parent
                shard.mkdir(parents=True, exist_ok=True)
                with open(shard / f"{name}.{os.getpid()}.killed.tmp", "wb") as fh:
                    fh.write(data[: max(1, len(data) // 2)])  # torn write
                raise WriterKilled(name)
            self._writes_left -= 1
        return super().put(data)


def make_line(label: str, sequence: int, state: dict) -> "RecoveryLine":
    from repro.timemachine import RecoveryLine

    checkpoint = ProcessCheckpoint(
        pid="p0",
        sequence=sequence,
        time=float(sequence),
        state=copy.deepcopy(state),
        vt=VectorTimestamp.from_mapping({"p0": sequence}),
        lamport=sequence,
        rng_draws=sequence,
        sent_count=sequence,
        received_count=0,
        extra={},
    )
    return RecoveryLine(
        checkpoints={"p0": checkpoint},
        rolled_back_steps={},
        iterations=1,
        domino_effect=False,
        label=label,
    )


def make_state(generation: int, size: int) -> dict:
    return {
        "table": {f"k{i:04d}": f"gen{generation}-{i}" for i in range(size)},
        "epoch": generation,
    }


@settings(max_examples=20, **_SETTINGS)
@given(
    committed_lines=st.integers(1, 3),
    size=st.integers(60, 200),
    crash_after_writes=st.integers(0, 12),
)
def test_crash_mid_flush_preserves_last_committed_line(
    committed_lines, size, crash_after_writes
):
    root = tempfile.mkdtemp(prefix="crashstore-")
    try:
        durable = DurableCheckpointStore(
            root, run_id="victim", chunk_threshold=16, chunk_elems=4
        )
        last_committed = None
        for generation in range(1, committed_lines + 1):
            last_committed = make_state(generation, size)
            durable.flush_line(make_line(f"gen{generation}", generation, last_committed))

        # the writer dies partway through flushing the NEXT line
        durable.blobs = CrashingBlobStore(root, crash_after_writes)
        doomed = make_state(committed_lines + 1, size)
        with pytest.raises(WriterKilled):
            durable.flush_line(make_line("doomed", committed_lines + 1, doomed))

        # recovery: sweep debris, verify, GC — all on a fresh store object,
        # as a resuming process would
        recovered = BlobStore(root)
        report = recovered.validate_integrity()
        assert report.tmp_orphans >= 1  # the torn write was found and swept
        assert report.ok  # no addressed blob was corrupted
        assert recovered.validate_integrity().tmp_orphans == 0

        survivor = DurableCheckpointStore(root, run_id="victim")
        survivor.gc()

        manifest, checkpoints = DurableCheckpointStore.restore_line(root, "victim")
        assert manifest["label"] == f"gen{committed_lines}"
        assert checkpoints["p0"].state == last_committed
        assert checkpoints["p0"].state != doomed  # never the partial line
        assert list(checkpoints["p0"].state["table"]) == list(last_committed["table"])
    finally:
        shutil.rmtree(root, ignore_errors=True)


@settings(max_examples=15, **_SETTINGS)
@given(crash_after_writes=st.integers(0, 8), size=st.integers(60, 150))
def test_crash_on_very_first_flush_leaves_nothing_committed(crash_after_writes, size):
    from repro.errors import CheckpointError

    root = tempfile.mkdtemp(prefix="crashstore-")
    try:
        durable = DurableCheckpointStore(
            root, run_id="newborn", chunk_threshold=16, chunk_elems=4
        )
        durable.blobs = CrashingBlobStore(root, crash_after_writes)
        with pytest.raises(WriterKilled):
            durable.flush_line(make_line("doomed", 1, make_state(1, size)))

        assert BlobStore(root).validate_integrity().ok
        with pytest.raises(CheckpointError):
            DurableCheckpointStore.restore_line(root, "newborn")
    finally:
        shutil.rmtree(root, ignore_errors=True)


def test_facade_resume_after_crashed_flush(tmp_path):
    """End to end through the repro.api facade: a run whose *next* flush was
    killed mid-write still resumes from its last committed recovery line."""
    from repro.api import Experiment, Scenario

    store = str(tmp_path / "store")
    scenario = Scenario(
        app="kvstore",
        name="crash-facade",
        params={"replicas": 2, "clients": 1},
        until=6.0,
        auto_commit_interval=2.0,
        checkpoint_store="disk",
        store_path=store,
    )
    outcome = Experiment([scenario]).run()[0]
    assert outcome.store is not None
    assert outcome.store["lines_committed"] >= 2

    committed_manifest, committed = DurableCheckpointStore.restore_line(
        store, outcome.run_id
    )

    # simulate a writer killed mid-flush AFTER the run: torn tmp debris
    # (a separate run id — the dying writer is its own run in the store)
    durable = DurableCheckpointStore(store, run_id="killer")
    durable.blobs = CrashingBlobStore(store, 0)
    doomed_state = {"table": {f"k{i:04d}": i for i in range(300)}}
    with pytest.raises(WriterKilled):
        durable.flush_line(make_line("doomed", 99, doomed_state))

    resumed = Experiment.resume("crash-facade", store)
    assert resumed.manifest["label"] == committed_manifest["label"]
    assert sorted(resumed.states()) == sorted(committed)
    # the debris did not disturb the persisted Scroll: the replay-forward
    # pass past the committed line consumed the recorded history cleanly
    assert resumed.replays
    assert all(replay.ok for replay in resumed.replays.values())
    assert BlobStore(store).validate_integrity().ok
    # and resume is deterministic: a second resume of the same store lands
    # on exactly the same replayed-forward states
    assert Experiment.resume("crash-facade", store).states() == resumed.states()


def make_entries(first_seq: int, count: int, base_time: float):
    from repro.scroll.entry import ActionKind, ScrollEntry

    return [
        ScrollEntry(
            pid="p0",
            kind=ActionKind.RANDOM,
            time=base_time + index * 0.25,
            detail={"method": "random", "value": (first_seq + index) / 997.0},
            seq=first_seq + index,
        )
        for index in range(count)
    ]


@settings(max_examples=15, **_SETTINGS)
@given(
    flushed_windows=st.integers(1, 3),
    window=st.integers(3, 12),
    crash_after_writes=st.integers(0, 1),
)
def test_crash_mid_scroll_flush_never_leaves_torn_suffix(
    flushed_windows, window, crash_after_writes
):
    """A writer killed inside ``flush_scroll`` — before or between the
    segment/pending blob writes — must leave the previous sidecar as the
    newest readable one: rebuild returns exactly the previously flushed
    prefix, never a torn suffix, and blob integrity still validates."""
    from repro.scroll.scroll import Scroll

    root = tempfile.mkdtemp(prefix="scrollcrash-")
    try:
        durable = DurableCheckpointStore(root, run_id="victim")
        scroll = Scroll()
        for generation in range(flushed_windows):
            for entry in make_entries(
                len(scroll) + 1, window, base_time=float(generation)
            ):
                scroll.append(entry)
            durable.flush_scroll(
                scroll,
                pending={"deliveries": [], "timers": [(1.0, "p0", "tick", None)]},
                now=float(generation + 1),
            )
        flushed_position = len(scroll)

        # the next flush dies on a blob write (segment or pending snapshot)
        crashing = CrashingBlobStore(root, crash_after_writes)
        durable.blobs = crashing
        durable.scroll_persistence._blobs = crashing
        for entry in make_entries(len(scroll) + 1, window, base_time=99.0):
            scroll.append(entry)
        with pytest.raises(WriterKilled):
            durable.flush_scroll(
                scroll,
                pending={"deliveries": [], "timers": [(99.0, "p0", "boom", None)]},
                now=99.0,
            )

        # a resuming process sees only the pre-crash flushed prefix
        assert BlobStore(root).validate_integrity().ok
        rebuilt, sidecar, pending = DurableCheckpointStore.rebuild_scroll(
            root, "victim"
        )
        assert len(rebuilt) == flushed_position
        assert int(sidecar["position"]) == flushed_position
        assert [entry.seq for entry in rebuilt[0:len(rebuilt)]] == list(
            range(1, flushed_position + 1)
        )
        assert pending is not None and pending["timers"][0][2] == "tick"
        # a snapshot without ``events`` (the old two-list shape) still loads
        assert pending["events"] == [("timer", 1.0, "p0", "tick", None)]
    finally:
        shutil.rmtree(root, ignore_errors=True)


def test_corrupt_scroll_segment_is_detected_on_rebuild(tmp_path):
    """Flipping bytes inside a referenced segment blob must surface as
    BlobIntegrityError on rebuild, never as silently replayed garbage."""
    from repro.errors import BlobIntegrityError
    from repro.scroll.scroll import Scroll

    root = str(tmp_path / "store")
    durable = DurableCheckpointStore(root, run_id="victim")
    scroll = Scroll()
    for entry in make_entries(1, 8, base_time=0.0):
        scroll.append(entry)
    durable.flush_scroll(scroll, pending=None, now=1.0)
    sidecar = DurableCheckpointStore.load_scroll_sidecar(root, "victim")
    (segment,) = sidecar["segments"]
    blob_path = os.path.join(
        root, "blobs", segment["blob"][:2], f"{segment['blob']}.blob"
    )
    with open(blob_path, "r+b") as fh:
        fh.write(b"\x00garbage\x00")
    with pytest.raises(BlobIntegrityError):
        DurableCheckpointStore.rebuild_scroll(root, "victim")
