"""Durable Scroll persistence: segment blobs + a per-run sidecar manifest.

The durable checkpoint store (:mod:`repro.timemachine.blobstore`) makes
*state* survive a crash; this module makes the recorded *nondeterminism*
survive alongside it, which is what turns ``Experiment.resume`` from a
quiescent state restore into a **continuation**: the committed line's
checkpoints restore process state, the persisted Scroll window replays
the recorded history forward from the line to the crash point, and the
persisted in-flight events re-arm the scheduler so the run simply keeps
going.

Layout, sharing the blob store's content-addressing:

* each flush appends **one segment blob** covering the Scroll entries
  recorded since the previous flush.  The payload is the same
  self-delimiting pickled-tuple framing the spill tier uses
  (:func:`repro.scroll.storage.encode_segment`), stored under its
  SHA-256 address — identical windows across twin runs dedup to one
  file, and reads validate integrity like any other blob;
* the scheduler's in-flight deliveries and timers are captured as **one
  pickled pending blob** per flush (the newest wins — pending events
  are a snapshot, not a log);
* a per-run **sidecar manifest** (``runs/<run_id>/scroll.json``,
  atomically rewritten last, under the store's shared flush lock)
  names the live segments in order, the pending blob, and the id
  frontiers read from their owners at flush time: the Scroll's next
  ``seq_next`` and the cluster's ``msg_id_next``, which a continuation
  passes to the rebuilt ``Scroll`` and ``Cluster`` constructors.

A flush is segment-granular, not per-entry: callers flush on line
commits and on an entry-count threshold between commits, so the durable
log trails the hot log by at most one window.  A crash mid-flush leaves
the previous sidecar as the newest readable one — blobs land first,
the sidecar rename is last — so a rebuilt Scroll never contains a torn
suffix.

Committing a recovery line prunes: segments entirely below the
committed position are dropped from the sidecar (their blobs become
GC candidates once unreferenced), mirroring the hot Scroll's
``collect``.  The rebuilt Scroll is therefore *based* at the first kept
segment's position — positions stay global, exactly as in the live run.
"""

from __future__ import annotations

import json
import pickle
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.errors import CheckpointError
from repro.scroll.entry import ScrollEntry
from repro.scroll.scroll import Scroll
from repro.scroll.storage import decode_segment, encode_segment

#: sidecar manifest schema; bump with a migration when the shape changes
SCROLL_SIDECAR_SCHEMA = 1

class ScrollPersistence:
    """Flushes a live Scroll's tail into a durable store, incrementally.

    Instances are owned by a :class:`DurableCheckpointStore` (one per
    run) and share its blob store, run directory and flush lock; the
    classmethod read path rebuilds without a live instance, which is
    what resume uses.
    """

    def __init__(self, store) -> None:
        self._store = store
        self._blobs = store.blobs
        self._lock = store._lock
        self.run_id = store.run_id
        self.sidecar_path = store.run_dir / "scroll.json"
        self._segments: List[Dict[str, Any]] = []
        self._flushed_end = 0
        self.flushes = 0
        self.segment_bytes = 0
        existing = _read_sidecar(self.sidecar_path)
        if existing is not None:
            # a continued run picks up where the previous process stopped
            self._segments = list(existing.get("segments", ()))
            self._flushed_end = int(existing.get("position", 0))

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    @property
    def flushed_position(self) -> int:
        """Scroll length already covered by durable segments."""
        return self._flushed_end

    def pending_entries(self, scroll: Scroll) -> int:
        """How many recorded entries are not yet durable."""
        return max(0, len(scroll) - max(self._flushed_end, scroll.collected_base))

    def flush(
        self,
        scroll: Scroll,
        pending: Optional[Dict[str, Any]],
        now: float,
        committed_position: Optional[int] = None,
        msg_id_next: int = 1,
    ) -> Dict[str, int]:
        """Make the Scroll tail since the last flush durable.

        Appends one segment blob for ``[flushed_end, len(scroll))``,
        stores ``pending`` (the scheduler's in-flight snapshot) as one
        pickled blob, prunes segments below ``committed_position`` when
        given, and atomically rewrites the sidecar — blobs first,
        sidecar last, under the store's shared lock, so a crash at any
        point leaves a consistent (at worst slightly stale) durable log.

        The live Scroll is read on the caller's (hot) path: the tail
        slice, the in-flight snapshot and the id frontiers (``seq_next``
        and the cluster's ``msg_id_next``) are taken at one instant, so a
        continuation never sees history past its snapshot, nor reuses an id.
        In pipelined mode only the encoding, blob puts and sidecar
        rename run on the background writer — queued after the line
        flush they belong to, so the sidecar can never prune a replay
        window before the manifest referencing it is durable.
        """
        counters = {"segments_written": 0, "entries_flushed": 0, "segment_bytes": 0}
        start = max(self._flushed_end, scroll.collected_base)
        end = len(scroll)
        entries = scroll.entries_between(start, end) if end > start else []
        self._flushed_end = max(self._flushed_end, end)
        frontier = self._flushed_end
        ids = {"seq_next": scroll.seqs.peek(), "msg_id_next": int(msg_id_next)}
        now = float(now)

        def job() -> None:
            with self._lock.shared():
                self._write_flush(
                    entries, start, frontier, ids, pending, now, committed_position, counters
                )
            self.flushes += 1

        # the retained payload is the entry list plus the pending snapshot;
        # a rough per-entry estimate is plenty for queue backpressure
        self._store._submit(job, cost=len(entries) * 256)
        return counters

    def _write_flush(
        self,
        entries: List[ScrollEntry],
        start: int,
        frontier: int,
        ids: Dict[str, int],
        pending: Optional[Dict[str, Any]],
        now: float,
        committed_position: Optional[int],
        counters: Dict[str, int],
    ) -> None:
        if entries:
            blob = encode_segment(entries)
            name, _ = self._blobs.put(blob)
            self._segments.append({"first": start, "count": len(entries), "blob": name})
            counters["segments_written"] = 1
            counters["entries_flushed"] = len(entries)
            counters["segment_bytes"] = len(blob)
            self.segment_bytes += len(blob)
        if committed_position is not None:
            self._segments = [
                segment
                for segment in self._segments
                if segment["first"] + segment["count"] > committed_position
            ]
        pending_name: Optional[str] = None
        if pending is not None:
            pending_blob = pickle.dumps(pending, protocol=pickle.HIGHEST_PROTOCOL)
            pending_name, _ = self._blobs.put(pending_blob)
            counters["segment_bytes"] += len(pending_blob)
            self.segment_bytes += len(pending_blob)
        start_position = self._segments[0]["first"] if self._segments else frontier
        sidecar = {
            "schema": SCROLL_SIDECAR_SCHEMA,
            "run_id": self.run_id,
            "flush_time": now,
            "position": frontier,
            "start": start_position,
            **ids,
            "segments": self._segments,
            "pending": pending_name,
        }
        _atomic_write_json(self.sidecar_path, sidecar)

    # ------------------------------------------------------------------
    # read path (resume runs without the writing process)
    # ------------------------------------------------------------------
    @classmethod
    def load_sidecar(cls, root, run_id: str) -> Optional[Dict[str, Any]]:
        """The run's scroll sidecar, or None when the run never flushed one."""
        return _read_sidecar(Path(root) / "runs" / run_id / "scroll.json")

    @classmethod
    def rebuild(
        cls, root, run_id: str
    ) -> Tuple[Scroll, Dict[str, Any], Optional[Dict[str, Any]]]:
        """Rebuild ``(scroll, sidecar, pending)`` from the durable store.

        Every segment and the pending snapshot are read through the
        validating blob store, so corrupt bytes raise
        :class:`~repro.errors.BlobIntegrityError` instead of silently
        replaying garbage.  The Scroll is based at the sidecar's
        ``start`` so positions match the original run's global numbering
        (and its next entry is ``seq_next``).
        """
        sidecar = cls.load_sidecar(root, run_id)
        if sidecar is None:
            raise CheckpointError(
                f"run {run_id!r} has no persisted Scroll under {str(root)!r} "
                "(the run predates scroll persistence or never flushed)"
            )
        schema = sidecar.get("schema", 1)
        if schema > SCROLL_SIDECAR_SCHEMA:
            raise CheckpointError(
                f"scroll sidecar schema {schema} is newer than supported "
                f"({SCROLL_SIDECAR_SCHEMA}); upgrade before resuming"
            )
        from repro.timemachine.blobstore import BlobStore

        blobs = BlobStore(root)
        entries: List[ScrollEntry] = []
        expected = sidecar.get("start", 0)
        for segment in sidecar.get("segments", ()):
            first = int(segment["first"])
            if first != expected:
                raise CheckpointError(
                    f"scroll sidecar of run {run_id!r} is not contiguous: "
                    f"segment starts at {first}, expected {expected}"
                )
            decoded = decode_segment(blobs.get(segment["blob"]))
            if len(decoded) != int(segment["count"]):
                raise CheckpointError(
                    f"scroll segment {segment['blob'][:12]}… of run {run_id!r} "
                    f"decoded {len(decoded)} entries, manifest says {segment['count']}"
                )
            entries.extend(decoded)
            expected = first + len(decoded)
        scroll = Scroll(entries, base=sidecar.get("start", 0), first_seq=sidecar.get("seq_next", 1))
        pending: Optional[Dict[str, Any]] = None
        if sidecar.get("pending"):
            pending = pickle.loads(blobs.get(sidecar["pending"]))
            if "events" not in pending:
                pending["events"] = _events_of_split_snapshot(pending)
        return scroll, sidecar, pending


def sidecar_blobs(sidecar: Optional[Dict[str, Any]]) -> Set[str]:
    """Every blob address a scroll sidecar references (for GC reachability)."""
    if sidecar is None:
        return set()
    names: Set[str] = set()
    for segment in sidecar.get("segments", ()):
        blob = segment.get("blob")
        if blob:
            names.add(blob)
    if sidecar.get("pending"):
        names.add(sidecar["pending"])
    return names


def _events_of_split_snapshot(pending: Dict[str, Any]) -> List[Tuple]:
    """The ``events`` of a snapshot that stored deliveries and timers apart.

    Older stores wrote two lists.  Their relative order is lost, so this
    puts every delivery before every timer: a timer that shared a
    timestamp with a delivery may re-run in a different order than the
    original.
    """
    return [("deliver", at, record) for at, record in pending.get("deliveries", ())] + [
        ("timer", at, pid, name, payload)
        for at, pid, name, payload in pending.get("timers", ())
    ]


def capture_pending(backend) -> Optional[Dict[str, Any]]:
    """Snapshot a backend's in-flight deliveries and timers for persistence.

    ``events`` lists them in the scheduler's execution order, one tuple
    each: ``("deliver", time, message_record)`` or ``("timer", time,
    pid, name, payload)``.  A continuation re-injects them in that order,
    so events that share a timestamp run in their original order.

    Only DELIVER and TIMER events are captured: fault events (crash,
    recover, corrupt) are re-armed from the scenario's remaining fault
    schedule on continuation, not replayed from the scheduler.  Returns
    None for backends without an inspectable scheduler (e.g. the
    multiprocessing backend), in which case resume degrades to
    replay-without-pending.

    The snapshot also carries the continuation-fidelity state that is
    neither checkpointed process state nor recorded history:

    * ``fault_hits`` — the message-fault engine's per-rule hit counters,
      so count-limited drop/duplicate/delay rules re-arm with their
      remaining budget instead of restarting from zero;
    * ``channels`` — each created channel's RNG draw position and FIFO
      delivery watermark, so non-default ``ChannelConfig``s draw exactly
      the jitter/loss sequence the uninterrupted run would have.

    Everything captured here is a fresh plain-data copy taken at the
    caller's instant — safe to hand to the background flush pipeline.
    """
    scheduler = getattr(backend, "_scheduler", None)
    if scheduler is None:
        return None
    from repro.dsim.scheduler import EventKind

    events: List[Tuple] = []
    for event in scheduler.pending():
        if event.kind is EventKind.DELIVER:
            events.append(("deliver", event.time, event.payload.to_record()))
        elif event.kind is EventKind.TIMER:
            events.append(("timer", event.time, event.target, *event.payload))
    snapshot: Dict[str, Any] = {"events": events}
    engine = getattr(backend, "fault_engine", None)
    if engine is not None:
        snapshot["fault_hits"] = engine.hit_counts()
    network = getattr(backend, "_network", None)
    if network is not None:
        channels = network.channel_states()
        if channels:
            snapshot["channels"] = channels
    return snapshot


def _atomic_write_json(path: Path, document: Dict[str, Any]) -> None:
    from repro.timemachine.blobstore import _atomic_write

    _atomic_write(
        path, (json.dumps(document, sort_keys=True, indent=2) + "\n").encode("utf-8")
    )


def _read_sidecar(path: Path) -> Optional[Dict[str, Any]]:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (FileNotFoundError, json.JSONDecodeError):
        return None
