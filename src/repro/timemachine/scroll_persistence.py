"""Durable Scroll persistence: a per-run sidecar naming the Scroll's segments.

The durable checkpoint store (:mod:`repro.timemachine.blobstore`) makes
*state* survive a crash; this module makes the recorded *nondeterminism*
survive alongside it, which is what turns ``Experiment.resume`` from a
quiescent state restore into a **continuation**: the committed line's
checkpoints restore process state, the persisted Scroll window replays
the recorded history forward from the line to the crash point, and the
persisted in-flight events re-arm the scheduler so the run simply keeps
going.

The Scroll owns its on-disk form (:mod:`repro.scroll.scroll`): one list
of content-addressed segment blobs.  Spills seal into the Scroll's
private store; a flush here

* asks the Scroll to persist (on the caller's thread): its private
  segments and unsealed tail become one segment in its own list, bound
  for the run's blob store;
* stores the scheduler's in-flight deliveries and timers as **one
  pickled pending blob** (the newest wins — pending events are a
  snapshot, not a log);
* atomically rewrites the per-run **sidecar manifest**
  (``runs/<run_id>/scroll.json``).  It names the Scroll's segments in
  order, the pending blob, and the id frontiers read from their owners
  at flush time: the Scroll's next ``seq_next`` and the cluster's
  ``msg_id_next``, which a continuation passes to the rebuilt
  ``Scroll`` and ``Cluster`` constructors.

The segment put, the pending put and the sidecar rename share one
shared-lock window, so a store's ``gc()`` never runs between a segment
blob and the sidecar naming it; in pipelined mode that window is a job
queued behind the line flush it belongs to.  A flush is
segment-granular, not per-entry: callers flush on line commits, on an
entry-count threshold between commits and after a truncating rollback,
so the durable log trails the hot log by at most one window and never
names a rolled-back future.  A crash mid-flush leaves the previous
sidecar as the newest readable one — blobs land first, the sidecar
rename is last — so a rebuilt Scroll never contains a torn suffix.

Committing a recovery line prunes: an untiered Scroll's segments
entirely below the committed position are left out of the sidecar, and
a tiered Scroll's ``collect`` drops its evicted prefix from the list the
sidecar is written from; their blobs become GC candidates once
unreferenced.  The rebuilt Scroll is therefore *based* at the first
named segment's position — positions stay global, exactly as in the live
run — and it owns the named segments, so a continuation keeps its
``hot_window``.
"""

from __future__ import annotations

import json
import pickle
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.blobs import BlobStore, _atomic_write
from repro.errors import CheckpointError
from repro.scroll.scroll import Scroll
from repro.scroll.storage import decode_segment

#: sidecar manifest schema; bump with a migration when the shape changes
SCROLL_SIDECAR_SCHEMA = 1


class ScrollPersistence:
    """Writes a live Scroll's sidecar into a durable store, incrementally.

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
        #: Scroll length the newest sidecar covers
        self._flushed_end = 0
        #: highest committed position: segments below it leave the sidecar
        self._committed = 0
        self.flushes = 0
        self.segment_bytes = 0
        existing = _read_sidecar(self.sidecar_path)
        if existing is not None:
            # a continued run picks up where the previous process stopped
            self._flushed_end = int(existing.get("position", 0))

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def pending_entries(self, scroll: Scroll) -> int:
        """How many recorded entries no sidecar names yet."""
        return max(0, len(scroll) - max(self._flushed_end, scroll.collected_base))

    def flush(
        self,
        scroll: Scroll,
        pending: Optional[Dict[str, Any]],
        now: float,
        committed_position: Optional[int] = None,
        msg_id_next: int = 1,
    ) -> Dict[str, int]:
        """Make the whole Scroll durable and name it in the sidecar.

        Asks the Scroll to :meth:`~repro.scroll.scroll.Scroll.persist`
        everything not yet in this store as one segment, then puts that
        segment blob and ``pending`` (the scheduler's in-flight snapshot,
        one pickled blob) and atomically rewrites the sidecar from the
        Scroll's segment list — all in one shared-lock window, blobs
        first and sidecar last, so a crash at any point leaves a
        consistent (at worst slightly stale) durable log and a ``gc()``
        never falls between a blob and the sidecar naming it.

        The sidecar names every segment the Scroll may still read: all
        of a tiered Scroll's list (its evicted segments are read back
        from this store), and an untiered Scroll's segments above the
        highest ``committed_position`` seen (it never reads one again).

        The segment list, the in-flight snapshot and the id frontiers
        (``seq_next`` and the cluster's ``msg_id_next``) are read at one
        instant on the caller's thread, so a continuation never sees
        history past its snapshot, nor reuses an id.  In pipelined mode
        the puts and the sidecar rename run on the background writer,
        queued after the line flush they belong to, so the sidecar can
        never prune a replay window before the manifest referencing it
        is durable.
        """
        segment, raw = scroll.persist(self._blobs)
        if committed_position is not None:
            self._committed = max(self._committed, committed_position)
        floor = scroll.collected_base if scroll.is_tiered else self._committed
        named = [kept for kept in scroll.segments if kept.end > floor]
        start, frontier = self._flushed_end, len(scroll)
        self._flushed_end = frontier
        counters = {
            "segments_written": int(segment is not None),
            "entries_flushed": max(0, frontier - start),
            "segment_bytes": len(raw),
        }
        sidecar = {
            "schema": SCROLL_SIDECAR_SCHEMA,
            "run_id": self.run_id,
            "flush_time": float(now),
            "position": frontier,
            "start": named[0].first if named else frontier,
            "seq_next": scroll.seqs.peek(),
            "msg_id_next": int(msg_id_next),
            "segments": [
                {"first": kept.first, "count": kept.count, "blob": kept.blob}
                for kept in named
            ],
            "pending": None,
        }

        def job() -> None:
            with self._lock.shared():
                if segment is not None:
                    self._blobs.put(raw)
                    scroll.landed(segment.blob)
                if pending is not None:
                    blob = pickle.dumps(pending, protocol=pickle.HIGHEST_PROTOCOL)
                    sidecar["pending"], _ = self._blobs.put(blob)
                    counters["segment_bytes"] += len(blob)
                _atomic_write(
                    self.sidecar_path,
                    (json.dumps(sidecar, sort_keys=True, indent=2) + "\n").encode("utf-8"),
                )
            self.flushes += 1
            self.segment_bytes += counters["segment_bytes"]

        # the retained payload is the segment bytes plus the pending
        # snapshot; a rough per-event estimate is plenty for backpressure
        self._store._submit(job, cost=len(raw) + 256 * len((pending or {}).get("events", ())))
        return counters

    # ------------------------------------------------------------------
    # read path (resume runs without the writing process)
    # ------------------------------------------------------------------
    @classmethod
    def load_sidecar(cls, root, run_id: str) -> Optional[Dict[str, Any]]:
        """The run's scroll sidecar, or None when the run never flushed one."""
        return _read_sidecar(Path(root) / "runs" / run_id / "scroll.json")

    @classmethod
    def rebuild(
        cls, root, run_id: str, hot_window: Optional[int] = None
    ) -> Tuple[Scroll, Dict[str, Any], Optional[Dict[str, Any]]]:
        """Rebuild ``(scroll, sidecar, pending)`` from the durable store.

        Every segment and the pending snapshot are read through the
        validating blob store, so corrupt bytes raise
        :class:`~repro.errors.BlobIntegrityError` instead of silently
        replaying garbage, and every segment must decode to the count
        the sidecar names.  The Scroll owns the named segments, is based
        at the sidecar's ``start`` so positions match the original run's
        global numbering (its next entry is ``seq_next``), and evicts
        down to ``hot_window``.
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
        blobs = BlobStore(root)
        segments = []
        expected = sidecar.get("start", 0)
        for segment in sidecar.get("segments", ()):
            first = int(segment["first"])
            if first != expected:
                raise CheckpointError(
                    f"scroll sidecar of run {run_id!r} is not contiguous: "
                    f"segment starts at {first}, expected {expected}"
                )
            entries, offsets = decode_segment(blobs.get(segment["blob"]))
            if len(entries) != int(segment["count"]):
                raise CheckpointError(
                    f"scroll segment {segment['blob'][:12]}… of run {run_id!r} "
                    f"decoded {len(entries)} entries, manifest says {segment['count']}"
                )
            segments.append((segment["blob"], entries, offsets))
            expected = first + len(entries)
        scroll = Scroll.reopen(
            segments,
            blobs,
            base=sidecar.get("start", 0),
            first_seq=sidecar.get("seq_next", 1),
            hot_window=hot_window,
        )
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


def _read_sidecar(path: Path) -> Optional[Dict[str, Any]]:
    """The sidecar at ``path``; None only when there is none.

    Sidecars are written atomically, so one that exists but does not
    parse is damage, and it raises rather than passing for "never
    flushed".
    """
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return None
    except (json.JSONDecodeError, UnicodeDecodeError) as error:
        raise CheckpointError(f"scroll sidecar {str(path)!r} is unreadable: {error}") from None
