"""A durable content-addressed blob store for committed recovery lines.

In-memory COW checkpoints (:mod:`repro.timemachine.cow`) die with the
experiment process: a crashed run loses every recovery line it paid to
capture.  This module makes *committed* lines durable with the same
content-addressing idea taken to disk:

* every chunk of every checkpointed state value is pickled and stored as
  a blob in a :class:`repro.blobs.BlobStore` — SHA-256-named files,
  written atomically and fsynced, validated on read.  Identical chunks —
  across keys, checkpoints, processes and even runs — share one file, so
  dedup comes free from the naming scheme.  A writer killed mid-flush
  leaves at worst an orphaned tmp file, never a half-written blob;
* **run-scoped manifests** (``runs/<run_id>/run.json`` plus one
  ``line-NNNNNN.json`` per committed recovery line, both atomically
  written JSON) record which blobs make up each committed line, along
  with the process metadata (vector clocks, RNG draw counts, message
  counters) needed to rebuild :class:`repro.dsim.process.ProcessCheckpoint`
  objects for :meth:`Experiment.resume`;
* **rotation/GC is refcount-driven below committed lines**: dropping old
  line manifests (``rotate``) treats only the blobs those manifests
  referenced as collection candidates, subtracts everything the
  manifests that remain — across *all* runs sharing the store — still
  reference, and unlinks the rest.  ``gc()`` is the full-store sweep
  for offline maintenance.  Sweeps take an **exclusive store lock**
  (``flock`` on ``store.lock``) while flushes hold it shared for their
  blobs-then-manifest write window, so a sweep can never run between
  another process's blob puts and the manifest that makes them
  reachable; where ``flock`` is unavailable, sweeps instead skip blobs
  younger than :data:`GC_GRACE_SECONDS`.

Chunk layout on disk is produced by the same pure chunk codec the
in-memory store uses (:func:`repro.timemachine.cow.chunk_items`), so a
value that was cheap to capture incrementally is equally cheap to flush:
unchanged chunks hash to addresses that already exist on disk and are
skipped.

SHA-256 (not the BLAKE2b-128 of the in-memory hot path) names the
files: durable addresses double as an integrity check and follow the
conventional content-address format for on-disk stores.
"""

from __future__ import annotations

import json
import os
import pickle
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

from repro.blobs import BlobStore, _atomic_write
from repro.dsim.clock import VectorTimestamp
from repro.dsim.process import ProcessCheckpoint
from repro.errors import CheckpointError
from repro.timemachine.cow import (
    DEFAULT_CHUNK_ELEMS,
    DEFAULT_CHUNK_THRESHOLD,
    _CachedChunked,
    _CachedKey,
    _serialize,
    assemble_chunked,
    chunk_items,
    chunk_kind,
)
from repro.timemachine.flush_pipeline import DEFAULT_FLUSH_QUEUE_BYTES, FlushPipeline

#: v1 line manifests carried the committed Scroll position only per-pid in
#: ``checkpoints.*.extra.scroll_position``; v2 lifts the line-wide frontier to
#: a top-level ``scroll_position`` field (what commit-ordering checks and the
#: scroll sidecar key on).  Old stores read through :func:`migrate_manifest`.
MANIFEST_SCHEMA = 2

#: without an advisory store lock, sweeps skip blobs younger than this —
#: another process may have written them for a manifest it has not landed yet
GC_GRACE_SECONDS = 60.0

#: How committed lines reach the blob store.
FLUSH_MODES = ("sync", "pipelined")

_JSON_SCALARS = (str, int, float, bool, type(None))


def check_flush_mode(flush_mode: str, error=CheckpointError) -> None:
    """Reject an unknown ``flush_mode``; the one copy of the rule
    ``Scenario`` and :class:`DurableCheckpointStore` both apply."""
    if flush_mode not in FLUSH_MODES:
        raise error(f"unknown flush_mode {flush_mode!r}; expected one of {FLUSH_MODES}")


def _json_safe(mapping: Dict[str, Any]) -> Dict[str, Any]:
    """The JSON-representable subset of a checkpoint's ``extra`` mapping."""
    return {
        key: value
        for key, value in mapping.items()
        if isinstance(key, str) and isinstance(value, _JSON_SCALARS)
    }


def _captured_entries(key: Any, entry: Any):
    """``(key, kind, chunk entries, order entries)`` of one COW-captured key."""
    if isinstance(entry, _CachedChunked):
        return key, entry.kind, list(entry.chunks), list(entry.order)
    return key, "whole", [entry], []


def _line_scroll_position(manifest: Dict[str, Any]) -> Optional[int]:
    """Line-wide Scroll frontier: the earliest position any member stamped."""
    positions = [
        entry.get("extra", {}).get("scroll_position")
        for entry in manifest.get("checkpoints", {}).values()
    ]
    positions = [position for position in positions if isinstance(position, int)]
    return min(positions) if positions else None


def _migrate_manifest_v1(manifest: Dict[str, Any]) -> Dict[str, Any]:
    """v1 → v2: lift the per-pid scroll positions to a top-level frontier."""
    manifest = dict(manifest)
    manifest["scroll_position"] = _line_scroll_position(manifest)
    manifest["schema"] = 2
    return manifest


#: schema migrations, keyed by the version they read; applied in sequence
#: until the manifest reaches :data:`MANIFEST_SCHEMA`
_MANIFEST_MIGRATIONS = {1: _migrate_manifest_v1}


def migrate_manifest(manifest: Dict[str, Any]) -> Dict[str, Any]:
    """Upgrade a line manifest to the current schema (validating versions).

    Manifests written by older stores are migrated step-by-step through
    :data:`_MANIFEST_MIGRATIONS`; manifests from a *newer* store raise —
    guessing at fields this code has never seen could restore wrong state.
    """
    schema = manifest.get("schema", 1)
    if schema > MANIFEST_SCHEMA:
        raise CheckpointError(
            f"line manifest schema {schema} is newer than supported "
            f"({MANIFEST_SCHEMA}); upgrade before resuming"
        )
    while schema < MANIFEST_SCHEMA:
        migrate = _MANIFEST_MIGRATIONS.get(schema)
        if migrate is None:
            raise CheckpointError(f"no migration path from manifest schema {schema}")
        manifest = migrate(manifest)
        schema = manifest.get("schema", schema + 1)
    return manifest


def _manifest_blobs(manifest: Dict[str, Any]) -> Set[str]:
    """Every blob address a line manifest references."""
    names: Set[str] = set()
    for entry in manifest.get("checkpoints", {}).values():
        for layout in entry.get("state", {}).values():
            names.update(layout.get("chunks", ()))
            names.update(layout.get("order", ()))
    return names


class _StoreLock:
    """Advisory inter-process lock serializing GC sweeps against flushes.

    Flushes hold the lock *shared* over their blobs-then-manifest write
    window; sweeps hold it *exclusive* — so a sweep can never land
    between another process's blob puts and the manifest write that
    makes those blobs reachable.  Backed by ``flock`` on
    ``<root>/store.lock``; where ``flock`` is unavailable the lock is a
    no-op and sweeps fall back to the mtime grace window instead.
    """

    def __init__(self, root: Path) -> None:
        self.path = Path(root) / "store.lock"

    @property
    def available(self) -> bool:
        return fcntl is not None

    @contextmanager
    def _held(self, flags: int):
        if fcntl is None:  # pragma: no cover - non-POSIX fallback
            yield
            return
        fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, flags)
            yield
        finally:
            os.close(fd)  # closing the fd releases the flock

    def shared(self):
        return self._held(fcntl.LOCK_SH if fcntl else 0)

    def exclusive(self):
        return self._held(fcntl.LOCK_EX if fcntl else 0)


class DurableCheckpointStore:
    """Run-scoped durable manifests over a shared :class:`BlobStore`.

    One instance serves one run (``run_id``); the underlying blob store
    is shared by every run under the same root, which is what makes
    cross-run dedup work.  ``flush_line`` persists one committed
    recovery line; the class methods read stores back without needing a
    live instance (that is what resume uses — the writing process is
    gone).
    """

    def __init__(
        self,
        root,
        run_id: str,
        chunk_threshold: Optional[int] = DEFAULT_CHUNK_THRESHOLD,
        chunk_elems: int = DEFAULT_CHUNK_ELEMS,
        keep_lines: Optional[int] = None,
        flush_mode: str = "sync",
        flush_queue_bytes: int = DEFAULT_FLUSH_QUEUE_BYTES,
    ) -> None:
        if not run_id:
            raise CheckpointError("a durable checkpoint store needs a non-empty run_id")
        if any(sep in run_id for sep in ("/", "\\", "\0")) or run_id in (".", ".."):
            raise CheckpointError(
                f"run_id {run_id!r} is not a safe path component "
                "(no separators, '.' or '..')"
            )
        if keep_lines is not None and keep_lines < 1:
            raise CheckpointError("keep_lines must be at least 1 (or None to keep all)")
        check_flush_mode(flush_mode)
        self.root = Path(root)
        self.run_id = run_id
        self.blobs = BlobStore(self.root)
        self.chunk_threshold = chunk_threshold
        self.chunk_elems = chunk_elems
        self.keep_lines = keep_lines
        self.run_dir = self.root / "runs" / run_id
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self._lock = _StoreLock(self.root)
        self._line_index = self._highest_line_index()
        #: blob addresses flushed earlier in this run (the "reused" tier)
        self._seen: set = set()
        self.lines_committed = 0
        self.chunks_written = 0
        self.chunks_deduped = 0
        self.chunks_reused = 0
        self.chunks_cached = 0
        self.logical_bytes = 0
        #: commit-path serialization accounting: bytes pickled / hashed at
        #: flush time (what the zero-re-pickle path keeps near zero)
        self.commit_pickled_bytes = 0
        self.commit_hashed_bytes = 0
        #: background writer in pipelined mode; None means fully synchronous
        self.pipeline: Optional[FlushPipeline] = (
            FlushPipeline(flush_queue_bytes, name=run_id)
            if flush_mode == "pipelined"
            else None
        )
        #: lazily-built ScrollPersistence sharing this store's blobs and lock
        self._scroll_persistence = None

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def set_run_metadata(self, payload: Dict[str, Any]) -> None:
        """Atomically record run-level metadata (e.g. the Scenario) in run.json."""
        document = {"schema": MANIFEST_SCHEMA, "run_id": self.run_id}
        document.update(payload)
        _atomic_write(
            self.run_dir / "run.json",
            (json.dumps(document, sort_keys=True, indent=2) + "\n").encode("utf-8"),
        )

    def flush_line(self, line) -> Dict[str, int]:
        """Persist one committed recovery line; returns per-flush counters.

        Every state key of every member checkpoint is chunked with the
        same pure codec the in-memory store uses, each chunk blob is
        ``put`` into the content-addressed store (a no-op for chunks
        whose address already exists), and a line manifest naming the
        blobs is atomically written.  The manifest write is last, so a
        crash mid-flush leaves the previous committed line as the
        newest readable one — never a partial line.

        A member captured copy-on-write (``checkpoint.cow``) flushes its
        *capture-time* pickled chunks without re-pickling, and a chunk
        whose durable address was learned on an earlier commit and still
        exists on disk is flushed by address alone — zero pickling, zero
        hashing, zero content IO.  Members holding a plain state dict (or
        a whole-dict COW capture) are re-chunked.

        In pipelined mode the blob writes and the manifest rename run on
        the background writer; the returned counter dict is filled in as
        the job executes and is complete once :meth:`drain` returns.
        """
        flushed = {
            "chunks_written": 0,
            "chunks_deduped": 0,
            "chunks_reused": 0,
            "chunks_cached": 0,
            "logical_bytes": 0,
            "pickled_bytes": 0,
            "hashed_bytes": 0,
        }
        payload, cost = self._prepare_line(line, flushed)

        def job() -> None:
            # holding the store lock shared keeps concurrent sweeps out of
            # the window between the blob puts and the manifest write
            with self._lock.shared():
                self._write_line_locked(payload, flushed)
            if self.keep_lines is not None:
                self._rotate_locked_path(self.keep_lines)

        self._submit(job, cost)
        return flushed

    def _prepare_line(self, line, flushed: Dict[str, int]):
        """Snapshot everything a line flush will write (the commit hot path).

        Pickling happens here only for members without captured chunks;
        everything the job needs afterwards is immutable bytes plus
        JSON-safe metadata, so the write itself can run on the background
        pipeline without racing later state mutations.
        """
        checkpoints = []
        cost = 0
        for pid, checkpoint in sorted(line.checkpoints.items()):
            captured = checkpoint.cow.chunk_cache if checkpoint.cow is not None else None
            if captured is not None:
                state_entries = [_captured_entries(key, entry) for key, entry in captured.items()]
            else:
                state_entries = [
                    self._chunk_value(key, value, flushed)
                    for key, value in checkpoint.state.items()
                ]
            for _key, _kind, entries, order_entries in state_entries:
                for entry in entries + order_entries:
                    if entry.address is None:
                        cost += len(entry.blob)
            checkpoints.append(
                (
                    pid,
                    {
                        "sequence": checkpoint.sequence,
                        "time": checkpoint.time,
                        "vt": checkpoint.vt.as_dict(),
                        "lamport": checkpoint.lamport,
                        "rng_draws": checkpoint.rng_draws,
                        "sent_count": checkpoint.sent_count,
                        "received_count": checkpoint.received_count,
                        "extra": _json_safe(checkpoint.extra),
                    },
                    state_entries,
                )
            )
        position = getattr(line, "scroll_position", None)
        payload = {
            "label": getattr(line, "label", ""),
            "scroll_position": position() if callable(position) else position,
            "checkpoints": checkpoints,
        }
        return payload, cost

    def _write_line_locked(self, payload, flushed: Dict[str, int]) -> None:
        checkpoints_payload: Dict[str, Any] = {}
        for pid, meta, state_entries in payload["checkpoints"]:
            state_payload: Dict[str, Any] = {}
            for key, kind, entries, order_entries in state_entries:
                state_payload[key] = {
                    "kind": kind,
                    "chunks": [self._put_entry(entry, flushed) for entry in entries],
                    "order": [self._put_entry(entry, flushed) for entry in order_entries],
                }
            checkpoints_payload[pid] = dict(meta, state=state_payload)
        self._line_index += 1
        manifest = {
            "schema": MANIFEST_SCHEMA,
            "run_id": self.run_id,
            "index": self._line_index,
            "label": payload["label"],
            "scroll_position": payload["scroll_position"],
            "checkpoints": checkpoints_payload,
        }
        _atomic_write(
            self.run_dir / f"line-{self._line_index:06d}.json",
            (json.dumps(manifest, sort_keys=True, indent=2) + "\n").encode("utf-8"),
        )
        self.lines_committed += 1
        self.chunks_written += flushed["chunks_written"]
        self.chunks_deduped += flushed["chunks_deduped"]
        self.chunks_reused += flushed["chunks_reused"]
        self.chunks_cached += flushed["chunks_cached"]
        self.logical_bytes += flushed["logical_bytes"]
        self.commit_pickled_bytes += flushed["pickled_bytes"]
        self.commit_hashed_bytes += flushed["hashed_bytes"]

    def _chunk_value(self, key: Any, value: Any, flushed: Dict[str, int]):
        """Chunk and pickle one state value the way a COW capture would."""
        kind = chunk_kind(value, self.chunk_threshold)
        if kind is None:
            kind = "whole"
            blobs = [_serialize(key, value)]
            order_blobs: List[bytes] = []
        else:
            value_chunks, order_chunks = chunk_items(kind, value, self.chunk_elems)
            blobs = [_serialize(key, chunk) for chunk in value_chunks]
            order_blobs = [_serialize(key, chunk) for chunk in order_chunks]
        flushed["pickled_bytes"] += sum(len(blob) for blob in blobs + order_blobs)
        return (
            key,
            kind,
            [_CachedKey(value=None, blob=blob, hashes=[]) for blob in blobs],
            [_CachedKey(value=None, blob=blob, hashes=[]) for blob in order_blobs],
        )

    def _put_entry(self, entry: _CachedKey, flushed: Dict[str, int]) -> str:
        flushed["logical_bytes"] += len(entry.blob)
        name = entry.address
        if name is not None:
            # the zero-cost tier: address learned on an earlier commit.
            # _seen alone is not proof the blob survives: a rotation (ours
            # or another run's) may have unlinked it since it was first
            # put, so a recurring chunk must be re-written when its file
            # is gone — the cached address itself stays valid (the bytes
            # are immutable).
            if name in self._seen and self.blobs.exists(name):
                flushed["chunks_reused"] += 1
                flushed["chunks_cached"] += 1
                return name
        else:
            flushed["hashed_bytes"] += len(entry.blob)
            name = self.blobs.address(entry.blob)
            entry.address = name
            if name in self._seen and self.blobs.exists(name):
                flushed["chunks_reused"] += 1
                return name
        _, written = self.blobs.put(entry.blob)
        if written:
            flushed["chunks_written"] += 1
        else:
            flushed["chunks_deduped"] += 1
        self._seen.add(name)
        return name

    # ------------------------------------------------------------------
    # durable Scroll (continuation support)
    # ------------------------------------------------------------------
    @property
    def scroll_persistence(self):
        """The run's :class:`~repro.timemachine.scroll_persistence.ScrollPersistence`."""
        if self._scroll_persistence is None:
            from repro.timemachine.scroll_persistence import ScrollPersistence

            self._scroll_persistence = ScrollPersistence(self)
        return self._scroll_persistence

    def flush_scroll(
        self,
        scroll,
        pending=None,
        now: float = 0.0,
        committed_position: Optional[int] = None,
        msg_id_next: int = 1,
    ) -> Dict[str, int]:
        """Seal the Scroll's tail and name its segments (and in-flight snapshot).

        Delegates to the run's scroll-persistence sidecar; see
        :meth:`repro.timemachine.scroll_persistence.ScrollPersistence.flush`.
        """
        return self.scroll_persistence.flush(
            scroll, pending, now, committed_position, msg_id_next
        )

    def scroll_entries_pending(self, scroll) -> int:
        """Recorded entries no durable sidecar names yet."""
        return self.scroll_persistence.pending_entries(scroll)

    @classmethod
    def load_scroll_sidecar(cls, root, run_id: str) -> Optional[Dict[str, Any]]:
        """The run's persisted-scroll sidecar manifest, or None when absent."""
        from repro.timemachine.scroll_persistence import ScrollPersistence

        return ScrollPersistence.load_sidecar(root, run_id)

    @classmethod
    def rebuild_scroll(cls, root, run_id: str, hot_window: Optional[int] = None):
        """Rebuild ``(scroll, sidecar, pending)`` for a resumed continuation."""
        from repro.timemachine.scroll_persistence import ScrollPersistence

        return ScrollPersistence.rebuild(root, run_id, hot_window)

    # ------------------------------------------------------------------
    # rotation / GC
    # ------------------------------------------------------------------
    def rotate(self, keep_lines: int) -> int:
        """Drop all but the newest ``keep_lines`` line manifests, then sweep.

        Only blobs the *dropped* manifests referenced are collection
        candidates, so a rotation reads the dropped manifests plus the
        surviving manifests of every run under this root — never the
        whole blob tree.  Per-commit cost is proportional to the live
        state, not to store history.  Candidates a surviving line (of
        any run) still references are kept, so rotating one run never
        breaks another's.  Returns the number of blobs unlinked.

        A hard pipeline barrier: queued flushes land first, so a sweep
        never reads a manifest set that is about to grow.
        """
        self.drain()
        return self._rotate_locked_path(keep_lines)

    def _rotate_locked_path(self, keep_lines: int) -> int:
        """The rotation body; also runs *on* the pipeline worker after each
        pipelined line flush, where draining would self-deadlock."""
        if keep_lines < 1:
            raise CheckpointError("keep_lines must be at least 1")
        with self._lock.exclusive():
            manifests = self._line_paths(self.run_dir)
            dropped = manifests[:-keep_lines]
            candidates: Set[str] = set()
            for path in dropped:
                manifest = _read_json(path)
                if manifest is not None:
                    candidates |= _manifest_blobs(manifest)
            for path in dropped:
                path.unlink()
            if not candidates:
                return 0
            return self._sweep(candidates - self._reachable_blobs())

    def gc(self) -> int:
        """Unlink every blob no committed line manifest references any more.

        The full O(store size) sweep: it lists every blob on disk.  Use
        it for offline maintenance and post-crash cleanup; per-commit
        rotation uses the incremental candidate sweep in :meth:`rotate`.
        Like :meth:`rotate`, a hard pipeline barrier.
        """
        self.drain()
        with self._lock.exclusive():
            dead = set(self.blobs.blob_names()) - self._reachable_blobs()
            return self._sweep(dead)

    def _reachable_blobs(self) -> Set[str]:
        """Every blob referenced by any remaining line manifest of any run.

        Scroll sidecars count as roots too: a sweep must never unlink a
        segment or pending blob a continuation would replay from.
        """
        from repro.timemachine.scroll_persistence import sidecar_blobs

        reachable: Set[str] = set()
        runs_root = self.root / "runs"
        if runs_root.is_dir():
            for run_dir in runs_root.iterdir():
                if not run_dir.is_dir():
                    continue
                for manifest_path in self._line_paths(run_dir):
                    manifest = _read_json(manifest_path)
                    if manifest is not None:
                        reachable |= _manifest_blobs(manifest)
                reachable |= sidecar_blobs(_read_json(run_dir / "scroll.json"))
        return reachable

    def _sweep(self, names: Set[str]) -> int:
        """Unlink ``names`` (caller holds the exclusive lock); returns count.

        Swept addresses leave the in-run ``_seen`` cache, so a chunk
        value that recurs after its blob died is re-written rather than
        recorded against a missing file.  Without an advisory lock,
        blobs younger than :data:`GC_GRACE_SECONDS` are skipped —
        another process may be mid-flush, blobs written but manifest
        not yet landed.
        """
        freed = 0
        grace = None if self._lock.available else GC_GRACE_SECONDS
        for name in names:
            self._seen.discard(name)
            if grace is not None:
                try:
                    if time.time() - self.blobs._path(name).stat().st_mtime < grace:
                        continue
                except OSError:
                    continue
            if self.blobs.delete(name):
                freed += 1
        return freed

    # ------------------------------------------------------------------
    # pipelined IO
    # ------------------------------------------------------------------
    def _submit(self, job, cost: int) -> None:
        """Run ``job`` inline (sync mode) or enqueue it (pipelined mode)."""
        if self.pipeline is None:
            job()
        else:
            self.pipeline.submit(job, cost)

    def drain(self) -> None:
        """Hard barrier: every queued flush is durable when this returns.

        Re-raises the first error a background flush hit.  A no-op in
        sync mode, so callers never need to know which mode they run in.
        """
        if self.pipeline is not None:
            self.pipeline.drain()

    def close(self) -> None:
        """Drain and stop the background writer (idempotent)."""
        if self.pipeline is not None:
            self.pipeline.close()

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Store counters for Outcome reports and benchmarks.

        Reading stats is itself a pipeline barrier: the numbers describe
        a store whose queued flushes have all landed.
        """
        self.drain()
        persistence = self._scroll_persistence
        counters = {
            "lines_committed": self.lines_committed,
            "chunks_written": self.chunks_written,
            "chunks_deduped": self.chunks_deduped,
            "chunks_reused": self.chunks_reused,
            "chunks_cached": self.chunks_cached,
            "logical_bytes": self.logical_bytes,
            "commit_pickled_bytes": self.commit_pickled_bytes,
            "commit_hashed_bytes": self.commit_hashed_bytes,
            "scroll_flushes": persistence.flushes if persistence else 0,
            "scroll_bytes": persistence.segment_bytes if persistence else 0,
            "bytes_on_disk": self.blobs.bytes_on_disk(),
        }
        if self.pipeline is not None:
            pipe = self.pipeline.stats()
            counters["flush_jobs"] = int(pipe["jobs_completed"])
            counters["flush_stall_us"] = int(pipe["enqueue_stall_s"] * 1e6)
            counters["flush_peak_queue_bytes"] = int(pipe["peak_queue_bytes"])
        return counters

    # ------------------------------------------------------------------
    # read path (classmethods: resume runs without the writing process)
    # ------------------------------------------------------------------
    @staticmethod
    def _line_paths(run_dir: Path) -> List[Path]:
        return sorted(run_dir.glob("line-*.json"))

    def _highest_line_index(self) -> int:
        paths = self._line_paths(self.run_dir)
        if not paths:
            return 0
        manifest = _read_json(paths[-1])
        if manifest is not None and isinstance(manifest.get("index"), int):
            return manifest["index"]
        return len(paths)

    @classmethod
    def run_ids(cls, root) -> List[str]:
        runs_root = Path(root) / "runs"
        if not runs_root.is_dir():
            return []
        return sorted(entry.name for entry in runs_root.iterdir() if entry.is_dir())

    @classmethod
    def resolve_run_id(cls, root, ref: str) -> str:
        """Resolve ``ref`` — an exact run id *or* a scenario name — to a run id.

        Run ids carry a unique per-execution suffix, so callers coming
        back after a crash usually hold the scenario name instead.  An
        exact ``runs/<ref>`` directory wins; otherwise the run whose
        recorded scenario name equals ``ref`` and whose committed
        activity is most recent is chosen.  Raises
        :class:`~repro.errors.CheckpointError` when nothing matches.
        """
        root = Path(root)
        if (root / "runs" / ref).is_dir():
            return ref
        best: Optional[Tuple[float, str]] = None
        runs_root = root / "runs"
        if runs_root.is_dir():
            for run_dir in runs_root.iterdir():
                if not run_dir.is_dir():
                    continue
                metadata = _read_json(run_dir / "run.json")
                scenario = (metadata or {}).get("scenario") or {}
                if scenario.get("name") != ref:
                    continue
                paths = cls._line_paths(run_dir) or [run_dir / "run.json"]
                try:
                    activity = max(path.stat().st_mtime for path in paths)
                except OSError:
                    continue
                if best is None or (activity, run_dir.name) > best:
                    best = (activity, run_dir.name)
        if best is None:
            raise CheckpointError(
                f"no durable run matching {ref!r} under {str(root)!r} "
                f"(known runs: {cls.run_ids(root)})"
            )
        return best[1]

    @classmethod
    def run_metadata(cls, root, run_id: str) -> Dict[str, Any]:
        path = Path(root) / "runs" / run_id / "run.json"
        metadata = _read_json(path)
        if metadata is None:
            raise CheckpointError(
                f"run {run_id!r} has no readable run.json under {str(root)!r}"
            )
        return metadata

    @classmethod
    def last_line_manifest(cls, root, run_id: str) -> Dict[str, Any]:
        """The newest committed line manifest of ``run_id`` (raises when none)."""
        run_dir = Path(root) / "runs" / run_id
        if not run_dir.is_dir():
            raise CheckpointError(f"no durable run {run_id!r} under {str(root)!r}")
        for path in reversed(cls._line_paths(run_dir)):
            manifest = _read_json(path)
            if manifest is not None:
                return migrate_manifest(manifest)
        raise CheckpointError(
            f"run {run_id!r} has no committed recovery lines to resume from"
        )

    @classmethod
    def restore_line(cls, root, run_id: str) -> Tuple[Dict[str, Any], Dict[str, ProcessCheckpoint]]:
        """Rebuild the newest committed line's checkpoints from disk.

        Every referenced blob is read through the validating
        :meth:`BlobStore.get`, so corrupt bytes raise instead of
        restoring garbage.  Returns ``(manifest, {pid: ProcessCheckpoint})``.
        """
        manifest = cls.last_line_manifest(root, run_id)
        blobs = BlobStore(root)
        checkpoints: Dict[str, ProcessCheckpoint] = {}
        for pid, entry in manifest.get("checkpoints", {}).items():
            state: Dict[str, Any] = {}
            for key, layout in entry.get("state", {}).items():
                chunks = [pickle.loads(blobs.get(name)) for name in layout.get("chunks", ())]
                if layout.get("kind", "whole") == "whole":
                    state[key] = chunks[0] if chunks else None
                    continue
                order_keys: List[Any] = []
                for name in layout.get("order", ()):
                    order_keys.extend(pickle.loads(blobs.get(name)))
                state[key] = assemble_chunked(layout["kind"], chunks, order_keys)
            checkpoints[pid] = ProcessCheckpoint(
                pid=pid,
                sequence=entry["sequence"],
                time=entry["time"],
                state=state,
                vt=VectorTimestamp.from_mapping(entry.get("vt", {})),
                lamport=entry.get("lamport", 0),
                rng_draws=entry.get("rng_draws", 0),
                sent_count=entry.get("sent_count", 0),
                received_count=entry.get("received_count", 0),
                extra=dict(entry.get("extra", {})),
            )
        return manifest, checkpoints


def _read_json(path: Path) -> Optional[Dict[str, Any]]:
    """Parse a manifest, returning None for missing files (atomic writes mean
    a manifest that exists is whole, but the caller may race a rotation)."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (FileNotFoundError, json.JSONDecodeError):
        return None
