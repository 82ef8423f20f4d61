"""The Scroll itself: an append-only log of recorded actions with queries.

A single Scroll can hold the actions of every process in the system (the
"common Scroll" of Figure 1) or of a single process; :meth:`Scroll.merge`
combines per-process Scrolls into one, re-establishing a causally
consistent global order using the recorded vector timestamps and falling
back to recorded times and sequence numbers for concurrent entries.

Because the Scroll sits on the recording hot path (every nondeterministic
action of every process lands here) and on the replay hot path (the
Replayer queries per-process views once per process), the log maintains
positional indexes as it grows:

* a per-process index, a per-kind index and a per-``(pid, kind)`` index,
  each a sorted list of positions into the log — so
  ``entries_for``/``of_kind``/``received_messages`` and friends are
  O(k) in the result size instead of O(n) scans;
* a parallel list of record times, so :meth:`between` can bisect when the
  log is time-monotone (the common case for live recordings);
* :meth:`merge` streams already-ordered per-process logs through a heap
  (O(n log p)) instead of concatenating and re-sorting (O(n log n)).

**One log on disk, two seal triggers.**  The Scroll is the only owner of
its on-disk form: one list of sealed segments, each ``count`` frames
from global position ``first``, held as one content-addressed blob
(:class:`~repro.blobs.BlobStore`) plus its frame offsets in memory
(8 bytes per entry).  :meth:`Scroll.seal` encodes the unsealed tail
``[sealed_end, len)`` through :func:`~repro.scroll.storage.encode_segment`
into the Scroll's private store (a temporary directory, or
``storage_dir``; unsynced, deleted with the Scroll).  Two things seal:

* a **spill**.  A Scroll constructed with a ``hot_window`` keeps at most
  that many entries in memory.  When an append overflows the window, the
  Scroll seals the oldest half-window if nothing hot is sealed yet, and
  then *evicts* whole sealed segments from memory until the hot tier
  fits.  The *spill watermark* — the position of the first hot entry —
  separates the tiers;
* a **durable flush**
  (:meth:`repro.timemachine.scroll_persistence.ScrollPersistence.flush`)
  calls :meth:`persist`: the private segments and the unsealed tail
  become one segment (frames are self-delimiting, so concatenated
  segment bytes are a segment) bound for the run's durable store.  The
  flush puts that blob and writes the sidecar naming this same list in
  one lock window, so a store's ``gc()`` never sees a segment blob no
  sidecar names.  Nothing is evicted.

Without a ``hot_window`` and without a durable flush nothing is ever
sealed, and :meth:`append` costs what an untiered list append costs.

All positional indexes store global positions, so every query contract
holds across the tiers: index hits below the watermark are *cold reads*
(bisect the segment starts, then decode only the wanted frames, slicing
a small LRU of raw segment bytes read through the validating
``BlobStore.get``); hits above come straight from the hot list.
:meth:`truncate` (a Time-Machine rollback discarding the rolled-back
future) and :meth:`collect` (a committed line making the prefix
unreachable) are list slices: a cut inside a sealed segment re-seals its
kept prefix privately, so a blob always holds exactly its segment's
frames.  Dropped private blobs are deleted; dropped durable ones are left
to the store's ``gc()``.
"""

from __future__ import annotations

import heapq
import shutil
import sys
import tempfile
import weakref
from array import array
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from collections.abc import Sequence as _SequenceABC
from itertools import islice
from operator import attrgetter
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.blobs import BlobStore
from repro.dsim.clock import VectorTimestamp
from repro.dsim.message import IdCounter
from repro.scroll.entry import ActionKind, ScrollEntry
from repro.scroll.storage import PathLike, decode_entry, encode_segment

#: raw segments a cold read keeps in memory; replay walks each process's
#: positions in order, so it needs the segment it is in and the next one
RAW_CACHE_SEGMENTS = 2


class Segment(NamedTuple):
    """One sealed run of entries: ``count`` frames from global position ``first``."""

    first: int
    count: int
    blob: str
    #: byte offset of every frame, then the blob's length (``count + 1`` items)
    offsets: array

    @property
    def end(self) -> int:
        return self.first + self.count


_FIRST = attrgetter("first")
_END = attrgetter("end")


class ScrollView(_SequenceABC):
    """A zero-copy, read-only sequence view over a Scroll's entries.

    Supports the full read-only sequence protocol (len, indexing,
    slicing, iteration, containment) and equality against other
    sequences of entries.  It holds no entries of its own: hot entries
    are read through the Scroll, spilled entries are fetched on access.
    """

    __slots__ = ("_source",)

    def __init__(self, source) -> None:
        self._source = source

    def __len__(self) -> int:
        return len(self._source)

    def __getitem__(self, index):
        return self._source[index]

    def __iter__(self) -> Iterator[ScrollEntry]:
        return iter(self._source)

    def __reversed__(self) -> Iterator[ScrollEntry]:
        for index in range(len(self._source) - 1, -1, -1):
            yield self._source[index]

    def __contains__(self, item: object) -> bool:
        return any(entry == item for entry in self._source)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (ScrollView, list, tuple)):
            return len(self) == len(other) and all(
                mine == theirs for mine, theirs in zip(self, other)
            )
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ScrollView({len(self._source)} entries)"


def _entry_resident_bytes(entry: ScrollEntry) -> int:
    """Rough resident size of one in-memory entry (benchmark accounting)."""
    size = sys.getsizeof(entry) + sys.getsizeof(entry.pid) + sys.getsizeof(entry.time)
    size += sys.getsizeof(entry.detail)
    for key, value in entry.detail.items():
        size += sys.getsizeof(key) + sys.getsizeof(value)
        if isinstance(value, dict):
            for inner_key, inner_value in value.items():
                size += sys.getsizeof(inner_key) + sys.getsizeof(inner_value)
    if entry.vt is not None:
        size += sys.getsizeof(entry.vt) + 16 * len(entry.vt.entries)
    return size


class Scroll:
    """Append-only, queryable log of :class:`ScrollEntry` records.

    Parameters
    ----------
    entries:
        Initial entries to append.
    hot_window:
        When given, enables tiered storage: the hot tier is kept at or
        below this many entries by sealing the oldest into segments and
        evicting them from memory.
    storage_dir:
        Where the private segment store lives; a temporary directory
        (removed with the Scroll) is used when omitted.
    base:
        Global position of the Scroll's first entry.  Non-zero when the
        Scroll is rebuilt from a persisted window (resume continuation):
        the entries passed in carry on from position ``base``, so every
        recorded checkpoint position and positional query stays valid
        against the rebuilt log.  Positions below ``base`` behave like a
        garbage-collected prefix.
    first_seq:
        The ``seq`` :meth:`record` stamps next (a continuation passes its
        persisted frontier); appended entries keep the ``seq`` they carry.
    """

    def __init__(
        self,
        entries: Optional[Iterable[ScrollEntry]] = None,
        *,
        hot_window: Optional[int] = None,
        storage_dir: Optional[PathLike] = None,
        base: int = 0,
        first_seq: int = 1,
    ) -> None:
        if hot_window is not None and hot_window < 1:
            raise ValueError("hot_window must be at least 1")
        if base < 0:
            raise ValueError("base must be non-negative")
        self._hot: List[ScrollEntry] = []
        self._hot_window = hot_window
        self._storage_dir = storage_dir
        #: the sealed segments, contiguous from ``_base`` to ``_sealed_end``;
        #: the first ``_persisted`` live in ``_durable``, the rest in ``_private``
        self._segments: List[Segment] = []
        self._persisted = 0
        self._durable: Optional[BlobStore] = None
        self._private: Optional[BlobStore] = None
        self._cleanup: Optional[weakref.finalize] = None
        #: bytes of persisted segments whose durable put has not landed yet
        self._pinned: Dict[str, bytes] = {}
        self._sealed_end = int(base)
        #: global position of the first hot entry; every position below
        #: it is in a sealed, evicted segment (or collected)
        self._watermark = int(base)
        #: global position of the first still-reachable entry
        self._base = int(base)
        self._raws: "OrderedDict[str, bytes]" = OrderedDict()
        #: blobs whose bytes were hashed once in this process
        self._verified: set = set()
        #: positions (global) per process, per kind and per (pid, kind)
        self._by_pid: Dict[str, List[int]] = {}
        self._by_kind: Dict[ActionKind, List[int]] = {}
        self._by_pid_kind: Dict[Tuple[str, ActionKind], List[int]] = {}
        self._nondet: List[int] = []
        #: record times in append order; bisectable while monotone.  The
        #: list is trimmed by :meth:`collect` along with the cold tier, so
        #: ``self._times[p - self._times_base]`` is position ``p``'s time.
        self._times: List[float] = []
        self._times_base = int(base)
        self._time_monotone = True
        self.seqs = IdCounter(first_seq)
        for entry in entries or ():
            self.append(entry)

    @classmethod
    def reopen(
        cls,
        segments: Iterable[Tuple[str, Sequence[ScrollEntry], array]],
        blobs: BlobStore,
        *,
        base: int,
        first_seq: int = 1,
        hot_window: Optional[int] = None,
    ) -> "Scroll":
        """A Scroll that owns segments already sealed in ``blobs`` (resume).

        ``segments`` yields ``(blob, entries, offsets)`` in log order,
        contiguous from ``base`` and already validated by the caller.
        Every entry is indexed, then whole segments are evicted until
        the hot tier fits ``hot_window``, so a continuation keeps its
        tier.
        """
        scroll = cls(base=base, first_seq=first_seq)
        scroll._durable = blobs
        for blob, entries, offsets in segments:
            for entry in entries:
                scroll.append(entry)
            scroll._segments.append(Segment(scroll._sealed_end, len(entries), blob, offsets))
            scroll._sealed_end += len(entries)
            scroll._verified.add(blob)
        scroll._persisted = len(scroll._segments)
        if hot_window is not None:
            scroll._hot_window = hot_window
            scroll._spill()
        return scroll

    # ------------------------------------------------------------------
    # tiering
    # ------------------------------------------------------------------
    @property
    def is_tiered(self) -> bool:
        """True when this Scroll evicts cold entries from memory."""
        return self._hot_window is not None

    @property
    def spill_watermark(self) -> int:
        """Global position of the first hot entry (the tier boundary)."""
        return self._watermark

    @property
    def hot_entries(self) -> int:
        """Number of entries currently resident in the hot tier."""
        return len(self._hot)

    @property
    def segments(self) -> Tuple[Segment, ...]:
        """The sealed segments, in log order."""
        return tuple(self._segments)

    def _private_store(self) -> BlobStore:
        if self._private is None:
            directory = self._storage_dir
            if directory is None:
                directory = tempfile.mkdtemp(prefix="scroll-segments-")
                self._cleanup = weakref.finalize(self, shutil.rmtree, directory, True)
            # no fsync: the store dies with the Scroll, and a crash loses it anyway
            self._private = BlobStore(directory, fsync=False)
        return self._private

    def seal(self, end: Optional[int] = None) -> Optional[Segment]:
        """Seal ``[sealed_end, end)`` (default: the whole tail) as one private segment.

        Returns the new segment, or None when nothing was unsealed.
        Sealed entries stay hot until a spill evicts them.
        """
        start = self._sealed_end
        end = len(self) if end is None else end
        if end <= start:
            return None
        watermark = self._watermark
        raw, offsets = encode_segment(self._hot[start - watermark:end - watermark])
        name, _ = self._private_store().put(raw)
        segment = Segment(start, end - start, name, offsets)
        self._segments.append(segment)
        self._sealed_end = end
        return segment

    def persist(self, durable: BlobStore) -> Tuple[Optional[Segment], bytes]:
        """Merge every private segment, and the unsealed tail, into one bound for ``durable``.

        Returns the merged segment and its bytes, or ``(None, b"")``
        when everything is already persisted.  The segment joins the
        durable part of the list at once; the caller puts the bytes into
        ``durable`` and then calls :meth:`landed`, and until then reads
        of the segment are served from those bytes.  The merged private
        blobs are deleted.
        """
        self._durable = durable
        private = self._segments[self._persisted:]
        tail = self._hot[self._sealed_end - self._watermark:]
        if not private and not tail:
            return None, b""
        raws = [self._raw(index) for index in range(self._persisted, len(self._segments))]
        tail_raw, tail_offsets = encode_segment(tail)
        raws.append(tail_raw)
        offsets = array("q", [0])
        for part in [segment.offsets for segment in private] + [tail_offsets]:
            shift = offsets[-1]
            offsets.extend(offset + shift for offset in islice(part, 1, None))
        raw = b"".join(raws)
        first = private[0].first if private else self._sealed_end
        segment = Segment(first, len(self) - first, BlobStore.address(raw), offsets)
        self._remove(self._persisted, len(self._segments))
        self._segments.append(segment)
        self._persisted = len(self._segments)
        self._sealed_end = len(self)
        self._pinned[segment.blob] = raw
        return segment, raw

    def landed(self, blob: str) -> None:
        """The durable put of a :meth:`persist`ed segment has completed.

        Safe to call from a background writer thread: it only drops the
        in-memory copy, after which reads go to the durable store.
        """
        self._pinned.pop(blob, None)

    def _spill(self) -> None:
        """Seal what the hot tier needs, then evict whole sealed segments until it fits."""
        window = self._hot_window
        while len(self._hot) > window:
            if self._sealed_end == self._watermark:
                self.seal(self._watermark + min(max(1, window // 2), len(self._hot) - 1))
            # a persisted segment may straddle the watermark: evict its hot rest
            segment = self._segments[bisect_right(self._segments, self._watermark, key=_FIRST) - 1]
            del self._hot[:segment.end - self._watermark]
            self._watermark = segment.end

    def _remove(self, start: int, stop: int) -> None:
        """Take segments ``[start, stop)`` out of the list.

        Their private blobs are deleted; durable ones stay for the
        durable store's ``gc()``.
        """
        dropped = self._segments[start:stop]
        del self._segments[start:stop]
        durable = max(0, min(stop, self._persisted) - start)
        self._persisted -= durable
        live = {segment.blob for segment in self._segments}
        for offset, segment in enumerate(dropped):
            if segment.blob in live:
                continue
            self._raws.pop(segment.blob, None)
            self._verified.discard(segment.blob)
            if offset < durable:
                self._pinned.pop(segment.blob, None)
            else:
                self._private.delete(segment.blob)

    def storage_stats(self) -> Dict[str, object]:
        """Tier occupancy and cold-store statistics (for FixD stats/reports)."""
        stats: Dict[str, object] = {
            "entries": len(self),
            "hot_entries": len(self._hot),
            # reachable spill only; the GC'd prefix is reported separately
            "spilled_entries": self._watermark - self._base,
            "collected_entries": self._base,
            "tiered": self.is_tiered,
        }
        if self._private is not None or self._durable is not None:
            stats["store"] = {
                "segments": len(self._segments),
                "sealed_entries": self._sealed_end - self._base,
                "index_bytes": self._index_bytes(),
                "cached_segments": len(self._raws),
            }
            stats["disk_bytes"] = sum(segment.offsets[-1] for segment in self._segments)
        return stats

    def _index_bytes(self) -> int:
        return sum(len(segment.offsets) * segment.offsets.itemsize for segment in self._segments)

    def resident_bytes(self) -> int:
        """Approximate memory held by entry storage (hot tier + cold index).

        Positional indexes are excluded: both tiered and in-memory
        Scrolls maintain identical index structures, so this number
        isolates what tiering actually changes — entry objects resident
        in RAM versus 8 bytes of frame offset per sealed entry plus the
        raw segments a cold read keeps.
        """
        total = sys.getsizeof(self._hot) + sum(
            _entry_resident_bytes(entry) for entry in self._hot
        )
        return total + self._index_bytes() + sum(len(raw) for raw in self._raws.values())

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def append(self, entry: ScrollEntry) -> ScrollEntry:
        """Append one entry, updating the positional indexes, and return it."""
        position = self._watermark + len(self._hot)
        self._hot.append(entry)
        self._by_pid.setdefault(entry.pid, []).append(position)
        self._by_kind.setdefault(entry.kind, []).append(position)
        self._by_pid_kind.setdefault((entry.pid, entry.kind), []).append(position)
        if entry.is_nondeterministic:
            self._nondet.append(position)
        if self._time_monotone and self._times and entry.time < self._times[-1]:
            self._time_monotone = False
        self._times.append(entry.time)
        if self._hot_window is not None and len(self._hot) > self._hot_window:
            self._spill()
        return entry

    def record(
        self,
        pid: str,
        kind: ActionKind,
        time: float,
        detail: Optional[Dict] = None,
        vt: Optional[VectorTimestamp] = None,
    ) -> ScrollEntry:
        """Build an entry stamped with this Scroll's next ``seq`` and append it."""
        return self.append(
            ScrollEntry(pid, kind, time, dict(detail or {}), vt, self.seqs.take())
        )

    # ------------------------------------------------------------------
    # garbage collection (committed recovery lines)
    # ------------------------------------------------------------------
    @property
    def collected_base(self) -> int:
        """Global position of the first still-reachable entry.

        ``0`` for a fresh log with no GC; the rebased start position for
        a Scroll rebuilt from a persisted window.
        """
        return self._base

    def collect(self, min_position: int) -> int:
        """Garbage-collect the log prefix below ``min_position``.

        Called when a recovery line is *committed*: the system can never
        roll back past the line, so entries before its recorded Scroll
        position are unreachable for recovery.  Whole evicted segments
        ending at or below ``min_position`` leave the segment list (the
        hot tier is never collected), and the positional indexes are
        trimmed so queries stop mapping the collected range.  Positions
        stay global: ``len(self)`` is unchanged and later entries keep
        their positions; indexing into the collected prefix raises
        ``IndexError``.  Returns the number of entries collected.
        """
        count = bisect_right(
            self._segments, min(min_position, self._watermark), key=_END
        )
        if not count:
            return 0
        base = self._segments[count - 1].end
        self._remove(0, count)
        removed = base - self._base
        self._base = base
        for index_map in (self._by_pid, self._by_kind, self._by_pid_kind):
            dead = []
            for key, positions in index_map.items():
                cut = bisect_left(positions, base)
                if cut:
                    del positions[:cut]
                if not positions:
                    dead.append(key)
            for key in dead:
                del index_map[key]
        del self._nondet[:bisect_left(self._nondet, base)]
        # the times column is per-position too: reclaim the collected
        # prefix so resident cost tracks the reachable window
        del self._times[:base - self._times_base]
        self._times_base = base
        return removed

    # ------------------------------------------------------------------
    # truncation (rollback support)
    # ------------------------------------------------------------------
    def truncate(self, length: int) -> int:
        """Forget every entry at position >= ``length`` in both tiers.

        Called when the Time Machine rolls the system back to a recovery
        line whose checkpoints recorded the Scroll position: entries
        after the line describe a future that no longer exists.  Cuts
        the hot list and the segment list (a segment the cut falls
        inside is re-sealed as its kept prefix) and trims every
        positional index.  Returns the number of entries discarded.
        """
        length = max(self._base, min(length, len(self)))
        removed = len(self) - length
        if removed == 0:
            return 0
        for index_map in (self._by_pid, self._by_kind, self._by_pid_kind):
            dead = []
            for key, positions in index_map.items():
                cut = bisect_left(positions, length)
                if cut < len(positions):
                    del positions[cut:]
                if not positions:
                    dead.append(key)
            for key in dead:
                del index_map[key]
        del self._nondet[bisect_left(self._nondet, length):]
        del self._times[length - self._times_base:]
        if length >= self._watermark:
            del self._hot[length - self._watermark:]
        else:
            self._watermark = length
            self._hot = []
        if length < self._sealed_end:
            index = bisect_right(self._segments, length, key=_FIRST) - 1
            boundary = self._segments[index]
            kept = length - boundary.first
            # frames are self-delimiting: the byte prefix is the kept frames
            prefix = self._raw(index)[:boundary.offsets[kept]] if kept else b""
            self._remove(index, len(self._segments))
            if prefix:
                name, _ = self._private_store().put(prefix)
                self._segments.append(
                    Segment(boundary.first, kept, name, boundary.offsets[:kept + 1])
                )
            self._sealed_end = length
        return removed

    # ------------------------------------------------------------------
    # container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._watermark + len(self._hot)

    def __iter__(self) -> Iterator[ScrollEntry]:
        # Any tiered Scroll gets the append-safe path, spilled yet or
        # not: the first spill during iteration would otherwise shift
        # the hot list under a live list iterator.
        if self.is_tiered:
            return self._iter_tiered()
        return iter(self._hot)

    def _iter_tiered(self, chunk: int = 1024) -> Iterator[ScrollEntry]:
        # Iterate by global position in materialized chunks rather than
        # holding live iterators over the tiers: an append between
        # yields may spill hot entries (moving the watermark), which
        # would make a snapshot-of-the-tiers iterator silently skip the
        # newly cold positions.  Fetching each chunk atomically through
        # the position-addressed path keeps iteration append-safe, like
        # iterating the plain backing list used to be.
        position = self._base
        while position < len(self):
            position = max(position, self._base)  # GC between yields
            batch = self._range(position, min(position + chunk, len(self)))
            if not batch:
                return
            yield from batch
            position += len(batch)

    def _raw(self, index: int) -> bytes:
        """Segment ``index``'s bytes, from the raw LRU or read (and once verified) from its store."""
        name = self._segments[index].blob
        raw = self._raws.get(name)
        if raw is not None:
            self._raws.move_to_end(name)
            return raw
        raw = self._pinned.get(name) if index < self._persisted else None
        if raw is None:
            store = self._durable if index < self._persisted else self._private
            raw = store.get(name, verify=name not in self._verified)
            self._verified.add(name)
        self._raws[name] = raw
        if len(self._raws) > RAW_CACHE_SEGMENTS:
            self._raws.popitem(last=False)
        return raw

    def _cold(self, positions: Iterable[int]) -> List[ScrollEntry]:
        """Decode the entries at evicted positions, one segment lookup per run."""
        out: List[ScrollEntry] = []
        first = end = 0
        for position in positions:
            if not first <= position < end:
                if position < self._base:
                    raise IndexError(
                        f"Scroll position {position} was garbage-collected (base {self._base})"
                    )
                index = bisect_right(self._segments, position, key=_FIRST) - 1
                segment = self._segments[index]
                raw = memoryview(self._raw(index))
                offsets = segment.offsets
                first, end = segment.first, segment.end
            frame = position - first
            out.append(decode_entry(raw[offsets[frame]:offsets[frame + 1]]))
        return out

    def _entry_at(self, position: int) -> ScrollEntry:
        if position >= self._watermark:
            return self._hot[position - self._watermark]
        return self._cold((position,))[0]

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            if step == 1:
                return self._range(start, stop)
            # skip the collected prefix like the contiguous path does
            base = self._base
            return [
                self._entry_at(position)
                for position in range(start, stop, step)
                if position >= base
            ]
        position = index
        if position < 0:
            position += len(self)
        if not 0 <= position < len(self):
            raise IndexError("Scroll index out of range")
        return self._entry_at(position)

    @property
    def entries(self) -> ScrollView:
        """All entries in record order (a zero-copy read-only view)."""
        return ScrollView(self)

    # ------------------------------------------------------------------
    # queries (index-backed: O(k) in the result size)
    # ------------------------------------------------------------------
    def _at(self, positions: Iterable[int]) -> List[ScrollEntry]:
        """Materialize entries for sorted global positions, tier-aware."""
        positions = list(positions)
        watermark = self._watermark
        if not watermark:
            hot = self._hot
            return [hot[position] for position in positions]
        split = bisect_left(positions, watermark)
        cold = self._cold(positions[:split]) if split else []
        hot = self._hot
        cold.extend(hot[position - watermark] for position in islice(positions, split, None))
        return cold

    def _range(self, start: int, stop: int) -> List[ScrollEntry]:
        """Materialize the contiguous position range ``[start, stop)``.

        Positions below a garbage-collected base are silently skipped —
        they no longer exist on any tier.
        """
        stop = min(stop, len(self))
        start = max(self._base, start)
        if start >= stop:
            return []
        watermark = self._watermark
        if start >= watermark:
            return self._hot[start - watermark:stop - watermark]
        cold = self._cold(range(start, min(stop, watermark)))
        if stop > watermark:
            cold.extend(self._hot[:stop - watermark])
        return cold

    def entries_for(self, pid: str) -> List[ScrollEntry]:
        """All entries belonging to one process, in record order."""
        return self._at(self._by_pid.get(pid, ()))

    def iter_entries_for(
        self, pid: str, batch: int = 1024, start: int = 0
    ) -> Iterator[ScrollEntry]:
        """Stream one process's entries without materializing them all.

        The replay driver uses this so replaying one process of a
        heavily spilled log keeps at most ``batch`` cold entries alive
        at a time.  ``start`` restricts the stream to entries at global
        position >= ``start`` (replay-forward from a checkpoint).
        """
        positions = self._by_pid.get(pid, ())
        first = bisect_left(positions, start) if start else 0
        for index in range(first, len(positions), batch):
            yield from self._at(positions[index:index + batch])

    def of_kind(self, *kinds: ActionKind) -> List[ScrollEntry]:
        """All entries whose kind is one of ``kinds``, in record order."""
        unique = list(dict.fromkeys(kinds))
        if len(unique) == 1:
            return self._at(self._by_kind.get(unique[0], ()))
        runs = [self._by_kind.get(kind, ()) for kind in unique]
        return self._at(heapq.merge(*runs))

    def nondeterministic(self) -> List[ScrollEntry]:
        """Only the entries required for deterministic replay."""
        return self._at(self._nondet)

    def between(self, start: float, end: float) -> List[ScrollEntry]:
        """Entries whose recorded time falls in ``[start, end)``.

        O(log n + k) via bisection while the log is time-monotone (live
        recordings always are); falls back to a linear scan when entries
        were appended out of time order.
        """
        if self._time_monotone:
            lo = self._times_base + bisect_left(self._times, start)
            hi = self._times_base + bisect_left(self._times, end)
            return self._range(lo, hi)
        return [entry for entry in self if start <= entry.time < end]

    def filter(self, predicate: Callable[[ScrollEntry], bool]) -> List[ScrollEntry]:
        """Entries matching an arbitrary predicate."""
        return [entry for entry in self if predicate(entry)]

    def pids(self) -> List[str]:
        """Sorted list of process ids appearing in the Scroll."""
        return sorted(self._by_pid)

    def counts_by_kind(self) -> Dict[str, int]:
        """Number of entries per action kind (kind value -> count)."""
        return {kind.value: len(positions) for kind, positions in self._by_kind.items()}

    def counts_by_process(self) -> Dict[str, int]:
        """Number of entries per process."""
        return {pid: len(positions) for pid, positions in self._by_pid.items()}

    def last_entry(self, pid: Optional[str] = None) -> Optional[ScrollEntry]:
        """The most recently recorded entry (optionally restricted to one process)."""
        if pid is None:
            return self._entry_at(len(self) - 1) if len(self) else None
        positions = self._by_pid.get(pid)
        return self._entry_at(positions[-1]) if positions else None

    def violations(self) -> List[ScrollEntry]:
        """All recorded invariant violations."""
        return self.of_kind(ActionKind.VIOLATION)

    # ------------------------------------------------------------------
    # per-process replay material (all O(k) via the (pid, kind) index)
    # ------------------------------------------------------------------
    def _for_pid_kind(self, pid: str, kind: ActionKind, start: int = 0) -> List[ScrollEntry]:
        positions = self._by_pid_kind.get((pid, kind), ())
        if start:
            positions = positions[bisect_left(positions, start):]
        return self._at(positions)

    def received_messages(self, pid: str, start: int = 0) -> List[Dict]:
        """The serialized messages delivered to ``pid``, in delivery order.

        ``start`` (here and on the sibling replay-material queries)
        restricts the result to entries at global position >= ``start``,
        which is how replay-forward resumes from a checkpoint's recorded
        Scroll position instead of the beginning of the log.
        """
        return [
            entry.detail["message"]
            for entry in self._for_pid_kind(pid, ActionKind.RECEIVE, start)
            if "message" in entry.detail
        ]

    def sent_messages(self, pid: str, start: int = 0) -> List[Dict]:
        """The serialized messages sent by ``pid``, in send order."""
        return [
            entry.detail["message"]
            for entry in self._for_pid_kind(pid, ActionKind.SEND, start)
            if "message" in entry.detail
        ]

    def random_outcomes(self, pid: str, start: int = 0) -> List[Dict]:
        """Recorded random draws of ``pid``: ``{"method", "value"}`` in draw order."""
        return [
            {"method": entry.detail.get("method"), "value": entry.detail.get("value")}
            for entry in self._for_pid_kind(pid, ActionKind.RANDOM, start)
        ]

    def clock_reads(self, pid: str, start: int = 0) -> List[float]:
        """Recorded clock reads of ``pid`` in read order."""
        return [
            entry.detail.get("value", entry.time)
            for entry in self._for_pid_kind(pid, ActionKind.CLOCK_READ, start)
        ]

    def timer_firings(self, pid: str, start: int = 0) -> List[Dict]:
        """Recorded timer firings of ``pid``: ``{"name", "time"}`` in order."""
        return [
            {"name": entry.detail.get("name"), "time": entry.time}
            for entry in self._for_pid_kind(pid, ActionKind.TIMER, start)
        ]

    # ------------------------------------------------------------------
    # slicing and merging
    # ------------------------------------------------------------------
    def slice_for(self, pids: Sequence[str]) -> "Scroll":
        """A new Scroll containing only the entries of the given processes."""
        runs = [self._by_pid.get(pid, ()) for pid in dict.fromkeys(pids)]
        return Scroll(self._at(heapq.merge(*runs)))

    def prefix_until(self, predicate: Callable[[ScrollEntry], bool]) -> "Scroll":
        """The prefix of the Scroll up to (excluding) the first entry matching ``predicate``."""
        prefix: List[ScrollEntry] = []
        for entry in self:
            if predicate(entry):
                break
            prefix.append(entry)
        return Scroll(prefix)

    @staticmethod
    def merge(scrolls: Iterable["Scroll"]) -> "Scroll":
        """Merge several Scrolls into one globally ordered Scroll.

        Entries are ordered by the composite key ``(time, causal_weight,
        seq)``: recorded time first, then the sum of the entry's vector
        timestamp components, then the original sequence number.  The
        causal weight is a linear extension of the (partial)
        vector-timestamp order — a causally later event always has a
        strictly larger component sum — so among entries with equal
        recorded times the key preserves happens-before while giving
        concurrent entries a deterministic order.

        Per-process Scrolls are recorded in nondecreasing key order, so
        the merge streams them through a heap (O(n log p) for p scrolls)
        instead of concatenating and re-sorting; inputs that are not
        key-sorted fall back to a stable sort with identical output.
        """

        def key(entry: ScrollEntry):
            causal_weight = sum(entry.vt.as_dict().values()) if entry.vt is not None else 0
            return (entry.time, causal_weight, entry.seq)

        # Decorate each run with (key, run index, position) so heap order
        # matches a stable sort of the concatenation exactly.
        decorated: List[List[tuple]] = []
        presorted = True
        for run_index, scroll in enumerate(scrolls):
            run = []
            previous = None
            for position, entry in enumerate(scroll):
                entry_key = key(entry)
                if previous is not None and entry_key < previous:
                    presorted = False
                previous = entry_key
                run.append((entry_key, run_index, position, entry))
            decorated.append(run)

        if presorted:
            return Scroll(item[3] for item in heapq.merge(*decorated))
        combined = [item for run in decorated for item in run]
        combined.sort()
        return Scroll(item[3] for item in combined)

    def to_records(self) -> List[Dict]:
        """Serialize the whole Scroll to a list of plain dictionaries."""
        return [entry.to_record() for entry in self]

    @staticmethod
    def from_records(records: Iterable[Dict]) -> "Scroll":
        """Rebuild a Scroll from :meth:`to_records` output."""
        return Scroll(ScrollEntry.from_record(record) for record in records)

    def close(self) -> None:
        """Remove the private segment store's temporary directory, if any."""
        if self._cleanup is not None:
            self._cleanup()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Scroll(entries={len(self)}, hot={len(self._hot)}, "
            f"spilled={self._watermark}, pids={self.pids()})"
        )
