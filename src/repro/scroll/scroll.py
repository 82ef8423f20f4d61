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

**Tiered storage.**  A Scroll constructed with a ``hot_window`` spills
cold entries to disk so long production runs don't hold the whole log in
memory.  Entries live in two tiers:

* the *hot tier* — the most recent entries, plain Python objects in a
  list;
* the *cold tier* — everything older, serialized into immutable on-disk
  segments managed by a :class:`~repro.scroll.storage.SegmentStore`
  whose in-memory index maps each spilled position to its segment and
  byte offset.

Whenever the hot tier exceeds ``hot_window`` entries, the oldest
``segment_size`` of them (half the window by default) are written out as
one segment and dropped from memory; the *spill watermark* — the count
of spilled entries — separates the tiers.  All positional indexes store
global positions, so every query contract is preserved: index hits below
the watermark are served by seek-reads (with an LRU decode cache), hits
above come straight from the hot list, and both appends and queries keep
their amortized costs.  :meth:`truncate` cuts both tiers (and the
indexes) at a position, which is how a Time-Machine rollback discards
log suffixes that are in the rolled-back future.
"""

from __future__ import annotations

import heapq
import sys
from bisect import bisect_left
from collections.abc import Sequence as _SequenceABC
from itertools import islice
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.dsim.clock import VectorTimestamp
from repro.scroll.entry import ActionKind, ScrollEntry
from repro.scroll.storage import PathLike, SegmentStore


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
        below this many entries by spilling the oldest to disk.
    storage_dir:
        Directory for the cold tier's segment files; a private temporary
        directory (removed with the Scroll) is used when omitted.
    segment_size:
        Entries per spilled segment; defaults to half the hot window.
    store:
        An explicit :class:`SegmentStore` to spill into (overrides
        ``storage_dir``).
    base:
        Global position of the Scroll's first entry.  Non-zero when the
        Scroll is rebuilt from a persisted window (resume continuation):
        the entries passed in carry on from position ``base``, so every
        recorded checkpoint position and positional query stays valid
        against the rebuilt log.  Positions below ``base`` behave like a
        garbage-collected prefix.
    """

    def __init__(
        self,
        entries: Optional[Iterable[ScrollEntry]] = None,
        *,
        hot_window: Optional[int] = None,
        storage_dir: Optional[PathLike] = None,
        segment_size: Optional[int] = None,
        store: Optional[SegmentStore] = None,
        base: int = 0,
    ) -> None:
        if hot_window is not None and hot_window < 1:
            raise ValueError("hot_window must be at least 1")
        if base < 0:
            raise ValueError("base must be non-negative")
        self._hot: List[ScrollEntry] = []
        self._hot_window = hot_window
        self._segment_size = segment_size
        self._storage_dir = storage_dir
        self._store = store
        #: number of entries below the hot tier (spilled or rebased-away);
        #: global positions below the watermark are on disk, the rest are
        #: in ``_hot``.
        self._watermark = int(base)
        #: the rebased start position (collected_base floor without a store)
        self._base = int(base)
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
        for entry in entries or ():
            self.append(entry)

    # ------------------------------------------------------------------
    # tiering
    # ------------------------------------------------------------------
    @property
    def is_tiered(self) -> bool:
        """True when this Scroll spills cold entries to disk."""
        return self._hot_window is not None or self._store is not None

    @property
    def spill_watermark(self) -> int:
        """Number of entries currently in the cold tier."""
        return self._watermark

    @property
    def hot_entries(self) -> int:
        """Number of entries currently resident in the hot tier."""
        return len(self._hot)

    def _ensure_store(self) -> SegmentStore:
        if self._store is None:
            # Sized to hold one process's replay material (the replayer
            # issues several queries over the same positions back to
            # back) while staying small next to the hot window.  The
            # store starts at the current watermark so a base-rebased
            # Scroll (resume) spills at the right global positions.
            cache = max(1024, (self._hot_window or 0) // 2)
            self._store = SegmentStore(
                self._storage_dir, cache_size=cache, base=self._watermark
            )
        return self._store

    def _spill(self) -> None:
        """Move the oldest hot entries into one new on-disk segment."""
        segment_size = self._segment_size or max(1, (self._hot_window or 2) // 2)
        count = min(segment_size, len(self._hot) - 1)  # keep the newest hot
        if count <= 0:
            return
        store = self._ensure_store()
        store.append_segment(self._hot[:count])
        del self._hot[:count]
        self._watermark += count

    def storage_stats(self) -> Dict[str, object]:
        """Tier occupancy and cold-store statistics (for FixD stats/reports)."""
        stats: Dict[str, object] = {
            "entries": len(self),
            "hot_entries": len(self._hot),
            # reachable spill only, agreeing with the store's own stats;
            # the GC'd prefix is reported separately
            "spilled_entries": self._watermark - self.collected_base,
            "collected_entries": self.collected_base,
            "tiered": self.is_tiered,
        }
        if self._store is not None:
            stats["store"] = self._store.stats()
            stats["disk_bytes"] = self._store.disk_bytes()
        return stats

    def resident_bytes(self) -> int:
        """Approximate memory held by entry storage (hot tier + cold index).

        Positional indexes are excluded: both tiered and in-memory
        Scrolls maintain identical index structures, so this number
        isolates what tiering actually changes — entry objects resident
        in RAM versus a 24-byte-per-entry offset index.
        """
        total = sys.getsizeof(self._hot) + sum(
            _entry_resident_bytes(entry) for entry in self._hot
        )
        if self._store is not None:
            total += self._store.index_bytes()
            total += sum(
                _entry_resident_bytes(entry) for entry in self._store.cached_entries()
            )
        return total

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
        """Convenience constructor + append."""
        entry = ScrollEntry(pid=pid, kind=kind, time=time, detail=dict(detail or {}), vt=vt)
        return self.append(entry)

    # ------------------------------------------------------------------
    # garbage collection (committed recovery lines)
    # ------------------------------------------------------------------
    @property
    def collected_base(self) -> int:
        """Global position of the first still-reachable entry.

        ``0`` for a fresh log with no GC; the rebased start position for
        a Scroll rebuilt from a persisted window.
        """
        return self._store.base if self._store is not None else self._base

    def collect(self, min_position: int) -> int:
        """Garbage-collect the log prefix below ``min_position``.

        Called when a recovery line is *committed*: the system can never
        roll back past the line, so entries before its recorded Scroll
        position are unreachable for recovery and their cold segments
        can be unlinked from disk.  Only whole segments at or below the
        spill watermark are dropped (the hot tier is never collected),
        and the positional indexes are trimmed so queries stop mapping
        the collected range.  Positions stay global: ``len(self)`` is
        unchanged and later entries keep their positions; indexing into
        the collected prefix raises ``IndexError``.  Returns the number
        of entries collected.
        """
        if self._store is None:
            return 0
        removed = self._store.collect(min(min_position, self._watermark))
        if not removed:
            return 0
        base = self._store.base
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
        line whose checkpoints recorded the Scroll position (the spill
        watermark plus the hot length at capture time): entries after
        the line describe a future that no longer exists.  Cuts the hot
        list, drops or shrinks cold segments, and trims every positional
        index.  Returns the number of entries discarded.
        """
        length = max(self.collected_base, min(length, len(self)))
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
            self._store.truncate(length)
            self._watermark = length
            self._hot = []
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
        position = self.collected_base
        while position < len(self):
            position = max(position, self.collected_base)  # GC between yields
            batch = self._range(position, min(position + chunk, len(self)))
            if not batch:
                return
            yield from batch
            position += len(batch)

    def _entry_at(self, position: int) -> ScrollEntry:
        if position >= self._watermark:
            return self._hot[position - self._watermark]
        return self._store.get(position)

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            if step == 1:
                return self._range(start, stop)
            # skip the collected prefix like the contiguous path does
            base = self.collected_base
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
        cold = self._store.get_many(positions[:split]) if split else []
        hot = self._hot
        cold.extend(hot[position - watermark] for position in islice(positions, split, None))
        return cold

    def _range(self, start: int, stop: int) -> List[ScrollEntry]:
        """Materialize the contiguous position range ``[start, stop)``.

        Positions below a garbage-collected base are silently skipped —
        they no longer exist on any tier.
        """
        stop = min(stop, len(self))
        start = max(self.collected_base, start)
        if start >= stop:
            return []
        watermark = self._watermark
        if start >= watermark:
            return self._hot[start - watermark:stop - watermark]
        cold = list(self._store.iter_range(start, min(stop, watermark)))
        if stop > watermark:
            cold.extend(self._hot[:stop - watermark])
        return cold

    def entries_between(self, start: int, stop: int) -> List[ScrollEntry]:
        """Materialize the global position range ``[start, stop)``, tier-aware.

        Positions below the garbage-collected base are skipped (they no
        longer exist on any tier).  Durable Scroll persistence uses this
        to frame the not-yet-flushed tail into a segment blob.
        """
        return self._range(start, stop)

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
        """Release the cold tier (file handles and any owned directory)."""
        if self._store is not None:
            self._store.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Scroll(entries={len(self)}, hot={len(self._hot)}, "
            f"spilled={self._watermark}, pids={self.pids()})"
        )
