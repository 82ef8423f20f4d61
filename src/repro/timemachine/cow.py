"""Copy-on-write incremental checkpoints with delta-chunked containers.

Section 4.2 gives two reasons the paper prefers speculations over
traditional checkpointing, the first being that "speculations use a
copy-on-write mechanism to build lightweight, incremental checkpoints of
processes".  This module reproduces that mechanism at the level of
*state pages*: each top-level key of a process's state dictionary is
serialized independently, split into fixed-size pages, and pages are
content-addressed (BLAKE2b-128 of their bytes); an incremental
checkpoint stores only the pages of keys mutated since the previous
checkpoint plus references to unchanged pages.

Large containers are additionally serialized *per chunk* so the cost of
a capture scales with the element-level delta instead of the key size:

* **lists** above ``chunk_threshold`` elements are cut into fixed
  element-count chunks (``chunk_elems`` per chunk) — mutating one
  element dirties one chunk, appending dirties only the tail;
* **dicts** are split into hash-bucketed key groups (a stable CRC of
  each key picks its bucket) so inserting, deleting or rewriting one
  entry dirties one bucket regardless of where the key sits; the
  insertion order of the whole dict rides along as a separately chunked
  key-order vector, so a restore rebuilds the dictionary byte-identical
  to the original, and pure value mutations never touch the order
  chunks;
* **sets** of scalars are hash-bucketed the same way, with a canonical
  in-bucket order so identical contents always produce identical chunk
  bytes.

Each chunk is independently pickled, content-addressed and cached; a
1-element write into a 100k-entry dict re-pickles and re-hashes one
bucket (a few elements), not the whole key.

The dirty-chunk part of the copy-on-write idea lives in a per-process
cache: for every key (and every chunk of a chunked key) the store
remembers the bytes and page hashes of the version it captured last.
At the next capture a key or chunk is *clean* — its cached pages are
referenced without any pickling or hashing — when its value is a
trusted scalar (immutable scalars, plus tuples and frozensets built
from them) that compares bit-identical to the cached one; a mutable
value is re-serialized, but if the bytes come out unchanged the cached
page hashes are reused without re-hashing a single page.  Only
genuinely dirty chunks pay for hashing and page storage.

Hashing: the capture hot path uses ``hashlib.blake2b(digest_size=16)``
(fast, keyed-capable, 128-bit addresses); SHA-256 is reserved for the
durable blob store (:mod:`repro.timemachine.blobstore`), where the hash
doubles as an on-disk integrity check of content-addressed files.

The capture *is* the checkpoint: the Time Machine's
:class:`~repro.dsim.process.ProcessCheckpoint` references its
:class:`CowCheckpoint` and materialises the state from these pages
when a rollback, the Healer or the Investigator reads it, so no deep
copy is taken beside the capture.

The store keeps no history of its own.  Which captures are live is the
business of the checkpoint log that holds them
(:class:`repro.timemachine.checkpoint.CheckpointStore`); the store only
counts references: every page carries one per capture that references
it, and :meth:`CowPageStore.release` drops one capture's references,
freeing exactly its newly unreferenced pages in time proportional to
that capture, not to the whole store.  A released capture refuses to
restore, even while other captures keep its pages alive.

The claim-4.2-cow benchmark compares the bytes written per checkpoint by
this store against full deep-copy checkpoints across mutation ratios;
``benchmarks/run_bench.py``'s ``measure_chunked_cow`` tracks pickled and
hashed bytes per capture against whole-key re-serialization.
"""

from __future__ import annotations

import hashlib
import pickle
import struct
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.errors import CheckpointError

DEFAULT_PAGE_SIZE = 1024

# The Time Machine builds this store and the durable blob store with the
# two layout defaults below; the constructor arguments are for tests and
# benchmarks exercising small chunks or the unchunked oracle.

#: Containers with at least this many elements are serialized per chunk.
DEFAULT_CHUNK_THRESHOLD = 256

#: Target element count per chunk / hash bucket of a chunked container.
DEFAULT_CHUNK_ELEMS = 32

#: A dict's key-order vector holds small scalars, so its chunks pack this
#: many times ``chunk_elems`` keys.
ORDER_ELEMS_FACTOR = 8

#: Value types whose equality is a safe substitute for byte-identical
#: pickles (exact type match required — a bool is not an int here, and a
#: str subclass may pickle extra state).  Tuples and frozensets built
#: from these are trusted too, via :func:`_trusted_scalar`'s recursion.
_SCALAR_TYPES = (str, bytes, int, float, bool, type(None))

#: Sentinel stored in the key cache for values we never trust by equality.
_OPAQUE = object()

#: Cache slot for states captured as one whole-dict blob (aliased states).
_WHOLE_STATE = object()

_MISSING = object()


def _serialize(key: Any, value: Any) -> bytes:
    """Stable serialization of one state value, one chunk of it, or (under
    ``_WHOLE_STATE``) a whole state dictionary."""
    try:
        return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:  # unpicklable application state is a hard error
        what = "process state" if key is _WHOLE_STATE else f"process state key {key!r}"
        raise CheckpointError(f"{what} is not serializable: {exc}") from exc


def _paginate(blob: bytes, page_size: int) -> List[bytes]:
    """Split a byte string into fixed-size pages (the last one may be short)."""
    return [blob[offset : offset + page_size] for offset in range(0, len(blob), page_size)] or [b""]


def _page_hash(page: bytes) -> str:
    # BLAKE2b-128 on the hot path: measurably faster than SHA-1 per byte
    # and 128 bits is plenty for an in-memory content address.  Durable
    # blob names use SHA-256 (see repro.timemachine.blobstore).
    return hashlib.blake2b(page, digest_size=16).hexdigest()


def _trusted_scalar(value: Any) -> bool:
    """True when ``value`` can be declared clean by comparison alone.

    Immutable scalars qualify, and so do tuples and frozensets whose
    elements (recursively) qualify — they cannot be mutated in place, so
    bit-exact equality with the cached version proves the pickle would
    come out identical.
    """
    kind = type(value)
    if kind in _SCALAR_TYPES:
        return True
    if kind is tuple or kind is frozenset:
        return all(_trusted_scalar(item) for item in value)
    return False


def _has_top_level_aliasing(state: Dict[str, Any]) -> bool:
    """True when two top-level values are the same object (or the state itself).

    Trusted scalars are exempt: they are immutable, so restoring
    independent copies is indistinguishable from restoring the shared
    object.
    """
    seen: set = set()
    for value in state.values():
        if _trusted_scalar(value):
            continue
        if value is state:
            return True
        marker = id(value)
        if marker in seen:
            return True
        seen.add(marker)
    return False


def _scalars_equal(cached: Any, value: Any) -> bool:
    """Bit-exact equality for trusted scalars (so 1 != True, 0.0 != -0.0)."""
    if cached is value:
        return True
    if type(cached) is not type(value):
        return False
    if isinstance(cached, float):
        # == would conflate 0.0/-0.0 and reject NaN==NaN; compare the bits.
        return struct.pack("<d", cached) == struct.pack("<d", value)
    if isinstance(cached, tuple):
        return len(cached) == len(value) and all(
            _scalars_equal(a, b) for a, b in zip(cached, value)
        )
    if isinstance(cached, frozenset):
        if len(cached) != len(value):
            return False
        # Equal-but-not-bit-identical members (0.0 vs -0.0) hash alike,
        # so an equality lookup finds the candidate and the recursive
        # bit-exact check rejects impostors.
        lookup = {member: member for member in cached}
        for member in value:
            match = lookup.get(member, _MISSING)
            if match is _MISSING or not _scalars_equal(match, member):
                return False
        return True
    return cached == value


# ----------------------------------------------------------------------
# the chunk codec: pure functions shared with the durable blob store
# ----------------------------------------------------------------------
def _pow2_buckets(elements: int, chunk_elems: int) -> int:
    """Bucket count for ``elements`` items: the next power of two of the
    needed chunk count, so the layout is a pure function of the size and
    only reshuffles when the container roughly doubles or halves."""
    needed = max(1, -(-elements // chunk_elems))
    count = 1
    while count < needed:
        count <<= 1
    return count


def _bucket_index(item: Any, buckets: int) -> int:
    """Stable bucket assignment via a CRC of the item's repr.

    ``repr`` of trusted scalars is deterministic across processes
    (except frozensets under hash randomization, which only costs
    cross-process dedup, never correctness), and CRC32 is cheap enough
    to run per element per capture without registering in the
    pickled/hashed byte accounting.
    """
    return zlib.crc32(repr(item).encode("utf-8", "backslashreplace")) % buckets


def _canonical_sort_key(item: Any) -> Tuple[str, str]:
    return (type(item).__name__, repr(item))


def chunk_kind(
    value: Any, chunk_threshold: Optional[int]
) -> Optional[str]:
    """Which chunked layout ``value`` gets, or ``None`` for whole-value capture.

    Dicts chunk only when every key is a trusted scalar (bucket
    assignment needs a stable repr); sets only when every element is.
    """
    if chunk_threshold is None:
        return None
    kind = type(value)
    if kind is list and len(value) >= chunk_threshold:
        return "list"
    if kind is dict and len(value) >= chunk_threshold:
        if all(_trusted_scalar(key) for key in value):
            return "dict"
        return None
    if kind is set and len(value) >= chunk_threshold:
        if all(_trusted_scalar(item) for item in value):
            return "set"
        return None
    return None


def chunk_items(kind: str, value: Any, chunk_elems: int) -> Tuple[List[list], List[list]]:
    """Split ``value`` into (value chunks, order chunks) of plain lists.

    The returned chunk lists are what gets pickled — one blob per chunk
    — and the layout is a pure function of the content, so the in-memory
    page store and the durable blob store produce identical chunk bytes
    for identical values (that purity is what makes cross-checkpoint and
    cross-run dedup work).
    """
    if kind == "list":
        chunks = [
            value[offset : offset + chunk_elems]
            for offset in range(0, len(value), chunk_elems)
        ] or [[]]
        return chunks, []
    if kind == "dict":
        buckets_count = _pow2_buckets(len(value), chunk_elems)
        buckets: List[list] = [[] for _ in range(buckets_count)]
        for key, item in value.items():
            buckets[_bucket_index(key, buckets_count)].append((key, item))
        keys = list(value.keys())
        order_elems = chunk_elems * ORDER_ELEMS_FACTOR
        order = [
            keys[offset : offset + order_elems]
            for offset in range(0, len(keys), order_elems)
        ] or [[]]
        return buckets, order
    if kind == "set":
        buckets_count = _pow2_buckets(len(value), chunk_elems)
        buckets = [[] for _ in range(buckets_count)]
        for item in value:
            buckets[_bucket_index(item, buckets_count)].append(item)
        for bucket in buckets:
            bucket.sort(key=_canonical_sort_key)
        return buckets, []
    raise CheckpointError(f"unknown chunk kind {kind!r}")


def assemble_chunked(kind: str, chunks: List[Any], order_keys: List[Any]) -> Any:
    """Rebuild a container from its unpickled chunks (inverse of chunk_items)."""
    if kind == "list":
        rebuilt: list = []
        for chunk in chunks:
            rebuilt.extend(chunk)
        return rebuilt
    if kind == "set":
        rebuilt_set: set = set()
        for chunk in chunks:
            rebuilt_set.update(chunk)
        return rebuilt_set
    if kind == "dict":
        combined: dict = {}
        for chunk in chunks:
            for key, item in chunk:
                combined[key] = item
        try:
            return {key: combined[key] for key in order_keys}
        except KeyError as exc:
            raise CheckpointError(
                f"chunked dict is missing key {exc.args[0]!r} named by its order vector"
            ) from None
    raise CheckpointError(f"unknown chunk kind {kind!r}")


@dataclass
class _CachedKey:
    """The last captured version of one state key (or one chunk of one)."""

    value: Any               # the trusted-scalar value, or _OPAQUE for mutable types
    blob: bytes              # serialized bytes of the captured version
    hashes: List[str]        # page hashes of ``blob``
    #: SHA-256 blob-store address of ``blob``, learned lazily the first
    #: time the durable store flushes this chunk.  ``blob`` is immutable,
    #: so a learned address stays valid for the life of the entry; the
    #: store still re-checks existence on disk (ABA after rotation).
    address: Optional[str] = None


@dataclass
class _CachedChunked:
    """The last captured version of one chunked container key."""

    kind: str                      # "list" | "dict" | "set"
    chunks: List[_CachedKey]       # value chunks / hash buckets
    order: List[_CachedKey]        # dict only: chunked key-order vector


def _entry_hashes(entry: Union[_CachedKey, _CachedChunked]) -> List[str]:
    """Every page hash one captured key references, chunks before order."""
    if type(entry) is _CachedKey:
        return entry.hashes
    return [digest for chunk in entry.chunks + entry.order for digest in chunk.hashes]


@dataclass(eq=False)
class CowCheckpoint:
    """An incremental checkpoint: the captured entry per state key plus metadata.

    The actual page bytes live in the :class:`CowPageStore`; a checkpoint
    only references them, which is what makes checkpoints after small
    mutations cheap.  The page-level view (``page_hashes``) is derived
    from ``entries`` on demand, so a capture builds nothing it does not
    need.  Once :meth:`CowPageStore.release` has dropped its references
    the capture is ``released`` and refuses to restore.
    """

    pid: str
    time: float
    #: the capture's cached entry per state key, in the state's iteration
    #: order: the exact pickled bytes (and, once learned, durable
    #: addresses) this checkpoint's pages were derived from.  Clean
    #: entries are shared with neighbouring checkpoints, so holding them
    #: costs what the key cache already pays.  A whole-dict capture (an
    #: aliased state) holds its one entry under ``_WHOLE_STATE``.
    entries: Dict[Any, Union[_CachedKey, _CachedChunked]]
    total_bytes: int
    new_bytes: int
    new_pages: int
    #: bytes actually hashed while capturing this checkpoint (dirty chunks only)
    hashed_bytes: int = 0
    #: bytes actually pickled while capturing this checkpoint
    serialized_bytes: int = 0
    extra: Dict[str, Any] = field(default_factory=dict)
    #: the page store holding this checkpoint's pages
    store: Optional["CowPageStore"] = field(default=None, repr=False)
    #: set by :meth:`CowPageStore.release`
    released: bool = False

    @property
    def whole(self) -> bool:
        """True for a whole-dict capture (the state aliased itself)."""
        return _WHOLE_STATE in self.entries

    @property
    def chunk_cache(self) -> Optional[Dict[Any, Union[_CachedKey, _CachedChunked]]]:
        """The per-key entries a durable flush reuses without re-pickling;
        ``None`` for a whole-dict capture, whose keys were never chunked."""
        return None if self.whole else self.entries

    @property
    def page_hashes(self) -> List[str]:
        return [digest for entry in self.entries.values() for digest in _entry_hashes(entry)]

    @property
    def pages(self) -> int:
        return len(self.page_hashes)

    @property
    def sharing_ratio(self) -> float:
        """Fraction of this checkpoint's bytes shared with earlier checkpoints."""
        if self.total_bytes == 0:
            return 1.0
        return 1.0 - (self.new_bytes / self.total_bytes)

    def restore(self) -> Dict[str, Any]:
        """A fresh, independent copy of the captured state (see :meth:`CowPageStore.restore`)."""
        if self.store is None:
            raise CheckpointError(f"checkpoint of {self.pid!r} at t={self.time} has no page store")
        return self.store.restore(self)


class CowPageStore:
    """A content-addressed page store that only counts references.

    Pages are reference-counted: each capture referencing a page holds
    one reference per occurrence.  The store keeps no list of captures;
    whoever holds a capture hands it back through :meth:`release`, which
    frees the pages no other capture references.

    ``chunk_threshold``/``chunk_elems`` control the delta-chunked
    container layout (:func:`chunk_items`); ``chunk_threshold=None``
    disables chunking entirely and restores the whole-key-per-blob
    behaviour (used as the oracle in equivalence tests and benchmarks).
    """

    def __init__(
        self,
        page_size: int = DEFAULT_PAGE_SIZE,
        chunk_threshold: Optional[int] = DEFAULT_CHUNK_THRESHOLD,
        chunk_elems: int = DEFAULT_CHUNK_ELEMS,
    ) -> None:
        if page_size <= 0:
            raise ValueError("page_size must be positive")
        if chunk_threshold is not None and chunk_threshold <= 0:
            raise ValueError("chunk_threshold must be positive (or None to disable)")
        if chunk_elems <= 0:
            raise ValueError("chunk_elems must be positive")
        self.page_size = page_size
        self.chunk_threshold = chunk_threshold
        self.chunk_elems = chunk_elems
        self._pages: Dict[str, bytes] = {}
        self._page_refs: Dict[str, int] = {}
        #: summed ``total_bytes`` of the captures not yet released
        self._logical_bytes = 0
        #: pid -> key -> last captured version (the dirty-tracking cache);
        #: it is the newest capture's ``entries`` dict itself
        self._key_cache: Dict[str, Dict[Any, Union[_CachedKey, _CachedChunked]]] = {}
        #: lifetime counters for the capture hot path
        self.hashed_bytes_total = 0
        self.serialized_bytes_total = 0
        self.chunks_captured_total = 0
        self.chunks_clean_total = 0

    # ------------------------------------------------------------------
    # capture
    # ------------------------------------------------------------------
    def capture(self, pid: str, state: Dict[str, Any], time: float, **extra: Any) -> CowCheckpoint:
        """Capture an incremental checkpoint of ``state`` for ``pid``.

        Only keys (and, within chunked containers, chunks) mutated since
        the previous capture of ``pid`` are pickled and hashed; clean
        keys re-reference their cached pages.

        States whose top-level mutable values alias each other (or the
        state dict itself) are captured as a single whole-dict blob so
        :meth:`restore` preserves the identity sharing; per-key capture
        would restore independent copies.  Aliasing nested deeper than
        one level (e.g. two keys whose *elements* are shared) is not
        detected and restores as copies.
        """
        cache = self._key_cache.get(pid, {})
        self._cap_hashed = self._cap_serialized = self._cap_clean = 0
        entries: Dict[Any, Union[_CachedKey, _CachedChunked]] = {}
        if _has_top_level_aliasing(state):
            entries[_WHOLE_STATE] = self._capture_value(
                cache.get(_WHOLE_STATE), _WHOLE_STATE, state, state
            )
        else:
            for key, value in state.items():
                cached = cache.get(key)
                kind = chunk_kind(value, self.chunk_threshold)
                if kind is None:
                    entries[key] = self._capture_value(
                        cached if type(cached) is _CachedKey else None, key, value, value
                    )
                else:
                    entries[key] = self._capture_chunked(
                        cached if type(cached) is _CachedChunked and cached.kind == kind else None,
                        key,
                        kind,
                        value,
                    )
        self._key_cache[pid] = entries
        total_bytes, new_bytes, new_pages = self._reference_pages(entries)
        self._logical_bytes += total_bytes
        self.hashed_bytes_total += self._cap_hashed
        self.serialized_bytes_total += self._cap_serialized
        return CowCheckpoint(
            pid=pid,
            time=time,
            entries=entries,
            total_bytes=total_bytes,
            new_bytes=new_bytes,
            new_pages=new_pages,
            hashed_bytes=self._cap_hashed,
            serialized_bytes=self._cap_serialized,
            extra=extra,
            store=self,
        )

    def _capture_value(
        self, cached: Optional[_CachedKey], key: Any, value: Any, scalar: Any
    ) -> _CachedKey:
        """Dirty tracking for one blob: scalar compare, then byte compare.

        ``value`` is what gets pickled: a state value, one chunk of a
        chunked container, or a whole aliased state.  ``scalar`` stands
        in for it in the equality check (a chunk's item tuple).  A clean
        trusted scalar costs no pickling or hashing; unchanged bytes
        reuse the cached page hashes without re-hashing.
        """
        if cached is not None and cached.value is not _OPAQUE and _scalars_equal(cached.value, scalar):
            self._cap_clean += 1
            return cached
        blob = _serialize(key, value)
        self._cap_serialized += len(blob)
        if cached is not None and blob == cached.blob:
            return cached
        hashes: List[str] = []
        for page in _paginate(blob, self.page_size):
            self._cap_hashed += len(page)
            hashes.append(_page_hash(page))
        return _CachedKey(
            value=scalar if _trusted_scalar(scalar) else _OPAQUE,
            blob=blob,
            hashes=hashes,
        )

    def _capture_chunked(
        self, cached: Optional[_CachedChunked], key: Any, kind: str, value: Any
    ) -> _CachedChunked:
        """Capture a chunked container against its cached chunk versions.

        Chunk layouts are pure functions of the content, so cached chunk
        ``i`` is compared against current chunk ``i``; when the chunk
        count changed (the container roughly doubled) the misaligned
        chunks simply come out dirty.
        """
        value_chunks, order_chunks = chunk_items(kind, value, self.chunk_elems)
        prior_chunks = cached.chunks if cached is not None else []
        prior_order = cached.order if cached is not None else []
        clean = self._cap_clean
        chunks = [
            self._capture_value(
                prior_chunks[index] if index < len(prior_chunks) else None, key, items, tuple(items)
            )
            for index, items in enumerate(value_chunks)
        ]
        order = [
            self._capture_value(
                prior_order[index] if index < len(prior_order) else None, key, items, tuple(items)
            )
            for index, items in enumerate(order_chunks)
        ]
        self.chunks_captured_total += len(chunks) + len(order)
        self.chunks_clean_total += self._cap_clean - clean
        return _CachedChunked(kind=kind, chunks=chunks, order=order)

    def _reference_pages(
        self, entries: Dict[Any, Union[_CachedKey, _CachedChunked]]
    ) -> Tuple[int, int, int]:
        """Add one reference per page of ``entries``, materializing missing pages.

        Returns the capture's total, new and new-page counts.  A clean
        key's pages may have been freed since they were cached (every
        capture that referenced them was released); they are re-derived
        from the cached bytes rather than treated as a cache hit on
        missing data.
        """
        total_bytes = new_bytes = new_pages = 0
        for entry in entries.values():
            for blob_entry in (entry,) if type(entry) is _CachedKey else entry.chunks + entry.order:
                total_bytes += len(blob_entry.blob)
                pages_by_hash = None
                for digest in blob_entry.hashes:
                    if digest not in self._pages:
                        if pages_by_hash is None:
                            pages_by_hash = {
                                _page_hash(page): page
                                for page in _paginate(blob_entry.blob, self.page_size)
                            }
                        page = pages_by_hash[digest]
                        self._pages[digest] = page
                        new_bytes += len(page)
                        new_pages += 1
                    self._page_refs[digest] = self._page_refs.get(digest, 0) + 1
        return total_bytes, new_bytes, new_pages

    # ------------------------------------------------------------------
    # restore
    # ------------------------------------------------------------------
    def restore(self, checkpoint: CowCheckpoint) -> Dict[str, Any]:
        """Reconstruct the state dictionary referenced by ``checkpoint``.

        Every call unpickles from the page store, so each returned state
        is a fresh object graph no other caller holds — a restore needs
        no defensive copy.  A released capture raises
        :class:`~repro.errors.CheckpointError`, even when other captures
        still hold its pages.
        """
        if checkpoint.released:
            raise CheckpointError(
                f"checkpoint of {checkpoint.pid!r} at t={checkpoint.time} was released"
            )
        state: Dict[str, Any] = {}
        for key, entry in checkpoint.entries.items():
            if type(entry) is _CachedKey:
                value = self._load(checkpoint, entry)
                if key is _WHOLE_STATE:
                    return value
                state[key] = value
                continue
            chunks = [self._load(checkpoint, chunk) for chunk in entry.chunks]
            order_keys: List[Any] = []
            for chunk in entry.order:
                order_keys.extend(self._load(checkpoint, chunk))
            state[key] = assemble_chunked(entry.kind, chunks, order_keys)
        return state

    def _load(self, checkpoint: CowCheckpoint, entry: _CachedKey) -> Any:
        try:
            blob = b"".join([self._pages[digest] for digest in entry.hashes])
        except KeyError as exc:
            raise CheckpointError(
                f"page {exc.args[0]!r} referenced by the checkpoint of {checkpoint.pid!r} "
                f"at t={checkpoint.time} is missing from the store"
            ) from None
        return pickle.loads(blob)

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def stored_bytes(self) -> int:
        """Total unique page bytes held by the store."""
        return sum(len(page) for page in self._pages.values())

    def stored_pages(self) -> int:
        return len(self._pages)

    def logical_bytes(self) -> int:
        """Sum of the full sizes of every unreleased capture (what full copies would cost)."""
        return self._logical_bytes

    def savings_ratio(self) -> float:
        """1 - stored/logical: how much the COW store saved versus full copies."""
        logical = self.logical_bytes()
        if logical == 0:
            return 0.0
        return 1.0 - (self.stored_bytes() / logical)

    # ------------------------------------------------------------------
    # garbage collection
    # ------------------------------------------------------------------
    def release(self, checkpoint: CowCheckpoint) -> int:
        """Drop ``checkpoint``'s page references; returns pages freed.

        Only the pages no other capture references are freed, so the
        cost is proportional to the released capture, not to the store.
        Releasing a capture twice frees nothing.
        """
        if checkpoint.released:
            return 0
        checkpoint.released = True
        self._logical_bytes -= checkpoint.total_bytes
        freed = 0
        for digest in checkpoint.page_hashes:
            remaining = self._page_refs.get(digest, 0) - 1
            if remaining > 0:
                self._page_refs[digest] = remaining
            else:
                self._page_refs.pop(digest, None)
                if self._pages.pop(digest, None) is not None:
                    freed += 1
        return freed


def full_checkpoint_bytes(state: Dict[str, Any]) -> int:
    """Cost of a traditional full checkpoint of ``state`` (for comparisons)."""
    return len(_serialize(_WHOLE_STATE, state))
