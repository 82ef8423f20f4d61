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

Garbage collection is incremental: every page carries a reference count
(one per checkpoint that references it), so dropping old checkpoints
releases exactly their newly unreferenced pages in time proportional to
the dropped checkpoints — not to the whole store.

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


def _serialize_state(state: Dict[str, Any]) -> bytes:
    """Stable serialization of a whole state dictionary (full-copy baseline)."""
    try:
        return pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:  # unpicklable application state is a hard error
        raise CheckpointError(f"process state is not serializable: {exc}") from exc


def _serialize_value(key: str, value: Any) -> bytes:
    """Stable serialization of one state value (or one chunk of it)."""
    try:
        return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise CheckpointError(
            f"process state key {key!r} is not serializable: {exc}"
        ) from exc


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


def chunk_items(
    kind: str, value: Any, chunk_elems: int, order_elems: int
) -> Tuple[List[list], List[list]]:
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


@dataclass
class KeyLayout:
    """How one state key's pages decompose into chunks inside a checkpoint."""

    kind: str                      # "whole" | "list" | "dict" | "set"
    chunks: List[List[str]]        # per-chunk page-hash lists
    order: List[List[str]] = field(default_factory=list)  # dict key-order chunks

    def all_hashes(self) -> List[str]:
        return [digest for hashes in self.chunks for digest in hashes] + [
            digest for hashes in self.order for digest in hashes
        ]


@dataclass
class CowCheckpoint:
    """An incremental checkpoint: page hashes per state key plus metadata.

    The actual page bytes live in the :class:`CowPageStore`; a checkpoint
    only references them, which is what makes checkpoints after small
    mutations cheap.
    """

    pid: str
    sequence: int
    time: float
    page_hashes: List[str]
    total_bytes: int
    new_bytes: int
    new_pages: int
    extra: Dict[str, Any] = field(default_factory=dict)
    #: page hashes grouped per state key in the state's iteration order;
    #: ``None`` only for legacy whole-blob checkpoints.
    key_pages: Optional[Dict[str, List[str]]] = None
    #: bytes actually hashed while capturing this checkpoint (dirty chunks only)
    hashed_bytes: int = 0
    #: bytes actually pickled while capturing this checkpoint
    serialized_bytes: int = 0
    #: chunk decomposition per state key; ``None`` for whole-blob checkpoints.
    key_layouts: Optional[Dict[str, KeyLayout]] = None
    #: the capture's cached chunk entries per state key — the exact
    #: pickled bytes (and, once learned, durable addresses) this
    #: checkpoint's pages were derived from.  Entries are shared with
    #: neighbouring checkpoints when clean, so holding them costs what
    #: the page store already pays; ``None`` for whole-blob checkpoints.
    chunk_cache: Optional[Dict[Any, Union["_CachedKey", "_CachedChunked"]]] = None

    @property
    def pages(self) -> int:
        return len(self.page_hashes)

    @property
    def sharing_ratio(self) -> float:
        """Fraction of this checkpoint's bytes shared with earlier checkpoints."""
        if self.total_bytes == 0:
            return 1.0
        return 1.0 - (self.new_bytes / self.total_bytes)


class CowPageStore:
    """A content-addressed page store with per-process checkpoint chains.

    Pages are reference-counted: each checkpoint referencing a page holds
    one reference per occurrence, so garbage collection after
    :meth:`drop_before` releases pages incrementally instead of
    re-deriving the full reachable set.

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
        order_elems: Optional[int] = None,
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
        # key-order vectors hold small scalars, so they pack denser
        self.order_elems = order_elems if order_elems is not None else chunk_elems * 8
        self._pages: Dict[str, bytes] = {}
        self._page_refs: Dict[str, int] = {}
        self._checkpoints: Dict[str, List[CowCheckpoint]] = {}
        self._sequence: Dict[str, int] = {}
        #: pid -> key -> last captured version (the dirty-tracking cache)
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
        if _has_top_level_aliasing(state):
            return self._capture_whole(pid, state, time, extra)
        cache = self._key_cache.get(pid, {})
        next_cache: Dict[Any, Union[_CachedKey, _CachedChunked]] = {}
        key_layouts: Dict[str, KeyLayout] = {}
        total_bytes = 0
        new_bytes = 0
        new_pages = 0
        self._cap_hashed = 0
        self._cap_serialized = 0

        for key, value in state.items():
            cached = cache.get(key)
            kind = chunk_kind(value, self.chunk_threshold)
            if kind is None:
                plain = cached if isinstance(cached, _CachedKey) else None
                entry = self._capture_plain(plain, key, value)
                next_cache[key] = entry
                key_layouts[key] = KeyLayout(kind="whole", chunks=[entry.hashes])
                total_bytes += len(entry.blob)
                new_bytes, new_pages = self._reference_pages(entry, new_bytes, new_pages)
            else:
                chunked = (
                    cached
                    if isinstance(cached, _CachedChunked) and cached.kind == kind
                    else None
                )
                entry = self._capture_chunked(chunked, key, kind, value)
                next_cache[key] = entry
                key_layouts[key] = KeyLayout(
                    kind=kind,
                    chunks=[chunk.hashes for chunk in entry.chunks],
                    order=[chunk.hashes for chunk in entry.order],
                )
                for chunk in entry.chunks:
                    total_bytes += len(chunk.blob)
                    new_bytes, new_pages = self._reference_pages(chunk, new_bytes, new_pages)
                for chunk in entry.order:
                    total_bytes += len(chunk.blob)
                    new_bytes, new_pages = self._reference_pages(chunk, new_bytes, new_pages)

        key_pages = {key: layout.all_hashes() for key, layout in key_layouts.items()}
        self._key_cache[pid] = next_cache
        self.hashed_bytes_total += self._cap_hashed
        self.serialized_bytes_total += self._cap_serialized
        self._sequence[pid] = self._sequence.get(pid, 0) + 1
        checkpoint = CowCheckpoint(
            pid=pid,
            sequence=self._sequence[pid],
            time=time,
            page_hashes=[digest for hashes in key_pages.values() for digest in hashes],
            total_bytes=total_bytes,
            new_bytes=new_bytes,
            new_pages=new_pages,
            extra=dict(extra),
            key_pages=key_pages,
            hashed_bytes=self._cap_hashed,
            serialized_bytes=self._cap_serialized,
            key_layouts=key_layouts,
            chunk_cache=next_cache,
        )
        self._checkpoints.setdefault(pid, []).append(checkpoint)
        return checkpoint

    def _capture_plain(
        self, cached: Optional[_CachedKey], key: Any, value: Any
    ) -> _CachedKey:
        """Dirty tracking for one unchunked value: scalar compare, then byte compare."""
        if cached is not None and cached.value is not _OPAQUE and _scalars_equal(cached.value, value):
            return cached  # clean scalar: no pickling, no hashing
        blob = _serialize_value(key, value)
        self._cap_serialized += len(blob)
        if cached is not None and blob == cached.blob:
            return cached  # unchanged bytes: reuse hashes, skip hashing
        hashes: List[str] = []
        for page in _paginate(blob, self.page_size):
            self._cap_hashed += len(page)
            hashes.append(_page_hash(page))
        return _CachedKey(
            value=value if _trusted_scalar(value) else _OPAQUE,
            blob=blob,
            hashes=hashes,
        )

    def _capture_chunk(
        self, cached: Optional[_CachedKey], key: Any, items: list
    ) -> _CachedKey:
        """Dirty tracking for one chunk: its item tuple plays the scalar role."""
        self.chunks_captured_total += 1
        items_t = tuple(items)
        if (
            cached is not None
            and cached.value is not _OPAQUE
            and _scalars_equal(cached.value, items_t)
        ):
            self.chunks_clean_total += 1
            return cached  # clean chunk: no pickling, no hashing
        blob = _serialize_value(key, items)
        self._cap_serialized += len(blob)
        if cached is not None and blob == cached.blob:
            return cached
        hashes: List[str] = []
        for page in _paginate(blob, self.page_size):
            self._cap_hashed += len(page)
            hashes.append(_page_hash(page))
        return _CachedKey(
            value=items_t if _trusted_scalar(items_t) else _OPAQUE,
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
        value_chunks, order_chunks = chunk_items(kind, value, self.chunk_elems, self.order_elems)
        prior_chunks = cached.chunks if cached is not None else []
        prior_order = cached.order if cached is not None else []
        chunks = [
            self._capture_chunk(
                prior_chunks[index] if index < len(prior_chunks) else None, key, items
            )
            for index, items in enumerate(value_chunks)
        ]
        order = [
            self._capture_chunk(
                prior_order[index] if index < len(prior_order) else None, key, items
            )
            for index, items in enumerate(order_chunks)
        ]
        return _CachedChunked(kind=kind, chunks=chunks, order=order)

    def _capture_whole(self, pid: str, state: Dict[str, Any], time: float, extra: Dict[str, Any]) -> CowCheckpoint:
        """Whole-dict capture for aliased states (legacy layout, key_pages=None).

        Dirty tracking still applies at the whole-state granularity: if
        the serialized bytes match the previous whole-state capture, the
        cached page hashes are reused without re-hashing.
        """
        cache = self._key_cache.get(pid, {})
        cached = cache.get(_WHOLE_STATE)
        blob = _serialize_state(state)
        serialized_bytes = len(blob)
        hashed_bytes = 0
        if isinstance(cached, _CachedKey) and blob == cached.blob:
            entry = cached
        else:
            hashes: List[str] = []
            for page in _paginate(blob, self.page_size):
                hashed_bytes += len(page)
                hashes.append(_page_hash(page))
            entry = _CachedKey(value=_OPAQUE, blob=blob, hashes=hashes)
        self._key_cache[pid] = {_WHOLE_STATE: entry}
        self.hashed_bytes_total += hashed_bytes
        self.serialized_bytes_total += serialized_bytes
        new_bytes, new_pages = self._reference_pages(entry, 0, 0)
        self._sequence[pid] = self._sequence.get(pid, 0) + 1
        checkpoint = CowCheckpoint(
            pid=pid,
            sequence=self._sequence[pid],
            time=time,
            page_hashes=list(entry.hashes),
            total_bytes=len(blob),
            new_bytes=new_bytes,
            new_pages=new_pages,
            extra=dict(extra),
            key_pages=None,
            hashed_bytes=hashed_bytes,
            serialized_bytes=serialized_bytes,
            key_layouts=None,
        )
        self._checkpoints.setdefault(pid, []).append(checkpoint)
        return checkpoint

    def _reference_pages(self, entry: _CachedKey, new_bytes: int, new_pages: int) -> tuple:
        """Add one reference per page of ``entry``, materializing missing pages.

        A clean key's pages may have been garbage-collected since they
        were cached (the chain that referenced them was dropped); they
        are re-derived from the cached bytes rather than treated as a
        cache hit on missing data.
        """
        pages_by_hash = None
        for digest in entry.hashes:
            if digest not in self._pages:
                if pages_by_hash is None:
                    pages_by_hash = {
                        _page_hash(page): page for page in _paginate(entry.blob, self.page_size)
                    }
                page = pages_by_hash[digest]
                self._pages[digest] = page
                new_bytes += len(page)
                new_pages += 1
            self._page_refs[digest] = self._page_refs.get(digest, 0) + 1
        return new_bytes, new_pages

    # ------------------------------------------------------------------
    # restore
    # ------------------------------------------------------------------
    def restore(self, checkpoint: CowCheckpoint) -> Dict[str, Any]:
        """Reconstruct the state dictionary referenced by ``checkpoint``."""
        if checkpoint.key_pages is None:
            blob = self._join_pages(checkpoint, checkpoint.page_hashes)
            return pickle.loads(blob)
        state: Dict[str, Any] = {}
        layouts = checkpoint.key_layouts or {
            key: KeyLayout(kind="whole", chunks=[hashes])
            for key, hashes in checkpoint.key_pages.items()
        }
        for key, layout in layouts.items():
            if layout.kind == "whole":
                state[key] = pickle.loads(self._join_pages(checkpoint, layout.chunks[0]))
                continue
            chunks = [
                pickle.loads(self._join_pages(checkpoint, hashes)) for hashes in layout.chunks
            ]
            order_keys: List[Any] = []
            for hashes in layout.order:
                order_keys.extend(pickle.loads(self._join_pages(checkpoint, hashes)))
            state[key] = assemble_chunked(layout.kind, chunks, order_keys)
        return state

    def _join_pages(self, checkpoint: CowCheckpoint, hashes: List[str]) -> bytes:
        try:
            return b"".join(self._pages[digest] for digest in hashes)
        except KeyError as exc:
            raise CheckpointError(
                f"page {exc.args[0]!r} referenced by checkpoint {checkpoint.sequence} "
                f"of {checkpoint.pid!r} is missing from the store"
            ) from None

    def latest(self, pid: str) -> Optional[CowCheckpoint]:
        chain = self._checkpoints.get(pid)
        return chain[-1] if chain else None

    def chain(self, pid: str) -> List[CowCheckpoint]:
        """All incremental checkpoints of ``pid`` in capture order."""
        return list(self._checkpoints.get(pid, ()))

    def chunk_sources(
        self, pid: str, sequence: Any
    ) -> Optional[Dict[Any, Union[_CachedKey, _CachedChunked]]]:
        """The cached chunk entries of the capture stamped ``sequence``.

        ``sequence`` is the *process-checkpoint* sequence the policy
        recorded in the capture's ``extra`` (not the COW store's own
        counter).  This is what the durable store consumes to flush a
        committed line without re-pickling: each entry holds the exact
        bytes the capture serialized, plus the durable address once the
        store has learned it.  Returns ``None`` when no matching capture
        is held (dropped, whole-blob, or never routed through this
        store) — the durable flush then falls back to re-chunking.
        """
        if sequence is None:
            return None
        for checkpoint in reversed(self._checkpoints.get(pid, ())):
            if checkpoint.extra.get("sequence") == sequence:
                return checkpoint.chunk_cache
        return None

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def stored_bytes(self) -> int:
        """Total unique page bytes held by the store."""
        return sum(len(page) for page in self._pages.values())

    def stored_pages(self) -> int:
        return len(self._pages)

    def logical_bytes(self) -> int:
        """Sum of the full sizes of every checkpoint (what full copies would cost)."""
        return sum(
            checkpoint.total_bytes
            for chain in self._checkpoints.values()
            for checkpoint in chain
        )

    def savings_ratio(self) -> float:
        """1 - stored/logical: how much the COW store saved versus full copies."""
        logical = self.logical_bytes()
        if logical == 0:
            return 0.0
        return 1.0 - (self.stored_bytes() / logical)

    # ------------------------------------------------------------------
    # garbage collection
    # ------------------------------------------------------------------
    def drop_before(self, pid: str, sequence: int) -> int:
        """Forget checkpoints of ``pid`` older than ``sequence``; returns pages freed.

        Reference counts make this incremental: only the dropped
        checkpoints' own references are released, so the cost is
        proportional to what was dropped rather than to the whole store.
        """
        chain = self._checkpoints.get(pid, [])
        dropped = [c for c in chain if c.sequence < sequence]
        self._checkpoints[pid] = [c for c in chain if c.sequence >= sequence]
        freed = 0
        for checkpoint in dropped:
            freed += self._release_pages(checkpoint.page_hashes)
        return freed

    def drop_checkpoint(self, pid: str, sequence: int) -> int:
        """Forget exactly one checkpoint of ``pid``; returns pages freed.

        Releases only that checkpoint's references, leaving every other
        checkpoint of the chain (e.g. periodic or communication-induced
        ones interleaved with it) restorable.  Dropping an unknown
        sequence is a no-op.
        """
        chain = self._checkpoints.get(pid, [])
        for index, checkpoint in enumerate(chain):
            if checkpoint.sequence == sequence:
                del chain[index]
                return self._release_pages(checkpoint.page_hashes)
        return 0

    def _release_pages(self, hashes: List[str]) -> int:
        """Drop one reference per page hash; free pages that hit zero."""
        freed = 0
        for digest in hashes:
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
    return len(_serialize_state(state))
