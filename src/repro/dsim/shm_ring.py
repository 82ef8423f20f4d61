"""Zero-copy shared-memory ring transport for the multiprocessing backend.

The batched pipe transport (PR 3) made the mp substrate ~2x faster, but
every batch still pays a full ``pickle`` of its message list plus two
kernel copies through a 64 KiB pipe.  On hot fan-in workloads (many
workers funnelling results into one process) that serialization is the
dominant cost — and TFix+-style production diagnosis only works if the
recording substrate is cheap enough to leave on.  This module removes
pickle from the hot path entirely:

* :class:`SpscRing` — a single-producer/single-consumer byte ring over
  one ``multiprocessing.shared_memory.SharedMemory`` segment, carrying
  length-prefixed frames with explicit wraparound.  The head and tail
  cursors are published through a compact seqlock (sequence word +
  value word, writer bumps the sequence to odd, writes, bumps to even;
  readers retry on a torn or in-progress read), so neither side ever
  takes a lock or makes a syscall to move data.  Writes block with
  timeout when the ring is full — that is the transport's backpressure.

* the **frame codec** of :mod:`repro.dsim.wire` — the two hot item
  shapes (worker ``flush`` logs and router ``batch`` deliveries) are
  marshal-packed flat tuples; only payloads that are not builtin values
  fall back to a pickled frame.  :mod:`struct` does the fixed-layout
  work here — length prefixes, the wraparound marker, seqlock cursors —
  and the reader decodes straight out of the shared segment via
  ``memoryview`` (no kernel copies; the common wordcount/kvstore traffic
  never touches ``pickle`` at all).

* **control plane on the pipe** — only order-insensitive control
  traffic (probes and acks, stop, results) travels on the existing
  duplex pipe; every data item — and the crash/recover control whose
  order relative to deliveries is observable — takes the ring, with
  oversize frames flowing as bounded chunks the receiver reassembles in
  place.
  The single ring FIFO therefore remains the one serialization point
  for a worker's observable log, which is what the ordered single-log
  flush protocol requires.  After committing ring frames a sender ships
  a one-byte pipe *nudge* (coalesced to at most one outstanding) so a
  receiver asleep in ``select`` wakes immediately — ring writes alone
  are invisible to it.

Lifecycle: the parent creates both segments of a :class:`RingPair` and
is the only side that ever unlinks them.  Workers attach by name and
immediately drop the extra ``resource_tracker`` registration CPython
adds on attach (the segment belongs to the parent; without the
unregister every worker exit is reported as a leak).  The parent guards
against abnormal exits with a pid-guarded ``atexit`` hook plus
``weakref.finalize`` — covering normal exit, worker crash and parent
interpreter death; a SIGKILL'd parent is covered by the resource
tracker itself, which outlives it and unlinks registered segments.

This module is backend-internal: importable only from ``repro.dsim``
(see the ``scripts/check.sh`` boundary guard); benchmarks that measure
the transport itself may opt in with a ``# facade-ok`` marker.
"""

from __future__ import annotations

import atexit
import os
import pickle
import struct
import time
import weakref
from multiprocessing import resource_tracker, shared_memory
from typing import Callable, Dict, List, Optional, Tuple

from repro.dsim.wire import (
    F_CHUNK,
    PICKLE_PROTO,
    TransportError,
    decode_item,
    encode_item,
    new_stats,
)

#: ring geometry: two seqlock cursors a cache line apart, then the data
_TAIL_OFFSET = 0
_HEAD_OFFSET = 64
_DATA_OFFSET = 128
_WRAP = 0xFFFFFFFF  # length sentinel: "rest of the ring is padding"

#: per-direction ring capacity
DEFAULT_RING_BYTES = 1 << 20
#: frames larger than capacity // OVERSIZE_DIVISOR spill to the pipe
OVERSIZE_DIVISOR = 4
#: one-byte framed wakeup shipped on the pipe after ring writes
_NUDGE = b"\x00"


class RingBackpressureTimeout(TransportError):
    """A ring write waited past its timeout (consumer stuck or gone)."""


# ----------------------------------------------------------------------
# seqlock cursors
# ----------------------------------------------------------------------
class _SeqCursor:
    """One monotonically increasing u64 published through a seqlock.

    Exactly one side writes the cursor; the other only reads.  Python
    cannot issue atomic stores, so the writer brackets the value store
    with sequence-word bumps (odd = write in progress) and the reader
    retries until it observes a stable, even sequence.  On x86's total
    store order this is sufficient; the retry loop also absorbs any
    torn 8-byte read.
    """

    __slots__ = ("_buf", "_offset")

    def __init__(self, buf, offset: int) -> None:
        self._buf = buf
        self._offset = offset

    def store(self, value: int) -> None:
        buf, offset = self._buf, self._offset
        (seq,) = struct.unpack_from("<Q", buf, offset)
        struct.pack_into("<Q", buf, offset, seq + 1)
        struct.pack_into("<Q", buf, offset + 8, value)
        struct.pack_into("<Q", buf, offset, seq + 2)

    def load(self) -> int:
        buf, offset = self._buf, self._offset
        # fast path: an uncontended read stabilises on the first try
        for _ in range(64):
            (seq_before,) = struct.unpack_from("<Q", buf, offset)
            (value,) = struct.unpack_from("<Q", buf, offset + 8)
            (seq_after,) = struct.unpack_from("<Q", buf, offset)
            if seq_before == seq_after and not (seq_before & 1):
                return value
        # Contended: the writer may simply be descheduled mid-store (a
        # live peer on a loaded single-core box), so *yield* between
        # retries — spinning would burn exactly the CPU the writer needs
        # to finish publishing.  Only after a generous wall deadline do
        # we conclude the writer died mid-store (seq left odd forever)
        # and raise, keeping the reader's worker-lost path live instead
        # of hanging it here.
        deadline = time.monotonic() + 1.0
        while time.monotonic() < deadline:
            time.sleep(50e-6)
            (seq_before,) = struct.unpack_from("<Q", buf, offset)
            (value,) = struct.unpack_from("<Q", buf, offset + 8)
            (seq_after,) = struct.unpack_from("<Q", buf, offset)
            if seq_before == seq_after and not (seq_before & 1):
                return value
        raise TransportError(
            "ring cursor never stabilised: the peer died mid-publish"
        )


# ----------------------------------------------------------------------
# the SPSC ring
# ----------------------------------------------------------------------
class SpscRing:
    """Length-prefixed frames in a shared-memory byte ring (SPSC).

    ``head`` and ``tail`` are free-running byte counters (they include
    wrap padding); ``counter % capacity`` is the buffer offset.  Frames
    are always stored contiguously: a frame that would straddle the end
    of the buffer is preceded by a ``_WRAP`` marker (or, when fewer than
    four bytes remain, by implicit padding both sides skip by rule), so
    the consumer can always hand the codec one contiguous
    ``memoryview``.
    """

    def __init__(self, buf, capacity: int) -> None:
        self._buf = buf
        self.capacity = capacity
        self._tail = _SeqCursor(buf, _TAIL_OFFSET)
        self._head = _SeqCursor(buf, _HEAD_OFFSET)
        # producer-local mirror of tail / consumer-local mirror of head;
        # each side also caches the *other* cursor to avoid re-reading
        # the seqlock when there is obviously room/data.
        self._tail_local = self._tail.load()
        self._head_local = self._head.load()

    # -- producer ----------------------------------------------------------
    def try_write(self, payload) -> bool:
        size = len(payload)
        if 4 + size > self.capacity:
            raise TransportError(
                f"frame of {size} bytes exceeds ring capacity {self.capacity}; "
                "oversize frames must spill to the pipe"
            )
        tail = self._tail_local
        position = tail % self.capacity
        room = self.capacity - position
        pad = room if room < 4 + size else 0
        needed = pad + 4 + size
        if self.capacity - (tail - self._head_local) < needed:
            self._head_local = self._head.load()
            if self.capacity - (tail - self._head_local) < needed:
                return False
        buf = self._buf
        if pad:
            if room >= 4:
                struct.pack_into("<I", buf, _DATA_OFFSET + position, _WRAP)
            tail += pad
            position = 0
        struct.pack_into("<I", buf, _DATA_OFFSET + position, size)
        start = _DATA_OFFSET + position + 4
        buf[start:start + size] = payload
        tail += 4 + size
        self._tail_local = tail
        self._tail.store(tail)
        return True

    def write(
        self,
        payload,
        timeout: Optional[float] = None,
        abort: Optional[Callable[[], bool]] = None,
        on_wait: Optional[Callable[[], None]] = None,
    ) -> bool:
        """Write with blocking backpressure; False on timeout/abort.

        ``on_wait`` runs on every wait iteration *instead of* the
        exponential sleep — the router hangs its drain-the-uplinks loop
        here, which is what lets it write rings directly (threadless)
        without a deadlock: waiting for space actively frees the peer.
        """
        if self.try_write(payload):
            return True
        deadline = None if timeout is None else time.monotonic() + timeout
        pause = 50e-6
        while True:
            if abort is not None and abort():
                return False
            if on_wait is not None:
                on_wait()
            if self.try_write(payload):
                return True
            if deadline is not None and time.monotonic() >= deadline:
                return False
            if on_wait is None:
                time.sleep(pause)
                pause = min(pause * 2, 0.002)

    def consumer_progress(self) -> int:
        """The consumer's published head (producer side; nudge coalescing)."""
        return self._head.load()

    # -- consumer ----------------------------------------------------------
    def readable(self) -> bool:
        if self._head_local < self._tail_local:
            return True
        self._tail_local = self._tail.load()
        return self._head_local < self._tail_local

    def read(self, handler) -> int:
        """Feed every complete frame to ``handler`` as a zero-copy view.

        ``handler(view)`` must return True to consume the frame (its
        view is only valid during the call — the space is reused as soon
        as the head advances) or False to leave it unconsumed and stop —
        the spill protocol's "wait for the out-of-band item" signal.
        Returns the number of frames consumed.
        """
        tail = self._tail.load()
        self._tail_local = tail
        head = self._head_local
        buf = self._buf
        consumed = 0
        while head < tail:
            position = head % self.capacity
            room = self.capacity - position
            if room < 4:
                head += room
                continue
            (size,) = struct.unpack_from("<I", buf, _DATA_OFFSET + position)
            if size == _WRAP:
                head += room
                continue
            start = _DATA_OFFSET + position + 4
            frame = buf[start:start + size]
            try:
                keep_going = handler(frame)
            finally:
                if isinstance(frame, memoryview):
                    frame.release()
            if not keep_going:
                break
            head += 4 + size
            consumed += 1
            # publish per frame so a blocked producer unblocks promptly
            self._head_local = head
            self._head.store(head)
        self._head_local = head
        self._head.store(head)
        return consumed


# ----------------------------------------------------------------------
# shared-memory segment lifecycle
# ----------------------------------------------------------------------
def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without a resource_tracker entry.

    On POSIX CPython registers a segment with the resource tracker on
    *attach* as well as on create.  The segment belongs to the creating
    parent (the only side that unlinks), so a worker registration is
    spurious: under ``fork`` the worker shares the parent's tracker and
    an unregister-after-attach would erase the *parent's* entry, while
    leaving it in place makes every worker exit report a leak.  The
    clean fix is to never register — suppress ``register`` for the
    duration of the attach (Python 3.13 formalises this as
    ``track=False``).
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)  # type: ignore[call-arg]
    except TypeError:  # Python < 3.13
        pass
    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


_LIVE_SEGMENTS: Dict[int, Tuple[int, shared_memory.SharedMemory]] = {}
_atexit_installed = False


def _cleanup_segment(key: int) -> None:
    entry = _LIVE_SEGMENTS.pop(key, None)
    if entry is None:
        return
    owner_pid, shm = entry
    if os.getpid() != owner_pid:
        # a forked child inherited the registry; the segment is not ours
        return
    try:
        shm.close()
    except Exception:  # pragma: no cover - already closed
        pass
    try:
        shm.unlink()
    except Exception:  # pragma: no cover - already unlinked
        pass


def _atexit_cleanup() -> None:  # pragma: no cover - interpreter shutdown
    for key in list(_LIVE_SEGMENTS):
        _cleanup_segment(key)


def _register_segment(shm: shared_memory.SharedMemory) -> int:
    global _atexit_installed
    if not _atexit_installed:
        atexit.register(_atexit_cleanup)
        _atexit_installed = True
    key = id(shm)
    _LIVE_SEGMENTS[key] = (os.getpid(), shm)
    return key


class RingPair:
    """Both rings of one worker link (parent side owns the segments)."""

    def __init__(self, ring_bytes: int = DEFAULT_RING_BYTES) -> None:
        if ring_bytes < 4096:
            raise TransportError("ring_bytes must be at least 4096")
        size = _DATA_OFFSET + ring_bytes
        self.ring_bytes = ring_bytes
        self._down_shm = shared_memory.SharedMemory(create=True, size=size)
        self._up_shm = shared_memory.SharedMemory(create=True, size=size)
        for shm in (self._down_shm, self._up_shm):
            shm.buf[:_DATA_OFFSET] = b"\x00" * _DATA_OFFSET
        self._keys = [_register_segment(self._down_shm), _register_segment(self._up_shm)]
        self._finalizer = weakref.finalize(
            self, _finalize_keys, tuple(self._keys)
        )
        self.down_ring = SpscRing(self._down_shm.buf, ring_bytes)  # parent -> worker
        self.up_ring = SpscRing(self._up_shm.buf, ring_bytes)      # worker -> parent
        self.segment_names = (self._down_shm.name, self._up_shm.name)

    def child_handle(self) -> "RingHandle":
        return RingHandle(self._down_shm.name, self._up_shm.name, self.ring_bytes)

    def close(self) -> None:
        """Close and unlink both segments (parent side, idempotent)."""
        self._finalizer.detach()
        for key in self._keys:
            _cleanup_segment(key)


def _finalize_keys(keys: Tuple[int, ...]) -> None:
    for key in keys:
        _cleanup_segment(key)


class RingHandle:
    """Picklable description a worker uses to attach to its ring pair."""

    def __init__(self, down_name: str, up_name: str, ring_bytes: int) -> None:
        self.down_name = down_name
        self.up_name = up_name
        self.ring_bytes = ring_bytes

    def attach(self) -> Tuple[SpscRing, SpscRing, Callable[[], None]]:
        """Attach both rings; returns (down, up, close_fn)."""
        down_shm = _attach_untracked(self.down_name)
        up_shm = _attach_untracked(self.up_name)

        def close() -> None:
            for shm in (down_shm, up_shm):
                try:
                    shm.close()
                except Exception:  # pragma: no cover - already closed
                    pass

        return (
            SpscRing(down_shm.buf, self.ring_bytes),
            SpscRing(up_shm.buf, self.ring_bytes),
            close,
        )


# ----------------------------------------------------------------------
# the endpoint: the surface the shm link and the worker loop code against
# ----------------------------------------------------------------------
class ShmEndpoint:
    """One side of a shared-memory link: outgoing ring + incoming ring + pipe.

    Data items (``flush``/``batch``) are marshal-packed into the
    outgoing ring — oversize frames in bounded chunks the receiver
    reassembles in place, so *all* data takes the one ordered ring FIFO.
    The pipe carries only tiny, bounded control traffic (probes,
    crash/recover, stop, acks, results) and the one-byte wakeup nudges.
    ``write_timeout`` is how long a full ring blocks a writer
    (backpressure) before the frame is treated as undeliverable.
    """

    def __init__(
        self,
        conn,
        send_ring: SpscRing,
        recv_ring: SpscRing,
        close_segments: Optional[Callable[[], None]] = None,
        write_timeout: float = 10.0,
    ) -> None:
        self.conn = conn
        self._send_ring = send_ring
        self._recv_ring = recv_ring
        self._close_segments = close_segments
        self._write_timeout = write_timeout
        #: teardown signal: a blocked ring write re-checks this flag and
        #: gives up immediately, so senders can always be reclaimed
        self.closing = False
        #: invoked while a ring write waits for space — the router hangs
        #: its drain-the-uplinks loop here, which is what keeps direct
        #: (threadless) ring writes deadlock-free
        self.wait_hook: Optional[Callable[[], None]] = None
        self._oversize = send_ring.capacity // OVERSIZE_DIVISOR
        self._chunk_buf = bytearray()
        self._last_nudge_head = -1
        self.stats = new_stats()

    # -- send --------------------------------------------------------------
    def _send_pickled(self, item: Tuple) -> None:
        # order-insensitive control only: probes, stop, acks, results —
        # tiny, bounded-rate items, so a direct blocking write is safe
        # (data and ordered control never ride the pipe on this transport)
        blob = pickle.dumps(item, PICKLE_PROTO)
        self.stats["pipe_items"] += 1
        self.stats["pickled_bytes"] += len(blob)
        self.conn.send_bytes(blob)

    def _nudge(self) -> None:
        """Wake a receiver that may be asleep in ``select``.

        Ring writes are invisible to the pipe wait, so after committing
        frames the sender ships a one-byte wakeup — but only when the
        consumer has made progress since the last nudge: at most one
        wakeup is ever outstanding, so a stalled reader cannot fill the
        pipe with them, and a missed wakeup is bounded by the receive
        loops' 2 ms idle poll.
        """
        try:
            head = self._send_ring.consumer_progress()
        except TransportError:  # peer died mid-publish: detected elsewhere
            return
        if head == self._last_nudge_head:
            return
        self._last_nudge_head = head
        self.stats["nudges"] += 1
        try:
            self.conn.send_bytes(_NUDGE)
        except (BrokenPipeError, OSError):  # peer gone: detected elsewhere
            pass

    def _aborting(self) -> bool:
        return self.closing

    def _write_ring(self, frame) -> None:
        if not self._send_ring.write(
            frame, self._write_timeout, abort=self._aborting, on_wait=self.wait_hook
        ):
            raise RingBackpressureTimeout(
                f"ring write of {len(frame)} bytes timed out after "
                f"{self._write_timeout}s (peer stuck, gone, or tearing down)"
            )
        self.stats["ring_frames"] += 1
        self.stats["ring_bytes"] += len(frame)

    def send(self, item: Tuple) -> None:
        stats = self.stats
        stats["sends"] += 1
        # snapshot the codec counters: a frame whose ring write times out
        # never reached the peer, so it must not count as shipped
        counted = (
            stats["messages_fast"],
            stats["messages_pickled"],
            stats["pickled_bytes"],
        )
        frame = encode_item(item, stats)
        if frame is None:
            self._send_pickled(item)
            return
        try:
            if len(frame) > self._oversize:
                # oversize frames flow through the ring in bounded chunks;
                # backpressure drains the reassembly side between pieces,
                # so arbitrarily large items fit an arbitrarily small ring
                stats["oversize_frames"] += 1
                view = memoryview(frame)
                for cut in range(0, len(frame), self._oversize):
                    part = view[cut:cut + self._oversize]
                    chunk = bytearray(
                        (F_CHUNK, 1 if cut + self._oversize >= len(frame) else 0)
                    )
                    chunk += part
                    self._write_ring(chunk)
            else:
                self._write_ring(frame)
        except TransportError:
            (
                stats["messages_fast"],
                stats["messages_pickled"],
                stats["pickled_bytes"],
            ) = counted
            raise
        self._nudge()

    def send_control(self, item: Tuple) -> None:
        self.stats["sends"] += 1
        self._send_pickled(item)

    # -- receive -----------------------------------------------------------
    def data_ready(self) -> bool:
        return self._recv_ring.readable()

    def poll(self, timeout: float) -> bool:
        """Wait for ring or pipe traffic.

        Senders follow committed ring frames with a pipe nudge, so the
        pipe wait wakes for ring data too; the trailing ``data_ready``
        check catches a frame that raced the wait, and the callers' 2 ms
        idle cadence bounds the cost of a coalesced-away nudge.
        """
        if self.data_ready():
            return True
        if self.conn.poll(timeout):
            return True
        return self.data_ready()

    def _drain_ring(self, items: List[Tuple]) -> None:
        def on_frame(frame) -> bool:
            if frame[0] == F_CHUNK:
                self._chunk_buf += frame[2:]
                if frame[1]:  # last chunk: decode the reassembled frame
                    whole = self._chunk_buf
                    self._chunk_buf = bytearray()
                    items.append(decode_item(whole))
                return True
            items.append(decode_item(frame))
            return True

        self._recv_ring.read(on_frame)

    def drain(self) -> List[Tuple]:
        items: List[Tuple] = []
        control: List[Tuple] = []
        eof = False
        while self.conn.poll(0):
            try:
                blob = self.conn.recv_bytes()
            except EOFError:
                # deliver everything already read (and committed to the
                # ring) first; the next drain() call re-raises the EOF
                eof = True
                break
            if blob == _NUDGE:
                continue  # wakeup only; the data is in the ring
            control.append(pickle.loads(blob))
        self._drain_ring(items)
        # ring data first (it is the ordered log), control after: a
        # "stop" can never outrun deliveries already committed to the ring
        items.extend(control)
        if eof and not items:
            raise EOFError("transport pipe closed")
        return items

    def drain_data(self) -> List[Tuple]:
        """Ring-only drain: salvage frames committed before a peer died.

        A producer publishes its tail only after a frame is fully
        written, so everything this returns is complete — at worst an
        unfinished chunk sequence stays buffered and undelivered.
        """
        items: List[Tuple] = []
        self._drain_ring(items)
        return items

    def close(self) -> None:
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        if self._close_segments is not None:
            self._close_segments()
            self._close_segments = None
