"""Socket framing for the net backend: the wire codec over a byte stream.

The net transport moves the exact frames :mod:`repro.dsim.wire`
defines — marshal-packed flat ``flush``/``batch`` payloads, pickled
control — over TCP or Unix-domain stream sockets.  A stream socket is
an unbounded FIFO of bytes, so the only layer added here is
*length-prefixed framing*:

    [u32 frame length (big endian)] [frame bytes]

where the frame bytes are byte-for-byte what :func:`wire.encode_item`
produces (tag byte + marshal/pickle payload).  Frames larger than
``max_frame_bytes`` are split into the codec's ``F_CHUNK`` pieces
(``[tag][last? u8][part bytes]``) so a receiver's per-frame reassembly
buffer stays bounded no matter what an application ships as a payload.
Sharing the codec keeps the delivery hot path out of ``pickle`` and
keeps the accounting keys (``pickled_bytes`` / ``messages_fast`` /
``nudges`` / ...) identical, so the parity and benchmark plumbing built
for the pipe and shm links applies to sockets unchanged.

Two differences from the ring transport, both simplifications:

* there is no separate control plane — a socket is one ordered stream,
  so probes, acks, results and the hello handshake travel as pickled
  frames *in-line* (crash/recover control is in-stream on shm too, see
  ``wire._ORDERED_CONTROL``), and crash-vs-delivery ordering is free;
* there are no wakeup nudges — ``select`` observes socket data
  directly, so ``stats["nudges"]`` stays 0 by construction.

This module is dsim-internal (enforced by ``scripts/check.sh``): the
public way to run on sockets is ``backend="net"`` on a Scenario or
``Cluster``.
"""

from __future__ import annotations

import os
import select
import socket
import struct
import time as wall_time
from typing import Dict, List, Optional, Tuple

from repro.dsim.wire import (
    F_CHUNK,
    TransportError,
    decode_item,
    encode_item,
    encode_pickled,
    new_stats,
)

#: wire header: one u32 big-endian length per frame
_HEADER = struct.Struct(">I")
HEADER_BYTES = _HEADER.size

#: frames larger than this split into ``F_CHUNK`` pieces on the wire,
#: mirroring the ring's oversize protocol (there it is ``capacity //
#: OVERSIZE_DIVISOR``; a stream has no capacity, so the bound is explicit)
DEFAULT_MAX_FRAME_BYTES = 256 * 1024

#: socket families the net backend can run on
SOCKET_FAMILIES = ("unix", "tcp")


def new_socket_stats() -> Dict[str, int]:
    """The shared transport-accounting dict plus the socket counters.

    A strict superset of :func:`wire.new_stats` so every consumer of
    the common keys (parity suite, benchmarks, Outcome.transport) reads
    socket runs without change; ``socket_writes`` is the net batching
    benchmark's syscall metric (one ``sendall`` per submitted item).
    """
    stats = new_stats()
    stats["socket_writes"] = 0  # sendall calls (the syscall/batching metric)
    stats["socket_bytes"] = 0   # wire bytes written, headers included
    return stats


def encode_wire(
    item: Tuple, stats: Dict[str, int], max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
) -> bytes:
    """Encode one transport item as length-prefixed wire bytes.

    Data items (``flush``/``batch``) take :func:`wire.encode_item`'s
    marshal fast path; everything else — including order-insensitive
    control, which on a stream socket has no separate plane to ride —
    becomes a pickled frame, counted in ``stats`` exactly as the shm
    transport counts its pipe/control traffic.  Oversize frames are
    split into ``F_CHUNK`` pieces, each its own length-prefixed wire
    frame, reassembled transparently by :class:`FrameReassembler`.
    """
    frame = encode_item(item, stats)
    if frame is None:
        frame = encode_pickled(item, stats)
    total = len(frame)
    if total <= max_frame_bytes:
        return _HEADER.pack(total) + frame
    stats["oversize_frames"] += 1
    out = bytearray()
    view = memoryview(frame)
    for cut in range(0, total, max_frame_bytes):
        part = view[cut:cut + max_frame_bytes]
        chunk = bytearray((F_CHUNK, 1 if cut + max_frame_bytes >= total else 0))
        chunk += part
        out += _HEADER.pack(len(chunk))
        out += chunk
    return bytes(out)


class FrameReassembler:
    """Incremental wire decoder: bytes in, decoded transport items out.

    Handles arbitrary read fragmentation — a frame may arrive one byte
    at a time or many frames in one ``recv`` — and reassembles
    ``F_CHUNK`` sequences exactly like the ring receiver does.  Feed
    order is the stream order, so decoded items preserve the sender's
    FIFO.
    """

    def __init__(self) -> None:
        self._buf = bytearray()
        self._chunk_buf = bytearray()

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered waiting for the rest of their frame."""
        return len(self._buf)

    def feed(self, data) -> List[Tuple]:
        """Absorb ``data`` and return every item it completes, in order."""
        buf = self._buf
        buf += data
        items: List[Tuple] = []
        offset = 0
        limit = len(buf)
        while limit - offset >= HEADER_BYTES:
            (length,) = _HEADER.unpack_from(buf, offset)
            if length < 1:
                raise TransportError("corrupt wire frame: zero-length frame")
            end = offset + HEADER_BYTES + length
            if end > limit:
                break  # partial frame: wait for more bytes
            frame = bytes(buf[offset + HEADER_BYTES:end])
            offset = end
            if frame[0] == F_CHUNK:
                self._chunk_buf += frame[2:]
                if frame[1]:  # last chunk: decode the reassembled frame
                    whole = self._chunk_buf
                    self._chunk_buf = bytearray()
                    items.append(decode_item(whole))
            else:
                items.append(decode_item(frame))
        if offset:
            del buf[:offset]
        return items


def listen_socket(
    family: str,
    path: Optional[str] = None,
    buffer_bytes: Optional[int] = None,
) -> Tuple[socket.socket, object]:
    """Create a listening router socket; returns ``(socket, address)``.

    ``family="unix"`` binds ``path`` (the returned address); ``"tcp"``
    binds an ephemeral loopback port (the address is the
    ``(host, port)`` tuple workers connect to).  The socket comes back
    non-blocking, ready for ``loop.sock_accept``.
    """
    if family == "unix":
        if not path:
            raise TransportError("unix listen sockets need an explicit path")
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.bind(path)
        except OSError as exc:
            sock.close()
            raise TransportError(f"cannot bind unix socket {path!r}: {exc}") from exc
        address: object = path
    elif family == "tcp":
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.bind(("127.0.0.1", 0))
        address = sock.getsockname()
    else:
        raise TransportError(
            f"unknown socket family {family!r}; expected one of {SOCKET_FAMILIES}"
        )
    if buffer_bytes:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, buffer_bytes)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, buffer_bytes)
    sock.listen(128)
    sock.setblocking(False)
    return sock, address


def connect_with_retry(
    address,
    family: str,
    connect_timeout: float = 5.0,
    retries: int = 20,
    backoff: float = 0.05,
    buffer_bytes: Optional[int] = None,
) -> socket.socket:
    """Connect to a router with bounded retry and exponential backoff.

    Workers race router startup (the listening socket exists before the
    accept loop runs, but a TCP connect can still transiently fail), so
    each attempt waits ``backoff * 2**n`` seconds, capped at one second.
    Raises :class:`TransportError` after ``retries`` failures.
    """
    last_error: Optional[OSError] = None
    delay = max(0.001, backoff)
    for _ in range(max(1, retries)):
        if family == "unix":
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        else:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            if buffer_bytes:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, buffer_bytes)
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, buffer_bytes)
            if family == "tcp":
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(connect_timeout)
            sock.connect(address)
            return sock
        except OSError as exc:
            last_error = exc
            sock.close()
            wall_time.sleep(delay)
            delay = min(delay * 2, 1.0)
    raise TransportError(
        f"could not connect to router at {address!r} "
        f"after {retries} attempt(s): {last_error}"
    )


class SocketEndpoint:
    """The worker side of the net transport, behind the endpoint interface.

    The same surface :class:`~repro.dsim.backend.PipeEndpoint` and
    ``ShmEndpoint`` expose to the worker loop (``send``/``send_control``/
    ``poll``/``drain``/``close``/``stats``), so it runs on sockets without
    modification.  One blocking socket carries everything: sends are
    ``sendall`` calls bounded by ``write_timeout`` (a router that stops
    draining surfaces as :class:`TransportError`, not a hang), receives
    go through ``select`` plus the incremental :class:`FrameReassembler`.
    """

    def __init__(
        self,
        sock: socket.socket,
        write_timeout: float = 10.0,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    ) -> None:
        self._sock = sock
        sock.setblocking(True)
        sock.settimeout(write_timeout)
        self._write_timeout = write_timeout
        self._max_frame_bytes = max_frame_bytes
        self._reassembler = FrameReassembler()
        self._eof = False
        self.stats = new_socket_stats()

    # -- send --------------------------------------------------------------
    def send(self, item: Tuple) -> None:
        stats = self.stats
        stats["sends"] += 1
        wire = encode_wire(item, stats, self._max_frame_bytes)
        try:
            # one sendall per item: chunked pieces of one oversize frame
            # are contiguous on the wire, so they still cost one syscall
            self._sock.sendall(wire)
        except socket.timeout:
            raise TransportError(
                f"socket write of {len(wire)} bytes timed out after "
                f"{self._write_timeout}s (router stuck, gone, or tearing down)"
            ) from None
        except (BrokenPipeError, ConnectionResetError) as exc:
            raise TransportError(f"transport socket closed by peer: {exc}") from None
        stats["socket_writes"] += 1
        stats["socket_bytes"] += len(wire)

    #: one ordered stream: control cannot leapfrog data, so the data
    #: path and the control path are the same path
    send_control = send

    # -- receive -----------------------------------------------------------
    def poll(self, timeout: float) -> bool:
        if self._eof:
            return True  # let drain() raise the EOF
        try:
            readable, _, _ = select.select([self._sock], [], [], max(0.0, timeout))
        except (OSError, ValueError):  # closed under us: surface in drain()
            self._eof = True
            return True
        return bool(readable)

    def drain(self) -> List[Tuple]:
        items: List[Tuple] = []
        while not self._eof:
            try:
                readable, _, _ = select.select([self._sock], [], [], 0)
            except (OSError, ValueError):
                self._eof = True
                break
            if not readable:
                break
            try:
                data = self._sock.recv(1 << 16)
            except (ConnectionResetError, OSError):
                self._eof = True
                break
            if not data:
                self._eof = True
                break
            items.extend(self._reassembler.feed(data))
        if self._eof and not items:
            # deliver everything decoded before the EOF first; the next
            # drain() call raises with nothing lost (PipeEndpoint semantics)
            raise EOFError("transport socket closed")
        return items

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass


def unlink_quietly(path: Optional[str]) -> None:
    """Remove a unix socket file, tolerating its absence."""
    if not path:
        return
    try:
        os.unlink(path)
    except OSError:
        pass
