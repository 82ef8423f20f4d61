"""Property tests for the socket frame codec and transport.

The net transport reuses the shm item codec verbatim and only adds
length-prefixed stream framing on top, so its oracle is the same one the
ring suite uses: pickle round trips of random ``flush``/``batch`` items
(generators imported from ``test_shm_ring``).  Three layers:

1. **Framing** — random item sequences encoded with ``encode_wire`` into
   one byte stream, then fed to a :class:`FrameReassembler` at arbitrary
   split boundaries (including one byte at a time): every item must come
   out equal and in order regardless of how the stream fragments — the
   wraparound-free analogue of the ring's cursor arithmetic.

2. **Oversize chunking** — frames beyond ``max_frame_bytes`` must split
   into bounded chunks on the wire and reassemble to the original item,
   with the ``oversize_frames`` counter accounting for them.

3. **Endpoint pairs** — full :class:`SocketEndpoint` pairs over a real
   ``socketpair`` against a :class:`~repro.dsim.backend.PipeEndpoint`
   oracle: identical items, identical order, and the same serialization
   accounting contract (``messages_fast`` counts, zero ``pickled_bytes``
   for marshallable traffic, zero ``nudges`` by construction).
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import random
import socket
import threading

import pytest

from repro.dsim.message import Message
from repro.dsim.net_transport import (  # facade-ok: the framing protocol itself is under test
    DEFAULT_MAX_FRAME_BYTES,
    FrameReassembler,
    SocketEndpoint,
    TransportError,
    encode_wire,
    new_socket_stats,
)
from repro.dsim.backend import PipeEndpoint

from test_shm_ring import random_item, random_message


def _oracle(item):
    return pickle.loads(pickle.dumps(item, pickle.HIGHEST_PROTOCOL))


def _random_splits(rng: random.Random, data: bytes):
    """Cut ``data`` into random fragments, occasionally one byte at a time."""
    out = []
    offset = 0
    while offset < len(data):
        if rng.random() < 0.15:
            size = 1
        else:
            size = rng.randrange(1, max(2, min(len(data) - offset, 700)))
        out.append(data[offset:offset + size])
        offset += size
    return out


# ----------------------------------------------------------------------
# 1. stream framing vs arbitrary fragmentation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [2, 13, 77, 2026])
def test_reassembler_survives_arbitrary_split_boundaries(seed: int):
    rng = random.Random(seed)
    items = [random_item(rng) for _ in range(60)]
    stats = new_socket_stats()
    stream = b"".join(encode_wire(item, stats) for item in items)

    reassembler = FrameReassembler()
    received = []
    for fragment in _random_splits(rng, stream):
        received.extend(reassembler.feed(fragment))
    assert reassembler.pending_bytes == 0, "stream fully consumed"

    assert len(received) == len(items)
    for got, item in zip(received, items):
        expected = _oracle(item)
        assert got[0] == expected[0]
        if got[0] == "flush":
            assert got[1] == expected[1]
            assert list(got[2]) == list(expected[2])
        else:
            assert list(got[1]) == list(expected[1])


def test_reassembler_single_byte_feed():
    """The degenerate fragmentation: every byte arrives alone."""
    stats = new_socket_stats()
    items = [("batch", [(1, Message(src="a", dst="b", kind="X", payload=i))])
             for i in range(5)]
    stream = b"".join(encode_wire(item, stats) for item in items)
    reassembler = FrameReassembler()
    received = []
    for i in range(len(stream)):
        received.extend(reassembler.feed(stream[i:i + 1]))
    assert received == [_oracle(item) for item in items]


def test_reassembler_rejects_zero_length_frames():
    with pytest.raises(TransportError):
        FrameReassembler().feed(b"\x00\x00\x00\x00")


# ----------------------------------------------------------------------
# 2. oversize frames chunk and reassemble
# ----------------------------------------------------------------------
@pytest.mark.parametrize("payload_bytes", [5_000, 50_000])
def test_oversize_frames_chunk_and_reassemble(payload_bytes: int):
    stats = new_socket_stats()
    item = ("batch", [(7, Message(src="a", dst="b", kind="BLOB",
                                  payload=b"z" * payload_bytes))])
    wire = encode_wire(item, stats, max_frame_bytes=2048)
    assert stats["oversize_frames"] == 1
    # every chunk on the wire is itself bounded: prefix + frame <= prefix + max
    reassembler = FrameReassembler()
    received = reassembler.feed(wire)
    assert received == [_oracle(item)]


def test_small_frames_are_not_chunked():
    stats = new_socket_stats()
    item = ("batch", [(1, Message(src="a", dst="b", kind="X", payload="hi"))])
    encode_wire(item, stats, max_frame_bytes=DEFAULT_MAX_FRAME_BYTES)
    assert stats["oversize_frames"] == 0


@pytest.mark.parametrize("seed", [9, 31])
def test_chunked_stream_survives_fragmentation(seed: int):
    """Chunked oversize frames interleaved with small ones, fragmented."""
    rng = random.Random(seed)
    stats = new_socket_stats()
    items = []
    for _ in range(30):
        if rng.random() < 0.2:
            items.append(("batch", [(99, Message(src="a", dst="b", kind="BLOB",
                                                 payload=rng.randbytes(10_000)))]))
        else:
            items.append(random_item(rng))
    stream = b"".join(encode_wire(item, stats, max_frame_bytes=2048) for item in items)
    reassembler = FrameReassembler()
    received = []
    for fragment in _random_splits(rng, stream):
        received.extend(reassembler.feed(fragment))
    assert len(received) == len(items)
    for got, item in zip(received, items):
        expected = _oracle(item)
        if got[0] == "flush":
            assert (got[0], got[1], list(got[2])) == (expected[0], expected[1], list(expected[2]))
        else:
            assert (got[0], list(got[1])) == (expected[0], list(expected[1]))


# ----------------------------------------------------------------------
# 3. socket endpoint pairs vs the pipe oracle
# ----------------------------------------------------------------------
def _socket_endpoint_pair(max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES):
    left_sock, right_sock = socket.socketpair()
    left = SocketEndpoint(left_sock, max_frame_bytes=max_frame_bytes)
    right = SocketEndpoint(right_sock, max_frame_bytes=max_frame_bytes)
    return left, right


@pytest.mark.parametrize("seed", [5, 17])
def test_socket_endpoint_matches_pipe_endpoint_oracle(seed: int):
    rng = random.Random(seed)
    items = []
    for _ in range(120):
        item = random_item(rng)
        if rng.random() < 0.08:
            item = ("batch", [(99, Message(src="a", dst="b", kind="BLOB",
                                           payload=rng.randbytes(20_000)))])
        items.append(item)

    left, right = _socket_endpoint_pair(max_frame_bytes=4096)
    received: list = []

    def consume() -> None:
        while len(received) < len(items):
            right.poll(0.01)
            received.extend(right.drain())

    consumer = threading.Thread(target=consume, daemon=True)
    consumer.start()
    for item in items:
        left.send(item)
    consumer.join(timeout=30.0)
    assert not consumer.is_alive(), "socket consumer did not finish"
    left.close()
    right.close()

    oracle_left_conn, oracle_right_conn = mp.Pipe(duplex=True)
    oracle_left = PipeEndpoint(oracle_left_conn)
    oracle_right = PipeEndpoint(oracle_right_conn)
    oracle: list = []
    for item in items:
        oracle_left.send(item)
        while len(oracle) < len(items) and oracle_right.poll(0):
            oracle.extend(oracle_right.drain())
    while len(oracle) < len(items):
        oracle.extend(oracle_right.drain())
    oracle_left.close()
    oracle_right.close()

    assert len(received) == len(oracle) == len(items)
    for got, expected in zip(received, oracle):
        assert got == expected


def test_socket_endpoint_accounting_contract():
    """Marshallable traffic never touches pickle; nudges stay zero."""
    left, right = _socket_endpoint_pair()
    items = [
        ("batch", [(i, random_message(random.Random(i))) for i in range(3)]),
        ("flush", "p0", [("handled", "on_start", 0.0)]),
    ]
    # strip pickle-fallback payloads the generator may have produced
    items[0] = ("batch", [(i, Message(src="a", dst="b", kind="X", payload=i))
                          for i in range(3)])
    for item in items:
        left.send(item)
    received = []
    while len(received) < len(items):
        right.poll(0.05)
        received.extend(right.drain())
    assert left.stats["pickled_bytes"] == 0
    assert left.stats["messages_pickled"] == 0
    assert left.stats["messages_fast"] == 3
    assert left.stats["nudges"] == 0
    assert left.stats["socket_writes"] == len(items)
    left.close()
    right.close()


def test_socket_endpoint_eof_raises_after_buffered_items():
    """PipeEndpoint semantics: deliver what arrived, raise EOF on the next drain."""
    left, right = _socket_endpoint_pair()
    item = ("flush", "p0", [("handled", "x", 1.0)])
    left.send(item)
    left.close()
    received = []
    while not received:
        right.poll(0.05)
        received.extend(right.drain())
    assert received[0][0] == "flush"
    with pytest.raises(EOFError):
        while True:
            right.poll(0.05)
            right.drain()
    right.close()
