"""Property tests for the shared-memory ring transport.

Three layers, each driven by seeded ``random.Random`` programs in the
style of the other property suites:

1. **Ring byte stream** — random variable-size frame sequences pushed
   through a small :class:`~repro.dsim.shm_ring.SpscRing` (forcing
   wraparound and ring-full backpressure) with a concurrent consumer,
   against a ``multiprocessing.Pipe`` oracle carrying the same frames:
   delivery must be byte-identical and in order.

2. **Item codec** — random ``flush``/``batch`` items (messages with
   nested builtin payloads, vector timestamps, speculation taints, and
   occasionally unpicklable-by-marshal payloads that must fall back to
   the pickled frame) round-tripped through
   ``encode_item``/``decode_item`` against a pickle oracle: the decoded
   item must equal what a pickle round trip of the same item produces.

3. **Endpoint sequences** — full :class:`~repro.dsim.shm_ring.ShmEndpoint`
   pairs over real pipes and a deliberately tiny ring, including
   oversize frames that chunk through the ring, against a
   :class:`~repro.dsim.backend.PipeEndpoint` oracle: the data items
   arrive equal and in identical order.
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import random
import threading

import pytest

from repro.dsim import shm_ring  # facade-ok: the ring protocol itself is under test
from repro.dsim.backend import PipeEndpoint
from repro.dsim.clock import VectorTimestamp
from repro.dsim.message import Message
from repro.dsim.shm_ring import (  # facade-ok: the ring protocol itself is under test
    ShmEndpoint,
    SpscRing,
    TransportError,
    decode_item,
    encode_item,
    new_stats,
)

_HEADER = 128  # ring data offset (cursor block)


def make_ring(capacity: int) -> SpscRing:
    """An in-process ring over a plain buffer (no shared memory needed)."""
    return SpscRing(memoryview(bytearray(_HEADER + capacity)), capacity)


def paired_rings(capacity: int):
    """Producer-side and consumer-side views of the same ring buffer."""
    buf = memoryview(bytearray(_HEADER + capacity))
    return SpscRing(buf, capacity), SpscRing(buf, capacity)


# ----------------------------------------------------------------------
# 1. ring byte stream vs pipe oracle
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [1, 7, 23])
def test_ring_delivers_byte_identical_frames_in_order(seed: int):
    rng = random.Random(seed)
    capacity = 4096  # small: plenty of wraparound and backpressure
    frames = [
        rng.randbytes(rng.choice([0, 1, 3, rng.randrange(900), rng.randrange(2000)]))
        for _ in range(400)
    ]
    producer_ring, consumer_ring = paired_rings(capacity)

    received: list = []

    def consume() -> None:
        while len(received) < len(frames):
            consumer_ring.read(lambda view: received.append(bytes(view)) or True)

    consumer = threading.Thread(target=consume, daemon=True)
    consumer.start()
    for frame in frames:
        # blocks when the ring is full: the consumer thread frees space
        assert producer_ring.write(frame, timeout=10.0)
    consumer.join(timeout=10.0)
    assert not consumer.is_alive(), "consumer did not drain every frame"

    # the pipe oracle: same frames, same API shape
    parent_conn, child_conn = mp.Pipe(duplex=False)
    oracle: list = []
    for frame in frames:
        child_conn.send_bytes(frame)
        oracle.append(parent_conn.recv_bytes())
    parent_conn.close()
    child_conn.close()

    assert received == oracle == frames


def test_ring_rejects_frames_beyond_capacity():
    ring = make_ring(1024)
    with pytest.raises(TransportError):
        ring.try_write(b"x" * 2048)


def test_ring_full_write_times_out_without_consumer():
    ring = make_ring(256)
    assert ring.write(b"a" * 200, timeout=0.05)
    assert not ring.write(b"b" * 200, timeout=0.05), "no consumer: must time out"


# ----------------------------------------------------------------------
# 2. item codec vs pickle oracle
# ----------------------------------------------------------------------
class _Opaque:
    """Picklable but not marshallable: forces the pickled-frame fallback."""

    def __init__(self, value):
        self.value = value

    def __eq__(self, other):
        return type(other) is _Opaque and other.value == self.value


def random_value(rng: random.Random, depth: int = 0):
    choices = ["int", "str", "bytes", "float", "none", "bool"]
    if depth < 3:
        choices += ["list", "tuple", "dict", "set"]
    kind = rng.choice(choices)
    if kind == "int":
        return rng.randrange(-(10 ** 12), 10 ** 12)
    if kind == "str":
        return "".join(rng.choice("abcdefgh αβγ") for _ in range(rng.randrange(0, 12)))
    if kind == "bytes":
        return rng.randbytes(rng.randrange(0, 16))
    if kind == "float":
        return rng.uniform(-1e6, 1e6)
    if kind == "none":
        return None
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "list":
        return [random_value(rng, depth + 1) for _ in range(rng.randrange(0, 5))]
    if kind == "tuple":
        return tuple(random_value(rng, depth + 1) for _ in range(rng.randrange(0, 5)))
    if kind == "set":
        return {rng.randrange(100) for _ in range(rng.randrange(0, 4))}
    return {
        rng.choice(["k1", "k2", "k3", 7, ("t", 1)]): random_value(rng, depth + 1)
        for _ in range(rng.randrange(0, 5))
    }


def random_vt(rng: random.Random):
    if rng.random() < 0.1:
        return None
    pids = rng.sample(["p0", "p1", "p2", "worker0", "master"], k=rng.randrange(0, 4))
    return VectorTimestamp(tuple(sorted((pid, rng.randrange(1, 500)) for pid in pids)))


def random_message(rng: random.Random) -> Message:
    payload = random_value(rng)
    if rng.random() < 0.1:
        payload = _Opaque(rng.randrange(1000))  # unmarshallable: pickle fallback
    return Message(
        src=rng.choice(["p0", "p1", "master"]),
        dst=rng.choice(["p0", "p1", "worker0"]),
        kind=rng.choice(["PUT", "COUNT", "TOKEN", "X"]),
        payload=payload,
        msg_id=rng.randrange(1, 10 ** 12),
        send_time=rng.uniform(0, 1000),
        vt=random_vt(rng) or VectorTimestamp(),
        lamport=rng.randrange(0, 10 ** 6),
        speculations=(
            frozenset(rng.sample(["s1", "s2", "s3"], k=rng.randrange(0, 3)))
            if rng.random() < 0.2
            else frozenset()
        ),
        duplicate_of=rng.randrange(1, 1000) if rng.random() < 0.2 else None,
    )


def random_flush_entry(rng: random.Random):
    tag = rng.choice(
        ["sent", "brecv", "recv", "handled", "timer", "violation", "event", "dead", "counters"]
    )
    at = rng.uniform(0, 1000)
    if tag == "sent":
        return ("sent", random_message(rng))
    if tag == "brecv":
        return ("brecv", rng.randrange(1, 10 ** 9), at)
    if tag == "recv":
        return ("recv", rng.randrange(1, 10 ** 9), at, random_vt(rng))
    if tag == "handled":
        return ("handled", rng.choice(["on_start", "deliver X", "timer t"]), at)
    if tag == "timer":
        return ("timer", rng.choice(["tick", "retry"]), at, random_vt(rng))
    if tag == "violation":
        return ("violation", "inv-name", "detail " * rng.randrange(3), at, random_vt(rng))
    if tag == "event":
        return ("event", rng.choice(["crash", "recover", "corrupt"]), "", at, random_vt(rng))
    if tag == "dead":
        return ("dead", rng.randrange(1, 10 ** 9))
    return ("counters", rng.randrange(0, 10 ** 6), rng.randrange(0, 10 ** 6))


def random_item(rng: random.Random):
    if rng.random() < 0.5:
        log = [random_flush_entry(rng) for _ in range(rng.randrange(0, 12))]
        return ("flush", rng.choice(["p0", "worker1"]), log)
    batch = [
        (rng.randrange(1, 10 ** 9), random_message(rng))
        for _ in range(rng.randrange(0, 8))
    ]
    return ("batch", batch)


@pytest.mark.parametrize("seed", [3, 11, 42, 2026])
def test_item_codec_matches_pickle_oracle(seed: int):
    rng = random.Random(seed)
    for _ in range(60):
        item = random_item(rng)
        oracle = pickle.loads(pickle.dumps(item, pickle.HIGHEST_PROTOCOL))
        stats = new_stats()
        frame = encode_item(item, stats)
        assert frame is not None
        decoded = decode_item(memoryview(bytes(frame)))
        assert decoded[0] == oracle[0]
        if decoded[0] == "flush":
            assert decoded[1] == oracle[1]
            assert list(decoded[2]) == list(oracle[2])
        else:
            assert list(decoded[1]) == list(oracle[1])


def test_order_insensitive_control_items_are_not_ring_frames():
    stats = new_stats()
    for item in [("probe", 3), ("stop",), ("probe_ack", "p0", 3, {}), ("result", "p0", {})]:
        assert encode_item(item, stats) is None


def test_crash_and_recover_ride_the_ring_in_data_order():
    """Crash/recover must not leapfrog (or be leapfrogged by) batches."""
    stats = new_stats()
    for item in [("crash",), ("recover",)]:
        frame = encode_item(item, stats)
        assert frame is not None
        assert decode_item(memoryview(bytes(frame))) == item


def test_unmarshallable_payload_falls_back_to_pickle_frame():
    message = Message(src="a", dst="b", kind="X", payload=_Opaque(7))
    stats = new_stats()
    frame = encode_item(("batch", [(1, message)]), stats)
    assert stats["messages_pickled"] == 1
    assert stats["pickled_bytes"] > 0
    decoded = decode_item(memoryview(bytes(frame)))
    assert decoded == ("batch", [(1, message)])


# ----------------------------------------------------------------------
# 3. endpoint sequences (chunked oversize included) vs pipe endpoints
# ----------------------------------------------------------------------
def _endpoint_pair(ring_bytes: int):
    down_prod, down_cons = paired_rings(ring_bytes)
    up_prod, up_cons = paired_rings(ring_bytes)
    left_conn, right_conn = mp.Pipe(duplex=True)
    left = ShmEndpoint(left_conn, send_ring=down_prod, recv_ring=up_cons)
    right = ShmEndpoint(right_conn, send_ring=up_prod, recv_ring=down_cons)
    return left, right


@pytest.mark.parametrize("seed", [5, 17])
def test_endpoint_sequences_match_pipe_endpoint_oracle(seed: int):
    rng = random.Random(seed)
    items = []
    for _ in range(120):
        item = random_item(rng)
        if rng.random() < 0.08:
            # oversize: far beyond the tiny ring's chunk threshold
            item = ("batch", [(99, Message(src="a", dst="b", kind="BLOB",
                                           payload=rng.randbytes(20_000)))])
        items.append(item)

    left, right = _endpoint_pair(ring_bytes=8192)
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
    assert not consumer.is_alive(), "endpoint consumer did not finish"
    left.close()
    right.close()

    # pipe oracle: identical items through the pipe transport
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


def test_oversize_frames_chunk_through_a_tiny_ring():
    left, right = _endpoint_pair(ring_bytes=4096)
    big = ("batch", [(1, Message(src="a", dst="b", kind="BLOB", payload=b"z" * 50_000))])

    received: list = []

    def consume() -> None:
        while not received:
            right.poll(0.01)
            received.extend(right.drain())

    consumer = threading.Thread(target=consume, daemon=True)
    consumer.start()
    left.send(big)  # 50 KB through a 4 KB ring: backpressured chunking
    consumer.join(timeout=30.0)
    assert not consumer.is_alive()
    assert left.stats["oversize_frames"] == 1
    assert received[0] == big
    left.close()
    right.close()


def test_shared_memory_ring_pair_round_trip_and_unlink():
    """A real SharedMemory ring pair delivers frames and unlinks cleanly."""
    import os

    pair = shm_ring.RingPair(ring_bytes=65536)
    down, up, close_child = pair.child_handle().attach()
    try:
        writer = pair.down_ring
        assert writer.write(b"hello ring", timeout=1.0)
        got: list = []
        down.read(lambda view: got.append(bytes(view)) or True)
        assert got == [b"hello ring"]
    finally:
        close_child()
        names = list(pair.segment_names)
        pair.close()
    for name in names:
        assert not os.path.exists(f"/dev/shm/{name}"), f"segment {name} leaked"
