"""The flat-frame wire codec every real-process link shares.

The two hot item shapes (worker ``flush`` logs and router ``batch``
deliveries) are *flattened* to builtin tuples — a Message becomes a
10-field tuple, a vector timestamp its entries tuple — and the whole
item is then packed in one :mod:`marshal` call.  ``marshal`` is
CPython's C serializer for builtin values: on the single-core boxes
this repository targets, one C call beats both ``pickle`` (which pays
per-instance class reduction for Message/VectorTimestamp objects) and
any pure-Python ``struct`` loop over payload elements.  Everything else
— and any item whose payloads are not builtin (a custom class smuggled
through a message) — is one pickled frame, counted in the stats.

A frame is ``[tag byte][body]`` and says nothing about how it travels:
the shared-memory ring (:mod:`repro.dsim.shm_ring`) length-prefixes it
inside a segment, the socket transport (:mod:`repro.dsim.net_transport`)
length-prefixes it on a byte stream, and both split an oversize frame
into ``F_CHUNK`` pieces.  The pipe link pickles whole items and only
shares the accounting dict (:func:`new_stats`), so ``transport_stats``
reads the same on all three.

This module is dsim-internal (``scripts/check.sh`` guards the boundary).
"""

from __future__ import annotations

import marshal
import pickle
from typing import Dict, Optional, Tuple

from repro.errors import SimulationError

PICKLE_PROTO = pickle.HIGHEST_PROTOCOL


class TransportError(SimulationError):
    """A real-process transport could not move a frame."""


class _Unencodable(Exception):
    """Internal signal: fall back to pickle for this item."""


def _flatten_message(message) -> Tuple:
    # a message restored from a frame carries its original flat tuple, so
    # the router re-ships it without paying a second flatten
    flat = message.__dict__.get("_flat")
    if flat is not None:
        return flat
    vt = message.vt
    return (
        message.src,
        message.dst,
        message.kind,
        message.msg_id,
        message.send_time,
        message.lamport,
        message.duplicate_of,
        None if vt is None else vt.entries,
        tuple(message.speculations) if message.speculations else (),
        message.payload,
    )


_EMPTY_SPECS: frozenset = frozenset()
# resolved lazily: clock/message import inside repro.dsim would cycle
_MESSAGE_CLS = None
_VT_CLS = None
_EMPTY_VT = None


def _resolve_classes() -> None:
    global _MESSAGE_CLS, _VT_CLS, _EMPTY_VT
    from repro.dsim.clock import VectorTimestamp
    from repro.dsim.message import Message

    _MESSAGE_CLS = Message
    _VT_CLS = VectorTimestamp
    _EMPTY_VT = VectorTimestamp()


def _restore_message(fields: Tuple):
    # Message is a frozen dataclass: populating __dict__ directly skips
    # ten object.__setattr__ calls per message on the hottest decode path
    if _MESSAGE_CLS is None:
        _resolve_classes()
    message = object.__new__(_MESSAGE_CLS)
    state = message.__dict__
    (
        state["src"],
        state["dst"],
        state["kind"],
        state["msg_id"],
        state["send_time"],
        state["lamport"],
        state["duplicate_of"],
        vt,
        specs,
        state["payload"],
    ) = fields
    if vt is None:
        state["vt"] = _EMPTY_VT
    else:
        vt_obj = object.__new__(_VT_CLS)
        vt_obj.__dict__["entries"] = vt
        state["vt"] = vt_obj
    state["speculations"] = frozenset(specs) if specs else _EMPTY_SPECS
    state["_flat"] = fields
    return message


def _restore_vt(entries):
    if _VT_CLS is None:
        _resolve_classes()
    if entries is None:
        return None
    vt = object.__new__(_VT_CLS)
    vt.__dict__["entries"] = entries
    return vt


#: flush entry tags whose only non-builtin field is the vector timestamp,
#: mapped to that field's position
_VT_POSITION = {"recv": 3, "timer": 3, "violation": 4, "event": 4}
#: entry tags that are already pure builtins
_PLAIN_TAGS = frozenset({"brecv", "handled", "dead", "counters"})


def _flatten_entry(entry: Tuple) -> Tuple:
    tag = entry[0]
    if tag in _PLAIN_TAGS:
        return entry
    if tag == "sent":
        return ("sent", _flatten_message(entry[1]))
    position = _VT_POSITION.get(tag)
    if position is None:
        raise _Unencodable
    vt = entry[position]
    if vt is not None:
        entry = entry[:position] + (vt.entries,) + entry[position + 1:]
    return entry


# frame tags (first byte of every frame).  F_CHUNK carries one
# piece of an oversize frame: [tag][last? u8][part bytes] — the receiver
# reassembles parts in order and decodes the inner frame on the last one,
# so arbitrarily large items flow through a bounded ring without ever
# touching the pipe, and without reordering against smaller frames.
F_PICKLE, F_FLUSH, F_BATCH, F_CHUNK = 0, 1, 2, 3


def new_stats() -> Dict[str, int]:
    """A fresh transport-accounting dict (same keys on every link)."""
    return {
        "sends": 0,            # transport sends (ring frames + pipe items)
        "ring_frames": 0,      # frames that went through the ring
        "ring_bytes": 0,       # payload bytes written to the ring
        "pipe_items": 0,       # items that went over the pipe
        "oversize_frames": 0,  # data items chunked through the ring
        "nudges": 0,           # one-byte pipe wakeups after ring writes
        "pickled_bytes": 0,    # bytes produced by pickle on this side
        "messages_fast": 0,    # messages shipped without touching pickle
        "messages_pickled": 0, # messages that fell back to pickle
    }


#: control items whose order *relative to data frames* matters: a crash
#: must not leapfrog the deliveries batched before it, and deliveries
#: enqueued after a recover must not be processed while the worker still
#: believes it is crashed.  They ride the ring (as tiny pickled frames)
#: so the single FIFO decides; order-insensitive control (probes, stop,
#: acks, results) stays on the pipe.
_ORDERED_CONTROL = frozenset({"crash", "recover"})


def encode_item(item: Tuple, stats: Dict[str, int]) -> Optional[bytearray]:
    """Encode a data item as one frame; None for order-insensitive control.

    ``flush`` and ``batch`` items flatten to builtins and marshal in one
    C call; an item whose payloads are not marshallable falls back to a
    single pickled frame (counted in ``stats``).  Crash/recover control
    is encoded as a pickled frame too — it must stay ordered with the
    data stream (see ``_ORDERED_CONTROL``).
    """
    tag = item[0]
    if tag in _ORDERED_CONTROL:
        return encode_pickled(item, stats)
    if tag == "flush":
        log = item[2]
        try:
            blob = marshal.dumps((item[1], [_flatten_entry(entry) for entry in log]))
        except (ValueError, _Unencodable):
            return encode_pickled(item, stats)
        out = bytearray((F_FLUSH,))
        out += blob
        stats["messages_fast"] += sum(1 for entry in log if entry[0] == "sent")
        return out
    if tag == "batch":
        batch = item[1]
        try:
            blob = marshal.dumps(
                [(tseq, _flatten_message(message)) for tseq, message in batch]
            )
        except ValueError:
            return encode_pickled(item, stats)
        out = bytearray((F_BATCH,))
        out += blob
        stats["messages_fast"] += len(batch)
        return out
    return None


def encode_pickled(item: Tuple, stats: Dict[str, int]) -> bytearray:
    """Encode any item as one pickled frame, counted in ``stats``."""
    blob = pickle.dumps(item, PICKLE_PROTO)
    stats["pickled_bytes"] += len(blob)
    if item[0] == "batch":
        stats["messages_pickled"] += len(item[1])
    elif item[0] == "flush":
        stats["messages_pickled"] += sum(1 for entry in item[2] if entry[0] == "sent")
    out = bytearray((F_PICKLE,))
    out += blob
    return out


def decode_item(frame) -> Tuple:
    """Decode one frame (inverse of :func:`encode_item`)."""
    tag = frame[0]
    if tag == F_FLUSH:
        pid, log = marshal.loads(frame[1:])  # decodes straight from the segment
        # entry restoration (inverse of _flatten_entry), inlined because
        # this loop runs for every recorded action
        restore_message = _restore_message
        restore_vt = _restore_vt
        plain = _PLAIN_TAGS
        positions = _VT_POSITION
        restored = []
        append = restored.append
        for entry in log:
            entry_tag = entry[0]
            if entry_tag in plain:
                append(entry)
            elif entry_tag == "sent":
                append(("sent", restore_message(entry[1])))
            else:
                position = positions[entry_tag]
                append(
                    entry[:position]
                    + (restore_vt(entry[position]),)
                    + entry[position + 1:]
                )
        return ("flush", pid, restored)
    if tag == F_BATCH:
        batch = marshal.loads(frame[1:])
        restore_message = _restore_message
        return ("batch", [(tseq, restore_message(fields)) for tseq, fields in batch])
    if tag == F_PICKLE:
        return pickle.loads(frame[1:])
    raise TransportError(f"corrupt frame tag {tag}")

