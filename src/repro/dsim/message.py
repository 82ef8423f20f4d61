"""Messages exchanged between simulated processes.

A :class:`Message` is the unit of interaction the Scroll records and the
Time Machine reasons about.  Besides the obvious addressing fields it
carries:

* the sender's vector timestamp (``vt``) — used to reconstruct
  happens-before and to validate recovery lines;
* the set of speculation ids it is *tainted* with (``speculations``) —
  a process that receives a speculative message is absorbed into the
  speculation (Section 4.2) and must roll back if that speculation is
  aborted;
* a monotonically increasing ``msg_id`` drawn from the run's counter, giving
  a stable identity for logging, deduplication and fault targeting.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from operator import length_hint
from typing import Any, Dict, FrozenSet, Optional

from repro.dsim.clock import VectorTimestamp
from repro.errors import SimulationError

#: one past the largest id an :class:`IdCounter` hands out (below sys.maxsize)
_ID_LIMIT = 1 << 62


class IdCounter:
    """A run's id sequence (never rewound): ``take`` is one C call, ``peek`` draws none."""

    __slots__ = ("_ids", "take")

    def __init__(self, first: int = 1) -> None:
        self._ids = iter(range(first, _ID_LIMIT))
        self.take = self._ids.__next__

    def peek(self) -> int:
        """The id the next :attr:`take` returns."""
        return _ID_LIMIT - length_hint(self._ids)


def no_msg_ids() -> int:
    """The id source of a context that must not send: fails loudly."""
    raise SimulationError("this process context has no message-id source; it cannot send")


@dataclass(frozen=True)
class Message:
    """An immutable message in flight between two processes.

    Attributes
    ----------
    src, dst:
        Process ids of the sender and the receiver.
    kind:
        Application-level message type, e.g. ``"PUT"`` or ``"PREPARE"``.
        Handlers are dispatched on this field.
    payload:
        Arbitrary picklable application data.
    msg_id:
        Unique id drawn from the run's counter (``0``: built by hand).
    send_time:
        Simulation time at which the message was sent.
    vt:
        Sender's vector timestamp at send time.
    lamport:
        Sender's Lamport timestamp at send time.
    speculations:
        Ids of the speculations this message is tainted with.  Receivers
        are absorbed into every speculation listed here.
    duplicate_of:
        When the network duplicates a message, the copy records the
        original id here so the Scroll can attribute it to a fault.
    """

    src: str
    dst: str
    kind: str
    payload: Any = None
    msg_id: int = 0
    send_time: float = 0.0
    vt: VectorTimestamp = field(default_factory=VectorTimestamp)
    lamport: int = 0
    speculations: FrozenSet[str] = frozenset()
    duplicate_of: Optional[int] = None

    def with_taint(self, speculation_ids: FrozenSet[str]) -> "Message":
        """Return a copy tainted with the given speculation ids."""
        if not speculation_ids:
            return self
        return replace(self, speculations=self.speculations | frozenset(speculation_ids))

    def as_duplicate(self, msg_id: int) -> "Message":
        """Return a duplicate copy under the fresh id ``msg_id``, marked as such."""
        return replace(self, msg_id=msg_id, duplicate_of=self.msg_id)

    def describe(self) -> str:
        """Short human-readable description (e.g. in a replay divergence)."""
        return f"#{self.msg_id} {self.src}->{self.dst} {self.kind}"

    def to_record(self) -> Dict[str, Any]:
        """Serialize the message to a plain dictionary (for the Scroll)."""
        return {
            "msg_id": self.msg_id,
            "src": self.src,
            "dst": self.dst,
            "kind": self.kind,
            "payload": self.payload,
            "send_time": self.send_time,
            "vt": self.vt.as_dict(),
            "lamport": self.lamport,
            "speculations": sorted(self.speculations),
            "duplicate_of": self.duplicate_of,
        }

    @staticmethod
    def from_record(record: Dict[str, Any]) -> "Message":
        """Rebuild a message from :meth:`to_record` output."""
        return Message(
            src=record["src"],
            dst=record["dst"],
            kind=record["kind"],
            payload=record.get("payload"),
            msg_id=record["msg_id"],
            send_time=record.get("send_time", 0.0),
            vt=VectorTimestamp.from_mapping(record.get("vt", {})),
            lamport=record.get("lamport", 0),
            speculations=frozenset(record.get("speculations", ())),
            duplicate_of=record.get("duplicate_of"),
        )


_EMPTY_SPECULATIONS: FrozenSet[str] = frozenset()


def make_message(
    src: str,
    dst: str,
    kind: str,
    payload: Any,
    send_time: float,
    vt: "VectorTimestamp",
    lamport: int,
    msg_id: int,
) -> Message:
    """Fast constructor for the per-send hot path.

    ``Message`` is a frozen dataclass, so its ``__init__`` routes every
    field through ``object.__setattr__``; populating ``__dict__``
    directly builds an identical instance at a fraction of the cost.
    Semantics match ``Message(...)`` with default speculations and
    ``duplicate_of`` — the only shape :meth:`Process.send` produces.
    """
    message = object.__new__(Message)
    state = message.__dict__
    state["src"] = src
    state["dst"] = dst
    state["kind"] = kind
    state["payload"] = payload
    state["msg_id"] = msg_id
    state["send_time"] = send_time
    state["vt"] = vt
    state["lamport"] = lamport
    state["speculations"] = _EMPTY_SPECULATIONS
    state["duplicate_of"] = None
    return message

