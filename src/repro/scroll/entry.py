"""Scroll entries: one recorded nondeterministic action and its outcome.

An entry's ``seq`` comes from the counter of the Scroll that recorded it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, Optional

from repro.dsim.clock import VectorTimestamp


class ActionKind(Enum):
    """The kinds of actions a Scroll can record.

    ``SEND``/``RECEIVE``/``DROP``/``DUPLICATE`` describe interactions
    with other components (the actions Figure 1 depicts).  ``RANDOM``,
    ``CLOCK_READ`` and ``TIMER`` are the local sources of
    nondeterminism.  The remaining kinds are bookkeeping that makes bug
    reports and recovery-line computation easier but is not strictly
    required for replay.
    """

    SEND = "send"
    RECEIVE = "receive"
    DROP = "drop"
    DUPLICATE = "duplicate"
    RANDOM = "random"
    CLOCK_READ = "clock_read"
    TIMER = "timer"
    CRASH = "crash"
    RECOVER = "recover"
    CORRUPTION = "corruption"
    VIOLATION = "violation"
    CHECKPOINT = "checkpoint"
    ANNOTATION = "annotation"


#: Kinds that are outcomes of nondeterministic choices and therefore must be
#: recorded for deterministic replay to be possible.
NONDETERMINISTIC_KINDS = frozenset(
    {
        ActionKind.RECEIVE,
        ActionKind.RANDOM,
        ActionKind.CLOCK_READ,
        ActionKind.TIMER,
        ActionKind.DROP,
        ActionKind.DUPLICATE,
    }
)


@dataclass(frozen=True)
class ScrollEntry:
    """One recorded action.

    Attributes
    ----------
    seq:
        Monotonically increasing number the recording Scroll stamps: a
        total order consistent with observation.  ``0``: built by hand.
    pid:
        The process the action belongs to.
    kind:
        What happened (see :class:`ActionKind`).
    time:
        Simulation time of the action.
    detail:
        Action-specific payload: the serialized message for
        SEND/RECEIVE, ``{"method": ..., "value": ...}`` for RANDOM, the
        timer name for TIMER, and so on.
    vt:
        Vector timestamp of the process at record time when available;
        used to merge per-process logs into a causally consistent order.
    """

    pid: str
    kind: ActionKind
    time: float
    detail: Dict[str, Any] = field(default_factory=dict)
    vt: Optional[VectorTimestamp] = None
    seq: int = 0

    @property
    def is_nondeterministic(self) -> bool:
        """True when this entry must be present for deterministic replay."""
        return self.kind in NONDETERMINISTIC_KINDS

    def describe(self) -> str:
        """One-line human-readable rendering used in bug reports."""
        inner = ", ".join(f"{key}={value!r}" for key, value in sorted(self.detail.items()))
        return f"[{self.seq}] t={self.time:.3f} {self.pid} {self.kind.value} {inner}"

    def to_record(self) -> Dict[str, Any]:
        """Serialize to a plain JSON-compatible dictionary."""
        return {
            "seq": self.seq,
            "pid": self.pid,
            "kind": self.kind.value,
            "time": self.time,
            "detail": self.detail,
            "vt": self.vt.as_dict() if self.vt is not None else None,
        }

    @staticmethod
    def from_record(record: Dict[str, Any]) -> "ScrollEntry":
        """Rebuild an entry from :meth:`to_record` output."""
        vt = record.get("vt")
        return ScrollEntry(
            pid=record["pid"],
            kind=ActionKind(record["kind"]),
            time=record["time"],
            detail=dict(record.get("detail", {})),
            # An empty mapping is a real (empty) timestamp; only an
            # absent/null field means "not recorded".
            vt=VectorTimestamp.from_mapping(vt) if vt is not None else None,
            seq=record["seq"],
        )
