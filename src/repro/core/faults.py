"""Fault detection: turning invariant violations into FixD pipeline triggers.

FixD's replacement for ``printf`` debugging starts here: application
processes declare invariants (via the :func:`repro.dsim.process.invariant`
decorator), the runtime evaluates them after every handler, and this hook
converts failures into :class:`~repro.core.events.FaultEvent` records and
invokes the registered responders (the FixD controller installs itself as
one).

Detection is substrate-independent: on the simulator backend the cluster
frontend checks invariants inline after each handler; on the
multiprocessing backend each worker checks its own process in-process
and ships failures to the parent router, which feeds them through the
same :meth:`on_invariant_violation` hook.  Either way the detector sees
one stream of :class:`FaultEvent` records — what differs per backend is
only what a responder can *do* about them (rollback needs the
checkpoint/rollback capabilities the simulator advertises).
"""

from __future__ import annotations

import itertools
from typing import Callable, List, Optional

from repro.core.events import FaultEvent
from repro.dsim.hooks import RuntimeHook

#: A responder receives the fault event and returns True when it handled the
#: fault (which lets the cluster continue running).
FaultResponder = Callable[[FaultEvent], bool]


class FaultDetector(RuntimeHook):
    """Collects invariant violations and dispatches them to responders."""

    def __init__(self, responders: Optional[List[FaultResponder]] = None) -> None:
        self.responders: List[FaultResponder] = list(responders or [])
        self.faults: List[FaultEvent] = []
        self._sequence = itertools.count(1)
        self._cluster = None

    def attach(self, cluster) -> None:
        self._cluster = cluster

    def add_responder(self, responder: FaultResponder) -> None:
        """Register a responder invoked for every detected fault."""
        self.responders.append(responder)

    # ------------------------------------------------------------------
    # hook notification
    # ------------------------------------------------------------------
    def on_invariant_violation(self, pid, name, detail, time, vt=None):
        event = FaultEvent(
            pid=pid, invariant=name, detail=detail, time=time, sequence=next(self._sequence)
        )
        self.faults.append(event)
        handled = False
        for responder in self.responders:
            try:
                handled = bool(responder(event)) or handled
            except Exception:
                # A crashing responder must not mask the fault or the other
                # responders; FixD treats it as "not handled".
                continue
        return handled

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def fault_count(self) -> int:
        return len(self.faults)

    def faults_for(self, pid: str) -> List[FaultEvent]:
        return [event for event in self.faults if event.pid == pid]

    def first_fault(self) -> Optional[FaultEvent]:
        return self.faults[0] if self.faults else None
