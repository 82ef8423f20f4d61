"""Distributed speculations (paper Section 4.2, after Ţăpuş's PhD work).

A *speculation* is a computation based on an assumption whose
verification proceeds in parallel with the computation.  Starting a
speculation takes a lightweight checkpoint of the initiating process; if
the assumption is later *committed* the checkpoint is discarded, and if
it is *aborted* the process rolls back to the checkpoint and may continue
on an alternate execution path.

The distributed part is *absorption*: a process that receives a message
sent from inside a speculation becomes part of that speculation (it takes
its own checkpoint at absorption time) and must roll back together with
the initiator if the speculation aborts.  This is exactly the
communication-induced checkpointing of Figure 6, with the speculation id
playing the role of the dependency tracking.

The manager below implements speculations as a runtime hook plus an
explicit API:

* ``begin(pid, assumption)`` — start a speculation at a process;
* message taint — every message sent by a process inside active
  speculations carries those ids (tracked manager-side, keyed by message
  id, so application messages stay immutable); a network duplicate
  carries its original's taint (looked up through ``duplicate_of``);
* absorption — delivering a tainted message checkpoints and absorbs the
  receiver;
* ``commit(spec_id)`` / ``abort(spec_id)`` — resolve the assumption;
  abort rolls back every absorbed process via the cluster and invokes the
  optional alternate-path callback registered at ``begin``.  An abort
  that would roll a member back past its committed recovery line is
  refused: a committed line is a floor no rollback may cross.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, Optional, Set

from repro.dsim.hooks import RuntimeHook
from repro.dsim.process import ProcessCheckpoint
from repro.errors import SpeculationError
from repro.timemachine.checkpoint import CheckpointStore


class SpeculationStatus(Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclass
class Speculation:
    """One speculation: its assumption, members and their rollback targets."""

    spec_id: str
    initiator: str
    assumption: str
    started_at: float
    status: SpeculationStatus = SpeculationStatus.ACTIVE
    members: Set[str] = field(default_factory=set)
    #: the checkpoint each member took on entry (a COW capture in the
    #: shared store); released when the speculation resolves
    checkpoints: Dict[str, ProcessCheckpoint] = field(default_factory=dict)
    alternate_path: Optional[Callable[[str], None]] = None
    resolved_at: Optional[float] = None

    @property
    def active(self) -> bool:
        return self.status is SpeculationStatus.ACTIVE

    def describe(self) -> str:
        members = ", ".join(sorted(self.members))
        return (
            f"speculation {self.spec_id} ({self.status.value}) initiated by {self.initiator}: "
            f"{self.assumption!r}; members: {members}"
        )


class SpeculationManager(RuntimeHook):
    """Tracks speculations, taint propagation, absorption and rollback."""

    def __init__(self, store: Optional[CheckpointStore] = None) -> None:
        self.store = store if store is not None else CheckpointStore()
        self._cluster = None
        self._speculations: Dict[str, Speculation] = {}
        #: speculation ids are scoped to this manager (one per run), so a
        #: run's ids never depend on what else ran in the interpreter
        self._spec_ids = itertools.count(1)
        #: speculation ids each process is currently inside
        self._active_by_pid: Dict[str, Set[str]] = {}
        #: taint recorded per message id at send time
        self._message_taint: Dict[int, Set[str]] = {}
        self.rollbacks_performed = 0
        self.absorptions = 0

    def attach(self, cluster) -> None:
        self._cluster = cluster

    # ------------------------------------------------------------------
    # lifecycle API
    # ------------------------------------------------------------------
    def begin(
        self,
        pid: str,
        assumption: str,
        alternate_path: Optional[Callable[[str], None]] = None,
    ) -> Speculation:
        """Start a speculation at ``pid`` based on ``assumption``."""
        if self._cluster is None:
            raise SpeculationError("speculation manager is not attached to a cluster")
        process = self._cluster.process(pid)
        spec_id = f"spec-{next(self._spec_ids)}"
        checkpoint = self.store.hold(self.store.capture(process, self._cluster.now))
        speculation = Speculation(
            spec_id=spec_id,
            initiator=pid,
            assumption=assumption,
            started_at=self._cluster.now,
            members={pid},
            checkpoints={pid: checkpoint},
            alternate_path=alternate_path,
        )
        self._speculations[spec_id] = speculation
        self._active_by_pid.setdefault(pid, set()).add(spec_id)
        return speculation

    def commit(self, spec_id: str) -> Speculation:
        """Validate the assumption: discard rollback obligations."""
        speculation = self._get_active(spec_id)
        speculation.status = SpeculationStatus.COMMITTED
        speculation.resolved_at = self._cluster.now if self._cluster else None
        self._retire(speculation)
        return speculation

    def abort(self, spec_id: str) -> Speculation:
        """Invalidate the assumption: roll back every member process.

        Every member is restored to the checkpoint it saved when it
        entered the speculation, in-flight messages destined to members
        are cancelled by the cluster restore, and the alternate execution
        path (if one was registered) is invoked for the initiator so the
        computation can continue down a different branch.

        Raises :class:`SpeculationError`, leaving the speculation active
        (it can still commit), when a member's committed checkpoint is
        newer than the checkpoint it entered with: restoring that would
        roll the member back past a committed recovery line.
        """
        speculation = self._get_active(spec_id)
        if self._cluster is None:
            raise SpeculationError("speculation manager is not attached to a cluster")
        for pid, checkpoint in sorted(speculation.checkpoints.items()):
            committed = self.store.committed_sequence(pid)
            if committed is not None and committed > checkpoint.sequence:
                raise SpeculationError(
                    f"cannot abort {spec_id!r}: {pid} entered it at checkpoint "
                    f"#{checkpoint.sequence}, before its committed checkpoint "
                    f"#{committed}; a rollback may not cross a committed line"
                )
        speculation.status = SpeculationStatus.ABORTED
        speculation.resolved_at = self._cluster.now
        self._cluster.restore_checkpoints(dict(speculation.checkpoints))
        self.rollbacks_performed += 1
        self._retire(speculation)
        if speculation.alternate_path is not None:
            speculation.alternate_path(speculation.initiator)
        return speculation

    def _get_active(self, spec_id: str) -> Speculation:
        speculation = self._speculations.get(spec_id)
        if speculation is None:
            raise SpeculationError(f"unknown speculation {spec_id!r}")
        if not speculation.active:
            raise SpeculationError(
                f"speculation {spec_id!r} is already {speculation.status.value}"
            )
        return speculation

    def _retire(self, speculation: Speculation) -> None:
        for pid in speculation.members:
            active = self._active_by_pid.get(pid)
            if active is not None:
                active.discard(speculation.spec_id)
        # Section 4.2: a committed speculation's checkpoint is discarded
        # (and an aborted one's has been consumed by the rollback).  Only
        # the checkpoints this speculation itself captured leave the
        # store, which it shares with the periodic/communication-induced
        # policies, whose checkpoints must stay restorable; one that a
        # committed recovery line has since adopted stays too.
        for checkpoint in speculation.checkpoints.values():
            self.store.release(checkpoint)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def get(self, spec_id: str) -> Speculation:
        speculation = self._speculations.get(spec_id)
        if speculation is None:
            raise SpeculationError(f"unknown speculation {spec_id!r}")
        return speculation

    def active_for(self, pid: str) -> Set[str]:
        """Ids of the speculations ``pid`` is currently inside."""
        return set(self._active_by_pid.get(pid, set()))

    # ------------------------------------------------------------------
    # hook notifications: taint propagation and absorption
    # ------------------------------------------------------------------
    def on_send(self, pid, message, time, vt=None):
        active = self._active_by_pid.get(pid)
        if active:
            self._message_taint[message.msg_id] = set(active)

    def before_receive(self, pid, message, time):
        taint = self._message_taint.get(message.msg_id)
        if not taint:
            # a network duplicate carries its original's taint
            taint = self._message_taint.get(message.duplicate_of)
            if not taint:
                return
        for spec_id in list(taint):
            speculation = self._speculations.get(spec_id)
            if speculation is None or not speculation.active:
                continue
            if pid in speculation.members:
                continue
            self._absorb(speculation, pid, time)

    def _absorb(self, speculation: Speculation, pid: str, time: float) -> None:
        """Pull ``pid`` into ``speculation``: checkpoint it and register membership."""
        process = self._cluster.process(pid) if self._cluster else None
        if process is None or process.crashed:
            return
        speculation.members.add(pid)
        speculation.checkpoints[pid] = self.store.hold(self.store.capture(process, time))
        self._active_by_pid.setdefault(pid, set()).add(speculation.spec_id)
        self.absorptions += 1

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        by_status = {status.value: 0 for status in SpeculationStatus}
        for speculation in self._speculations.values():
            by_status[speculation.status.value] += 1
        return {
            "total": len(self._speculations),
            "absorptions": self.absorptions,
            "rollbacks": self.rollbacks_performed,
            **by_status,
        }
