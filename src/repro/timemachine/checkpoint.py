"""Checkpoint storage: per-process checkpoint logs and global checkpoints.

One checkpoint is one copy: :meth:`CheckpointStore.capture` takes a
single copy-on-write capture of the process state into the store's
:class:`~repro.timemachine.cow.CowPageStore`, and the logged
:class:`~repro.dsim.process.ProcessCheckpoint` references it.  The log
is the only record of which captures are live; the page store only
counts page references.  A checkpoint leaves the log by exactly two
exits, a commit's :meth:`~CheckpointStore.drop_before` and a resolved
speculation's :meth:`~CheckpointStore.release`, and each hands the
capture straight to :meth:`~repro.timemachine.cow.CowPageStore.release`.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Set

from repro.dsim.process import ProcessCheckpoint
from repro.errors import CheckpointError
from repro.timemachine.cow import CowPageStore


def stamped_scroll_position(checkpoints: Iterable[ProcessCheckpoint]) -> Optional[int]:
    """Earliest Scroll position stamped on a set of checkpoints.

    Checkpoints captured while a Scroll was recording carry the log's
    end position (``extra["scroll_position"]``); a consistent set is
    safe to truncate the log to the *minimum* of those positions — the
    prefix every member agrees happened.  ``None`` when the set is
    empty or any member lacks the stamp (truncating on a guess could
    discard entries a stampless process still depends on).
    """
    positions = [checkpoint.extra.get("scroll_position") for checkpoint in checkpoints]
    if not positions or any(position is None for position in positions):
        return None
    return min(positions)


class LocalCheckpointLog:
    """The ordered history of one process's local checkpoints.

    Checkpoints are kept in capture order; ``sequence`` numbers come from
    the process itself and are strictly increasing.  Checkpoints leave
    only through the owning :class:`CheckpointStore`, which releases
    their pages as they go.
    """

    def __init__(self, pid: str) -> None:
        self.pid = pid
        self._checkpoints: List[ProcessCheckpoint] = []

    def add(self, checkpoint: ProcessCheckpoint) -> ProcessCheckpoint:
        """Append a checkpoint, keeping log sequence numbers monotone.

        A process that was restarted or dynamically updated starts
        counting its checkpoints from scratch; the log re-sequences such
        checkpoints so the history stays totally ordered.
        """
        if checkpoint.pid != self.pid:
            raise CheckpointError(
                f"checkpoint for {checkpoint.pid!r} added to the log of {self.pid!r}"
            )
        if self._checkpoints and checkpoint.sequence <= self._checkpoints[-1].sequence:
            checkpoint.sequence = self._checkpoints[-1].sequence + 1
        self._checkpoints.append(checkpoint)
        return checkpoint

    def __len__(self) -> int:
        return len(self._checkpoints)

    def __iter__(self) -> Iterator[ProcessCheckpoint]:
        return iter(self._checkpoints)

    @property
    def latest(self) -> Optional[ProcessCheckpoint]:
        return self._checkpoints[-1] if self._checkpoints else None

    @property
    def earliest(self) -> Optional[ProcessCheckpoint]:
        return self._checkpoints[0] if self._checkpoints else None

    def all(self) -> List[ProcessCheckpoint]:
        return list(self._checkpoints)

    def _index(self, sequence: int) -> Optional[int]:
        # add() keeps sequences strictly increasing, so the log bisects.
        index = bisect_left(self._checkpoints, sequence, key=lambda c: c.sequence)
        if index < len(self._checkpoints) and self._checkpoints[index].sequence == sequence:
            return index
        return None

    def by_sequence(self, sequence: int) -> ProcessCheckpoint:
        index = self._index(sequence)
        if index is None:
            raise CheckpointError(f"no checkpoint with sequence {sequence} for process {self.pid!r}")
        return self._checkpoints[index]

    def latest_before(self, time: float) -> Optional[ProcessCheckpoint]:
        """The most recent checkpoint captured at or before ``time``."""
        # Scan from the newest end: recovery lines sit near the tail, so
        # the common case returns after a few steps instead of copying
        # every matching checkpoint.
        for checkpoint in reversed(self._checkpoints):
            if checkpoint.time <= time:
                return checkpoint
        return None

    def discard(self, checkpoint: ProcessCheckpoint) -> bool:
        """Remove ``checkpoint`` from the log; False when it is not held."""
        index = self._index(checkpoint.sequence)
        if index is None or self._checkpoints[index] is not checkpoint:
            return False
        del self._checkpoints[index]
        return True

    def total_bytes(self) -> int:
        """Approximate storage cost of the whole log."""
        return sum(checkpoint.size_bytes() for checkpoint in self._checkpoints)


@dataclass
class GlobalCheckpoint:
    """One checkpoint per process, claimed to be globally consistent.

    The Investigator is fed one of these (assembled by the fault-response
    protocol of Figure 4); :func:`repro.timemachine.recovery_line.is_consistent`
    is the check that the claim actually holds.
    """

    checkpoints: Dict[str, ProcessCheckpoint] = field(default_factory=dict)
    label: str = ""

    def add(self, checkpoint: ProcessCheckpoint) -> None:
        self.checkpoints[checkpoint.pid] = checkpoint

    def pids(self) -> List[str]:
        return sorted(self.checkpoints)

    def __contains__(self, pid: str) -> bool:
        return pid in self.checkpoints

    def __getitem__(self, pid: str) -> ProcessCheckpoint:
        return self.checkpoints[pid]

    def total_bytes(self) -> int:
        return sum(checkpoint.size_bytes() for checkpoint in self.checkpoints.values())

    def max_time(self) -> float:
        """Latest capture time among the member checkpoints."""
        return max((c.time for c in self.checkpoints.values()), default=0.0)

    def min_time(self) -> float:
        """Earliest capture time among the member checkpoints."""
        return min((c.time for c in self.checkpoints.values()), default=0.0)

    def scroll_position(self) -> Optional[int]:
        """Earliest Scroll position stamped on the member checkpoints
        (see :func:`stamped_scroll_position`)."""
        return stamped_scroll_position(self.checkpoints.values())


class CheckpointStore:
    """All local checkpoint logs of a running system, keyed by process id."""

    def __init__(self) -> None:
        self._logs: Dict[str, LocalCheckpointLog] = {}
        #: the page store :meth:`capture` writes states into
        self.cow = CowPageStore()
        #: COW pages released by :meth:`drop_before` and :meth:`release`
        self.pages_freed = 0
        #: checkpoints an active speculation may still restore
        #: (:meth:`hold`); a commit's :meth:`drop_before` spares them
        self._held: Set[ProcessCheckpoint] = set()
        #: per pid, the sequence of its committed member (the last
        #: :meth:`drop_before` bound); :meth:`release` never removes it
        self._committed: Dict[str, int] = {}

    def log_for(self, pid: str) -> LocalCheckpointLog:
        """The checkpoint log of ``pid`` (created on first use)."""
        if pid not in self._logs:
            self._logs[pid] = LocalCheckpointLog(pid)
        return self._logs[pid]

    def add(self, checkpoint: ProcessCheckpoint) -> ProcessCheckpoint:
        return self.log_for(checkpoint.pid).add(checkpoint)

    def capture(self, process, time: float) -> ProcessCheckpoint:
        """Checkpoint ``process`` now and log it: one COW capture, no deep copy."""
        cow = self.cow.capture(process.pid, process.state, time)
        return self.add(process.capture_checkpoint(time, cow=cow))

    def drop_before(self, pid: str, sequence: int) -> int:
        """Forget ``pid``'s checkpoints older than ``sequence``; returns pages freed.

        This is what a committed recovery line makes unreachable: no
        rollback may restore a process to a state older than its
        committed checkpoint, so those checkpoints leave the log and
        their COW pages are released.  A checkpoint an active speculation
        holds (:meth:`hold`) stays until the speculation releases it: an
        abort restores it whatever was committed meanwhile.
        """
        self._committed[pid] = sequence
        log = self._logs.get(pid)
        if log is None:
            return 0
        dropped = [c for c in log if c.sequence < sequence and c not in self._held]
        return sum(self._release(log, checkpoint) for checkpoint in dropped)

    def hold(self, checkpoint: ProcessCheckpoint) -> ProcessCheckpoint:
        """Keep ``checkpoint`` restorable across commits until :meth:`release`."""
        self._held.add(checkpoint)
        return checkpoint

    def release(self, checkpoint: ProcessCheckpoint) -> int:
        """Let go of a held checkpoint; returns pages freed.

        It leaves the log and its pages are released, unless a commit
        has since made it its process's committed member: the committed
        line must stay restorable.
        """
        self._held.discard(checkpoint)
        if self._committed.get(checkpoint.pid) == checkpoint.sequence:
            return 0
        log = self._logs.get(checkpoint.pid)
        if log is None:
            return 0
        return self._release(log, checkpoint)

    def _release(self, log: LocalCheckpointLog, checkpoint: ProcessCheckpoint) -> int:
        """The one exit: take ``checkpoint`` out of ``log`` and release its capture."""
        if not log.discard(checkpoint) or checkpoint.cow is None:
            return 0
        freed = self.cow.release(checkpoint.cow)
        self.pages_freed += freed
        return freed

    def pids(self) -> List[str]:
        return sorted(self._logs)

    def latest(self, pid: str) -> Optional[ProcessCheckpoint]:
        return self.log_for(pid).latest

    def latest_global(self, label: str = "latest") -> GlobalCheckpoint:
        """The newest checkpoint of every process, bundled (not necessarily consistent)."""
        bundle = GlobalCheckpoint(label=label)
        for pid in self.pids():
            latest = self.latest(pid)
            if latest is None:
                raise CheckpointError(f"process {pid!r} has no checkpoints yet")
            bundle.add(latest)
        return bundle

    def checkpoint_counts(self) -> Dict[str, int]:
        return {pid: len(log) for pid, log in self._logs.items()}

    def total_checkpoints(self) -> int:
        return sum(len(log) for log in self._logs.values())

    def total_bytes(self) -> int:
        return sum(log.total_bytes() for log in self._logs.values())
