"""Safe global recovery lines (paper Figure 6).

A *recovery line* is one checkpoint per process such that the resulting
global state is consistent: no checkpoint reflects the receipt of a
message that, in the restored world, was never sent.  Figure 6 of the
paper shows the classic picture — after process B fails, the system must
not roll B back to a checkpoint that has "seen" a message from A unless A
also rolls back past the corresponding send.

Consistency test
----------------
With vector clocks the condition is compact.  Let ``C_i.vt`` be the
vector timestamp of process *i*'s candidate checkpoint.  The set
``{C_i}`` is consistent iff for every ordered pair *(i, j)*::

    C_i.vt[j] <= C_j.vt[j]

i.e. process *i* must not have observed more of *j*'s history than *j*
itself has at its own checkpoint (an observed-but-not-sent message would
violate exactly this).

Computation
-----------
:func:`compute_recovery_line` starts from the most recent checkpoint of
every process (optionally bounded by a target time for the failed
process) and repeatedly rolls individual processes further back until the
consistency condition holds — the standard rollback-propagation
algorithm.  With *uncoordinated* checkpointing this can cascade all the
way to the initial states (the domino effect); with
communication-induced checkpointing a consistent line at (or very near)
the failure point always exists, which is the property the
ablation-ckpt-policy benchmark quantifies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.dsim.process import ProcessCheckpoint
from repro.errors import RecoveryLineError
from repro.timemachine.checkpoint import (
    CheckpointStore,
    GlobalCheckpoint,
    stamped_scroll_position,
)


def is_consistent(checkpoints: Dict[str, ProcessCheckpoint]) -> bool:
    """True when the given one-checkpoint-per-process set is globally consistent."""
    pids = list(checkpoints)
    for i in pids:
        vt_i = checkpoints[i].vt
        for j in pids:
            if i == j:
                continue
            observed_of_j = vt_i.component(j)
            own_of_j = checkpoints[j].vt.component(j)
            if observed_of_j > own_of_j:
                return False
    return True


def inconsistent_pairs(checkpoints: Dict[str, ProcessCheckpoint]) -> List[Tuple[str, str]]:
    """All ordered pairs ``(i, j)`` where ``i`` observed more of ``j`` than ``j`` has."""
    pids = list(checkpoints)
    pairs: List[Tuple[str, str]] = []
    for i in pids:
        for j in pids:
            if i == j:
                continue
            if checkpoints[i].vt.component(j) > checkpoints[j].vt.component(j):
                pairs.append((i, j))
    return pairs


@dataclass
class RecoveryLine:
    """The result of a recovery-line computation."""

    checkpoints: Dict[str, ProcessCheckpoint]
    rolled_back_steps: Dict[str, int]
    iterations: int
    domino_effect: bool
    label: str = "recovery-line"

    def as_global_checkpoint(self) -> GlobalCheckpoint:
        bundle = GlobalCheckpoint(label=self.label)
        for checkpoint in self.checkpoints.values():
            bundle.add(checkpoint)
        return bundle

    @property
    def pids(self) -> List[str]:
        return sorted(self.checkpoints)

    def total_rollback_steps(self) -> int:
        """How many checkpoints, summed over processes, were discarded to reach the line."""
        return sum(self.rolled_back_steps.values())

    def scroll_position(self) -> Optional[int]:
        """Scroll end position the line corresponds to, when recorded.

        Everything after the earliest stamped position belongs to at
        least one process's rolled-back future, so that is where a
        rollback may truncate the log (see
        :func:`~repro.timemachine.checkpoint.stamped_scroll_position`).
        """
        return stamped_scroll_position(self.checkpoints.values())


def _initial_candidates(
    store: CheckpointStore,
    pids: Sequence[str],
    not_after: Optional[Dict[str, float]] = None,
) -> Dict[str, List[ProcessCheckpoint]]:
    """Per-process candidate lists (oldest -> newest), bounded by ``not_after`` times."""
    candidates: Dict[str, List[ProcessCheckpoint]] = {}
    for pid in pids:
        log = store.log_for(pid)
        checkpoints = log.all()
        if not checkpoints:
            raise RecoveryLineError(f"process {pid!r} has no checkpoints to roll back to")
        bound = (not_after or {}).get(pid)
        if bound is not None:
            checkpoints = [c for c in checkpoints if c.time <= bound]
            if not checkpoints:
                raise RecoveryLineError(
                    f"process {pid!r} has no checkpoint at or before time {bound}"
                )
        candidates[pid] = checkpoints
    return candidates


def compute_recovery_line(
    store: CheckpointStore,
    pids: Optional[Sequence[str]] = None,
    not_after: Optional[Dict[str, float]] = None,
    max_iterations: int = 10_000,
) -> RecoveryLine:
    """Compute the most recent consistent recovery line from a checkpoint store.

    Parameters
    ----------
    store:
        The per-process checkpoint logs (however they were produced).
    pids:
        The processes that must participate; defaults to every process in
        the store.
    not_after:
        Optional per-process upper bounds on checkpoint time — the failed
        process typically must roll back to *before* the failure, so its
        bound is the failure time.
    max_iterations:
        Safety valve on the rollback-propagation loop.

    Returns the :class:`RecoveryLine`; raises
    :class:`~repro.errors.RecoveryLineError` when no consistent line
    exists even at the earliest available checkpoints.
    """
    involved = list(pids) if pids is not None else store.pids()
    if not involved:
        raise RecoveryLineError("no processes to compute a recovery line for")
    candidates = _initial_candidates(store, involved, not_after)

    # Cursor per process: index into its candidate list, starting at the newest.
    cursor = {pid: len(candidates[pid]) - 1 for pid in involved}
    iterations = 0
    while True:
        iterations += 1
        if iterations > max_iterations:
            raise RecoveryLineError("recovery-line computation did not converge")
        current = {pid: candidates[pid][cursor[pid]] for pid in involved}
        bad_pairs = inconsistent_pairs(current)
        if not bad_pairs:
            break
        # Roll back the *observer* of every inconsistent pair: process i saw a
        # message that j has not sent at its checkpoint, so i must move to an
        # earlier checkpoint.  Rolling back observers is what propagates the
        # rollback (and, with uncoordinated checkpoints, produces the domino
        # effect the paper warns about).  Each observer steps back at most
        # once per pass: one inconsistent pair proves its current checkpoint
        # is past the latest consistent cut, but not the one before it, so a
        # second step for a second witness could skip that cut.
        observers = {observer for observer, _witness in bad_pairs if cursor[observer] > 0}
        for observer in observers:
            cursor[observer] -= 1
        if not observers:
            raise RecoveryLineError(
                "no consistent recovery line exists even at the earliest checkpoints; "
                "the processes observed messages that predate every stored checkpoint"
            )

    rolled_back = {
        pid: (len(candidates[pid]) - 1) - cursor[pid] for pid in involved
    }
    domino = any(cursor[pid] == 0 and len(candidates[pid]) > 1 for pid in involved)
    return RecoveryLine(
        checkpoints={pid: candidates[pid][cursor[pid]] for pid in involved},
        rolled_back_steps=rolled_back,
        iterations=iterations,
        domino_effect=domino,
    )


def unsafe_line(store: CheckpointStore, pids: Optional[Sequence[str]] = None) -> GlobalCheckpoint:
    """The naive "latest checkpoint of everyone" line (Figure 6's *unsafe* line).

    Provided so tests and benchmarks can demonstrate why simply taking
    everyone's newest checkpoint is not enough: the returned bundle is
    frequently inconsistent under uncoordinated checkpointing.
    """
    involved = list(pids) if pids is not None else store.pids()
    bundle = GlobalCheckpoint(label="unsafe-latest")
    for pid in involved:
        latest = store.latest(pid)
        if latest is None:
            raise RecoveryLineError(f"process {pid!r} has no checkpoints")
        bundle.add(latest)
    return bundle
