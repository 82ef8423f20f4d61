"""Coordinated snapshots: the traditional checkpoint-and-rollback baseline.

The paper contrasts speculations with "traditional checkpoint and
rollback mechanisms".  The traditional coordinated approach is a global
snapshot protocol in the style of Chandy–Lamport: all processes agree to
cut the execution at one point and the channel contents crossing the cut
are recorded too.

In the deterministic simulator a coordinated snapshot can be taken
*between* events, which yields exactly the state a marker-based protocol
would converge to: per-process states at the cut plus the set of messages
sent before the cut but not yet delivered (the channel state).  The
substitution is documented in DESIGN.md; the observable result — a
consistent global checkpoint including in-flight messages — is the same,
and the cost model (every process checkpoints at the same cut, whether or
not it benefits) is what the ablation benchmark measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.dsim.message import Message
from repro.dsim.scheduler import EventKind
from repro.timemachine.checkpoint import CheckpointStore, GlobalCheckpoint
from repro.timemachine.recovery_line import RecoveryLine, is_consistent


@dataclass
class CoordinatedSnapshot:
    """A coordinated global snapshot: process states plus channel contents."""

    global_checkpoint: GlobalCheckpoint
    in_flight: List[Message] = field(default_factory=list)
    time: float = 0.0

    @property
    def consistent(self) -> bool:
        return is_consistent(self.global_checkpoint.checkpoints)


class CoordinatedSnapshotter:
    """Takes coordinated snapshots of a cluster on demand or periodically."""

    def __init__(self, store: Optional[CheckpointStore] = None) -> None:
        self.store = store if store is not None else CheckpointStore()
        self.snapshots: List[CoordinatedSnapshot] = []

    def take_snapshot(self, cluster, label: str = "coordinated") -> CoordinatedSnapshot:
        """Snapshot every live process and the in-flight messages right now."""
        bundle = GlobalCheckpoint(label=label)
        for pid in cluster.pids:
            process = cluster.process(pid)
            if process.crashed:
                continue
            bundle.add(self.store.capture(process, cluster.now))
        in_flight = [event.payload for event in cluster.scheduler.pending(EventKind.DELIVER)]
        snapshot = CoordinatedSnapshot(
            global_checkpoint=bundle, in_flight=list(in_flight), time=cluster.now
        )
        self.snapshots.append(snapshot)
        return snapshot

    def latest(self) -> Optional[CoordinatedSnapshot]:
        return self.snapshots[-1] if self.snapshots else None

    def restore_latest(self, cluster, redeliver_in_flight: bool = True) -> Optional[CoordinatedSnapshot]:
        """Roll the cluster back to the latest snapshot (including channel state)."""
        snapshot = self.latest()
        if snapshot is None:
            return None
        cluster.restore_checkpoints(dict(snapshot.global_checkpoint.checkpoints))
        if redeliver_in_flight:
            for message in snapshot.in_flight:
                cluster.scheduler.schedule(0.0, EventKind.DELIVER, message.dst, message)
        return snapshot

    def as_recovery_line(self) -> Optional[RecoveryLine]:
        """Expose the latest snapshot in recovery-line form (zero rollback steps)."""
        snapshot = self.latest()
        if snapshot is None:
            return None
        return RecoveryLine(
            checkpoints=dict(snapshot.global_checkpoint.checkpoints),
            rolled_back_steps={pid: 0 for pid in snapshot.global_checkpoint.pids()},
            iterations=1,
            domino_effect=False,
            label="coordinated-snapshot",
        )
