"""The Time Machine facade: checkpoint policy + recovery lines + rollback.

This is the component FixD's orchestration talks to.  It bundles

* a checkpoint *policy* hook (communication-induced, periodic, or
  coordinated snapshots on demand),
* the shared :class:`~repro.timemachine.checkpoint.CheckpointStore` and
  :class:`~repro.timemachine.cow.CowPageStore`,
* the :class:`~repro.timemachine.speculation.SpeculationManager`, and
* a :class:`~repro.timemachine.rollback.RollbackManager`

behind a small API: ``attach(cluster)``, ``rollback_to_consistent_state()``
and ``stats()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Optional

from repro.dsim.hooks import RuntimeHook
from repro.errors import CheckpointError
from repro.timemachine.blobstore import DurableCheckpointStore
from repro.timemachine.flush_pipeline import DEFAULT_FLUSH_QUEUE_BYTES
from repro.timemachine.checkpoint import CheckpointStore, GlobalCheckpoint
from repro.timemachine.comm_induced import (
    CommunicationInducedCheckpointing,
    PeriodicCheckpointing,
)
from repro.timemachine.coordinated import CoordinatedSnapshotter
from repro.timemachine.cow import CowPageStore
from repro.timemachine.recovery_line import RecoveryLine, compute_recovery_line
from repro.timemachine.rollback import RollbackManager, RollbackResult
from repro.timemachine.speculation import SpeculationManager


class CheckpointPolicy(Enum):
    """Which checkpointing scheme the Time Machine runs."""

    COMMUNICATION_INDUCED = "communication-induced"
    PERIODIC = "periodic"
    COORDINATED = "coordinated"


#: Where committed recovery lines live.
CHECKPOINT_STORES = ("memory", "disk")


def check_checkpoint_store(checkpoint_store: str, store_path, error=CheckpointError) -> None:
    """Reject an unknown ``checkpoint_store`` or a ``"disk"`` store with no root.

    The one copy of the rule ``Scenario`` and :class:`TimeMachine` both
    apply; raises ``error``.
    """
    if checkpoint_store not in CHECKPOINT_STORES:
        raise error(
            f"unknown checkpoint_store {checkpoint_store!r}; "
            f"expected one of {CHECKPOINT_STORES}"
        )
    if checkpoint_store == "disk" and not store_path:
        raise error(
            "checkpoint_store='disk' requires an explicit store_path "
            "(no implicit default directory)"
        )


@dataclass
class TimeMachineConfig:
    """Configuration of the Time Machine facade.

    The COW store and the durable store are both built with
    :mod:`repro.timemachine.cow`'s default chunk layout, which is what
    lets a commit reuse the COW chunk caches without re-pickling.
    """

    policy: CheckpointPolicy = CheckpointPolicy.COMMUNICATION_INDUCED
    periodic_interval: int = 10
    #: "memory" keeps checkpoints in-process (a crashed experiment loses
    #: them); "disk" also flushes every committed recovery line to a
    #: durable content-addressed blob store ``Experiment.resume`` can
    #: rebuild a cluster from
    checkpoint_store: str = "memory"
    #: root directory of the durable store (required for "disk")
    store_path: Optional[str] = None
    #: durable manifests are written under runs/<run_id>/
    run_id: str = "run"
    #: "sync" flushes committed lines inline; "pipelined" snapshots the
    #: payload at commit time and moves blob IO and fsyncs to a bounded
    #: background writer (drained at rollback, rotation/GC, run end and
    #: stats reads, so the crash-window invariant and resume semantics
    #: are unchanged)
    flush_mode: str = "sync"
    #: pipelined mode: queue bound in payload bytes before commits block
    flush_queue_bytes: int = DEFAULT_FLUSH_QUEUE_BYTES


class _DurableDrainHook(RuntimeHook):
    """Run-end pipeline barrier for pipelined durable stores.

    Draining at run end means an in-process caller reading the store
    right after ``cluster.run`` sees every commit durable, and a
    continuation started from the same process never races the previous
    run's queued writes.
    """

    def __init__(self, durable) -> None:
        self._durable = durable

    def on_run_end(self, time: float) -> None:
        self._durable.drain()


class TimeMachine:
    """FixD's rollback component."""

    def __init__(self, config: Optional[TimeMachineConfig] = None) -> None:
        self.config = config or TimeMachineConfig()
        check_checkpoint_store(self.config.checkpoint_store, self.config.store_path)
        self.store = CheckpointStore()
        self.cow_store = CowPageStore()
        self.durable_store: Optional[DurableCheckpointStore] = None
        if self.config.checkpoint_store == "disk":
            self.durable_store = DurableCheckpointStore(
                self.config.store_path,
                run_id=self.config.run_id,
                flush_mode=self.config.flush_mode,
                flush_queue_bytes=self.config.flush_queue_bytes,
            )
        self.speculations = SpeculationManager(self.store, self.cow_store)
        self._cluster = None
        self._rollback_manager: Optional[RollbackManager] = None
        self._policy_hook = None
        self._snapshotter: Optional[CoordinatedSnapshotter] = None

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach(self, cluster) -> None:
        """Install the checkpoint policy and speculation manager on a cluster."""
        self._cluster = cluster
        # the COW chunk caches feed the durable flush (zero-re-pickle commits)
        self._rollback_manager = RollbackManager(
            cluster, durable=self.durable_store, cow=self.cow_store
        )
        if self.durable_store is not None and self.durable_store.pipeline is not None:
            cluster.add_hook(_DurableDrainHook(self.durable_store))
        if self.config.policy is CheckpointPolicy.COMMUNICATION_INDUCED:
            self._policy_hook = CommunicationInducedCheckpointing(self.store, self.cow_store)
            cluster.add_hook(self._policy_hook)
        elif self.config.policy is CheckpointPolicy.PERIODIC:
            self._policy_hook = PeriodicCheckpointing(
                self.config.periodic_interval, self.store, self.cow_store
            )
            cluster.add_hook(self._policy_hook)
        else:
            self._snapshotter = CoordinatedSnapshotter(self.store)
        cluster.add_hook(self.speculations)

    @property
    def cluster(self):
        if self._cluster is None:
            raise CheckpointError("TimeMachine is not attached to a cluster")
        return self._cluster

    @property
    def rollback_manager(self) -> RollbackManager:
        if self._rollback_manager is None:
            raise CheckpointError("TimeMachine is not attached to a cluster")
        return self._rollback_manager

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def snapshot_now(self, label: str = "manual") -> GlobalCheckpoint:
        """Take an immediate coordinated snapshot (regardless of policy)."""
        if self._snapshotter is None:
            self._snapshotter = CoordinatedSnapshotter(self.store)
        return self._snapshotter.take_snapshot(self.cluster, label).global_checkpoint

    def checkpoint_process(self, pid: str) -> None:
        """Force a local checkpoint of one process right now."""
        process = self.cluster.process(pid)
        checkpoint = process.capture_checkpoint(self.cluster.now)
        self.store.add(checkpoint)
        self.cow_store.capture(
            pid, process.state, self.cluster.now, sequence=checkpoint.sequence
        )

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def latest_recovery_line(
        self, not_after: Optional[Dict[str, float]] = None
    ) -> RecoveryLine:
        """Compute the most recent consistent recovery line from stored checkpoints."""
        return compute_recovery_line(self.store, not_after=not_after)

    def rollback_to_consistent_state(
        self, not_after: Optional[Dict[str, float]] = None, truncate_scroll: bool = False
    ) -> RollbackResult:
        """Compute a safe recovery line and apply it to the cluster."""
        line = self.latest_recovery_line(not_after=not_after)
        return self.rollback_manager.rollback(line, truncate_scroll=truncate_scroll)

    def rollback_to(self, line: RecoveryLine, truncate_scroll: bool = False) -> RollbackResult:
        """Apply a pre-computed recovery line.

        ``truncate_scroll`` additionally cuts the cluster's registered
        Scroll (hot tier and spilled segments alike) back to the log
        position stamped on the line's checkpoints.
        """
        return self.rollback_manager.rollback(line, truncate_scroll=truncate_scroll)

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Checkpoint, storage and speculation statistics for reports."""
        stats: Dict[str, object] = {
            "policy": self.config.policy.value,
            "checkpoints": self.store.total_checkpoints(),
            "checkpoint_bytes_full": self.store.total_bytes(),
            "rollbacks": self._rollback_manager.rollbacks_performed if self._rollback_manager else 0,
            "speculations": self.speculations.stats(),
            "cow_stored_bytes": self.cow_store.stored_bytes(),
            "cow_logical_bytes": self.cow_store.logical_bytes(),
            "cow_savings_ratio": self.cow_store.savings_ratio(),
            # dirty-tracking effectiveness: how much capture work the
            # per-key cache avoided across the run
            "cow_hashed_bytes": self.cow_store.hashed_bytes_total,
            "cow_serialized_bytes": self.cow_store.serialized_bytes_total,
        }
        if self.durable_store is not None:
            stats["durable"] = self.durable_store.stats()
        return stats
