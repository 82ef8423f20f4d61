"""The Time Machine: checkpointing, speculations and distributed rollback.

Paper Sections 3.2 and 4.2 (Figures 2 and 6).  The Time Machine's job is
to take the system back to a *consistent* global state that predates an
invariant violation, so the Investigator can explore alternative
executions and the Healer can resume from useful work instead of
restarting from scratch.

The package provides:

* per-process checkpoint logs (:mod:`repro.timemachine.checkpoint`)
  whose checkpoints are copy-on-write incremental captures
  (:mod:`repro.timemachine.cow`);
* three checkpointing *policies*: communication-induced (the paper's
  choice, driven by speculations), periodic/uncoordinated, and a
  coordinated stop-the-world snapshot standing in for Chandy–Lamport
  (:mod:`repro.timemachine.comm_induced`, :mod:`repro.timemachine.coordinated`);
* distributed speculations with absorption and abort-driven rollback
  (:mod:`repro.timemachine.speculation`);
* safe recovery-line computation over per-process checkpoint histories
  (:mod:`repro.timemachine.recovery_line`);
* the rollback manager and the :class:`~repro.timemachine.time_machine.TimeMachine`
  facade that FixD uses.
"""

from repro.timemachine.blobstore import (  # facade-ok
    BlobStore,
    DurableCheckpointStore,
    IntegrityReport,
    check_flush_mode,
)
from repro.timemachine.checkpoint import CheckpointStore, GlobalCheckpoint, LocalCheckpointLog
from repro.timemachine.comm_induced import CommunicationInducedCheckpointing, PeriodicCheckpointing
from repro.timemachine.coordinated import CoordinatedSnapshotter
from repro.timemachine.cow import CowCheckpoint, CowPageStore
from repro.timemachine.flush_pipeline import (  # facade-ok
    DEFAULT_FLUSH_QUEUE_BYTES,
    FlushPipeline,
)
from repro.timemachine.recovery_line import RecoveryLine, compute_recovery_line, is_consistent
from repro.timemachine.rollback import RollbackManager, RollbackResult
from repro.timemachine.speculation import Speculation, SpeculationManager, SpeculationStatus
from repro.timemachine.time_machine import CheckpointPolicy, TimeMachine

__all__ = [
    "BlobStore",
    "DurableCheckpointStore",
    "IntegrityReport",
    "check_flush_mode",
    "CheckpointStore",
    "GlobalCheckpoint",
    "LocalCheckpointLog",
    "CommunicationInducedCheckpointing",
    "PeriodicCheckpointing",
    "CoordinatedSnapshotter",
    "CowCheckpoint",
    "CowPageStore",
    "DEFAULT_FLUSH_QUEUE_BYTES",
    "FlushPipeline",
    "RecoveryLine",
    "compute_recovery_line",
    "is_consistent",
    "RollbackManager",
    "RollbackResult",
    "Speculation",
    "SpeculationManager",
    "SpeculationStatus",
    "CheckpointPolicy",
    "TimeMachine",
]
