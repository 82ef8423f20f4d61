"""The FixD controller: the end-to-end pipeline of the paper.

:class:`FixD` is the object a developer attaches to a cluster to get the
whole FixD behaviour without touching application code:

* the **Scroll** records every nondeterministic action;
* the **Time Machine** checkpoints transparently (communication-induced
  by default) and can roll the system back to a consistent state;
* the **fault detector** watches the processes' declared invariants;
* on a fault, the **fault-response protocol** (Figure 4) assembles a
  consistent global checkpoint and the peers' models, the
  **Investigator** explores executions from that state and returns
  violating trails, and a **bug report** is produced;
* if the developer has registered a **patch**, the **Healer** applies it
  using the configured recovery strategy (Figure 5) and the run
  continues.

Typical use::

    cluster = Cluster(ClusterConfig(seed=7))
    ... add processes ...
    fixd = FixD()
    fixd.attach(cluster)
    result = cluster.run()
    for report in fixd.reports:
        print(report.bug_report.to_text())
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.events import FaultEvent, RecoveryTimeline
from repro.core.faults import FaultDetector
from repro.errors import AttachmentError, RecoveryLineError
from repro.core.protocol import FaultResponseCoordinator, ProtocolRun
from repro.core.registry import CapabilityMatrix, default_matrix
from repro.core.report import BugReport
from repro.dsim.process import Process
from repro.healer.healer import Healer, HealReport
from repro.healer.patch import Patch
from repro.healer.strategies import RecoveryStrategy
from repro.investigator.investigator import InvestigationReport, Investigator, InvestigatorConfig
from repro.dsim.hooks import RuntimeHook
from repro.scroll.interceptor import RecordingPolicy
from repro.scroll.recorder import ScrollRecorder
from repro.timemachine.rollback import RollbackResult
from repro.timemachine.time_machine import TimeMachine, TimeMachineConfig

ProcessFactory = Callable[[], Process]


#: how many Scroll entries per process a bug report's tail carries
SCROLL_TAIL_LENGTH = 50

#: With a ``"disk"`` store, the auto-committer flushes the Scroll tail to
#: a durable segment once this many recorded entries await durability —
#: segment-granularity incremental flushing between line commits
#: (commits always flush regardless).  The flush rides the committer's
#: ``after_handler``, so it is active whenever ``auto_commit_interval``
#: is set.
SCROLL_FLUSH_ENTRIES = 256


@dataclass
class FixDConfig:
    """Behaviour of the FixD controller.

    Each layer's knobs live on that layer's own config, nested here:
    checkpoint policy and the durable store on ``time_machine``, Scroll
    tiering on ``recording_policy``, search limits on ``investigator``.
    The backend is the cluster's (``Cluster(config, backend=...)``).
    """

    time_machine: TimeMachineConfig = field(default_factory=TimeMachineConfig)
    recording_policy: RecordingPolicy = field(default_factory=RecordingPolicy)
    investigator: InvestigatorConfig = field(default_factory=InvestigatorConfig)
    investigate_on_fault: bool = True
    heal_strategy: RecoveryStrategy = RecoveryStrategy.RESUME_FROM_CHECKPOINT
    max_faults_handled: int = 10
    #: After a rollback (and once the bug report's Scroll tail is safely
    #: assembled), truncate the Scroll — both the hot tier and the
    #: spilled segments — to the recovery line's recorded log position,
    #: so the log never describes a future the rolled-back system will
    #: re-execute differently.
    truncate_scroll_on_rollback: bool = False
    #: Every ``auto_commit_interval`` simulated time units, commit the
    #: newest consistent recovery line that is at least one interval old
    #: (:meth:`~repro.timemachine.rollback.RollbackManager.commit`),
    #: garbage-collecting the Scroll segments below it — so a tiered log
    #: stays disk-bounded without manual commit calls.  ``None`` (the
    #: default) keeps the whole log.  Committing is a promise: later
    #: rollbacks cannot reach past a committed line.
    auto_commit_interval: Optional[float] = None


@dataclass
class FixDReport:
    """Everything FixD produced in response to one fault."""

    fault: FaultEvent
    bug_report: BugReport
    protocol_run: Optional[ProtocolRun] = None
    rollback: Optional[RollbackResult] = None
    investigation: Optional[InvestigationReport] = None
    heal: Optional[HealReport] = None
    handled: bool = False

    @property
    def healed(self) -> bool:
        return self.heal is not None and self.heal.succeeded


class PeriodicLineCommitter(RuntimeHook):
    """Periodically commits an old-enough recovery line (Scroll segment GC).

    Every ``interval`` simulated time units this hook computes the
    newest *consistent* recovery line whose checkpoints are all at
    least ``interval`` old, and commits it through the Time Machine's
    :class:`~repro.timemachine.rollback.RollbackManager` — which
    unlinks the cold Scroll segments below the line's recorded log
    position.  The age bound keeps a healthy margin between the commit
    frontier and where a fault-response rollback would land, since a
    committed line is a hard floor for future rollbacks.
    """

    def __init__(self, time_machine: TimeMachine, interval: float) -> None:
        if interval <= 0:
            raise ValueError("auto_commit_interval must be positive")
        self._time_machine = time_machine
        self.interval = interval
        self._flush_scroll = time_machine.durable_store is not None
        self._last_attempt = 0.0
        self.commits = 0
        self.entries_collected = 0

    def after_handler(self, pid: str, description: str, time: float) -> None:
        if self._flush_scroll:
            # segment-granularity incremental durability between commits
            self._time_machine.rollback_manager.maybe_flush_scroll(SCROLL_FLUSH_ENTRIES)
        if time - self._last_attempt < self.interval:
            return
        self._last_attempt = time
        bound = time - self.interval
        if bound <= 0:
            return
        store = self._time_machine.store
        pids = store.pids()
        if not pids:
            return
        try:
            line = self._time_machine.latest_recovery_line(
                not_after={line_pid: bound for line_pid in pids}
            )
        except RecoveryLineError:
            return  # no old-enough consistent line yet; try next interval
        position = line.scroll_position()
        if position is None:
            return  # nothing stamped to collect against
        manager = self._time_machine.rollback_manager
        committed = manager.committed_lines
        if committed:
            last_position = committed[-1].scroll_position()
            if last_position is not None and position <= last_position:
                return  # would not advance the commit frontier
        self.entries_collected += manager.commit(line)
        self.commits += 1


class FixD:
    """The FixD tool: attach it to a cluster and it takes over fault handling."""

    def __init__(self, config: Optional[FixDConfig] = None, scroll=None) -> None:
        """``scroll`` seeds the recorder with pre-existing history — a
        resumed continuation passes the Scroll rebuilt from the durable
        store so new recording appends past the persisted past."""
        self.config = config or FixDConfig()
        # The recorder builds the Scroll from the recording policy:
        # tiered (spill-to-disk) when the policy sets a hot_window.
        self.recorder = ScrollRecorder(scroll=scroll, policy=self.config.recording_policy)
        self.scroll = self.recorder.scroll
        self.time_machine = TimeMachine(self.config.time_machine)
        self.detector = FaultDetector()
        self.investigator = Investigator(self.config.investigator)
        self.reports: List[FixDReport] = []
        self._cluster = None
        self._can_recover = True
        self._coordinator: Optional[FaultResponseCoordinator] = None
        self._healer: Optional[Healer] = None
        self._patches: List[Patch] = []
        self._model_overrides: Dict[str, ProcessFactory] = {}
        self._environment_models: Dict[str, ProcessFactory] = {}
        self.auto_committer: Optional[PeriodicLineCommitter] = None

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    @staticmethod
    def _backend_capabilities(cluster) -> frozenset:
        backend = getattr(cluster, "backend", None)
        return getattr(backend, "capabilities", frozenset())

    def attach(self, cluster) -> "FixD":
        """Install the Scroll recorder, Time Machine, and fault detector on a cluster.

        What attaches depends on the backend's advertised capabilities:
        recording and fault detection are substrate-independent, but the
        Time Machine's checkpoint policies and the Healer need frontend
        access to live process state, which only checkpoint-capable
        backends (the simulator) provide.  On other substrates FixD
        degrades gracefully to detection + bug reporting.

        A FixD instance attaches exactly once: re-attaching would
        install the recorder/detector hooks a second time and duplicate
        the fault responders, so a second call raises
        :class:`~repro.errors.AttachmentError` — build a fresh
        :class:`FixD` per cluster instead.
        """
        if self._cluster is not None:
            raise AttachmentError(
                "this FixD instance is already attached to a cluster; re-attaching "
                "would duplicate its recorder/detector hooks and fault responders. "
                "Create a new FixD per run."
            )
        self._cluster = cluster
        capabilities = self._backend_capabilities(cluster)
        cluster.add_hook(self.recorder)
        self._can_recover = "checkpoint" in capabilities and "rollback" in capabilities
        if self._can_recover:
            self.time_machine.attach(cluster)
            self._healer = Healer(cluster, self.time_machine)
            if self.config.auto_commit_interval is not None:
                self.auto_committer = PeriodicLineCommitter(
                    self.time_machine, self.config.auto_commit_interval
                )
                cluster.add_hook(self.auto_committer)
        self.detector.add_responder(self._handle_fault)
        cluster.add_hook(self.detector)
        self._coordinator = FaultResponseCoordinator(
            self.time_machine,
            model_overrides=self._model_overrides,
            environment_models=self._environment_models,
        )
        return self

    @property
    def cluster(self):
        if self._cluster is None:
            raise RuntimeError("FixD is not attached to a cluster; call attach() first")
        return self._cluster

    # ------------------------------------------------------------------
    # developer-facing registration
    # ------------------------------------------------------------------
    def register_patch(self, patch: Patch) -> None:
        """Register the programmer's fix; it is applied by the Healer on the next fault."""
        self._patches.append(patch)

    def register_model_override(self, pid: str, factory: ProcessFactory) -> None:
        """Use an abstract model instead of the real implementation for ``pid``."""
        self._model_overrides[pid] = factory
        if self._coordinator is not None:
            self._coordinator.register_model_override(pid, factory)

    def register_environment_model(self, name: str, factory: ProcessFactory) -> None:
        """Model a component outside FixD's control (network, external service, ...)."""
        self._environment_models[name] = factory
        if self._coordinator is not None:
            self._coordinator.register_environment_model(name, factory)

    # ------------------------------------------------------------------
    # the pipeline
    # ------------------------------------------------------------------
    def _handle_fault(self, fault: FaultEvent) -> bool:
        if self._cluster is None or self._coordinator is None:
            return False
        if len(self.reports) >= self.config.max_faults_handled:
            return False
        if not self._can_recover:
            return self._report_without_recovery(fault)

        timeline = RecoveryTimeline()
        now = self._cluster.now
        timeline.add(now, "detect", fault.describe())

        # Figure 4, steps 1-4: roll back, notify, collect checkpoints + models.
        protocol_run = self._coordinator.run(self._cluster, fault, scroll=self.scroll)
        timeline.add(
            self._cluster.now,
            "collect",
            f"collected {len(protocol_run.responses)} peer responses; "
            f"recovery line consistent: {protocol_run.consistent}; "
            f"{len(protocol_run.in_flight)} message(s) in flight at the line",
        )

        rollback = self.time_machine.rollback_to(protocol_run.recovery_line)
        timeline.add(
            self._cluster.now,
            "rollback",
            f"rolled back {len(rollback.restored_pids)} processes "
            f"(max distance {rollback.max_rollback_distance:.3f})",
        )

        investigation: Optional[InvestigationReport] = None
        if self.config.investigate_on_fault:
            investigation = self.investigator.investigate(
                protocol_run.model_factories,
                checkpoint=protocol_run.global_checkpoint,
                in_flight=protocol_run.in_flight,
                take_msg_id=self._cluster.msg_ids.take,
            )
            timeline.add(
                self._cluster.now,
                "investigate",
                f"explored {investigation.states_explored} states, "
                f"found {len(investigation.trails)} violating trail(s)",
            )

        bug_report = BugReport(
            fault=fault,
            scroll_tail=BugReport.build_scroll_tail(
                self.scroll, self._cluster.pids, SCROLL_TAIL_LENGTH
            ),
            investigation=investigation,
            timeline=timeline,
            recovery_line_times={
                pid: checkpoint.time
                for pid, checkpoint in protocol_run.recovery_line.checkpoints.items()
            },
        )
        timeline.add(self._cluster.now, "report", "bug report assembled")

        heal_report: Optional[HealReport] = None
        if self._patches and self._healer is not None:
            patch = self._patches[-1]
            heal_report = self._healer.heal(
                patch,
                strategy=self.config.heal_strategy,
                recovery_line=protocol_run.recovery_line,
            )
            bug_report.healed = heal_report.succeeded
            timeline.add(
                self._cluster.now,
                "heal",
                f"patch {patch.name!r} via {heal_report.strategy.value}: "
                + ("succeeded" if heal_report.succeeded else "failed"),
            )

        # Truncation happens last: the bug report above needs the Scroll
        # tail that led to the fault, which truncation discards.
        if self.config.truncate_scroll_on_rollback:
            truncated = self.time_machine.rollback_manager.truncate_scroll_to(
                protocol_run.recovery_line
            )
            rollback.scroll_entries_truncated = truncated
            timeline.add(
                self._cluster.now,
                "truncate",
                f"discarded {truncated} Scroll entries past the recovery line",
            )

        report = FixDReport(
            fault=fault,
            bug_report=bug_report,
            protocol_run=protocol_run,
            rollback=rollback,
            investigation=investigation,
            heal=heal_report,
            handled=True,
        )
        self.reports.append(report)
        return True

    def _report_without_recovery(self, fault: FaultEvent) -> bool:
        """Detection + reporting on substrates without checkpoint/rollback.

        Real-process backends detect violations in the workers and feed
        them through the same hook chain, but FixD cannot assemble a
        recovery line there — so the response is the bug-report artefact
        alone: the fault, the Scroll tail that led to it, and a timeline
        stating why recovery was skipped.
        """
        timeline = RecoveryTimeline()
        now = self._cluster.now
        timeline.add(now, "detect", fault.describe())
        bug_report = BugReport(
            fault=fault,
            scroll_tail=BugReport.build_scroll_tail(
                self.scroll, self._cluster.pids, SCROLL_TAIL_LENGTH
            ),
            timeline=timeline,
            notes=[
                "recovery skipped: backend "
                f"{getattr(self._cluster.backend, 'name', '?')!r} has no "
                "checkpoint/rollback capability"
            ],
        )
        timeline.add(now, "report", "bug report assembled (detection-only substrate)")
        self.reports.append(FixDReport(fault=fault, bug_report=bug_report, handled=False))
        return False

    # ------------------------------------------------------------------
    # conveniences
    # ------------------------------------------------------------------
    @property
    def last_report(self) -> Optional[FixDReport]:
        return self.reports[-1] if self.reports else None

    def capability_matrix(self) -> CapabilityMatrix:
        """The Figure 8 matrix with FixD's row derived from this implementation."""
        return default_matrix()

    def stats(self) -> Dict[str, object]:
        """One-call summary of what FixD recorded, checkpointed and handled."""
        stats: Dict[str, object] = {
            "scroll_entries": len(self.scroll),
            "scroll_storage": self.scroll.storage_stats(),
            "faults_detected": self.detector.fault_count,
            "faults_handled": len(self.reports),
            "time_machine": self.time_machine.stats(),
        }
        if self.auto_committer is not None:
            stats["auto_commits"] = self.auto_committer.commits
            stats["scroll_entries_collected"] = self.auto_committer.entries_collected
        return stats
