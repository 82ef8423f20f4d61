"""The cluster frontend: processes + hooks + policy over a pluggable backend.

:class:`Cluster` is the single entry point applications and the FixD
runtime use to execute a distributed computation.  Since the Backend
refactor it is a thin *frontend*: it owns what is substrate-independent —
the process table, the hook chain through which the Scroll, the Time
Machine and the fault detector observe the run, the fault schedule, the
violation policy and the run trace — and delegates execution to a
:class:`~repro.dsim.backend.Backend`:

* :class:`~repro.dsim.backend.SimBackend` (the default) executes the
  deterministic discrete-event simulation (scheduler + network +
  channels);
* :class:`~repro.dsim.backend.MPBackend` runs the same process classes
  on real OS processes, over a batched pipe transport or zero-pickle
  shared-memory rings (``transport="pipe"|"shm"``);
* :class:`~repro.dsim.net_backend.NetBackend` runs them over sharded
  socket routers.

Every backend accepts the same registration surface (``add_process``,
``add_hook``, ``set_failure_plan``, ``register_scroll``) and the same
``run()`` entry point, and report through the same :class:`RunResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Union

from repro.dsim.failure import FaultSchedule
from repro.dsim.hooks import HookChain, RuntimeHook
from repro.dsim.message import IdCounter
from repro.dsim.network import NetworkConfig
from repro.dsim.process import Process, ProcessCheckpoint
from repro.errors import InvariantViolation, SimulationError, UnknownProcessError

ProcessFactory = Callable[[], Process]


@dataclass
class ClusterConfig:
    """Run-wide configuration.

    Attributes
    ----------
    seed:
        Root seed from which every per-process and per-channel random
        stream is derived.
    max_time / max_events:
        Hard limits on simulation time and executed events; a run that
        hits either limit reports ``stopped_reason`` accordingly.
    network:
        Default channel behaviour (delay, jitter, loss, ...).  Only
        meaningful on the simulator backend; real processes talk over
        pipes with no injected latency.
    check_invariants:
        When true (the default), every process's declared invariants are
        evaluated after each of its handlers — this is FixD's fault
        detection point.  Honoured by every backend (real-process workers
        check in-process and report violations to the router).
    halt_on_violation:
        When true, an unhandled invariant violation stops the run and is
        reported in the result; when false, the violation is recorded
        and the run continues (useful to collect several violations).
    raise_on_violation:
        When true, an unhandled violation is re-raised to the caller
        instead of being recorded.  Mostly used by small unit tests.
    """

    seed: int = 0
    max_time: float = 1_000_000.0
    max_events: int = 1_000_000
    network: NetworkConfig = field(default_factory=NetworkConfig)
    check_invariants: bool = True
    halt_on_violation: bool = True
    raise_on_violation: bool = False


@dataclass
class ViolationRecord:
    """An invariant violation observed during a run."""

    pid: str
    invariant: str
    detail: str
    time: float
    handled: bool


@dataclass
class TraceRecord:
    """One line of the cluster's built-in execution trace."""

    time: float
    pid: str
    action: str
    detail: str


@dataclass
class RunResult:
    """Summary of a completed (or halted) run — identical on every backend."""

    events_executed: int
    final_time: float
    stopped_reason: str
    violations: List[ViolationRecord]
    network_stats: Dict[str, int]
    process_states: Dict[str, Dict[str, Any]]
    trace: List[TraceRecord]

    @property
    def ok(self) -> bool:
        """True when the run completed with no unhandled violations."""
        return not any(not v.handled for v in self.violations)

    def violations_for(self, pid: str) -> List[ViolationRecord]:
        return [v for v in self.violations if v.pid == pid]


class Cluster:
    """A cluster of communicating processes over a pluggable backend."""

    def __init__(
        self,
        config: Optional[ClusterConfig] = None,
        backend: Union[None, str, "object"] = None,
        first_msg_id: int = 1,
    ) -> None:
        self.config = config or ClusterConfig()
        #: the run's message ids; a continuation starts at its persisted frontier
        self.msg_ids = IdCounter(first_msg_id)
        self.hooks = HookChain()
        self._processes: Dict[str, Process] = {}
        self._factories: Dict[str, ProcessFactory] = {}
        self._failure_plan = FaultSchedule()
        self._violations: List[ViolationRecord] = []
        self._trace: List[TraceRecord] = []
        self._halted = False
        self._halt_reason = ""
        self._started = False
        self._scroll = None
        # Imported lazily: backend.py needs this module's dataclasses.
        from repro.dsim.backend import Backend, make_backend

        if backend is None:
            backend = "sim"
        #: a ready instance, or built from its name by the one factory
        self.backend = backend if isinstance(backend, Backend) else make_backend(backend)
        self.backend.bind(self)
        #: computed once: whether the frontend instances carry live state
        #: (checked on every process() call — the simulator's hot path)
        self._frontend_state_live = "checkpoint" in getattr(
            self.backend, "capabilities", frozenset()
        )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_process(self, pid: str, process: Union[Process, ProcessFactory]) -> Process:
        """Register a process (an instance or a zero-argument factory)."""
        if self._started:
            raise SimulationError("cannot add processes after the run has started")
        if pid in self._processes:
            raise SimulationError(f"duplicate process id {pid!r}")
        instance = process() if callable(process) and not isinstance(process, Process) else process
        if not isinstance(instance, Process):
            raise TypeError("add_process expects a Process instance or factory")
        self._processes[pid] = instance
        if callable(process) and not isinstance(process, Process):
            self._factories[pid] = process  # kept for restart-from-scratch recovery
        self.backend.register_process(pid)
        return instance

    def add_processes(self, prefix: str, count: int, factory: ProcessFactory) -> List[str]:
        """Register ``count`` processes named ``prefix0 .. prefixN-1``."""
        pids = []
        for index in range(count):
            pid = f"{prefix}{index}"
            self.add_process(pid, factory)
            pids.append(pid)
        return pids

    def add_hook(self, hook: RuntimeHook) -> None:
        """Install a runtime hook (Scroll recorder, checkpoint policy, ...)."""
        self.hooks.add(hook)
        hook.attach(self)

    def set_failure_plan(self, faults: FaultSchedule) -> None:
        """Install the fault schedule for this run (every backend).

        The backend arms it when the run starts; a started cluster (a
        resumed run's continuation) arms it at once.
        """
        self._failure_plan = faults
        if self._started:
            self.backend.install_faults()

    @property
    def failure_plan(self) -> FaultSchedule:
        """The fault schedule installed for this run."""
        return self._failure_plan

    def factory_for(self, pid: str) -> Optional[ProcessFactory]:
        """The zero-argument factory ``pid`` was registered with, if any."""
        return self._factories.get(pid)

    def register_scroll(self, scroll) -> None:
        """Make the run's Scroll known to the cluster.

        The Scroll recorder calls this on attach.  Knowing the log lets
        checkpoints record the Scroll position at capture time (so a
        rollback can truncate both storage tiers to the recovery line)
        and lets :class:`~repro.timemachine.rollback.RollbackManager`
        find the log to truncate.
        """
        self._scroll = scroll

    @property
    def scroll(self):
        """The Scroll registered for this run, if any."""
        return self._scroll

    def scroll_position(self) -> Optional[int]:
        """Current end position of the registered Scroll (None when unset)."""
        return len(self._scroll) if self._scroll is not None else None

    # ------------------------------------------------------------------
    # backend delegation
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.backend.now

    @property
    def scheduler(self):
        """The deterministic scheduler (simulator backend only)."""
        return self.backend.scheduler

    @property
    def network(self):
        """The simulated network (simulator backend only)."""
        return self.backend.network

    @property
    def fault_engine(self):
        """The message-fault engine for this run (None before ``start``).

        Its :meth:`~repro.dsim.failure.MessageFaultEngine.hit_counts`
        are the ground truth for "did the injected message fault fire",
        which matters for fault kinds the Scroll has no entry for
        (delays).  Available on every backend.
        """
        return self.backend.fault_engine

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def pids(self) -> List[str]:
        return sorted(self._processes)

    def _check_frontend_state_access(self) -> None:
        """Fail loudly when the backend holds process state out of reach.

        On substrates without the ``checkpoint`` capability (real OS
        processes) the frontend's instances are never-executed
        prototypes — returning them after the run started would silently
        hand back empty state where the simulator hands back live state.
        Callers there must read ``RunResult.process_states`` instead.
        """
        if self._frontend_state_live or not self._started:
            return
        raise SimulationError(
            f"process state lives inside the {self.backend.name} backend's workers; "
            "read RunResult.process_states instead of the frontend instances"
        )

    def process(self, pid: str) -> Process:
        if not self._frontend_state_live:
            self._check_frontend_state_access()
        try:
            return self._processes[pid]
        except KeyError:
            raise UnknownProcessError(pid) from None

    def processes(self) -> Dict[str, Process]:
        self._check_frontend_state_access()
        return dict(self._processes)

    @property
    def violations(self) -> List[ViolationRecord]:
        return list(self._violations)

    @property
    def trace(self) -> List[TraceRecord]:
        return list(self._trace)

    # ------------------------------------------------------------------
    # shared plumbing used by backends
    # ------------------------------------------------------------------
    def _vt_of(self, pid: str):
        """Vector timestamp carried in hook payloads (None for unknown pids)."""
        process = self._processes.get(pid)
        return process.vector_timestamp if process is not None else None

    def _record_trace(self, pid: str, action: str, detail: str) -> None:
        self._trace.append(TraceRecord(self.backend.now, pid, action, detail))

    def _handle_violation(
        self,
        pid: str,
        name: str,
        detail: str,
        time: float,
        vt=None,
        exc: Optional[InvariantViolation] = None,
    ) -> bool:
        """Apply the violation policy (shared by every backend).

        Notifies the hook chain (which is where the FixD fault detector
        and its responders live), records the violation, and applies the
        configured raise/halt policy when no hook handled it.  Returns
        whether the violation was handled.
        """
        handled = bool(self.hooks.on_invariant_violation(pid, name, detail, time, vt))
        self._violations.append(ViolationRecord(pid, name, detail, time, handled))
        self._record_trace(pid, "violation", f"{name}: {detail}")
        if handled:
            return True
        if self.config.raise_on_violation:
            raise exc if exc is not None else InvariantViolation(name, pid, detail)
        if self.config.halt_on_violation:
            self.halt(f"invariant-violation:{name}@{pid}")
        return False

    def _after_handler(self, pid: str, description: str) -> None:
        """Post-handler bookkeeping: invariant checks and hook notification."""
        now = self.backend.now
        self.hooks.after_handler(pid, description, now)
        if not self.config.check_invariants:
            return
        process = self.process(pid)
        try:
            process.check_invariants()
        except InvariantViolation as violation:
            self._handle_violation(
                pid,
                violation.name,
                violation.detail,
                now,
                process.vector_timestamp,
                exc=violation,
            )

    # ------------------------------------------------------------------
    # run control
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Bind contexts, install the fault schedule and run every ``on_start``."""
        if self._started:
            return
        if not self._processes:
            raise SimulationError("cannot run an empty cluster")
        self.backend.start()

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> RunResult:
        """Run the cluster until quiescence, a limit, or a halting violation."""
        if not self._processes:
            raise SimulationError("cannot run an empty cluster")
        return self.backend.run(until=until, max_events=max_events)

    def halt(self, reason: str = "halted") -> None:
        """Stop the run loop after the current event."""
        self._halted = True
        self._halt_reason = reason

    def resume(self) -> None:
        """Clear a previous halt so the run loop can be re-entered."""
        self._halted = False
        self._halt_reason = ""

    # ------------------------------------------------------------------
    # checkpointing / rollback support used by the Time Machine and FixD
    # ------------------------------------------------------------------
    def capture_checkpoint(self, pid: str) -> ProcessCheckpoint:
        """Snapshot one process's local state at the current time."""
        return self.process(pid).capture_checkpoint(self.backend.now)

    def capture_all(self) -> Dict[str, ProcessCheckpoint]:
        """Snapshot every live process (a *local* checkpoint set, not yet a recovery line)."""
        return {pid: self.capture_checkpoint(pid) for pid in self.pids}

    def restore_checkpoints(
        self, checkpoints: Dict[str, ProcessCheckpoint], clear_in_flight: bool = True
    ) -> None:
        """Restore a set of per-process checkpoints (a rollback).

        ``clear_in_flight`` cancels all pending deliveries and timers for
        the restored processes — messages sent after the restored states
        no longer exist in the rolled-back world.
        """
        for pid, checkpoint in checkpoints.items():
            process = self.process(pid)
            process.restore_checkpoint(checkpoint)
            if clear_in_flight:
                self.backend.clear_in_flight(pid)
            self._record_trace(pid, "rollback", f"restored checkpoint #{checkpoint.sequence}")

    def restart_process(self, pid: str) -> Process:
        """Replace a process with a brand new instance (restart-from-scratch).

        Only possible for processes registered through a factory.
        """
        factory = self._factories.get(pid)
        if factory is None:
            raise SimulationError(
                f"process {pid!r} was registered as an instance; restart-from-scratch "
                "requires a factory"
            )
        fresh = factory()
        self._processes[pid] = fresh
        fresh.bind(self.backend.make_context(pid))
        self.backend.clear_in_flight(pid)
        fresh.on_start()
        self._record_trace(pid, "restart", "restarted from initial state")
        return fresh
