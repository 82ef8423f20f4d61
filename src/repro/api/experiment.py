"""The :class:`Experiment` runner: execute one scenario or a whole grid.

``run_scenario`` is the one-call path from a declarative
:class:`~repro.api.scenario.Scenario` to a structured
:class:`~repro.api.outcome.Outcome`; ``execute`` returns the live
:class:`ScenarioRun` handle (cluster, FixD controller, raw result) for
deep dives — offline replay, investigation, healing — that need more
than the outcome record.  :meth:`Experiment.grid` builds the cross
product of apps x backends x fault schedules x seeds, and ``processes=N``
fans scenario execution out over a process pool (scenarios are pure
data, so they ship to workers as-is).
"""

from __future__ import annotations

import time
import uuid
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Iterable, List, Optional, Sequence

from repro.api import apps as app_registry
from repro.api.faults import FaultSchedule
from repro.api.outcome import Outcome
from repro.api.scenario import Scenario
from repro.core.fixd import FixD, FixDConfig
from repro.dsim.backend import make_backend
from repro.dsim.cluster import Cluster, ClusterConfig
from repro.errors import ScenarioError, ScenarioExecutionError
from repro.scroll.interceptor import RecordingPolicy
from repro.timemachine.time_machine import TimeMachineConfig


@dataclass
class ScenarioRun:
    """A completed run with its live objects, for post-run deep dives."""

    scenario: Scenario
    cluster: Any
    fixd: Any
    result: Any
    outcome: Outcome

    def replay_factories(self):
        """Per-pid process factories, e.g. for :class:`~repro.scroll.replayer.Replayer`."""
        return {pid: self.cluster.factory_for(pid) for pid in self.cluster.pids}


def _new_run_id(scenario: Scenario) -> str:
    """A unique, filesystem-safe run id for one execution of ``scenario``.

    The scenario name alone would make repeated executions — or distinct
    scenarios sharing a name — write into the same ``runs/<id>/``
    directory, overwriting run.json and interleaving line indices; the
    random suffix gives every execution its own durable run.
    ``Experiment.resume`` accepts the bare scenario name and resolves it
    to the most recently active matching run.
    """
    return f"{scenario.name}-{uuid.uuid4().hex[:8]}"


def _fixd_config(scenario: Scenario) -> FixDConfig:
    return FixDConfig(
        time_machine=TimeMachineConfig(
            checkpoint_store=scenario.checkpoint_store,
            store_path=scenario.store_path,
            run_id=_new_run_id(scenario),
            flush_mode=scenario.flush_mode,
            flush_queue_bytes=scenario.flush_queue_bytes,
        ),
        recording_policy=RecordingPolicy(hot_window=scenario.hot_window),
        investigate_on_fault=scenario.investigate,
        max_faults_handled=scenario.max_faults_handled,
        auto_commit_interval=scenario.auto_commit_interval,
    )


def execute(scenario: Scenario, fixd_config: Optional[FixDConfig] = None) -> ScenarioRun:
    """Run ``scenario`` end to end and return the live run handle.

    ``fixd_config`` overrides the scenario-derived FixD configuration —
    the escape hatch for non-serializable tuning (custom Investigator
    limits, recording policies) that a JSON artefact cannot carry.
    """
    spec = app_registry.app(scenario.app)
    check = spec.check(scenario.check)
    cluster = Cluster(
        ClusterConfig(seed=scenario.seed, halt_on_violation=False),
        backend=make_backend(scenario.backend, scenario.transport, scenario.time_scale),
    )
    app_registry.build(cluster, scenario.app, **scenario.params)
    fixd = FixD(fixd_config or _fixd_config(scenario))
    fixd.attach(cluster)
    durable = getattr(fixd.time_machine, "durable_store", None)
    if durable is not None:
        # the scenario rides along in run.json so resume can rebuild the
        # same cluster without the process that wrote the store
        durable.set_run_metadata({"scenario": scenario.to_dict()})
    plan = scenario.faults.to_plan()
    if not plan.is_empty():
        cluster.set_failure_plan(plan)
    if scenario.backend in ("mp", "net"):
        result = cluster.run(until=scenario.until)
    else:
        result = cluster.run(until=scenario.until, max_events=scenario.max_events)
    outcome = Outcome.from_run(scenario, cluster, fixd, result, check)
    return ScenarioRun(scenario=scenario, cluster=cluster, fixd=fixd, result=result, outcome=outcome)


def run_scenario(scenario: Scenario) -> Outcome:
    """Run one scenario and return its structured outcome."""
    started = time.monotonic()
    outcome = execute(scenario).outcome
    outcome.wall_time_s = time.monotonic() - started
    return outcome


def _run_scenario_task(scenario: Scenario) -> Outcome:
    """Pool-worker wrapper: attach the scenario name to anything raised.

    ``pool.map(run_scenario, ...)`` re-raises a worker exception in the
    parent with no hint of *which* grid cell died — on a 100-cell grid
    that is a debugging dead end.  The wrapper re-raises as
    :class:`~repro.errors.ScenarioExecutionError` carrying the scenario
    name and the original error text (the original exception object may
    not survive pickling back from the worker, its repr always does).
    """
    try:
        return run_scenario(scenario)
    except ScenarioExecutionError:
        raise
    except Exception as error:
        raise ScenarioExecutionError(scenario.name, f"{type(error).__name__}: {error}") from error


def _scenario_for_resume(payload) -> "tuple[Scenario, str]":
    """Coerce a recorded scenario onto the simulator for resumption.

    Only the simulator can restore checkpoints and cancel in-flight
    events, so a run recorded on the ``mp`` backend (e.g. via a custom
    FixD config that persisted lines for an mp scenario) resumes on a
    rebuilt *sim* cluster.  The coercion happens on the raw payload —
    an mp+disk combination would fail Scenario validation before we
    ever got a chance to fix it up.  Returns the sim scenario and the
    originally recorded backend name.
    """
    payload = dict(payload)
    original_backend = payload.get("backend", "sim")
    if original_backend != "sim":
        payload["backend"] = "sim"
        payload["transport"] = "pipe"
    return Scenario.from_dict(payload), original_backend


def _remaining_faults(schedule: FaultSchedule, flush_time: float):
    """Split a fault schedule at the durable flush point.

    Returns ``(remaining_schedule, pending_recoveries)``: the specs a
    continuation must re-arm (timed faults strictly after
    ``flush_time``; partitions still open; message faults unchanged and
    in their original order — their persisted per-rule hit counts are
    restored separately by :meth:`ResumedRun.continue_run`, which is why
    rule *indices* must survive this split), plus ``(pid, recover_at)``
    pairs for crashes that already happened but whose scheduled recovery
    is still due.
    """
    specs = []
    recoveries = []
    for spec in schedule.faults:
        if spec.kind == "crash":
            if spec.at > flush_time:
                specs.append(spec)
            elif spec.recover_at is not None and spec.recover_at > flush_time:
                recoveries.append((spec.pid, spec.recover_at))
        elif spec.kind == "corruption":
            if spec.at > flush_time:
                specs.append(spec)
        elif spec.kind == "partition":
            if spec.end > flush_time:
                specs.append(spec)
        else:
            specs.append(spec)
    return FaultSchedule(faults=tuple(specs)), recoveries


@dataclass
class ResumedRun:
    """A crashed run rebuilt from its durable store, ready to continue.

    ``cluster`` is started, restored to the last committed recovery
    line, and — when the run persisted its Scroll — **replayed forward**
    through the recorded post-line history: each process re-consumed its
    recorded deliveries, timer firings, random draws and clock reads, so
    states, logical clocks and counters sit at the crash point, not at
    the line.  :meth:`continue_run` then re-attaches a fresh FixD over
    the rebuilt Scroll, re-injects the persisted in-flight events,
    re-arms the scenario's remaining fault schedule, and runs the
    scenario to completion — the continuation appends to the same
    durable run.

    Runs recorded on the ``mp`` backend resume on a rebuilt simulator
    cluster (``original_backend`` records what the run executed on);
    runs from stores that predate Scroll persistence degrade to the old
    quiescent state-only restore (``scroll`` is None, ``continue_run``
    still works but starts from the committed line with no in-flight
    events).
    """

    run_id: str
    scenario: Scenario
    cluster: Any
    #: the durable line manifest that was restored (index, label, blob names)
    manifest: Any
    #: the restored per-process checkpoints, as live ProcessCheckpoint objects
    checkpoints: Any
    #: backend the run was originally recorded on ("sim" or "mp")
    original_backend: str = "sim"
    #: root of the durable store this run resumes from (continuation appends here)
    store_path: Optional[str] = None
    #: the Scroll rebuilt from persisted segments (None: state-only resume)
    scroll: Any = None
    #: the persisted-scroll sidecar manifest (None: state-only resume)
    sidecar: Any = None
    #: the persisted in-flight snapshot ({"deliveries": ..., "timers": ...})
    pending: Any = None
    #: per-pid ForwardReplay reports from the replay-forward pass
    replays: Any = None
    _continued: bool = False

    @property
    def line_index(self) -> int:
        return self.manifest.get("index", 0)

    def states(self):
        """Deep-ish view of every restored process state (pid -> dict)."""
        return {pid: dict(self.cluster.process(pid).state) for pid in sorted(self.checkpoints)}

    def continue_run(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> Outcome:
        """Continue the resumed run to completion and return its outcome.

        Re-attaches a fresh FixD (recording onto the rebuilt Scroll, so
        new entries append past the persisted history and keep flushing
        to the same durable run), rebases the entry-seq and message-id
        counters past the persisted frontiers, re-injects the in-flight
        deliveries and timers captured at the last flush, re-arms the
        remaining fault schedule, and runs until ``until`` (default: the
        scenario's own bound).
        """
        from repro.dsim.message import Message, reset_message_ids
        from repro.scroll.entry import reset_entry_seq

        if self._continued:
            raise ScenarioError(
                f"resumed run {self.run_id!r} was already continued; "
                "resume again to continue again"
            )
        self._continued = True
        cluster = self.cluster
        flush_time = 0.0
        if self.sidecar is not None:
            flush_time = float(self.sidecar.get("flush_time", 0.0))
            reset_entry_seq(int(self.sidecar.get("seq_next", 1)))
            reset_message_ids(int(self.sidecar.get("msg_id_next", 1)))
        config = _fixd_config(self.scenario)
        config.time_machine.run_id = self.run_id
        if self.store_path:
            config.time_machine.checkpoint_store = "disk"
            config.time_machine.store_path = self.store_path
        fixd = FixD(config, scroll=self.scroll)
        fixd.attach(cluster)
        backend = cluster.backend
        if self.pending is not None:
            for at, record in self.pending.get("deliveries", ()):
                backend.inject_delivery(Message.from_record(record), at)
            for at, pid, name, payload in self.pending.get("timers", ()):
                backend.inject_timer(pid, name, at, payload)
        remaining, recoveries = _remaining_faults(self.scenario.faults, flush_time)
        plan = remaining.to_plan()
        if not plan.is_empty():
            cluster.set_failure_plan(plan)
            backend._install_failure_plan()
        for pid, recover_at in recoveries:
            backend.inject_recovery(pid, recover_at)
        if self.pending is not None:
            # Re-arm consumed nondeterminism sources captured at the last
            # flush: count-limited message-fault rules continue at their
            # remaining budget instead of firing afresh, and per-channel
            # RNG streams pick up at their recorded draw positions so the
            # continuation's jitter/loss decisions match an uninterrupted
            # run.  (_remaining_faults keeps every message fault at its
            # original rule index, so the persisted counts line up.)
            fault_hits = self.pending.get("fault_hits")
            engine = getattr(backend, "fault_engine", None)
            if fault_hits and engine is not None:
                engine.restore_hits(fault_hits)
            channels = self.pending.get("channels")
            network = getattr(backend, "_network", None)
            if channels and network is not None:
                network.restore_channel_states(channels)
        spec = app_registry.app(self.scenario.app)
        check = spec.check(self.scenario.check)
        result = cluster.run(
            until=until if until is not None else self.scenario.until,
            max_events=max_events if max_events is not None else self.scenario.max_events,
        )
        return Outcome.from_run(self.scenario, cluster, fixd, result, check)


def resume_run(run_id: str, store_path: str) -> ResumedRun:
    """Rebuild a crashed run from disk and replay it forward to the crash point.

    ``run_id`` may be the exact run id or the scenario name: every
    execution gets a uniquely-suffixed run id (see
    :attr:`~repro.api.outcome.Outcome.run_id`), and a bare name resolves
    to the most recently active run recorded for it.  The durable store
    under ``store_path`` is the authority: the scenario recorded in
    ``runs/<run_id>/run.json`` rebuilds the same application on a fresh
    **simulator** cluster (always — only the simulator can restore
    checkpoints; runs recorded on ``mp`` note their original backend on
    the handle), and the newest committed line manifest (every blob
    integrity-validated on read, old manifest schemas migrated up)
    restores process states, vector clocks, RNG draw positions and
    message counters.

    When the run persisted its Scroll (``runs/<run_id>/scroll.json``),
    the recorded window *after* the committed line is then replayed
    forward through each restored process — recorded nondeterminism
    re-applied exactly — so the handle sits at the crash point and
    :meth:`ResumedRun.continue_run` can finish the run.  Stores that
    predate Scroll persistence degrade to the quiescent state-only
    restore.

    Partial flushes are invisible by construction — manifests and
    sidecars are written atomically *after* their blobs — so a run that
    crashed mid-commit resumes from the previous committed state.

    Raises :class:`~repro.errors.CheckpointError` when the run is
    unknown or has no committed lines yet.
    """
    from repro.errors import CheckpointError
    from repro.scroll.replayer import Replayer
    from repro.timemachine import DurableCheckpointStore

    run_id = DurableCheckpointStore.resolve_run_id(store_path, run_id)
    metadata = DurableCheckpointStore.run_metadata(store_path, run_id)
    scenario_payload = metadata.get("scenario")
    if not scenario_payload:
        raise ScenarioError(
            f"durable run {run_id!r} recorded no scenario; cannot rebuild its cluster"
        )
    scenario, original_backend = _scenario_for_resume(scenario_payload)
    manifest, checkpoints = DurableCheckpointStore.restore_line(store_path, run_id)
    cluster = Cluster(
        ClusterConfig(seed=scenario.seed, halt_on_violation=False),
        backend=make_backend(scenario.backend, scenario.transport, scenario.time_scale),
    )
    app_registry.build(cluster, scenario.app, **scenario.params)
    cluster.start()
    cluster.restore_checkpoints(checkpoints)
    scroll = sidecar = pending = None
    replays = {}
    try:
        scroll, sidecar, pending = DurableCheckpointStore.rebuild_scroll(
            store_path, run_id
        )
    except CheckpointError:
        pass  # no persisted Scroll: state-only resume (pre-continuation store)
    if scroll is not None:
        replayer = Replayer(scroll, {}, strict=False)
        for pid in sorted(checkpoints):
            checkpoint = checkpoints[pid]
            from_position = checkpoint.extra.get("scroll_position")
            if not isinstance(from_position, int):
                continue
            # A genesis checkpoint (taken at on_run_start, before any
            # handler executed) predates the recorded effects of
            # on_start — replay must re-run it to rebuild that history.
            genesis = (
                checkpoint.time == 0.0
                and checkpoint.rng_draws == 0
                and checkpoint.sent_count == 0
                and checkpoint.received_count == 0
            )
            replays[pid] = replayer.replay_forward(
                pid,
                cluster.process(pid),
                from_position=from_position,
                start_time=checkpoint.time,
                rng_draws_base=checkpoint.rng_draws,
                run_on_start=genesis,
            )
    return ResumedRun(
        run_id=run_id,
        scenario=scenario,
        cluster=cluster,
        manifest=manifest,
        checkpoints=checkpoints,
        original_backend=original_backend,
        store_path=store_path,
        scroll=scroll,
        sidecar=sidecar,
        pending=pending,
        replays=replays,
    )


class Experiment:
    """A batch of scenarios executed together.

    ``processes=N`` runs scenarios on a process pool (each worker builds
    its own cluster; outcomes come back as pure data).  Scenario order
    is preserved in the returned outcome list either way.
    """

    def __init__(
        self, scenarios: Iterable[Scenario], processes: Optional[int] = None
    ) -> None:
        self.scenarios: List[Scenario] = list(scenarios)
        for scenario in self.scenarios:
            if not isinstance(scenario, Scenario):
                raise ScenarioError(
                    f"experiments run Scenario objects, got {type(scenario).__name__}"
                )
        names = [scenario.name for scenario in self.scenarios]
        duplicates = {name for name in names if names.count(name) > 1}
        if duplicates:
            raise ScenarioError(
                f"duplicate scenario name(s) in experiment: {sorted(duplicates)}; "
                "give colliding scenarios explicit names"
            )
        if processes is not None and processes < 1:
            raise ScenarioError("processes must be a positive worker count")
        self.processes = processes
        self.outcomes: List[Outcome] = []

    @classmethod
    def grid(
        cls,
        apps: Sequence[str],
        faults: Sequence[FaultSchedule] = (FaultSchedule(),),
        backends: Sequence[str] = ("sim",),
        seeds: Sequence[int] = (7,),
        transports: Sequence[str] = ("pipe",),
        processes: Optional[int] = None,
        **scenario_overrides,
    ) -> "Experiment":
        """The cross product apps x faults x backends x transports x seeds.

        Extra keyword arguments become :class:`Scenario` fields shared
        by every cell (``params=...``, ``until=...``, ``hot_window=...``).
        The ``transports`` axis applies to ``mp`` cells only — the
        simulator has no transport and ``net`` is always sockets, so
        ``sim``/``net`` cells are emitted once regardless of how many
        transports are listed.

        Axes may be any iterable, including generators: every axis is
        materialized exactly once up front (the cross product iterates
        each axis many times — a generator would silently drain after
        the first pass and leave the grid empty).
        """
        apps = tuple(apps)
        backends = tuple(backends)
        seeds = tuple(seeds)
        faults = tuple(faults)
        for schedule in faults:
            if not isinstance(schedule, FaultSchedule):
                raise ScenarioError(
                    "grid faults must be FaultSchedule instances "
                    f"(got {type(schedule).__name__}); wrap specs with FaultSchedule.of(...)"
                )
        transports = tuple(transports)
        # Two schedules with the same kind-set share a label; qualify the
        # label with the schedule's grid position so cell names never collide.
        labels = [schedule.label for schedule in faults]
        fault_tags = [
            label if labels.count(label) == 1 else f"{label}#{index}"
            for index, label in enumerate(labels)
        ]
        scenarios = []
        many_seeds = len(seeds) > 1
        for app_name in apps:
            for backend in backends:
                cell_transports = transports if backend == "mp" else ["pipe"]
                for transport in cell_transports:
                    for schedule, fault_tag in zip(faults, fault_tags):
                        for seed in seeds:
                            name = f"{app_name}-{fault_tag}-{backend}"
                            if transport != "pipe":
                                name += f"-{transport}"
                            if many_seeds:
                                name += f"-s{seed}"
                            scenarios.append(
                                Scenario(
                                    app=app_name,
                                    name=name,
                                    backend=backend,
                                    faults=schedule,
                                    seed=seed,
                                    transport=transport,
                                    **scenario_overrides,
                                )
                            )
        if not scenarios:
            empty = [
                axis
                for axis, values in (
                    ("apps", apps),
                    ("faults", faults),
                    ("backends", backends),
                    ("seeds", seeds),
                    ("transports", transports),
                )
                if not values
            ]
            raise ScenarioError(
                f"experiment grid is empty (no values on axis: {empty}); "
                "every axis needs at least one entry"
            )
        return cls(scenarios, processes=processes)

    @staticmethod
    def fuzz(app: str, *, budget=None, **kwargs):
        """Coverage-guided fault-scenario fuzzing against registered app ``app``.

        Delegates to :func:`repro.fuzz.fuzz` (imported lazily — the fuzz
        package builds on this module): generates seeded fault
        schedules, fans them out over the same process-pool path
        ``Experiment(processes=N)`` uses, keeps the coverage-novel ones
        in a corpus, and delta-debugs every failing schedule down to a
        minimal reproducer.  ``budget`` is a :class:`repro.fuzz.Budget`
        (or ``max_execs=``/``max_seconds=`` via ``kwargs``); returns the
        :class:`repro.fuzz.FuzzReport`.
        """
        from repro.fuzz import fuzz as _fuzz

        return _fuzz(app, budget=budget, **kwargs)

    @staticmethod
    def resume(run_id: str, store_path: str) -> ResumedRun:
        """Resume a crashed run from its durable checkpoint store.

        ``run_id`` is the exact id (``Outcome.run_id``) or the scenario
        name, which resolves to its most recently active run.  See
        :func:`resume_run`; exposed here because "the experiment died,
        pick it back up" is an experiment-level operation.
        """
        return resume_run(run_id, store_path)

    def run(self) -> List[Outcome]:
        """Execute every scenario; outcomes are returned and kept on the object."""
        if self.processes and len(self.scenarios) > 1:
            with ProcessPoolExecutor(max_workers=self.processes) as pool:
                self.outcomes = list(pool.map(_run_scenario_task, self.scenarios))
        else:
            self.outcomes = [_run_scenario_task(scenario) for scenario in self.scenarios]
        return self.outcomes

    @property
    def passed(self) -> bool:
        return bool(self.outcomes) and all(outcome.passed for outcome in self.outcomes)

    def failures(self) -> List[Outcome]:
        return [outcome for outcome in self.outcomes if not outcome.passed]

    def describe(self) -> str:
        """A per-scenario summary table (run() first)."""
        if not self.outcomes:
            return f"experiment with {len(self.scenarios)} scenario(s), not yet run"
        return "\n".join(outcome.summary() for outcome in self.outcomes)
