"""The :class:`Scenario` — one declarative, shareable description of a run.

A scenario is *data*: which registered application to build (and with
which parameters), which backend executes it, the seed and run limits,
the composable :class:`~repro.api.faults.FaultSchedule` of injected
trouble, and what the run is expected to establish (which consistency
check must hold, whether an invariant violation is provoked, which
crashed processes must be back).  Because every field is a JSON-basic
value, scenarios serialize canonically (:meth:`Scenario.to_json` is
byte-stable) and travel as repro artefacts — the fault schedule that
broke a run *is* the bug report attachment that reproduces it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.api.faults import FaultSchedule
from repro.dsim.backend import check_time_scale, check_transport
from repro.errors import ScenarioError
from repro.timemachine import check_flush_mode
from repro.timemachine.time_machine import check_checkpoint_store

#: field -> (accepted types, None allowed).  A scenario is loaded from
#: files written outside the program, so every field's type is checked
#: at construction; fields with a value rule of their own (``backend``,
#: ``transport``, ``time_scale``, ...) are checked by that rule instead.
_FIELD_TYPES = {
    "app": ((str,), False),
    "name": ((str,), False),
    "params": ((Mapping,), False),
    "seed": ((int,), False),
    "until": ((int, float), True),
    "max_events": ((int,), True),
    "faults": ((FaultSchedule,), False),
    "check": ((str,), False),
    "expect_violation": ((bool,), False),
    "recovering": ((list, tuple), False),
    "hot_window": ((int,), True),
    "investigate": ((bool,), False),
    "max_faults_handled": ((int,), False),
    "auto_commit_interval": ((int, float), True),
    "store_path": ((str,), True),
    "flush_queue_bytes": ((int,), False),
}


@dataclass(frozen=True)
class Scenario:
    """One run of one application under one fault schedule.

    Attributes
    ----------
    app:
        Name of a registered application (see :mod:`repro.api.apps`).
    name:
        Stable identifier for reports and suite files; defaults to
        ``"<app>-<schedule label>"`` (plus the backend when not ``sim``).
    params:
        Application parameters merged over the registry defaults.
    backend:
        Execution substrate: ``"sim"`` (deterministic simulator, full
        FixD pipeline), ``"mp"`` (real OS processes over pipes/shm
        rings; detection + reporting only) or ``"net"`` (real OS
        processes over sharded socket routers; same capability tier as
        ``mp``).  ``mp``/``net`` scenarios must set ``until``.
    seed / until / max_events:
        Determinism root and run limits (``max_events`` applies to the
        simulator only).
    faults:
        The composable fault schedule; multi-fault scenarios simply
        list several specs.
    check:
        Which of the app's registered consistency checks the outcome
        asserts over the final states.
    expect_violation:
        When true, the schedule is expected to provoke an invariant
        violation that FixD must detect, report and (on capable
        backends) roll back.
    recovering:
        Pids that crash with a scheduled recovery and must be back
        alive at the end of the run.
    hot_window / investigate / max_faults_handled / auto_commit_interval:
        FixD tuning: tiered-Scroll hot window (``None`` for an untiered
        Scroll, otherwise at least 1), run the Investigator on faults,
        fault-handling budget, and the periodic recovery-line commit
        interval (Scroll segment GC).
    time_scale:
        Wall seconds per simulated unit on the ``mp``/``net`` backends;
        a positive, finite number.
    transport:
        Data plane of the ``mp`` backend: ``"pipe"`` (batched pickled
        pipe writes, the default) or ``"shm"`` (shared-memory rings, no
        pickle on the hot path).  Only meaningful with ``backend="mp"``.
    checkpoint_store / store_path:
        ``"memory"`` keeps recovery lines in-process; ``"disk"`` flushes
        every committed line to a durable content-addressed blob store
        rooted at ``store_path`` (required for ``"disk"``).  Each
        execution writes under a unique run id — the scenario name plus
        a random suffix, reported as ``Outcome.run_id`` — and
        :meth:`Experiment.resume` accepts either that id or the bare
        name (resolved to the most recently active matching run).
        Simulator only, and only lines actually *committed*
        (``auto_commit_interval`` or a manual commit) become durable.
    flush_mode / flush_queue_bytes:
        How committed lines reach the durable store: ``"sync"`` writes
        blobs and manifests inline on the commit path; ``"pipelined"``
        snapshots the payload at commit time and a bounded background
        writer does the blob IO and fsyncs (same crash-window and
        resume guarantees — the queue drains at every ordering-relevant
        boundary).  ``flush_queue_bytes`` bounds the queued payload
        before commits block.  Only meaningful with a ``"disk"`` store.

    This is the persisted artefact format: :func:`repro.api.execute`
    maps each value onto the one in-process config class that owns it.
    Field types are checked at construction and the value rules are the
    owning layers' own, raised as :class:`~repro.errors.ScenarioError`
    — a malformed suite file fails at load, never mid-run.
    """

    app: str
    name: str = ""
    params: Mapping[str, Any] = field(default_factory=dict)
    backend: str = "sim"
    seed: int = 7
    until: Optional[float] = None
    max_events: Optional[int] = 4000
    faults: FaultSchedule = field(default_factory=FaultSchedule)
    check: str = "default"
    expect_violation: bool = False
    recovering: Tuple[str, ...] = ()
    hot_window: Optional[int] = None
    investigate: bool = False
    max_faults_handled: int = 4
    auto_commit_interval: Optional[float] = None
    time_scale: float = 0.01
    transport: str = "pipe"
    checkpoint_store: str = "memory"
    store_path: Optional[str] = None
    flush_mode: str = "sync"
    flush_queue_bytes: int = 32 * 1024 * 1024

    def __post_init__(self) -> None:
        for name, (kinds, optional) in _FIELD_TYPES.items():
            value = getattr(self, name)
            if value is None and optional:
                continue
            # isinstance() takes a bool for an int; a flag is never a number here
            if not isinstance(value, kinds) or (bool not in kinds and isinstance(value, bool)):
                expected = " or ".join(kind.__name__ for kind in kinds)
                raise ScenarioError(
                    f"scenario field {name!r} must be {expected}"
                    f"{' or None' if optional else ''}, got {value!r}"
                )
        if not self.app:
            raise ScenarioError(f"scenario needs an application name, got {self.app!r}")
        if not all(isinstance(pid, str) for pid in self.recovering):
            raise ScenarioError(
                f"scenario field 'recovering' must list pids, got {self.recovering!r}"
            )
        check_transport(self.backend, self.transport, ScenarioError)
        check_time_scale(self.time_scale, ScenarioError)
        if self.hot_window is not None and self.hot_window < 1:
            raise ScenarioError(
                f"hot_window must be at least 1 (or None for an untiered Scroll), "
                f"got {self.hot_window!r}"
            )
        check_checkpoint_store(self.checkpoint_store, self.store_path, ScenarioError)
        if self.checkpoint_store == "disk" and self.backend != "sim":
            raise ScenarioError(
                "checkpoint_store='disk' needs the sim backend; the real-process "
                "backends advertise no checkpoint capability to persist"
            )
        check_flush_mode(self.flush_mode, ScenarioError)
        if self.flush_mode == "pipelined" and self.checkpoint_store != "disk":
            raise ScenarioError(
                "flush_mode='pipelined' is a durable-store knob; it requires "
                "checkpoint_store='disk'"
            )
        if self.flush_queue_bytes < 1:
            raise ScenarioError(
                f"flush_queue_bytes must be a positive int, got {self.flush_queue_bytes!r}"
            )
        object.__setattr__(self, "params", dict(self.params))
        object.__setattr__(self, "recovering", tuple(self.recovering))
        if not self.name:
            suffix = "" if self.backend == "sim" else f"-{self.backend}"
            if self.transport != "pipe":
                suffix += f"-{self.transport}"
            object.__setattr__(self, "name", f"{self.app}-{self.faults.label}{suffix}")
        if any(sep in self.name for sep in ("/", "\\", "\0")) or self.name in (".", ".."):
            raise ScenarioError(
                f"scenario name {self.name!r} must not contain path separators: "
                "it becomes a durable run id, a filesystem path component"
            )
        if self.backend in ("mp", "net") and self.until is None:
            raise ScenarioError(
                f"scenario {self.name!r}: the {self.backend} backend detects "
                "quiescence in wall time, so an explicit until=... bound is required"
            )

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON-ready form (every field, schedule as tagged dicts)."""
        payload = {spec.name: getattr(self, spec.name) for spec in fields(self)}
        payload["params"] = dict(self.params)
        payload["faults"] = self.faults.to_dicts()
        payload["recovering"] = list(self.recovering)
        return payload

    def to_json(self) -> str:
        """Byte-stable canonical JSON (sorted keys, compact separators)."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_dict(payload: Mapping[str, Any]) -> "Scenario":
        if not isinstance(payload, Mapping):
            raise ScenarioError(f"scenario payload must be an object, got {payload!r}")
        known = {spec_field.name for spec_field in fields(Scenario)}
        extra = set(payload) - known
        if extra:
            raise ScenarioError(f"scenario has unknown fields: {sorted(extra)}")
        if "app" not in payload:
            raise ScenarioError("scenario is missing its required 'app' field")
        kwargs = dict(payload)
        faults = kwargs.get("faults", [])
        if not isinstance(faults, list):
            raise ScenarioError(
                f"scenario field 'faults' must be a list of fault specs, got {faults!r}"
            )
        kwargs["faults"] = FaultSchedule.from_dicts(faults)
        return Scenario(**kwargs)

    @staticmethod
    def from_json(text: str) -> "Scenario":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise ScenarioError(f"scenario is not valid JSON: {error}") from None
        return Scenario.from_dict(payload)
