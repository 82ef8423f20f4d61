"""Fault injection: the faults FixD is supposed to detect and recover from.

One vocabulary describes every injected fault, on every backend:
:class:`Crash`, :class:`Drop`, :class:`Duplicate`, :class:`Delay`,
:class:`Partition` and :class:`Corrupt` are pure-data frozen dataclasses
that round-trip losslessly through JSON, and a :class:`FaultSchedule`
composes any number of them into one run's worth of injected trouble
(a crash during a partition, corruption under a duplicate storm).

The backends run the specs directly.  The simulator turns crashes,
recoveries and corruptions into scheduler events before the run starts
and hands partitions to its :class:`~repro.dsim.network.Network`, so
injected faults are part of the deterministic schedule and therefore
reproducible and replayable; the real-process router drives crashes as
control messages and applies the same partitions itself.  Message specs
are rules for the :class:`MessageFaultEngine` on both.  A state
corruption is a tuple of ``(op, path, value)`` instructions, applied by
:func:`apply_corruption_ops` in the simulator and inside a worker alike.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, ClassVar, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.dsim.message import Message
from repro.errors import ScenarioError

#: message-fault spec kinds (engine rules, in schedule order — rule
#: index ``i`` is the schedule's ``i``-th such spec)
MESSAGE_KINDS = ("drop", "duplicate", "delay")


def _quantize(value: float) -> float:
    """Shrunk float attributes stay on a coarse grid so canonical JSON stays tidy."""
    return round(value, 3)


def _freeze(value: Any) -> Any:
    """Lists arriving from JSON become tuples so specs stay hashable data."""
    if isinstance(value, list):
        return tuple(_freeze(item) for item in value)
    return value


def _thaw(value: Any) -> Any:
    """Tuples become lists on the way out to JSON."""
    if isinstance(value, tuple):
        return [_thaw(item) for item in value]
    return value


@dataclass(frozen=True)
class Crash:
    """Crash ``pid`` at ``at``; optionally recover it at ``recover_at``.

    A crashed process stops executing handlers and all its pending
    deliveries and timers are cancelled.  If ``recover_at`` is given the
    process is restarted at that time, either from its initial state
    (``recover_from_checkpoint=False``) or from its most recent local
    checkpoint if a checkpoint hook is installed.
    """

    kind: ClassVar[str] = "crash"
    #: removal preference for the fuzz shrinker: lower values are tried
    #: first (a crash reshapes the whole run, so it goes last)
    shrink_order: ClassVar[int] = 5

    pid: str
    at: float
    recover_at: Optional[float] = None
    recover_from_checkpoint: bool = True

    def __post_init__(self) -> None:
        if self.recover_at is not None and self.recover_at <= self.at:
            raise ScenarioError(
                f"crash of {self.pid!r}: recovery at {self.recover_at} must come "
                f"strictly after the crash at {self.at}"
            )

    def shrink_candidates(self) -> List["Crash"]:
        """Strictly simpler variants, in preference order.

        Candidates only *propose*; the shrinker keeps one iff the run's
        failure signature survives the substitution.
        """
        candidates = []
        if self.recover_at is not None:
            candidates.append(
                Crash(self.pid, self.at, recover_at=None, recover_from_checkpoint=self.recover_from_checkpoint)
            )
        return candidates


@dataclass(frozen=True)
class _MessageSpec:
    """Shared shape of the three message-fault flavours.

    ``match_kind``/``match_src``/``match_dst`` narrow which messages are
    affected, ``after`` when; ``count`` bounds how many matching
    messages are hit (``None`` means all of them).
    """

    kind: ClassVar[str]
    shrink_order: ClassVar[int] = 2

    match_kind: Optional[str] = None
    match_src: Optional[str] = None
    match_dst: Optional[str] = None
    count: Optional[int] = 1
    after: float = 0.0

    def matches(self, message: Message, time: float) -> bool:
        """True when this rule applies to ``message`` sent at ``time``."""
        if time < self.after:
            return False
        if self.match_kind is not None and message.kind != self.match_kind:
            return False
        if self.match_src is not None and message.src != self.match_src:
            return False
        if self.match_dst is not None and message.dst != self.match_dst:
            return False
        return True

    def _replace(self, **changes):
        payload = spec_to_dict(self)
        payload.update(changes)
        return spec_from_dict(payload)

    def shrink_candidates(self) -> List[Any]:
        """Simpler variants: fewer hits first, then an untimed rule."""
        candidates = []
        if self.count is None or self.count > 1:
            candidates.append(self._replace(count=1))
        if self.after > 0.0:
            candidates.append(self._replace(after=0.0))
        return candidates


@dataclass(frozen=True)
class Drop(_MessageSpec):
    """Drop up to ``count`` messages matching the predicates (``None`` = all)."""

    kind: ClassVar[str] = "drop"
    shrink_order: ClassVar[int] = 2


@dataclass(frozen=True)
class Duplicate(_MessageSpec):
    """Deliver matching messages twice."""

    kind: ClassVar[str] = "duplicate"
    shrink_order: ClassVar[int] = 1


@dataclass(frozen=True)
class Delay(_MessageSpec):
    """Delay matching messages by ``extra_delay`` simulated time units."""

    kind: ClassVar[str] = "delay"
    shrink_order: ClassVar[int] = 0

    extra_delay: float = 1.0

    def __post_init__(self) -> None:
        if self.extra_delay <= 0:
            raise ScenarioError("delay faults need a positive extra_delay")

    def shrink_candidates(self) -> List[Any]:
        candidates = super().shrink_candidates()
        if self.extra_delay > 1.0:
            # halve toward the unit delay, staying on a tidy grid
            candidates.append(self._replace(extra_delay=max(1.0, _quantize(self.extra_delay / 2))))
            candidates.append(self._replace(extra_delay=1.0))
        return candidates


@dataclass(frozen=True)
class Partition:
    """Split the network into ``groups`` during ``[start, end)``.

    Only processes in different named groups are cut off from each
    other; a process named in no group can reach everyone (it sits on
    the healthy side of every cut).
    """

    kind: ClassVar[str] = "partition"
    shrink_order: ClassVar[int] = 3

    groups: Tuple[Tuple[str, ...], ...]
    start: float
    end: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "groups", _freeze(self.groups))
        if self.end <= self.start:
            raise ScenarioError("partition end must come strictly after its start")
        if len(self.groups) < 2:
            raise ScenarioError("a partition needs at least two groups")
        group_of: Dict[str, int] = {}
        for index, group in enumerate(self.groups):
            for pid in group:
                group_of.setdefault(pid, index)
        # not a field: equality, hashing and the JSON form stay the groups'
        object.__setattr__(self, "_group_of", group_of)

    def active_at(self, time: float) -> bool:
        return self.start <= time < self.end

    def separates(self, src: str, dst: str) -> bool:
        """True when ``src`` and ``dst`` are in different named groups."""
        src_group = self._group_of.get(src)
        dst_group = self._group_of.get(dst)
        return src_group is not None and dst_group is not None and src_group != dst_group

    def shrink_candidates(self) -> List["Partition"]:
        """Narrow the healed-at-``end`` window toward the start."""
        candidates = []
        width = self.end - self.start
        if width > 0.2:
            midpoint = _quantize(self.start + width / 2)
            if midpoint > self.start:
                candidates.append(Partition(self.groups, self.start, midpoint))
        return candidates


#: mutation opcodes understood by :class:`Corrupt`
_CORRUPT_OPS = ("set", "add", "append")


def apply_corruption_ops(state: Dict[str, Any], ops: Iterable[Tuple[Any, ...]]) -> None:
    """Apply ``(op, path, value)`` instructions to a state dict in place."""
    for op, path, value in ops:
        target = state
        for key in path[:-1]:
            target = target[key]
        leaf = path[-1]
        if op == "set":
            target[leaf] = value
        elif op == "add":
            target[leaf] = target[leaf] + value
        elif op == "append":
            target[leaf].append(value)
        else:  # pragma: no cover - rejected at construction
            raise ScenarioError(f"unknown corruption op {op!r}")


@dataclass(frozen=True)
class Corrupt:
    """Silently mutate ``pid``'s local state at time ``at``.

    The paper's "software bug" fault class — only an invariant check can
    notice.  The mutation is a tuple of ``(op, path, value)``
    instructions (``op`` one of ``set``/``add``/``append``, ``path`` a
    key path into the state dict), so corruption scenarios serialize,
    travel as repro artefacts and ship to a worker process as plain data.
    """

    kind: ClassVar[str] = "corruption"
    shrink_order: ClassVar[int] = 4

    pid: str
    at: float
    ops: Tuple[Tuple[Any, ...], ...]
    description: str = "state corruption"

    def __post_init__(self) -> None:
        object.__setattr__(self, "ops", _freeze(self.ops))
        if not self.ops:
            raise ScenarioError("a corruption needs at least one (op, path, value) instruction")
        for entry in self.ops:
            if len(entry) != 3:
                raise ScenarioError(f"corruption op must be (op, path, value), got {entry!r}")
            op, path, _value = entry
            if op not in _CORRUPT_OPS:
                raise ScenarioError(f"unknown corruption op {op!r}; expected one of {_CORRUPT_OPS}")
            if not isinstance(path, tuple) or not path:
                raise ScenarioError(f"corruption path must be a non-empty key sequence, got {path!r}")

    def shrink_candidates(self) -> List["Corrupt"]:
        """Try each single mutation instruction on its own."""
        if len(self.ops) <= 1:
            return []
        return [
            Corrupt(self.pid, self.at, (op,), description=self.description)
            for op in self.ops
        ]


#: JSON ``kind`` discriminator -> spec class
SPEC_TYPES = {
    spec.kind: spec for spec in (Crash, Drop, Duplicate, Delay, Partition, Corrupt)
}


def spec_to_dict(spec) -> Dict[str, Any]:
    """One fault spec as a JSON-ready dict tagged with its ``kind``."""
    payload: Dict[str, Any] = {"kind": spec.kind}
    for spec_field in fields(spec):
        payload[spec_field.name] = _thaw(getattr(spec, spec_field.name))
    return payload


def spec_from_dict(payload: Dict[str, Any]):
    """Rebuild a fault spec from its tagged dict, failing loudly on junk."""
    if not isinstance(payload, dict) or "kind" not in payload:
        raise ScenarioError(f"fault spec must be a dict with a 'kind' tag, got {payload!r}")
    kind = payload["kind"]
    spec_class = SPEC_TYPES.get(kind)
    if spec_class is None:
        raise ScenarioError(
            f"unknown fault kind {kind!r}; expected one of {sorted(SPEC_TYPES)}"
        )
    known = {spec_field.name for spec_field in fields(spec_class)}
    extra = set(payload) - known - {"kind"}
    if extra:
        raise ScenarioError(f"{kind} fault spec has unknown fields: {sorted(extra)}")
    kwargs = {key: _freeze(value) for key, value in payload.items() if key != "kind"}
    return spec_class(**kwargs)


@dataclass(frozen=True)
class FaultSchedule:
    """An ordered, composable collection of fault specs for one run.

    Order matters for message faults (the engine applies the first
    matching rule), so composition preserves it: ``a + b`` and
    ``schedule.then(spec)`` append.
    """

    faults: Tuple[Any, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))
        spec_classes = tuple(SPEC_TYPES.values())
        for spec in self.faults:
            if not isinstance(spec, spec_classes):
                raise ScenarioError(
                    f"fault schedules hold fault specs, got {type(spec).__name__}"
                )

    @staticmethod
    def of(*faults) -> "FaultSchedule":
        return FaultSchedule(faults=faults)

    def then(self, spec) -> "FaultSchedule":
        return FaultSchedule(faults=self.faults + (spec,))

    def __add__(self, other: "FaultSchedule") -> "FaultSchedule":
        return FaultSchedule(faults=self.faults + tuple(other.faults))

    def __len__(self) -> int:
        return len(self.faults)

    def is_empty(self) -> bool:
        return not self.faults

    @property
    def kinds(self) -> Tuple[str, ...]:
        """Distinct fault kinds in first-appearance order."""
        seen: List[str] = []
        for spec in self.faults:
            if spec.kind not in seen:
                seen.append(spec.kind)
        return tuple(seen)

    @property
    def label(self) -> str:
        """Human-readable tag: ``"crash+partition"`` or ``"fault-free"``."""
        return "+".join(self.kinds) if self.faults else "fault-free"

    def of_kind(self, *kinds: str) -> List[Any]:
        """The specs of the given kinds, in schedule order."""
        return [spec for spec in self.faults if spec.kind in kinds]

    def message_specs(self) -> List[Any]:
        """The message-fault specs in rule order (engine rule ``i`` = entry ``i``)."""
        return self.of_kind(*MESSAGE_KINDS)

    def summary(self) -> Dict[str, int]:
        """Counts per fault category, for incident reports."""
        return {
            "crashes": len(self.of_kind("crash")),
            "message_faults": len(self.message_specs()),
            "partitions": len(self.of_kind("partition")),
            "corruptions": len(self.of_kind("corruption")),
        }

    def to_plan(self) -> "FaultSchedule":
        """The schedule itself: every backend runs the specs directly.

        Kept for callers written against the compiled plan this once
        returned (the end-to-end benchmark workloads still install
        ``scenario.faults.to_plan()``).
        """
        return self

    def to_dicts(self) -> List[Dict[str, Any]]:
        return [spec_to_dict(spec) for spec in self.faults]

    @staticmethod
    def from_dicts(payloads: Iterable[Dict[str, Any]]) -> "FaultSchedule":
        return FaultSchedule(faults=tuple(spec_from_dict(payload) for payload in payloads))


class MessageFaultEngine:
    """Applies message-fault specs (:class:`Drop`, :class:`Duplicate`,
    :class:`Delay`) to outgoing messages.

    The engine is consulted by the backend before a message is handed
    to the network; it tracks per-rule hit counts so bounded faults stop
    firing once exhausted.
    """

    def __init__(self, faults: Sequence[Any]) -> None:
        self._faults = list(faults)
        self._hits: Dict[int, int] = {index: 0 for index in range(len(self._faults))}

    def decide(self, message: Message, time: float) -> Optional[Any]:
        """Return the first applicable rule for ``message``, if any."""
        for index, fault in enumerate(self._faults):
            if fault.count is not None and self._hits[index] >= fault.count:
                continue
            if fault.matches(message, time):
                self._hits[index] += 1
                return fault
        return None

    def hit_counts(self) -> Dict[int, int]:
        """Per-rule hit counters (rule index -> hits)."""
        return dict(self._hits)

    def restore_hits(self, counts: Dict[int, int]) -> None:
        """Re-arm the counters from persisted hit counts (continuation).

        A resumed run rebuilds this engine from the scenario's fault
        schedule, which resets every counter to zero; restoring the
        persisted counts keeps count-limited rules at their remaining
        budget instead of firing all over again.  Keys may arrive as
        strings (JSON round-trip); unknown rule indices are ignored —
        the schedule is authoritative for which rules exist.
        """
        for index, hits in counts.items():
            index = int(index)
            if index in self._hits:
                self._hits[index] = max(self._hits[index], int(hits))
