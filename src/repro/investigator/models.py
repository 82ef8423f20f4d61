"""Turning real process implementations into explorable models.

Figure 4 of the paper: when a process detects a fault, its peers reply
with a checkpoint of their state *and a model of their behaviour* — and
"this model does not have to be abstract; it could simply be the
implementation of the process itself".  This module is the adapter that
makes that work: a :class:`DistributedSystemModel` wraps a set of
:class:`~repro.dsim.process.Process` implementations (or hand-written
:class:`EnvironmentModel` stand-ins for components outside FixD's
control, such as the network or a third-party service) into a
guarded-command model whose actions are message deliveries and timer
firings.

State representation
--------------------
A :class:`SystemState` is the global state of the modelled system:

* one state dictionary per process (the same ``self.state`` the
  application maintains),
* per-process random-stream cursors (so replayed randomness is
  deterministic during exploration),
* per-channel FIFO queues of in-flight messages, and
* per-process FIFO queues of pending timers.

Actions
-------
* ``deliver:src->dst`` — deliver the oldest in-flight message on the
  ``src -> dst`` channel (guards keep per-channel FIFO order, while the
  interleaving *across* channels is what the explorer enumerates);
* ``timer:pid`` — fire the oldest pending timer at ``pid``.

Both kinds of action execute the *real handler code* of the destination
process in a sandbox: the process instance's state is loaded from the
model state, the handler runs, and the sends/timers it performs are
captured into the successor state.

Sharing
-------
Model states are never mutated, so a successor shares everything its
step did not touch.  One transition deep-copies one process state (the
handler's working copy, which becomes the successor's state); every
other process state, channel record and timer entry is the parent's own
object.  Payloads are copied on read, when a message is delivered or a
timer fires.  Digests follow the same sharing: each process state and
each message record is digested once, and a state's fingerprint hashes
those digests.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.dsim.message import IdCounter, Message
from repro.dsim.process import Process, ProcessContext
from repro.dsim.rng import DeterministicRNG, derive_seed
from repro.errors import InvariantViolation, ModelCheckingError
from repro.investigator.guarded import Action, GuardedModel
from repro.investigator.invariants import InvariantSpec
from repro.investigator.state import compose, digest
from repro.timemachine.checkpoint import GlobalCheckpoint

ProcessFactory = Callable[[], Process]


Channel = Tuple[str, str]
#: a channel's in-flight records and their digests, index-aligned
Queue = Tuple[Tuple[Dict[str, Any], ...], Tuple[bytes, ...]]


@dataclass(frozen=True)
class SystemState:
    """The global state of the modelled distributed system (treated as immutable).

    Besides its fields a state caches the digest of each process state and
    of each in-flight message record, and its fingerprint.  A state built
    by the constructor computes them on first use; one made by
    :meth:`successor` inherits its parent's for every part it shares.
    """

    process_states: Tuple[Tuple[str, Any], ...]
    rng_cursors: Tuple[Tuple[str, int], ...]
    channels: Tuple[Tuple[Channel, Tuple[Any, ...]], ...]
    timers: Tuple[Tuple[str, Tuple[Any, ...]], ...]
    step: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "_process_digests", {})
        object.__setattr__(self, "_record_digests", {})
        object.__setattr__(self, "_fingerprint", None)

    # -- constructors ----------------------------------------------------
    @staticmethod
    def build(
        process_states: Dict[str, Dict[str, Any]],
        rng_cursors: Dict[str, int],
        channels: Dict[Tuple[str, str], Sequence[Dict[str, Any]]],
        timers: Dict[str, Sequence[Tuple[str, Any]]],
        step: int = 0,
    ) -> "SystemState":
        return SystemState(
            process_states=tuple(sorted((pid, copy.deepcopy(state)) for pid, state in process_states.items())),
            rng_cursors=tuple(sorted(rng_cursors.items())),
            channels=tuple(
                sorted(
                    (channel, tuple(copy.deepcopy(list(queue))))
                    for channel, queue in channels.items()
                    if queue
                )
            ),
            timers=tuple(
                sorted((pid, tuple(copy.deepcopy(list(queue)))) for pid, queue in timers.items() if queue)
            ),
            step=step,
        )

    def successor(
        self,
        pid: str,
        process_state: Dict[str, Any],
        rng_cursor: int,
        queues: Dict[Channel, Queue],
        timers: Dict[str, Tuple[Any, ...]],
    ) -> "SystemState":
        """The state after one handler of ``pid`` ran; nothing is copied.

        ``process_state`` (the handler's result) and ``rng_cursor`` replace
        ``pid``'s; ``queues`` and ``timers`` are the complete channel and
        timer maps of the successor.  Every other process state, and its
        digest, is shared with this state.
        """
        digests = {other: self.process_digest(other) for other, _ in self.process_states if other != pid}
        cursors = dict(self.rng_cursors)
        cursors[pid] = rng_cursor
        successor = SystemState(
            process_states=tuple(
                (other, process_state if other == pid else state) for other, state in self.process_states
            ),
            rng_cursors=tuple(sorted(cursors.items())),
            channels=tuple(sorted((channel, records) for channel, (records, _) in queues.items() if records)),
            timers=tuple(sorted((other, queue) for other, queue in timers.items() if queue)),
            step=self.step + 1,
        )
        successor._process_digests.update(digests)
        successor._record_digests.update(
            (channel, record_digests) for channel, (records, record_digests) in queues.items() if records
        )
        return successor

    # -- digests ---------------------------------------------------------
    def process_digest(self, pid: str) -> bytes:
        """Digest of ``pid``'s state, computed once per state object."""
        found = self._process_digests.get(pid)
        if found is None:
            found = self._process_digests[pid] = digest(self.state_of(pid))
        return found

    def queues(self) -> Dict[Channel, Queue]:
        """Every non-empty channel with its record digests (a fresh dict of shared queues)."""
        return {channel: (records, self._queue_digests(channel, records)) for channel, records in self.channels}

    def _queue_digests(self, channel: Channel, records: Tuple[Any, ...]) -> Tuple[bytes, ...]:
        found = self._record_digests.get(channel)
        if found is None:
            found = self._record_digests[channel] = tuple(digest(record) for record in records)
        return found

    # -- views -----------------------------------------------------------
    def state_of(self, pid: str) -> Dict[str, Any]:
        for key, state in self.process_states:
            if key == pid:
                return state
        raise KeyError(pid)

    def states(self) -> Dict[str, Dict[str, Any]]:
        return {pid: state for pid, state in self.process_states}

    def rng_cursor(self, pid: str) -> int:
        for key, cursor in self.rng_cursors:
            if key == pid:
                return cursor
        return 0

    def channel_queue(self, src: str, dst: str) -> Tuple[Any, ...]:
        for channel, queue in self.channels:
            if channel == (src, dst):
                return queue
        return ()

    def timer_queue(self, pid: str) -> Tuple[Any, ...]:
        for key, queue in self.timers:
            if key == pid:
                return queue
        return ()

    def pending_messages(self) -> int:
        return sum(len(queue) for _, queue in self.channels)

    def pending_timers(self) -> int:
        return sum(len(queue) for _, queue in self.timers)

    @property
    def quiescent(self) -> bool:
        """True when no message and no timer is pending."""
        return self.pending_messages() == 0 and self.pending_timers() == 0

    def fingerprint(self) -> str:
        """Hash of the per-part digests, the RNG cursors and the timers (cached).

        The step counter is excluded: two identical configurations reached
        after a different number of steps are the same state.
        """
        if self._fingerprint is None:
            composed = compose(
                (
                    tuple((pid, self.process_digest(pid)) for pid, _ in self.process_states),
                    self.rng_cursors,
                    tuple((channel, self._queue_digests(channel, records)) for channel, records in self.channels),
                    digest(self.timers),
                )
            )
            object.__setattr__(self, "_fingerprint", composed)
        return self._fingerprint

    def describe(self) -> str:
        states = ", ".join(f"{pid}:{state}" for pid, state in self.process_states)
        return f"msgs={self.pending_messages()} timers={self.pending_timers()} {states}"


class EnvironmentModel(Process):
    """A hand-written model of a component outside FixD's control.

    Section 4.3: "certain parts of the environment ... are not under the
    direct control of the FixD environment and must be modeled
    internally".  An :class:`EnvironmentModel` is simply a process whose
    behaviour is given by a response function instead of real code:
    every incoming message is answered according to ``respond``.
    """

    def __init__(self, respond: Optional[Callable[[Process, Message], None]] = None) -> None:
        super().__init__()
        self._respond = respond

    def on_unhandled(self, message: Message) -> None:
        if self._respond is not None:
            self._respond(self, message)
        # Unlike a real process, an environment model silently ignores
        # messages it has no scripted response for.


class _SandboxContext:
    """Captures the sends and timers a handler performs during model execution.

    Timer operations are kept in one ordered list, as the simulator
    applies them: a cancel removes every pending timer of that name,
    including one set earlier in the same handler.
    """

    def __init__(
        self,
        pid: str,
        peers: Tuple[str, ...],
        rng: DeterministicRNG,
        take_msg_id: Callable[[], int],
        now: float,
    ) -> None:
        self.sent: List[Message] = []
        self.timer_ops: List[Tuple[str, Optional[Tuple[str, Any]]]] = []
        self.context = ProcessContext(
            pid=pid,
            peers=peers,
            send_fn=self.sent.append,
            timer_fn=lambda name, delay, payload: self.timer_ops.append((name, (name, payload))),
            cancel_timer_fn=lambda name: self.timer_ops.append((name, None)),
            now_fn=lambda: now,
            rng=rng,
            take_msg_id=take_msg_id,
        )

    def timer_queue(self, queue: Tuple[Any, ...]) -> Tuple[Any, ...]:
        """``queue`` after this handler's sets and cancels, in the order they ran."""
        for name, entry in self.timer_ops:
            if entry is None:
                queue = tuple(pending for pending in queue if pending[0] != name)
            else:
                queue += (entry,)
        return queue


def _refuse(*_args: Any) -> Any:
    raise ModelCheckingError(
        "an invariant is a function of its process's state: it cannot send, set timers or read the clock"
    )


class DistributedSystemModel:
    """A guarded-command model whose actions run real process handlers."""

    def __init__(
        self,
        factories: Dict[str, ProcessFactory],
        seed: int = 0,
        global_invariants: Optional[Dict[str, Callable[[Dict[str, Dict[str, Any]]], bool]]] = None,
        check_process_invariants: bool = True,
        take_msg_id: Optional[Callable[[], int]] = None,
    ) -> None:
        if not factories:
            raise ModelCheckingError("a distributed system model needs at least one process")
        self.factories = dict(factories)
        self.seed = seed
        self.global_invariants = dict(global_invariants or {})
        self.check_process_invariants = check_process_invariants
        self._pids = tuple(sorted(self.factories))
        self._seeds = {pid: derive_seed(seed, "model", pid) for pid in self._pids}
        self._take_msg_id = take_msg_id or IdCounter().take  # standalone: own ids
        # One scratch instance per process, reused across action executions,
        # and one per process that only ever evaluates invariants.
        self._scratch: Dict[str, Process] = {}
        self._checkers: Dict[str, Process] = {}

    # ------------------------------------------------------------------
    # scratch process management
    # ------------------------------------------------------------------
    def _scratch_process(self, pid: str) -> Process:
        if pid not in self._scratch:
            self._scratch[pid] = self.factories[pid]()
        return self._scratch[pid]

    def _checker(self, pid: str) -> Process:
        """``pid``'s invariant evaluator: bound to no RNG, no clock and no network."""
        checker = self._checkers.get(pid)
        if checker is None:
            checker = self._checkers[pid] = self.factories[pid]()
            checker.bind(
                ProcessContext(
                    pid=pid,
                    peers=self._pids,
                    send_fn=_refuse,
                    timer_fn=_refuse,
                    cancel_timer_fn=_refuse,
                    now_fn=_refuse,
                    rng=None,
                    take_msg_id=_refuse,
                )
            )
        return checker

    def _fresh_rng(self, pid: str, cursor: int) -> DeterministicRNG:
        """``pid``'s stream after ``cursor`` draws (seeded once, then fast-forwarded)."""
        rng = DeterministicRNG(self._seeds[pid])
        for _ in range(cursor):
            rng.random()
        return rng

    # ------------------------------------------------------------------
    # initial states
    # ------------------------------------------------------------------
    def initial_state(self) -> SystemState:
        """Run every process's ``on_start`` in a sandbox and collect the resulting state."""
        states: Dict[str, Dict[str, Any]] = {}
        cursors: Dict[str, int] = {}
        channels: Dict[Tuple[str, str], List[Dict[str, Any]]] = {}
        timers: Dict[str, List[Tuple[str, Any]]] = {}
        for pid in self._pids:
            process = self.factories[pid]()
            rng = self._fresh_rng(pid, 0)
            sandbox = _SandboxContext(pid, self._pids, rng, self._take_msg_id, now=0.0)
            process.bind(sandbox.context)
            process.on_start()
            # SystemState.build copies every state and record it is given
            states[pid] = process.state
            cursors[pid] = rng.draws
            for message in sandbox.sent:
                channels.setdefault((message.src, message.dst), []).append(message.to_record())
            timers[pid] = sandbox.timer_queue(())
        return SystemState.build(states, cursors, channels, timers)

    def state_from_checkpoint(
        self,
        checkpoint: GlobalCheckpoint,
        in_flight: Optional[Sequence[Message]] = None,
    ) -> SystemState:
        """Build the model's starting state from a global checkpoint (Figure 4)."""
        states: Dict[str, Dict[str, Any]] = {}
        cursors: Dict[str, int] = {}
        for pid in self._pids:
            if pid in checkpoint:
                # SystemState.build copies every state it is given
                states[pid] = checkpoint[pid].state
                cursors[pid] = checkpoint[pid].rng_draws
            else:
                # Processes without a checkpoint start from their initial state.
                process = self.factories[pid]()
                rng = self._fresh_rng(pid, 0)
                sandbox = _SandboxContext(pid, self._pids, rng, self._take_msg_id, now=0.0)
                process.bind(sandbox.context)
                process.on_start()
                states[pid] = process.state
                cursors[pid] = rng.draws
        channels: Dict[Tuple[str, str], List[Dict[str, Any]]] = {}
        for message in in_flight or ():
            channels.setdefault((message.src, message.dst), []).append(message.to_record())
        return SystemState.build(states, cursors, channels, {})

    # ------------------------------------------------------------------
    # action execution
    # ------------------------------------------------------------------
    def _execute_handler(
        self,
        state: SystemState,
        pid: str,
        run: Callable[[Process], None],
        queues: Dict[Channel, Queue],
        timers: Dict[str, Tuple[Any, ...]],
    ) -> SystemState:
        """Run ``run(process)`` against ``pid``'s implementation and build the successor.

        ``queues`` and ``timers`` are ``state``'s channel and timer maps
        with the consumed message or timer already removed; the handler's
        sends and timer operations are applied to them.
        """
        process = self._scratch_process(pid)
        rng = self._fresh_rng(pid, state.rng_cursor(pid))
        sandbox = _SandboxContext(
            pid, self._pids, rng, self._take_msg_id, now=float(state.step + 1)
        )
        process.bind(sandbox.context)
        # The transition's one deep copy: the handler's result is the successor's state.
        process.state = copy.deepcopy(state.state_of(pid))

        run(process)

        for message in sandbox.sent:
            record = message.to_record()
            channel = (message.src, message.dst)
            records, record_digests = queues.get(channel, ((), ()))
            queues[channel] = (records + (record,), record_digests + (digest(record),))
        timers[pid] = sandbox.timer_queue(timers.get(pid, ()))
        return state.successor(pid, process.state, rng.draws, queues, timers)

    def _deliver_effect(self, src: str, dst: str) -> Callable[[SystemState], SystemState]:
        channel = (src, dst)

        def effect(state: SystemState) -> SystemState:
            queues = state.queues()
            if channel not in queues:
                raise ModelCheckingError(f"deliver action fired with empty channel {src}->{dst}")
            records, record_digests = queues[channel]
            record = records[0]
            message = Message.from_record({**record, "payload": copy.deepcopy(record.get("payload"))})
            queues[channel] = (records[1:], record_digests[1:])
            return self._execute_handler(
                state, dst, lambda process: process.deliver(message), queues, dict(state.timers)
            )

        return effect

    def _timer_effect(self, pid: str) -> Callable[[SystemState], SystemState]:
        def effect(state: SystemState) -> SystemState:
            timers = dict(state.timers)
            queue = timers.get(pid)
            if not queue:
                raise ModelCheckingError(f"timer action fired with no pending timer at {pid}")
            name, payload = queue[0]
            payload = copy.deepcopy(payload)
            timers[pid] = queue[1:]
            return self._execute_handler(
                state, pid, lambda process: process.fire_timer(name, payload), state.queues(), timers
            )

        return effect

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------
    def _process_invariant_spec(self, pid: str) -> InvariantSpec:
        # An invariant is a function of its process's state, so one verdict
        # per distinct state (by digest) serves every global state holding it.
        verdicts: Dict[bytes, bool] = {}

        def predicate(state: SystemState) -> bool:
            key = state.process_digest(pid)
            verdict = verdicts.get(key)
            if verdict is None:
                checker = self._checker(pid)
                checker.state = state.state_of(pid)
                try:
                    checker.check_invariants()
                    verdict = True
                except InvariantViolation:
                    verdict = False
                verdicts[key] = verdict
            return verdict

        return InvariantSpec(
            name=f"process:{pid}",
            predicate=predicate,
            description=f"all invariants declared by process {pid} hold",
        )

    def _global_invariant_spec(self, name: str, predicate) -> InvariantSpec:
        return InvariantSpec(
            name=f"global:{name}",
            predicate=lambda state: predicate(state.states()),
            description=f"global invariant {name}",
        )

    # ------------------------------------------------------------------
    # model construction
    # ------------------------------------------------------------------
    def build_model(self, initial: Optional[SystemState] = None) -> GuardedModel:
        """Construct the guarded-command model to hand to ModelD / the explorer."""
        actions: List[Action] = []
        for src in self._pids:
            for dst in self._pids:
                if src == dst:
                    continue
                actions.append(
                    Action(
                        name=f"deliver:{src}->{dst}",
                        effect=self._deliver_effect(src, dst),
                        guard=lambda state, _s=src, _d=dst: bool(state.channel_queue(_s, _d)),
                        tags=frozenset({"communication"}),
                    )
                )
        for pid in self._pids:
            actions.append(
                Action(
                    name=f"timer:{pid}",
                    effect=self._timer_effect(pid),
                    guard=lambda state, _p=pid: bool(state.timer_queue(_p)),
                    tags=frozenset({"timer"}),
                )
            )
        invariants: List[InvariantSpec] = []
        if self.check_process_invariants:
            invariants.extend(self._process_invariant_spec(pid) for pid in self._pids)
        invariants.extend(
            self._global_invariant_spec(name, predicate)
            for name, predicate in sorted(self.global_invariants.items())
        )
        return GuardedModel(
            initial_state=initial if initial is not None else self.initial_state(),
            actions=actions,
            invariants=invariants,
        )

    @staticmethod
    def terminal_predicate(state: SystemState) -> bool:
        """Quiescent states are legitimate end states, not deadlocks."""
        return state.quiescent
