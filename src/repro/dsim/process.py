"""The application programming model: event-driven processes.

Distributed applications are written as subclasses of :class:`Process`.
A process owns a dictionary of local state (``self.state``), reacts to
messages and timers through decorated handler methods, declares runtime
invariants, and interacts with the outside world *only* through the
:class:`ProcessContext` the cluster provides.  Funnelling every
nondeterministic interaction (sends, timer registration, clock reads,
random draws) through the context is what lets the Scroll record the
execution and the Time Machine checkpoint and roll it back without any
cooperation from application code — the "automated and transparent
fashion" the paper asks for in Section 3.2.

Example
-------
.. code-block:: python

    class Counter(Process):
        def on_start(self):
            self.state["count"] = 0

        @handler("INC")
        def handle_inc(self, msg):
            self.state["count"] += msg.payload
            self.send(msg.src, "ACK", self.state["count"])

        @invariant("count-non-negative")
        def check_count(self):
            return self.state["count"] >= 0
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.dsim.clock import LamportClock, VectorClock, VectorTimestamp
from repro.dsim.message import Message, make_message, no_msg_ids
from repro.dsim.rng import DeterministicRNG
from repro.errors import InvariantViolation, SimulationError

_HANDLER_ATTR = "_repro_handles_kind"
_TIMER_ATTR = "_repro_handles_timer"
_INVARIANT_ATTR = "_repro_invariant_name"


def handler(kind: str) -> Callable:
    """Mark a method as the handler for messages of ``kind``."""

    def decorate(func: Callable) -> Callable:
        setattr(func, _HANDLER_ATTR, kind)
        return func

    return decorate


def timer_handler(name: str) -> Callable:
    """Mark a method as the handler for timers named ``name``."""

    def decorate(func: Callable) -> Callable:
        setattr(func, _TIMER_ATTR, name)
        return func

    return decorate


def invariant(name: str) -> Callable:
    """Mark a zero-argument method as a named invariant.

    The method must return a truthy value when the invariant holds.  It
    may also raise :class:`InvariantViolation` directly to attach a
    detailed message.

    An invariant is a function of the process's state: it reads
    ``self.state`` (and the instance's configuration), and never the
    clock or the random stream; it sends nothing, sets no timer and
    changes nothing.  The Investigator relies on this contract.  It
    evaluates each invariant once per distinct process state, on an
    instance bound to no clock and no random stream, against a state
    object the model shares between states.
    """

    def decorate(func: Callable) -> Callable:
        setattr(func, _INVARIANT_ATTR, name)
        return func

    return decorate


@dataclass
class ProcessContext:
    """Everything a process needs from its environment.

    The cluster builds one context per process; the ``multiprocessing``
    backend and the Investigator build their own variants.  All fields
    are callables or simple objects so alternative environments can
    substitute them freely.
    """

    pid: str
    peers: Tuple[str, ...]
    send_fn: Callable[[Message], None]
    timer_fn: Callable[[str, float, Any], None]
    cancel_timer_fn: Callable[[str], None]
    now_fn: Callable[[], float]
    rng: DeterministicRNG
    record_random_fn: Optional[Callable[[str, str, Any], None]] = None
    record_clock_fn: Optional[Callable[[str, float], None]] = None
    log_fn: Optional[Callable[[str, str], None]] = None
    #: the application-visible clock used by :meth:`Process.now`; defaults
    #: to ``now_fn``.  Replay substitutes the recorded-outcome stream here
    #: while ``now_fn`` stays ambient (message timestamps and other
    #: runtime bookkeeping must not consume recorded clock reads).
    read_clock_fn: Optional[Callable[[], float]] = None
    #: current end position of the run's Scroll, when one is recording;
    #: checkpoints stamp it so rollback can truncate the log's tiers.
    scroll_position_fn: Optional[Callable[[], Optional[int]]] = None
    #: draws each sent message's id from its owner's counter (default: raises)
    take_msg_id: Callable[[], int] = no_msg_ids


class ProcessCheckpoint:
    """A snapshot of one process's local state plus the metadata rollback needs.

    The Time Machine wraps these into globally consistent recovery
    lines.  ``sequence`` is a per-process checkpoint counter; ``vt`` is
    the vector timestamp at capture time, which is what consistency
    checks compare.

    The state is held one of two ways.  A checkpoint the Time Machine
    captures references its copy-on-write capture (``cow``, a
    :class:`~repro.timemachine.cow.CowCheckpoint`) and holds no copy of
    its own: ``state`` is materialised from the page store on each read,
    so every read returns a fresh dict.  A checkpoint built any other way
    (``capture_checkpoint()`` without ``cow``, a durable restore, a test)
    holds its ``state`` dict directly.

    A COW-backed state keeps object sharing only at the top level: two
    keys bound to one object restore bound to one object, but an object
    shared deeper down (``state["a"]["x"] is state["b"][0]``) restores
    as two equal copies.  The capture pickles each top-level key on its
    own (see :meth:`~repro.timemachine.cow.CowPageStore.capture`).
    """

    def __init__(
        self,
        pid: str,
        sequence: int,
        time: float,
        state: Optional[Dict[str, Any]] = None,
        vt: Optional[VectorTimestamp] = None,
        lamport: int = 0,
        rng_draws: int = 0,
        sent_count: int = 0,
        received_count: int = 0,
        extra: Optional[Dict[str, Any]] = None,
        cow: Any = None,
    ) -> None:
        if (state is None) == (cow is None):
            raise SimulationError("a checkpoint holds either a state dict or a COW capture")
        self.pid = pid
        self.sequence = sequence
        self.time = time
        self._state = state
        self.vt = vt if vt is not None else VectorTimestamp()
        self.lamport = lamport
        self.rng_draws = rng_draws
        self.sent_count = sent_count
        self.received_count = received_count
        self.extra: Dict[str, Any] = extra if extra is not None else {}
        self.cow = cow

    @property
    def state(self) -> Dict[str, Any]:
        """The captured state (materialised afresh on each read when COW-backed)."""
        return self._state if self.cow is None else self.cow.restore()

    def fresh_state(self) -> Dict[str, Any]:
        """An independent copy of the captured state: what a restore installs."""
        return copy.deepcopy(self._state) if self.cow is None else self.cow.restore()

    def size_bytes(self) -> int:
        """Approximate serialized size, used by checkpoint-cost benchmarks."""
        if self.cow is not None:
            return self.cow.total_bytes
        import pickle

        return len(pickle.dumps(self._state, protocol=pickle.HIGHEST_PROTOCOL))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        held = "cow" if self.cow is not None else "state"
        return f"ProcessCheckpoint({self.pid!r}, #{self.sequence}, t={self.time}, {held})"


class ConfiguredFactory:
    """A picklable zero-argument factory: a Process class plus instance attributes.

    Application builders traditionally parameterise process classes by
    mutating class attributes (``Master.chunks = n``).  That pattern
    breaks on the multiprocessing backend's ``spawn`` start method — the
    worker re-imports the module and sees the class defaults — and leaks
    configuration between clusters built in one interpreter.  This
    factory instead stamps the configuration onto each *instance*
    (shadowing the class attributes), and pickles cleanly, so the
    configuration travels with the factory wherever the worker is
    started.
    """

    def __init__(self, cls, **attrs) -> None:
        self.cls = cls
        self.attrs = attrs

    def __call__(self) -> "Process":
        process = self.cls()
        for name, value in self.attrs.items():
            setattr(process, name, value)
        return process

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v!r}" for k, v in self.attrs.items())
        return f"ConfiguredFactory({self.cls.__name__}, {inner})"


class Process:
    """Base class for all simulated application processes."""

    def __init__(self) -> None:
        self.state: Dict[str, Any] = {}
        self._ctx: Optional[ProcessContext] = None
        self._vector_clock: Optional[VectorClock] = None
        self._lamport: Optional[LamportClock] = None
        self._crashed = False
        self._sent_count = 0
        self._received_count = 0
        self._checkpoint_sequence = 0
        self._handlers: Dict[str, Callable[[Message], None]] = {}
        self._timer_handlers: Dict[str, Callable[[Any], None]] = {}
        self._invariants: Dict[str, Callable[[], Any]] = {}
        self._collect_decorated_members()

    # ------------------------------------------------------------------
    # wiring (called by the environment, not by applications)
    # ------------------------------------------------------------------
    def bind(self, ctx: ProcessContext) -> None:
        """Attach the process to its execution context."""
        self._ctx = ctx
        self._vector_clock = VectorClock(ctx.pid)
        self._lamport = LamportClock(ctx.pid)

    def swap_context(self, ctx: Optional[ProcessContext]) -> Optional[ProcessContext]:
        """Swap the execution context *without* resetting logical clocks.

        Replay-forward temporarily redirects a live, checkpoint-restored
        process through a replay context (recorded rng/clock/send
        interception); unlike :meth:`bind`, the vector and Lamport
        clocks restored from the checkpoint keep evolving across the
        swap.  Returns the previous context.
        """
        previous = self._ctx
        self._ctx = ctx
        return previous

    def _collect_decorated_members(self) -> None:
        # Walk the class hierarchy (not dir(self)) so instance properties are
        # never triggered; subclasses override base-class handlers because the
        # MRO is traversed from most-derived to least-derived.
        seen: set = set()
        for klass in type(self).__mro__:
            for name, member in vars(klass).items():
                if name in seen or not callable(member):
                    continue
                seen.add(name)
                bound = getattr(self, name)
                kind = getattr(member, _HANDLER_ATTR, None)
                if kind is not None:
                    self._handlers[kind] = bound
                timer_name = getattr(member, _TIMER_ATTR, None)
                if timer_name is not None:
                    self._timer_handlers[timer_name] = bound
                inv_name = getattr(member, _INVARIANT_ATTR, None)
                if inv_name is not None:
                    self._invariants[inv_name] = bound

    # ------------------------------------------------------------------
    # identity and environment access
    # ------------------------------------------------------------------
    @property
    def ctx(self) -> ProcessContext:
        if self._ctx is None:
            raise SimulationError("process is not bound to a context; was it added to a cluster?")
        return self._ctx

    @property
    def pid(self) -> str:
        """This process's id."""
        return self.ctx.pid

    @property
    def peers(self) -> Tuple[str, ...]:
        """All process ids in the cluster, excluding this one."""
        return tuple(p for p in self.ctx.peers if p != self.ctx.pid)

    @property
    def crashed(self) -> bool:
        return self._crashed

    @property
    def vector_timestamp(self) -> VectorTimestamp:
        """Current vector timestamp of this process."""
        if self._vector_clock is None:
            return VectorTimestamp()
        return self._vector_clock.snapshot()

    @property
    def lamport_time(self) -> int:
        return self._lamport.time if self._lamport is not None else 0

    @property
    def messages_sent(self) -> int:
        return self._sent_count

    @property
    def messages_received(self) -> int:
        return self._received_count

    # ------------------------------------------------------------------
    # application-facing API
    # ------------------------------------------------------------------
    def send(self, dst: str, kind: str, payload: Any = None) -> Message:
        """Send a message; returns the message that entered the network."""
        ctx = self.ctx
        vt = self._vector_clock.tick() if self._vector_clock else VectorTimestamp()
        lamport = self._lamport.tick() if self._lamport else 0
        message = make_message(
            ctx.pid, dst, kind, payload, ctx.now_fn(), vt, lamport, ctx.take_msg_id()
        )
        self._sent_count += 1
        ctx.send_fn(message)
        return message

    def broadcast(self, kind: str, payload: Any = None) -> List[Message]:
        """Send the same message to every peer."""
        return [self.send(peer, kind, payload) for peer in self.peers]

    def set_timer(self, name: str, delay: float, payload: Any = None) -> None:
        """Arm a named timer ``delay`` time units in the future."""
        if delay < 0:
            raise SimulationError("timer delay must be non-negative")
        self.ctx.timer_fn(name, delay, payload)

    def cancel_timer(self, name: str) -> None:
        """Cancel all pending timers with the given name."""
        self.ctx.cancel_timer_fn(name)

    def now(self) -> float:
        """Read the simulation clock (a recorded nondeterministic action)."""
        read = self.ctx.read_clock_fn or self.ctx.now_fn
        value = read()
        if self.ctx.record_clock_fn is not None:
            self.ctx.record_clock_fn(self.pid, value)
        return value

    def random(self) -> float:
        """Draw a uniform float from this process's deterministic stream."""
        value = self.ctx.rng.random()
        self._record_random("random", value)
        return value

    def randint(self, low: int, high: int) -> int:
        """Draw a uniform integer in [low, high] from this process's stream."""
        value = self.ctx.rng.randint(low, high)
        self._record_random("randint", value)
        return value

    def choice(self, items: Sequence[Any]) -> Any:
        """Pick a random element of ``items`` from this process's stream."""
        value = self.ctx.rng.choice(items)
        self._record_random("choice", value)
        return value

    def log(self, text: str) -> None:
        """Emit an application-level log line into the run trace."""
        if self.ctx.log_fn is not None:
            self.ctx.log_fn(self.pid, text)

    def _record_random(self, method: str, value: Any) -> None:
        if self.ctx.record_random_fn is not None:
            self.ctx.record_random_fn(self.pid, method, value)

    # ------------------------------------------------------------------
    # lifecycle callbacks (override in applications)
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        """Called once when the cluster starts.  Initialise state here."""

    def on_stop(self) -> None:
        """Called when the run ends normally."""

    def on_crash(self) -> None:
        """Called just before the process is marked crashed."""

    def on_recover(self) -> None:
        """Called after the process is restarted following a crash."""

    def on_unhandled(self, message: Message) -> None:
        """Called for messages whose kind has no registered handler."""
        raise SimulationError(
            f"process {self.pid!r} has no handler for message kind {message.kind!r}"
        )

    # ------------------------------------------------------------------
    # dispatch (called by the environment)
    # ------------------------------------------------------------------
    def deliver(self, message: Message) -> None:
        """Dispatch an incoming message to its handler, updating clocks."""
        if self._crashed:
            return
        if self._vector_clock is not None:
            self._vector_clock.merge(message.vt)
        if self._lamport is not None:
            self._lamport.merge(message.lamport)
        self._received_count += 1
        handler_fn = self._handlers.get(message.kind)
        if handler_fn is None:
            self.on_unhandled(message)
        else:
            handler_fn(message)

    def fire_timer(self, name: str, payload: Any = None) -> None:
        """Dispatch a timer firing to its handler."""
        if self._crashed:
            return
        if self._vector_clock is not None:
            self._vector_clock.tick()
        if self._lamport is not None:
            self._lamport.tick()
        handler_fn = self._timer_handlers.get(name)
        if handler_fn is None:
            raise SimulationError(f"process {self.pid!r} has no handler for timer {name!r}")
        handler_fn(payload)

    def mark_crashed(self) -> None:
        self.on_crash()
        self._crashed = True

    def mark_recovered(self) -> None:
        self._crashed = False
        self.on_recover()

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Evaluate every declared invariant; raise on the first failure."""
        for name, check in sorted(self._invariants.items()):
            try:
                ok = check()
            except InvariantViolation:
                raise
            except Exception as exc:  # invariant code itself crashed
                raise InvariantViolation(name, self.pid, f"invariant check raised {exc!r}") from exc
            if not ok:
                raise InvariantViolation(name, self.pid, "predicate returned a falsy value")

    # ------------------------------------------------------------------
    # checkpointing support
    # ------------------------------------------------------------------
    def capture_checkpoint(self, time: float, cow: Any = None) -> ProcessCheckpoint:
        """Capture a snapshot of the local state.

        ``cow`` is a copy-on-write capture of ``self.state`` the caller
        has just taken; the checkpoint then references it instead of
        deep-copying the state a second time.

        When the environment records a Scroll, the checkpoint also
        stamps the log's current end position (``extra["scroll_position"]``
        — the spill watermark plus the hot-tier length), which is what
        lets a rollback truncate both storage tiers to the recovery line.
        """
        self._checkpoint_sequence += 1
        checkpoint = ProcessCheckpoint(
            pid=self.pid,
            sequence=self._checkpoint_sequence,
            time=time,
            state=copy.deepcopy(self.state) if cow is None else None,
            cow=cow,
            vt=self.vector_timestamp,
            lamport=self.lamport_time,
            rng_draws=self.ctx.rng.draws,
            sent_count=self._sent_count,
            received_count=self._received_count,
        )
        position_fn = self.ctx.scroll_position_fn
        if position_fn is not None:
            position = position_fn()
            if position is not None:
                checkpoint.extra["scroll_position"] = position
        return checkpoint

    def restore_checkpoint(self, checkpoint: ProcessCheckpoint) -> None:
        """Restore local state, clocks and the random stream from a snapshot."""
        if checkpoint.pid != self.pid:
            raise SimulationError(
                f"checkpoint for {checkpoint.pid!r} cannot be restored into {self.pid!r}"
            )
        self.state = checkpoint.fresh_state()
        if self._vector_clock is not None:
            self._vector_clock.restore(checkpoint.vt)
        if self._lamport is not None:
            self._lamport.restore(checkpoint.lamport)
        self.ctx.rng.restore(checkpoint.rng_draws)
        self._sent_count = checkpoint.sent_count
        self._received_count = checkpoint.received_count
        self._crashed = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        pid = self._ctx.pid if self._ctx is not None else "<unbound>"
        return f"{type(self).__name__}(pid={pid!r})"
