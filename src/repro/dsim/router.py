"""The one real-process router, and the worker loop it talks to.

Every real-process substrate (``MPBackend`` on pipes or shared-memory
rings, ``NetBackend`` on sharded sockets) is the same machine: workers
run :func:`worker_loop` and ship *flush logs*; a parent-side
:class:`Router` replays those logs through the cluster's hook chain,
applies the fault schedule (crash/recover control, drop / delay /
duplicate / partition decisions), batches deliveries per destination,
detects quiescence with a probe protocol and assembles the ``RunResult``.

What differs between substrates is only how items travel, and that is
hidden behind a per-run **link set** with five operations::

    open(spawn, deliver)   fork one worker per pid — spawn maps each pid
                           to worker_loop's arguments after (endpoint,
                           options) — *then* start any threads; every
                           uplink item goes to deliver(pid, item)
    send(pid, item)        queue one item for a worker; never blocks
                           the router on a transport write
    drain(idle_timeout)    hand every waiting uplink item to deliver,
                           in order; a dead peer is reported as the item
                           ("__lost__",), a stalled one as ("__stalled__",)
    close()                reclaim threads, workers, segments, sockets;
                           idempotent, safe after a failed open
    stats(results)         (parent-side codec counters, write counts)

The link set is per run rather than per worker because draining is
collective on every substrate (one ``wait`` over all control pipes and
rings; one shard uplink queue).  The router never sends inline while
replaying a flush — routed messages only accumulate in ``pending_out``
— which is what lets a link re-enter :meth:`Router.handle_item` from
inside ``send`` (ring backpressure) safely.

This module is dsim-internal (``scripts/check.sh`` guards the boundary).
"""

from __future__ import annotations

import heapq
import multiprocessing as mp
import sys
import time as wall_time
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro.dsim.failure import Corrupt, MessageFaultEngine, apply_corruption_ops
from repro.dsim.message import IdCounter, Message
from repro.dsim.process import ProcessContext
from repro.dsim.rng import DeterministicRNG, derive_seed
from repro.dsim.wire import TransportError
from repro.errors import InvariantViolation, SimulationError, UnknownProcessError


#: Hard wall-clock cap on a run, protecting the test suite from a
#: quiescence-detection bug or a livelocked application.
MAX_WALL_SECONDS = 30.0


def check_time_scale(time_scale, error=SimulationError) -> None:
    """Reject a ``time_scale`` that is not a positive number — the one
    rule ``Scenario`` and :class:`RouterOptions` both apply.  Zero
    divides the router's clock; a negative scale makes the wall limit
    negative, so the run "times out" having executed nothing."""
    is_number = isinstance(time_scale, (int, float)) and not isinstance(time_scale, bool)
    if not is_number or not 0 < time_scale < float("inf"):  # NaN fails both bounds
        raise error(
            "time_scale must be a positive, finite number of wall seconds "
            f"per simulated unit, got {time_scale!r}"
        )


@dataclass
class RouterOptions:
    """The knobs every real-process substrate shares.

    Attributes
    ----------
    time_scale:
        Wall-clock seconds per simulated time unit.  Application timers
        and fault-schedule times are expressed in simulated units on every
        backend; the workers convert them with this factor, so a schedule
        written for the simulator injects at the equivalent wall moment.
    flush_watermark:
        A worker flushes its outgoing batch once it holds this many
        messages (it also flushes whenever it goes idle, so the
        watermark bounds batch size, not latency).  ``1`` degenerates to
        one transport write per message — the pre-batching behaviour,
        kept reachable for the batching benchmarks' baselines.
    batch_deliveries:
        When true (default) the router groups one routing tick's
        deliveries per destination worker and writes one batch per
        worker; when false it writes one message per transport write.
    max_batch_messages:
        Upper bound on messages per router batch write; very large
        bursts are split so a single write stays well under the OS pipe
        buffer (both sides always drain eagerly, this is the
        belt-and-braces bound).
    """

    time_scale: float = 0.02
    flush_watermark: int = 64
    batch_deliveries: bool = True
    max_batch_messages: int = 128

    def __post_init__(self) -> None:
        check_time_scale(self.time_scale)


def resolved_start_method() -> str:
    """The ``multiprocessing`` start method workers are created with.

    ``fork`` on Linux (cheap worker startup, no pickling of factories)
    and ``spawn`` everywhere else — including macOS, where CPython
    deliberately stopped defaulting to fork (unsafe under
    ObjC/CoreFoundation).  Under ``spawn``, configure processes via
    picklable factories that set *instance* attributes
    (:class:`repro.dsim.process.ConfiguredFactory`, which the demo app
    builders use) — mutating class attributes in the parent does not
    cross the spawn boundary.
    """
    if sys.platform.startswith("linux") and "fork" in mp.get_all_start_methods():
        return "fork"
    return "spawn"


def reap_workers(workers) -> None:
    """Join every worker process, terminating any that will not exit."""
    for worker in workers:
        worker.join(timeout=2.0)
        if worker.is_alive():  # pragma: no cover - defensive cleanup
            worker.terminate()
            worker.join(timeout=1.0)


# ----------------------------------------------------------------------
# the worker side
# ----------------------------------------------------------------------
def worker_loop(
    endpoint,
    options: RouterOptions,
    pid: str,
    factory,
    all_pids: Tuple[str, ...],
    seed: int,
    check_invariants: bool,
    wall_limit: float,
    corruptions: List[Corrupt],
    msg_id_base: int,
) -> None:
    """The body of one worker process, over any transport endpoint.

    The worker owns its :class:`Process` instance, services timers with
    wall-clock granularity, and talks to the router through ``endpoint``
    (``send``/``send_control``/``poll``/``drain``/``stats``): a duplex
    pipe, a shared-memory ring pair, or a socket.  Outgoing messages,
    delivery receipts, timer firings and detected violations accumulate
    in a *flush buffer* shipped as one transport frame — per-sender FIFO
    order is preserved because the buffer is drained in append order.
    """
    start = wall_time.monotonic()
    scale = options.time_scale
    watermark = max(1, options.flush_watermark)

    def sim_now() -> float:
        return (wall_time.monotonic() - start) / scale

    process = factory()
    timers: List[Tuple[float, int, str, Any]] = []
    timer_seq = 0
    crashed = False
    timer_fires = 0
    rng_draws = 0
    clock_reads = 0
    shipped_rng = 0
    shipped_clock = 0

    # flush buffer: ONE tagged log in occurrence order, so the router
    # replays sends, receipts, timer firings, violations and fault
    # events exactly as they interleaved inside the worker — hooks see
    # the same causal surface a simulator run would record.
    flush_log: List[Tuple] = []
    # sends, delivery receipts and violations all count toward the
    # watermark (bookkeeping entries don't): a receive-heavy worker under
    # sustained traffic still flushes regularly, bounding both its buffer
    # and the router's in-flight map, and violations ship promptly.
    pending_units = 0

    def flush() -> None:
        nonlocal flush_log, pending_units, shipped_rng, shipped_clock
        # recording depth: rng-draw / clock-read counters ride in the
        # flush payload as deltas, so every transport exposes the same
        # observability surface without a side channel
        if rng_draws > shipped_rng or clock_reads > shipped_clock:
            flush_log.append(
                ("counters", rng_draws - shipped_rng, clock_reads - shipped_clock)
            )
            shipped_rng = rng_draws
            shipped_clock = clock_reads
        if not flush_log:
            return
        endpoint.send(("flush", pid, flush_log))
        flush_log = []
        pending_units = 0

    def note_unit() -> None:
        nonlocal pending_units
        pending_units += 1
        if pending_units >= watermark:
            flush()

    def send_fn(message: Message) -> None:
        flush_log.append(("sent", message))
        note_unit()

    def timer_fn(name: str, delay: float, payload: Any) -> None:
        nonlocal timer_seq
        timer_seq += 1
        heapq.heappush(timers, (wall_time.monotonic() + delay * scale, timer_seq, name, payload))

    def cancel_timer_fn(name: str) -> None:
        nonlocal timers
        timers = [entry for entry in timers if entry[2] != name]
        heapq.heapify(timers)

    def record_random(*_args) -> None:
        nonlocal rng_draws
        rng_draws += 1

    def record_clock(*_args) -> None:
        nonlocal clock_reads
        clock_reads += 1

    ctx = ProcessContext(
        pid=pid,
        peers=all_pids,
        send_fn=send_fn,
        timer_fn=timer_fn,
        cancel_timer_fn=cancel_timer_fn,
        now_fn=sim_now,
        rng=DeterministicRNG(derive_seed(seed, "process", pid)),
        record_random_fn=record_random,
        record_clock_fn=record_clock,
        take_msg_id=IdCounter(msg_id_base).take,  # this worker's disjoint id range
    )

    def after_handler() -> None:
        if not check_invariants or crashed:
            return
        try:
            process.check_invariants()
        except InvariantViolation as violation:
            flush_log.append(
                (
                    "violation",
                    violation.name,
                    violation.detail,
                    sim_now(),
                    process.vector_timestamp,
                )
            )
            note_unit()

    corruption_schedule = sorted(corruptions, key=lambda corruption: corruption.at)
    corruption_index = 0

    error = None
    stopping = False
    try:
        process.bind(ctx)
        process.on_start()
        flush_log.append(("handled", "on_start", sim_now()))
        after_handler()

        deadline = start + wall_limit
        while not stopping and wall_time.monotonic() < deadline:
            now_w = wall_time.monotonic()
            # injected state corruptions due at this wall moment
            while (
                corruption_index < len(corruption_schedule)
                and corruption_schedule[corruption_index].at * scale <= now_w - start
            ):
                fault = corruption_schedule[corruption_index]
                corruption_index += 1
                if not crashed:
                    apply_corruption_ops(process.state, fault.ops)
                    flush_log.append(
                        ("event", "corrupt", fault.description, sim_now(), process.vector_timestamp)
                    )
                    flush_log.append(("handled", "corruption", sim_now()))
                    after_handler()
            # fire due timers
            while timers and timers[0][0] <= wall_time.monotonic() and not crashed:
                _, _, name, payload = heapq.heappop(timers)
                flush_log.append(("timer", name, sim_now(), process.vector_timestamp))
                process.fire_timer(name, payload)
                timer_fires += 1
                flush_log.append(("handled", f"timer {name}", sim_now()))
                after_handler()
            # wait for router traffic until the next timer (or a short idle poll)
            timeout = 0.002
            if timers:
                timeout = min(timeout, max(0.0, timers[0][0] - wall_time.monotonic()))
            if corruption_index < len(corruption_schedule):
                due = corruption_schedule[corruption_index].at * scale - (wall_time.monotonic() - start)
                timeout = min(timeout, max(0.0, due))
            if not endpoint.poll(timeout):
                flush()  # idle: everything buffered goes out now
                continue
            for item in endpoint.drain():
                tag = item[0]
                if tag == "batch":
                    for tseq, message in item[1]:
                        if crashed:
                            flush_log.append(("dead", tseq))
                            continue
                        flush_log.append(("brecv", tseq, sim_now()))
                        process.deliver(message)
                        flush_log.append(("recv", tseq, sim_now(), process.vector_timestamp))
                        flush_log.append(("handled", f"deliver {message.kind}", sim_now()))
                        note_unit()
                        after_handler()
                elif tag == "crash":
                    if not crashed:
                        process.mark_crashed()
                        crashed = True
                        timers.clear()
                        flush_log.append(("event", "crash", "", sim_now(), process.vector_timestamp))
                        flush()
                elif tag == "recover":
                    if crashed:
                        process.mark_recovered()
                        crashed = False
                        flush_log.append(("event", "recover", "", sim_now(), process.vector_timestamp))
                        flush_log.append(("handled", "on_recover", sim_now()))
                        after_handler()
                        flush()
                elif tag == "probe":
                    flush()
                    endpoint.send_control(
                        (
                            "probe_ack",
                            pid,
                            item[1],
                            {
                                "sent_total": process.messages_sent,
                                "timers_armed": 0 if crashed else len(timers),
                                # scheduled-but-unfired corruptions count as
                                # armed work: the router must not quiesce past
                                # them (exact, clock-skew-free accounting)
                                "corruptions_pending": len(corruption_schedule) - corruption_index,
                                "crashed": crashed,
                            },
                        )
                    )
                elif tag == "stop":
                    stopping = True
                    break
    except EOFError:  # router went away: nothing left to report to
        return
    except TransportError:  # router stopped draining: same thing
        return
    except Exception as exc:  # noqa: BLE001 - shipped to the router verbatim
        error = f"{type(exc).__name__}: {exc}"

    try:
        try:
            if not crashed and error is None:
                process.on_stop()
        except Exception as exc:  # noqa: BLE001 - must not lose the final state
            error = f"on_stop: {type(exc).__name__}: {exc}"
        flush()
        endpoint.send_control(
            (
                "result",
                pid,
                {
                    "state": dict(process.state),
                    "sent": process.messages_sent,
                    "received": process.messages_received,
                    "recorded": rng_draws + clock_reads,
                    "rng_draws": rng_draws,
                    "clock_reads": clock_reads,
                    "timer_fires": timer_fires,
                    "uplink_writes": endpoint.stats["sends"] + 1,  # counting this result write
                    "transport": dict(endpoint.stats),
                    "error": error,
                },
            )
        )
    except (
        EOFError,
        BrokenPipeError,
        OSError,
        TransportError,
    ):  # pragma: no cover - router gone
        pass


# ----------------------------------------------------------------------
# the router side
# ----------------------------------------------------------------------
class Router:
    """One run of the parent-side router over a link set.

    The run ends at *quiescence*, detected with a probe protocol: when
    the router has nothing queued, delayed or in flight and no fault
    events still scheduled, it probes every worker; a worker answers
    after draining its inbox (every link is FIFO) with its armed-timer
    and sent-message counters.  The system is quiescent when all answers
    agree with the router's own accounting and nothing new arrived
    during the round.
    """

    #: minimum wall seconds between probe rounds; bounds the idle-churn
    #: writes while workers sit on long-armed timers
    PROBE_INTERVAL = 0.005

    def __init__(self, cluster, options: RouterOptions, links) -> None:
        self.cluster = cluster
        self.options = options
        self.links = links
        #: simulated time of the last router tick (the backend's ``now``)
        self.now = 0.0
        self.fault_engine = None
        #: pid → the worker's final result dict
        self.results: Dict[str, Dict[str, Any]] = {}
        self.transport_stats: Dict[str, int] = {}

        self.pids: Tuple[str, ...] = ()
        self.partitions: List[Any] = []
        #: crash/recover control driven by the router, sorted by wall time
        self.schedule: List[Tuple[float, int, str, str]] = []
        self.wall_limit = 0.0
        self._start_wall = 0.0

        self.tseq = 0
        self.in_flight: Dict[int, Tuple[str, Message]] = {}
        self.pending_out: Dict[str, List[Tuple[int, Message]]] = {}
        self.delayed: List[Tuple[float, int, Message]] = []
        self.crashed: set = set()
        self.live: set = set()
        #: set once the run loop is over: peers closing is then expected
        self.collecting = False

        self.probe_seq = 0
        self.probe_round_dirty = True
        self.probe_acks: Dict[str, Dict[str, int]] = {}

        self.routed = 0
        self.dropped = 0
        self.duplicated = 0
        self.dead_letters = 0
        self.uplink_messages = 0
        self.delivered_batches = 0
        self.max_batch = 0
        self.rng_draws = 0
        self.clock_reads = 0

    # -- setup -------------------------------------------------------------
    def _prepare(self, until) -> Dict[str, Tuple]:
        """Validate the cluster and its fault schedule; build the schedules.

        Returns the link set's ``spawn`` map: pid → :func:`worker_loop`
        arguments after ``(endpoint, options)``.
        """
        cluster = self.cluster
        name = cluster.backend.name
        config = cluster.config
        scale = self.options.time_scale

        self.pids = pids = tuple(cluster.pids)
        factories = {}
        for pid in pids:
            factory = cluster.factory_for(pid)
            if factory is None:
                raise SimulationError(
                    f"process {pid!r} was registered as an instance; the {name} backend "
                    "needs zero-argument factories to build workers"
                )
            factories[pid] = factory

        faults = cluster.failure_plan
        crashes = faults.of_kind("crash")
        corruptions: Dict[str, List[Corrupt]] = {pid: [] for pid in pids}
        for spec in crashes + faults.of_kind("corruption"):
            if spec.pid not in corruptions:
                raise UnknownProcessError(spec.pid)
            if spec.kind == "corruption":
                corruptions[spec.pid].append(spec)
        self.fault_engine = MessageFaultEngine(faults.message_specs())
        self.partitions = faults.of_kind("partition")

        sim_limit = min(until if until is not None else config.max_time, config.max_time)
        self.wall_limit = min(sim_limit * scale, MAX_WALL_SECONDS)

        order = 0
        for crash in crashes:
            self.schedule.append((crash.at * scale, order, "crash", crash.pid))
            order += 1
            if crash.recover_at is not None:
                self.schedule.append((crash.recover_at * scale, order, "recover", crash.pid))
                order += 1
        self.schedule.sort()

        self.pending_out = {pid: [] for pid in pids}
        self.live = set(pids)
        return {
            pid: (
                pid, factories[pid], pids, config.seed, config.check_invariants,
                self.wall_limit, corruptions[pid],
                # disjoint per-worker msg_id ranges; the cluster's own
                # counter (range below 10^9, drawn for the router's injected
                # duplicates) never collides
                (index + 1) * 1_000_000_000,
            )
            for index, pid in enumerate(pids)
        }

    def _elapsed(self) -> float:
        return wall_time.monotonic() - self._start_wall

    def _update_now(self) -> None:
        self.now = self._elapsed() / self.options.time_scale

    # -- routing -----------------------------------------------------------
    def enqueue(self, dst: str, message: Message) -> None:
        pending = self.pending_out.get(dst)
        if pending is None:
            raise UnknownProcessError(dst)
        if dst in self.crashed:
            # in-flight deliveries to a crashed worker dead-letter inside
            # the worker; new ones stop here
            self.dead_letters += 1
            self.cluster._record_trace(dst, "dead-letter", message.describe())
            return
        self.tseq = tseq = self.tseq + 1
        self.in_flight[tseq] = (dst, message)
        pending.append((tseq, message))
        self.probe_round_dirty = True

    def route(self, message: Message) -> None:
        cluster = self.cluster
        hooks = cluster.hooks
        self.routed += 1
        sent_at = message.send_time
        hooks.on_send(message.src, message, sent_at, message.vt)
        cluster._record_trace(message.src, "send", message.describe())
        fault = self.fault_engine.decide(message, sent_at)
        if fault is not None and fault.kind == "drop":
            self.dropped += 1
            hooks.on_drop(message, sent_at, message.vt)
            cluster._record_trace(message.src, "fault-drop", message.describe())
            return
        if any(
            p.active_at(sent_at) and p.separates(message.src, message.dst)
            for p in self.partitions
        ):
            self.dropped += 1
            hooks.on_drop(message, sent_at, message.vt)
            cluster._record_trace(message.src, "drop", message.describe())
            return
        if fault is not None and fault.kind == "duplicate":
            self.duplicated += 1
            copy = message.as_duplicate(cluster.msg_ids.take())
            hooks.on_duplicate(copy, sent_at, message.vt)
            cluster._record_trace(copy.src, "duplicate", copy.describe())
            self.enqueue(copy.dst, copy)
        if fault is not None and fault.kind == "delay":
            heapq.heappush(
                self.delayed,
                ((sent_at + fault.extra_delay) * self.options.time_scale, message.msg_id, message),
            )
            return
        self.enqueue(message.dst, message)

    def handle_flush(self, pid: str, log: List[Tuple]) -> None:
        """Replay one worker flush *in occurrence order*.

        The log interleaves sends, delivery receipts, timer firings,
        violations and fault events exactly as they happened inside the
        worker, so the hook chain (and therefore the Scroll and any
        bug-report tail) observes the same ordering a simulator run
        would produce.  Flushes from different workers interleave in
        uplink arrival order, which is as close to wall order as a
        transport can say.
        """
        self._update_now()
        cluster = self.cluster
        hooks = cluster.hooks
        record = cluster._record_trace
        in_flight = self.in_flight
        route = self.route
        for entry in log:
            tag = entry[0]
            if tag == "sent":
                self.uplink_messages += 1
                route(entry[1])
            elif tag == "brecv":
                _, tseq, at = entry
                dst, message = in_flight[tseq]
                hooks.before_receive(dst, message, at)
            elif tag == "handled":
                _, description, at = entry
                hooks.after_handler(pid, description, at)
            elif tag == "recv":
                _, tseq, at, vt = entry
                dst, message = in_flight.pop(tseq)
                record(dst, "receive", message.describe())
                hooks.on_receive(dst, message, at, vt)
            elif tag == "dead":
                dst, message = in_flight.pop(entry[1])
                record(dst, "dead-letter", message.describe())
            elif tag == "timer":
                _, name, at, vt = entry
                record(pid, "timer", name)
                hooks.on_timer(pid, name, at, vt)
            elif tag == "violation":
                _, name, detail, at, vt = entry
                cluster._handle_violation(pid, name, detail, at, vt)
            elif tag == "event":
                _, kind, detail, at, vt = entry
                if kind == "crash":
                    record(pid, "crash", "process crashed")
                    hooks.on_crash(pid, at, vt)
                elif kind == "recover":
                    record(pid, "recover", "process recovered")
                    hooks.on_recover(pid, at, vt)
                elif kind == "corrupt":
                    record(pid, "corrupt", detail)
                    hooks.on_corruption(pid, detail, at, vt)
                self.probe_round_dirty = True
            elif tag == "counters":
                # recording-depth deltas batched into the flush
                self.rng_draws += entry[1]
                self.clock_reads += entry[2]

    def handle_item(self, pid: str, item: Tuple) -> None:
        """Dispatch one uplink item; the link set's ``deliver`` callback."""
        tag = item[0]
        if tag == "flush":
            self.handle_flush(item[1], item[2])
        elif tag == "probe_ack":
            if item[2] == self.probe_seq:
                self.probe_acks[item[1]] = item[3]
        elif tag == "result":
            self.results[item[1]] = item[2]
            if item[2].get("error"):
                self.cluster._record_trace(item[1], "error", item[2]["error"])
                self.cluster.halt(f"worker-error:{item[1]}")
        elif tag == "__lost__":
            # a peer that died without delivering its result halts the
            # run; once the stop went out, closing is what peers do
            self.live.discard(pid)
            if not self.collecting and pid not in self.results:
                self.cluster._record_trace(pid, "error", "worker link closed unexpectedly")
                self.cluster.halt(f"worker-lost:{pid}")
        elif tag == "__stalled__":
            if not self.collecting:
                self.cluster._record_trace(
                    pid, "error", "worker stopped draining its link (stalled)"
                )
                self.cluster.halt(f"worker-stalled:{pid}")
        else:  # pragma: no cover - defensive
            raise SimulationError(f"unexpected uplink item {tag!r} from {pid!r}")

    # -- the run -----------------------------------------------------------
    def run(self, until=None, max_events=None):
        cluster = self.cluster
        name = cluster.backend.name
        if cluster._started:
            raise SimulationError(f"the {name} backend cannot re-enter a finished run")
        if max_events is not None:
            raise SimulationError(
                f"the {name} backend cannot enforce max_events (runs are wall-clock "
                "bounded); pass until= instead"
            )
        spawn = self._prepare(until)
        # setup validated: the run is now committed (workers about to start)
        cluster._started = True
        self._start_wall = wall_time.monotonic()
        links = self.links
        opened = run_started = False
        try:
            links.open(spawn, self.handle_item)
            opened = True
            cluster.hooks.on_run_start(0.0)
            run_started = True
            reason = self._loop()
        finally:
            self._update_now()
            try:
                if opened:
                    self._collect()
            finally:
                # reclamation must survive any error above (including a
                # KeyboardInterrupt mid-run)
                links.close()
                if run_started:  # never fire an end without its start
                    cluster.hooks.on_run_end(self.now)
        return self._result(reason)

    def _loop(self) -> str:
        """Tick until a halt reason: schedule → delayed → drain → ship → quiesce."""
        cluster = self.cluster
        links = self.links
        options = self.options
        elapsed = self._elapsed
        wall_limit = self.wall_limit
        schedule = self.schedule
        schedule_index = 0
        delayed = self.delayed
        in_flight = self.in_flight
        pending_out = self.pending_out
        probe_acks = self.probe_acks
        pids = self.pids
        piece_size = options.max_batch_messages if options.batch_deliveries else 1
        last_probe_at = -1.0
        while True:
            self._update_now()
            if elapsed() >= wall_limit:
                return "time-limit"
            if cluster._halted:
                return cluster._halt_reason or "halted"
            # fault schedule (crash / recover control; ordered with the
            # data stream on every link, so it cannot leapfrog deliveries
            # already sent)
            while schedule_index < len(schedule) and schedule[schedule_index][0] <= elapsed():
                _, _, kind, target = schedule[schedule_index]
                schedule_index += 1
                links.send(target, (kind,))
                if kind == "crash":
                    self.crashed.add(target)
                else:
                    self.crashed.discard(target)
                self.probe_round_dirty = True
            # delayed messages whose injection deadline passed
            while delayed and delayed[0][0] <= elapsed():
                _, _, message = heapq.heappop(delayed)
                self.enqueue(message.dst, message)
            # drain worker uplinks (flushes, acks, results, losses)
            links.drain(0.002)
            # ship this tick's deliveries, one batch per destination.
            # Swap the batch list out FIRST: a backpressured ring write
            # re-enters the drain, whose routing may enqueue new
            # deliveries for this very destination — they must land in
            # the fresh list (next tick), not be dropped with the old.
            for dst in pending_out:
                batch = pending_out[dst]
                if not batch:
                    continue
                pending_out[dst] = []
                for cut in range(0, len(batch), piece_size):
                    piece = batch[cut:cut + piece_size]
                    links.send(dst, ("batch", piece))
                    self.delivered_batches += 1
                    if len(piece) > self.max_batch:
                        self.max_batch = len(piece)
            # quiescence detection
            busy = (
                in_flight
                or delayed
                or schedule_index < len(schedule)
                or any(pending_out.values())
            )
            if busy:
                probe_acks.clear()
                self.probe_round_dirty = True
                continue
            if self.probe_round_dirty or len(probe_acks) < len(pids):
                if self.probe_round_dirty and elapsed() - last_probe_at >= self.PROBE_INTERVAL:
                    self.probe_seq += 1
                    probe_acks.clear()
                    self.probe_round_dirty = False
                    last_probe_at = elapsed()
                    for pid in pids:
                        links.send(pid, ("probe", self.probe_seq))
                continue
            sent_total = sum(ack["sent_total"] for ack in probe_acks.values())
            armed = sum(
                ack["timers_armed"] + ack.get("corruptions_pending", 0)
                for ack in probe_acks.values()
            )
            if sent_total == self.uplink_messages and armed == 0 and not in_flight:
                return "quiescent"
            # workers still have armed timers or scheduled corruptions
            # (or a flush is in transit): fresh round on the next pass
            self.probe_round_dirty = True

    def _collect(self) -> None:
        """Stop every worker and gather results (late flushes keep hooks complete)."""
        links = self.links
        self.collecting = True
        for pid in self.pids:
            links.send(pid, ("stop",))
        deadline = wall_time.monotonic() + 5.0
        while (
            len(self.results) < len(self.pids)
            and self.live
            and wall_time.monotonic() < deadline
        ):
            links.drain(0.1)
        # a final flush can land in a ring just before the pipe carries
        # its worker's result: one last in-order sweep
        links.drain(0.0)

    def _result(self, reason: str):
        from repro.dsim.cluster import RunResult

        cluster = self.cluster
        results = self.results
        # a worker error discovered while collecting results (e.g. a failing
        # on_stop) must not masquerade as a clean quiescent run
        if reason == "quiescent":
            for pid, result in results.items():
                if result.get("error"):
                    reason = f"worker-error:{pid}"
                    break
        # every link accounts serialization the same way: parent-side
        # counters plus the per-worker counters shipped in results
        codec, writes = self.links.stats(results)
        for result in results.values():
            for key, value in result.get("transport", {}).items():
                codec[key] = codec.get(key, 0) + value
        delivered = sum(r.get("received", 0) for r in results.values())
        self.transport_stats = {
            "messages_routed": self.routed,
            "messages_delivered": delivered,
            "dropped": self.dropped,
            "duplicated": self.duplicated,
            "dead_letters": self.dead_letters,
            **writes,
            "delivery_batches": self.delivered_batches,
            "max_batch": self.max_batch,
            # serialization accounting (identical keys on pipe/shm/net)
            "pickled_bytes": codec["pickled_bytes"],
            "ring_frames": codec["ring_frames"],
            "ring_bytes": codec["ring_bytes"],
            "oversize_frames": codec["oversize_frames"],
            "nudges": codec["nudges"],
            "messages_fast": codec["messages_fast"],
            "messages_pickled": codec["messages_pickled"],
            # recording depth: per-worker counters batched into flushes
            "rng_draws": self.rng_draws,
            "clock_reads": self.clock_reads,
        }
        events = sum(
            result.get("received", 0) + result.get("timer_fires", 0)
            for result in results.values()
        )
        return RunResult(
            events_executed=events,
            final_time=self.now,
            stopped_reason=reason,
            violations=list(cluster._violations),
            network_stats={
                "delivered": delivered,
                "dropped": self.dropped,
                "duplicated": self.duplicated,
            },
            process_states={
                pid: dict(result.get("state", {})) for pid, result in results.items()
            },
            trace=list(cluster._trace),
        )
