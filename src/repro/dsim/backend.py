"""Pluggable execution backends: one cluster API over multiple substrates.

The paper's FixD architecture assumes a single runtime substrate — a
cluster of communicating POSIX processes — underneath its detection,
reporting and recovery layers.  This module makes that substrate
pluggable.  :class:`~repro.dsim.cluster.Cluster` is a thin frontend
(process table, hooks, failure plan, violation policy); everything that
actually *executes* lives behind the :class:`Backend` protocol:

* :class:`SimBackend` — the deterministic discrete-event simulator
  (scheduler + network + channels), refactored out of the old
  monolithic ``Cluster``.  Fully deterministic, supports checkpointing,
  rollback and in-flight message control, which is why it is the
  substrate the Time Machine and the Investigator require.

* :class:`MPBackend` — the same :class:`~repro.dsim.process.Process`
  subclasses on real OS processes, over a pluggable **transport**:
  with ``transport="pipe"`` every frame is a pickled pipe write; with
  ``transport="shm"`` frames travel through per-worker shared-memory
  rings with a marshal fast path that keeps the hot path out of
  ``pickle`` entirely (see :mod:`repro.dsim.shm_ring`).

* :class:`~repro.dsim.net_backend.NetBackend` (own module) — the same
  workers over asyncio sockets to consistent-hash-sharded routers; the
  first substrate whose wire protocol could leave the box.

Both real-process backends are one :class:`~repro.dsim.router.Router`
(:class:`RoutedBackend`) behind different *link sets*: this module
holds the pipe/shm links, ``net_backend`` the shard-socket links.  On
every link, batches preserve per-sender FIFO order and every message
carries its sender's vector timestamp, so recording hooks observe the
same causal surface as on the simulator.  The fault schedule's specs
run as they are: crashes/recoveries become control messages, message
faults and partitions are applied by the router, and a corruption's
``(op, path, value)`` ops ship to its worker and are applied there.

Capability flags tell the FixD layers what a backend can do, so e.g.
checkpoint/rollback machinery attaches only where it is meaningful.
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import queue as queue_module
import threading
import time as wall_time
from dataclasses import dataclass
from multiprocessing.connection import wait as mp_wait
from typing import Any, Dict, List, Optional, Tuple

from repro.dsim import shm_ring
from repro.dsim.channel import DeliveryOutcome
from repro.dsim.failure import Corrupt, MessageFaultEngine, apply_corruption_ops
from repro.dsim.message import Message
from repro.dsim.network import Network
from repro.dsim.process import ProcessContext
from repro.dsim.rng import DeterministicRNG, derive_seed
from repro.dsim.router import (
    Router,
    RouterOptions,
    check_time_scale,  # re-exported: Scenario may not import the dsim-internal router
    reap_workers,
    resolved_start_method,
    worker_loop,
)
from repro.dsim.scheduler import Event, EventKind, Scheduler
from repro.dsim.wire import PICKLE_PROTO, TransportError, new_stats
from repro.errors import SimulationError

#: Backends :func:`make_backend` can build by name.
BACKENDS = ("sim", "mp", "net")

#: Transports the multiprocessing backend can run on.
TRANSPORTS = ("pipe", "shm")


def check_transport(backend: str, transport: str, error=SimulationError) -> None:
    """Reject an unknown ``backend``, or a ``transport`` it cannot honour.

    The one copy of the rule ``Scenario`` and :func:`make_backend` both
    apply; raises ``error``.
    """
    if backend not in BACKENDS:
        raise error(f"unknown backend {backend!r}; expected one of {BACKENDS}")
    if transport not in TRANSPORTS:
        raise error(f"unknown transport {transport!r}; expected one of {TRANSPORTS}")
    if backend != "mp" and transport != "pipe":
        raise error(
            f"transport {transport!r} is an mp-backend knob; "
            "the simulator has no transport and the net backend is always sockets"
        )


#: Capability names backends may advertise.
CAP_DETERMINISTIC = "deterministic"    # a run is a pure function of (programs, seed, plan)
CAP_CHECKPOINT = "checkpoint"          # process state can be captured from the frontend
CAP_ROLLBACK = "rollback"              # captured state can be restored (Time Machine)
CAP_IN_FLIGHT = "in-flight-control"    # pending deliveries/timers can be cancelled
CAP_REAL_PROCESSES = "real-processes"  # runs on real OS processes


class Backend:
    """The execution substrate behind a :class:`~repro.dsim.cluster.Cluster`.

    A backend receives the frontend via :meth:`bind`, learns about
    processes through :meth:`register_process`, and owns the whole run
    loop in :meth:`run`.  Substrate-specific surfaces (``scheduler``,
    ``network``) raise :class:`SimulationError` unless the backend
    provides them, so callers fail loudly instead of silently diverging.
    """

    name = "abstract"
    capabilities: frozenset = frozenset()

    def __init__(self) -> None:
        self._cluster = None

    # -- wiring ------------------------------------------------------------
    def bind(self, cluster) -> None:
        """Attach the frontend; called once from ``Cluster.__init__``.

        A backend instance carries run state (scheduler time, queued
        events, transport accounting), so it belongs to exactly one
        cluster — silently rebinding would leak one run's clock and
        events into the next.
        """
        if self._cluster is not None and self._cluster is not cluster:
            raise SimulationError(
                f"this {self.name} backend is already bound to another cluster; "
                "create a fresh backend instance per cluster"
            )
        self._cluster = cluster

    @property
    def cluster(self):
        if self._cluster is None:
            raise SimulationError(f"{self.name} backend is not bound to a cluster")
        return self._cluster

    def register_process(self, pid: str) -> None:
        """A process id became known to the frontend."""

    # -- substrate surfaces ------------------------------------------------
    @property
    def scheduler(self) -> Scheduler:
        raise SimulationError(f"the {self.name} backend has no deterministic scheduler")

    @property
    def network(self) -> Network:
        raise SimulationError(f"the {self.name} backend has no simulated network")

    @property
    def fault_engine(self) -> Optional[MessageFaultEngine]:
        return None

    @property
    def now(self) -> float:
        raise NotImplementedError

    def make_context(self, pid: str) -> ProcessContext:
        raise SimulationError(f"the {self.name} backend cannot build frontend process contexts")

    def clear_in_flight(self, pid: str) -> None:
        raise SimulationError(
            f"the {self.name} backend cannot cancel in-flight events "
            f"(capability {CAP_IN_FLIGHT!r} missing)"
        )

    # -- execution ---------------------------------------------------------
    def start(self) -> None:
        """Prepare the run (bind contexts, install the fault schedule, ``on_start``)."""
        raise NotImplementedError

    def install_faults(self) -> None:
        """Arm the cluster's fault schedule on a started run (a continuation)."""
        raise SimulationError(f"the {self.name} backend arms its faults only when its run starts")

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None):
        """Execute until quiescence or a limit; returns a ``RunResult``."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# the deterministic simulator backend
# ----------------------------------------------------------------------
class SimBackend(Backend):
    """The discrete-event simulation substrate (the library's default).

    This is the event loop that used to live inside ``Cluster``: a
    deterministic scheduler orders deliveries, timers and injected
    faults; the simulated network decides per-channel delay, loss and
    duplication; and every observable action flows through the
    frontend's hook chain.
    """

    name = "sim"
    capabilities = frozenset(
        {CAP_DETERMINISTIC, CAP_CHECKPOINT, CAP_ROLLBACK, CAP_IN_FLIGHT}
    )

    def __init__(self) -> None:
        super().__init__()
        self._scheduler = Scheduler()
        self._network: Optional[Network] = None
        self._fault_engine: Optional[MessageFaultEngine] = None
        self._timer_events: Dict[Tuple[str, str], List[Event]] = {}

    def bind(self, cluster) -> None:
        super().bind(cluster)
        self._network = Network(
            cluster.config.network, seed=derive_seed(cluster.config.seed, "network")
        )

    def register_process(self, pid: str) -> None:
        self.network.register_process(pid)

    # -- substrate surfaces ------------------------------------------------
    @property
    def scheduler(self) -> Scheduler:
        return self._scheduler

    @property
    def network(self) -> Network:
        if self._network is None:
            raise SimulationError("sim backend is not bound to a cluster")
        return self._network

    @property
    def fault_engine(self) -> Optional[MessageFaultEngine]:
        return self._fault_engine

    @property
    def now(self) -> float:
        return self._scheduler.now

    # -- process context plumbing -----------------------------------------
    def make_context(self, pid: str) -> ProcessContext:
        cluster = self.cluster
        all_pids = tuple(cluster.pids)  # already sorted, no dict copy
        rng = DeterministicRNG(derive_seed(cluster.config.seed, "process", pid))
        return ProcessContext(
            pid=pid,
            peers=all_pids,
            send_fn=self._submit_message,
            timer_fn=lambda name, delay, payload, _pid=pid: self._set_timer(
                _pid, name, delay, payload
            ),
            cancel_timer_fn=lambda name, _pid=pid: self._cancel_timer(_pid, name),
            now_fn=lambda: self._scheduler.now,
            rng=rng,
            record_random_fn=lambda p, method, value: cluster.hooks.on_random(
                p, method, value, self._scheduler.now, cluster._vt_of(p)
            ),
            record_clock_fn=lambda p, value: cluster.hooks.on_clock_read(
                p, value, cluster._vt_of(p)
            ),
            scroll_position_fn=cluster.scroll_position,
            take_msg_id=cluster.msg_ids.take,
        )

    # -- messaging and timers ----------------------------------------------
    def _submit_message(self, message: Message) -> None:
        cluster = self.cluster
        now = self._scheduler.now
        sender_vt = cluster._vt_of(message.src)
        cluster.hooks.on_send(message.src, message, now, sender_vt)

        fault = self._fault_engine.decide(message, now) if self._fault_engine else None
        if fault is not None and fault.kind == "drop":
            cluster.hooks.on_drop(message, now, sender_vt)
            return

        plans = self.network.route(message, now)
        for outcome, deliver_at, planned in plans:
            if outcome is DeliveryOutcome.DROP or deliver_at is None:
                cluster.hooks.on_drop(planned, now, sender_vt)
                continue
            if outcome is DeliveryOutcome.DUPLICATE:
                planned = planned.as_duplicate(cluster.msg_ids.take())
                cluster.hooks.on_duplicate(planned, now, sender_vt)
            if fault is not None and fault.kind == "delay":
                deliver_at += fault.extra_delay
            if fault is not None and fault.kind == "duplicate":
                copy = planned.as_duplicate(cluster.msg_ids.take())
                cluster.hooks.on_duplicate(copy, now, sender_vt)
                self._scheduler.schedule_at(deliver_at, EventKind.DELIVER, copy.dst, copy)
            self._scheduler.schedule_at(deliver_at, EventKind.DELIVER, planned.dst, planned)

    def _set_timer(self, pid: str, name: str, delay: float, payload: Any) -> None:
        event = self._scheduler.schedule(delay, EventKind.TIMER, pid, (name, payload))
        self._timer_events.setdefault((pid, name), []).append(event)

    def _cancel_timer(self, pid: str, name: str) -> None:
        for event in self._timer_events.pop((pid, name), []):
            self._scheduler.cancel(event)

    def clear_in_flight(self, pid: str) -> None:
        self._scheduler.cancel_for_target(pid)
        self._timer_events = {
            key: events for key, events in self._timer_events.items() if key[0] != pid
        }

    # -- resume continuation: re-injecting a persisted in-flight window ----
    def inject_delivery(self, message: Message, at: float) -> Event:
        """Schedule a previously in-flight message for delivery at ``at``.

        Used when a resumed run continues execution: deliveries that were
        pending in the crashed scheduler are re-queued at their original
        absolute times, bypassing the network (delay/loss were already
        decided before the crash).
        """
        return self._scheduler.schedule_at(at, EventKind.DELIVER, message.dst, message)

    def inject_timer(self, pid: str, name: str, at: float, payload: Any = None) -> Event:
        """Re-arm a previously pending timer to fire at absolute time ``at``."""
        event = self._scheduler.schedule_at(at, EventKind.TIMER, pid, (name, payload))
        self._timer_events.setdefault((pid, name), []).append(event)
        return event

    def inject_recovery(self, pid: str, at: float) -> Event:
        """Schedule a bare RECOVER for a process that crashed before a resume.

        A continuation re-arms only the *remaining* fault schedule; a
        crash that already happened must not fire again, but its
        scheduled recovery still has to — this re-queues just that half.
        """
        return self._scheduler.schedule_at(at, EventKind.RECOVER, pid, None)

    # -- fault schedule materialisation ------------------------------------
    def install_faults(self) -> None:
        """Schedule the cluster's faults: crashes with their recoveries,
        then partitions, then corruptions; message rules in schedule order."""
        faults = self.cluster.failure_plan
        self._fault_engine = MessageFaultEngine(faults.message_specs())
        for crash in faults.of_kind("crash"):
            self._scheduler.schedule_at(crash.at, EventKind.CRASH, crash.pid, crash)
            if crash.recover_at is not None:
                self._scheduler.schedule_at(crash.recover_at, EventKind.RECOVER, crash.pid, crash)
        for partition in faults.of_kind("partition"):
            self.network.add_partition(partition)
        for corruption in faults.of_kind("corruption"):
            self._scheduler.schedule_at(corruption.at, EventKind.CORRUPT, corruption.pid, corruption)

    # -- run loop ----------------------------------------------------------
    def start(self) -> None:
        cluster = self.cluster
        if cluster._started:
            return
        cluster._started = True
        self.install_faults()
        processes = cluster.processes()
        for pid in sorted(processes):
            processes[pid].bind(self.make_context(pid))
        cluster.hooks.on_run_start(self._scheduler.now)
        for pid in sorted(processes):
            processes[pid].on_start()
            cluster._after_handler(pid, "on_start")

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None):
        from repro.dsim.cluster import RunResult

        cluster = self.cluster
        self.start()
        config = cluster.config
        time_limit = min(until if until is not None else config.max_time, config.max_time)
        event_limit = min(
            max_events if max_events is not None else config.max_events, config.max_events
        )
        executed = 0
        reason = "quiescent"
        while not cluster._halted:
            if executed >= event_limit:
                reason = "event-limit"
                break
            next_time = self._scheduler.peek_time()
            if next_time is None:
                reason = "quiescent"
                break
            if next_time > time_limit:
                reason = "time-limit"
                break
            event = self._scheduler.pop_next()
            if event is None:
                reason = "quiescent"
                break
            self._execute(event)
            executed += 1
        if cluster._halted:
            reason = cluster._halt_reason or "halted"
        for process in cluster.processes().values():
            if not process.crashed:
                process.on_stop()
        cluster.hooks.on_run_end(self._scheduler.now)
        return RunResult(
            events_executed=executed,
            final_time=self._scheduler.now,
            stopped_reason=reason,
            violations=list(cluster._violations),
            network_stats=self.network.stats,
            process_states={pid: dict(p.state) for pid, p in cluster.processes().items()},
            errors={},
        )

    # -- event execution ---------------------------------------------------
    def _execute(self, event: Event) -> None:
        if event.kind is EventKind.DELIVER:
            self._execute_delivery(event)
        elif event.kind is EventKind.TIMER:
            self._execute_timer(event)
        elif event.kind is EventKind.CRASH:
            self._execute_crash(event)
        elif event.kind is EventKind.RECOVER:
            self._execute_recover(event)
        elif event.kind is EventKind.CORRUPT:
            self._execute_corruption(event)
        elif event.kind is EventKind.CONTROL:
            callback = event.payload
            if callable(callback):
                callback()
        else:  # pragma: no cover - defensive
            raise SimulationError(f"unknown event kind {event.kind!r}")

    def _execute_delivery(self, event: Event) -> None:
        cluster = self.cluster
        message: Message = event.payload
        process = cluster.process(event.target)
        if process.crashed:
            return
        now = self._scheduler.now
        cluster.hooks.before_receive(event.target, message, now)
        process.deliver(message)
        cluster.hooks.on_receive(event.target, message, now, process.vector_timestamp)
        cluster._after_handler(event.target, f"deliver {message.kind}")

    def _execute_timer(self, event: Event) -> None:
        cluster = self.cluster
        name, payload = event.payload
        process = cluster.process(event.target)
        if process.crashed:
            return
        cluster.hooks.on_timer(
            event.target, name, self._scheduler.now, process.vector_timestamp, payload
        )
        process.fire_timer(name, payload)
        cluster._after_handler(event.target, f"timer {name}")

    def _execute_crash(self, event: Event) -> None:
        cluster = self.cluster
        process = cluster.process(event.target)
        if process.crashed:
            return
        process.mark_crashed()
        # Cancel the crashed process's deliveries and timers, but leave any
        # scheduled RECOVER event in place so the process can come back.
        self._scheduler.cancel_for_target(event.target, EventKind.DELIVER)
        self._scheduler.cancel_for_target(event.target, EventKind.TIMER)
        self._timer_events = {
            key: events for key, events in self._timer_events.items() if key[0] != event.target
        }
        cluster.hooks.on_crash(event.target, self._scheduler.now, process.vector_timestamp)

    def _execute_recover(self, event: Event) -> None:
        cluster = self.cluster
        process = cluster.process(event.target)
        if not process.crashed:
            return
        process.mark_recovered()
        cluster.hooks.on_recover(event.target, self._scheduler.now, process.vector_timestamp)
        cluster._after_handler(event.target, "on_recover")

    def _execute_corruption(self, event: Event) -> None:
        cluster = self.cluster
        fault: Corrupt = event.payload
        process = cluster.process(event.target)
        if process.crashed:
            return
        apply_corruption_ops(process.state, fault.ops)
        cluster.hooks.on_corruption(
            event.target, fault.description, self._scheduler.now, process.vector_timestamp
        )
        cluster._after_handler(event.target, "corruption")


# ----------------------------------------------------------------------
# real OS processes: what every routed backend shares
# ----------------------------------------------------------------------
class RoutedBackend(Backend):
    """A backend whose run is one :class:`~repro.dsim.router.Router` over a link set.

    Subclasses build their link set in ``run()`` and hand it to
    :meth:`_run_router`; routing, fault injection, quiescence and result
    assembly are the router's, identical on every link.

    Limitations (documented, deliberate):

    * timers are serviced with wall-clock granularity, so runs are not
      bit-for-bit deterministic — which is exactly the nondeterminism
      the Scroll exists to capture;
    * crash injection is cooperative (the worker stops processing)
      rather than ``SIGKILL``, so final state can still be collected;
    * there is no frontend access to live process state, hence no
      checkpoint/rollback capability — FixD degrades to detection and
      reporting on this substrate;
    * ``max_events`` is not enforced (runs are wall-clock bounded);
    * ``halt_on_violation`` is asynchronous: the violating worker checks
      invariants in-process but the router only halts once the
      violation's flush arrives, so workers keep executing for a short
      window after the violation — final states reflect state at the
      (slightly later) halt, not at the violating handler as on the
      simulator.
    """

    capabilities = frozenset({CAP_REAL_PROCESSES})

    def __init__(self, options: RouterOptions) -> None:
        super().__init__()
        self.options = options
        self._router: Optional[Router] = None
        #: transport accounting of the last run (the batching benchmarks' metric)
        self.transport_stats: Dict[str, int] = {}
        #: per-worker counters of the last run (sent/received/recorded/...)
        self.worker_stats: Dict[str, Dict[str, Any]] = {}

    @property
    def now(self) -> float:
        return self._router.now if self._router is not None else 0.0

    @property
    def fault_engine(self) -> Optional[MessageFaultEngine]:
        return self._router.fault_engine if self._router is not None else None

    def start(self) -> None:
        """No-op: links and workers are started inside :meth:`run`."""

    def _run_router(self, links, until, max_events):
        self._router = router = Router(self.cluster, self.options, links)
        result = router.run(until, max_events)
        self.transport_stats = router.transport_stats
        self.worker_stats = router.results
        return result


# ----------------------------------------------------------------------
# the multiprocessing backend: pipe and shared-memory links
# ----------------------------------------------------------------------
@dataclass
class MPBackendOptions(RouterOptions):
    """Tuning knobs of the multiprocessing substrate.

    The shared knobs (``time_scale``, ``flush_watermark``,
    ``batch_deliveries``, ``max_batch_messages``) are documented on
    :class:`~repro.dsim.router.RouterOptions`.

    Attributes
    ----------
    transport:
        ``"pipe"`` (default) ships every batch as one pickled pipe
        write; ``"shm"`` moves data frames through per-worker
        shared-memory SPSC rings (:mod:`repro.dsim.shm_ring`) with a
        struct fast path that keeps common payloads out of ``pickle``
        entirely — the pipe is then reserved for control traffic and
        oversize frames.  Both transports preserve per-sender FIFO
        order, vector timestamps, the ordered single-log flush
        protocol, and probe-based quiescence.  Ring capacity and the
        backpressure timeout are :mod:`~repro.dsim.shm_ring`'s defaults.
    """

    transport: str = "pipe"


class PipeEndpoint:
    """The batched pipe transport behind the common endpoint interface.

    One pickled pipe write per item, pickling explicitly via
    ``send_bytes`` so every link accounts ``pickled_bytes`` the same way.
    """

    def __init__(self, conn) -> None:
        self.conn = conn
        self.stats = new_stats()

    # -- send --------------------------------------------------------------
    def send(self, item: Tuple) -> None:
        blob = pickle.dumps(item, PICKLE_PROTO)
        stats = self.stats
        stats["sends"] += 1
        stats["pipe_items"] += 1
        stats["pickled_bytes"] += len(blob)
        if item[0] == "batch":
            stats["messages_pickled"] += len(item[1])
        elif item[0] == "flush":
            stats["messages_pickled"] += sum(1 for e in item[2] if e[0] == "sent")
        self.conn.send_bytes(blob)

    send_control = send

    # -- receive -----------------------------------------------------------
    def data_ready(self) -> bool:
        return False  # everything arrives via the pipe: mp_wait covers it

    def poll(self, timeout: float) -> bool:
        return self.conn.poll(timeout)

    def drain(self) -> List[Tuple]:
        items: List[Tuple] = []
        while self.conn.poll(0):
            try:
                items.append(pickle.loads(self.conn.recv_bytes()))
            except EOFError:
                # deliver everything read before the EOF (a worker's last
                # result arrives exactly this way: send, close, exit) —
                # the next drain() call raises the EOF with nothing lost
                if items:
                    return items
                raise
        return items

    def drain_data(self) -> List[Tuple]:
        """Salvageable data after a peer death: nothing outlives a pipe."""
        return []

    def close(self) -> None:
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass


def _mp_worker_main(conn, ring_handle, options: MPBackendOptions, worker_args: Tuple) -> None:
    """Entry point of one mp worker: build the endpoint, run the worker loop.

    The endpoint is the duplex pipe alone (``transport="pipe"``) or a
    shared-memory ring pair with the pipe demoted to control traffic
    (``transport="shm"``).
    """
    if ring_handle is None:
        endpoint = PipeEndpoint(conn)
    else:
        down_ring, up_ring, close_segments = ring_handle.attach()
        endpoint = shm_ring.ShmEndpoint(
            conn, send_ring=up_ring, recv_ring=down_ring, close_segments=close_segments
        )
    try:
        worker_loop(endpoint, options, *worker_args)
    finally:
        # drops the worker's segment mappings on every exit path;
        # the parent (segment owner) is the only side that unlinks
        endpoint.close()


class _ShmLink:
    """Parent-side handle on one shm worker: threadless, direct writes.

    The router thread writes data frames straight into the worker's
    down ring — non-blocking in the common case, so a batch costs no
    thread hop, no queue wakeup and no pipe syscall.  During ring
    backpressure the endpoint's wait hook *drains the uplinks* (the
    router is their only consumer), which preserves the no-deadlock
    argument the pipe transport gets from its sender threads: the
    router is never stuck in a write it cannot unblock itself.  The
    pipe carries only tiny bounded control items and coalesced nudges,
    so its direct blocking writes cannot fill the pipe buffer within a
    run's wall cap.
    """

    def __init__(self, endpoint, drain_hook, report_stalled) -> None:
        self.endpoint = endpoint
        self.writes = 0
        endpoint.wait_hook = drain_hook
        self._report_stalled = report_stalled

    def send(self, item) -> None:
        try:
            self.endpoint.send(item)
            self.writes += 1
        except shm_ring.RingBackpressureTimeout:
            # The worker is ALIVE but has not drained its ring for the
            # whole write timeout — dropping the frame silently would
            # strand its tseqs in in_flight until the wall cap.  Surface
            # the stall loudly instead (unless we are tearing down), and
            # flip the endpoint to closing so the remaining queued
            # batches for this destination abort immediately rather
            # than each paying the full timeout before halt is noticed.
            if not self.endpoint.closing:
                self.endpoint.closing = True
                self._report_stalled()
        except (EOFError, BrokenPipeError, OSError, ValueError, TransportError):
            pass  # worker gone: the next drain reports the dead pipe

    def close(self) -> None:
        self.endpoint.closing = True  # unblocks a backpressured ring write


class _PipeLink:
    """Parent-side handle on one pipe worker: its endpoint plus a sender thread.

    All router→worker writes go through a queue drained by a dedicated
    thread, so the router's main loop *never blocks on a transport
    write*.  This is what makes the transport deadlock-free under
    arbitrary payload sizes: a worker blocked mid-flush (its uplink
    full) is always eventually drained by the router loop, because the
    router is never itself stuck in ``send`` — at worst its sender
    thread is, and that thread unblocks as soon as the worker finishes
    flushing.  A worker that died simply absorbs the remaining queue
    (broken-pipe writes are dropped, not raised into ``run()``).
    """

    _CLOSE = object()

    def __init__(self, endpoint) -> None:
        self.endpoint = endpoint
        self.writes = 0
        self._queue: "queue_module.SimpleQueue" = queue_module.SimpleQueue()
        self._thread = threading.Thread(target=self._pump, daemon=True)
        self._thread.start()

    def _pump(self) -> None:
        while True:
            item = self._queue.get()
            if item is self._CLOSE:
                return
            try:
                self.endpoint.send(item)
                self.writes += 1
            except (BrokenPipeError, OSError, ValueError):
                continue  # worker gone: keep draining so close() terminates

    def send(self, item) -> None:
        self._queue.put(item)

    def close(self) -> None:
        self._queue.put(self._CLOSE)
        self._thread.join(timeout=2.0)


class _WorkerLinks:
    """The mp link set: one duplex pipe (plus a ring pair on shm) per worker.

    Implements the five operations :mod:`repro.dsim.router` documents.
    Everything the parent owns for a run — endpoints, sender threads,
    worker processes, shared-memory segments — is registered here as it
    is created, so :meth:`close` reclaims all of it on every exit path,
    including a failure half-way through :meth:`open`.
    """

    def __init__(self, options: MPBackendOptions) -> None:
        self.options = options
        #: shared-memory segment names created for this run
        self.segment_names: List[str] = []
        self._endpoints: Dict[str, Any] = {}  # every endpoint, incl. dead peers'
        self._live: Dict[str, Any] = {}       # endpoints still worth waiting on
        self._conn_to_pid: Dict[Any, str] = {}
        self._ring_pairs: List[shm_ring.RingPair] = []
        self._links: Dict[str, Any] = {}
        self._workers: List[Any] = []
        self._deliver = None

    def open(self, spawn, deliver) -> None:
        self._deliver = deliver
        options = self.options
        use_shm = options.transport == "shm"
        ctx = mp.get_context(resolved_start_method())
        for pid, worker_args in spawn.items():
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            ring_handle = None
            if use_shm:
                pair = shm_ring.RingPair()
                self._ring_pairs.append(pair)
                self.segment_names.extend(pair.segment_names)
                ring_handle = pair.child_handle()
            worker = ctx.Process(
                target=_mp_worker_main,
                args=(child_conn, ring_handle, options, worker_args),
                daemon=True,
            )
            worker.start()
            self._workers.append(worker)
            child_conn.close()
            if use_shm:
                endpoint = shm_ring.ShmEndpoint(
                    parent_conn, send_ring=pair.down_ring, recv_ring=pair.up_ring
                )
            else:
                endpoint = PipeEndpoint(parent_conn)
            self._endpoints[pid] = self._live[pid] = endpoint
            self._conn_to_pid[parent_conn] = pid
        # The sender threads start only after every worker process exists:
        # forking a child while another link's thread may hold a lock is
        # the classic fork-with-threads hazard.  On the pipe transport
        # every write goes through the thread so the router loop (also
        # the only reader) can never block on a full pipe; on shm the
        # router writes rings directly and drains uplinks while
        # backpressured (safe: routing never sends inline).
        for pid, endpoint in self._endpoints.items():
            if use_shm:
                self._links[pid] = _ShmLink(
                    endpoint,
                    lambda: self.drain(0.0005),
                    lambda pid=pid: deliver(pid, ("__stalled__",)),
                )
            else:
                self._links[pid] = _PipeLink(endpoint)

    def send(self, pid: str, item: Tuple) -> None:
        self._links[pid].send(item)

    def drain(self, idle_timeout: float) -> None:
        """Deliver every waiting uplink item (ring frames and pipe items
        alike; ring senders nudge the pipe, so the wait wakes for both)."""
        live = self._live
        if not live:
            # every uplink is gone; keep the caller's idle cadence
            # instead of busy-spinning until the wall limit
            wall_time.sleep(idle_timeout)
            return
        ready_pids = set()
        for pid, endpoint in live.items():
            try:
                if endpoint.data_ready():
                    ready_pids.add(pid)
            except TransportError:
                ready_pids.add(pid)  # torn cursor: diagnose in the drain
        ready = mp_wait(
            [endpoint.conn for endpoint in live.values()],
            timeout=0.0 if ready_pids else idle_timeout,
        )
        ready_pids.update(self._conn_to_pid[conn] for conn in ready)
        deliver = self._deliver
        for pid in sorted(ready_pids):
            endpoint = live.get(pid)
            if endpoint is None:
                continue
            try:
                for item in endpoint.drain():
                    deliver(pid, item)
            except (EOFError, OSError, TransportError):
                # The worker's pipe closed (or it died mid-publish and
                # left a torn ring cursor).  Salvage any frames it
                # committed to its ring before dying, drop it from the
                # wait set (a closed pipe reports permanently ready and
                # would busy-spin the router) and report the loss.
                try:
                    for item in endpoint.drain_data():
                        deliver(pid, item)
                except TransportError:
                    pass  # the ring itself is torn: nothing to salvage
                live.pop(pid, None)
                deliver(pid, ("__lost__",))

    def close(self) -> None:
        """Reclaim sender threads, workers, pipes and — on shm — every segment.

        Idempotent because every step is: a second close only re-joins
        finished threads and processes and re-closes closed handles.
        """
        for link in self._links.values():
            link.close()
        reap_workers(self._workers)
        for endpoint in self._endpoints.values():  # incl. dead peers'
            endpoint.close()
        for pair in self._ring_pairs:
            pair.close()

    def stats(self, results) -> Tuple[Dict[str, int], Dict[str, int]]:
        codec = new_stats()
        for endpoint in self._endpoints.values():
            for key, value in endpoint.stats.items():
                codec[key] += value
        parent_writes = sum(link.writes for link in self._links.values())
        worker_writes = sum(result.get("uplink_writes", 0) for result in results.values())
        return codec, {
            "parent_pipe_writes": parent_writes,
            "worker_pipe_writes": worker_writes,
            "pipe_writes": parent_writes + worker_writes,
        }


class MPBackend(RoutedBackend):
    """Real OS processes behind the cluster API, over pipes or shm rings.

    A worker accumulates outgoing messages up to a flush watermark and
    ships them as one frame; the router groups each tick's deliveries per
    destination and writes one batch per worker.  See
    :class:`RoutedBackend` for the limitations shared by every
    real-process substrate.
    """

    name = "mp"

    def __init__(self, options: Optional[MPBackendOptions] = None) -> None:
        super().__init__(options or MPBackendOptions())
        check_transport(self.name, self.options.transport)
        #: shared-memory segment names of the last run (teardown tests)
        self.shm_segments: List[str] = []

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None):
        links = _WorkerLinks(self.options)
        try:
            return self._run_router(links, until, max_events)
        finally:
            self.shm_segments = links.segment_names


def make_backend(
    name: str, transport: str = "pipe", time_scale: float = RouterOptions.time_scale
) -> Backend:
    """Build the backend called ``name`` — the one name → instance mapping.

    ``Cluster(config, backend="mp")`` and ``Scenario(backend=...,
    transport=..., time_scale=...)`` both resolve here; the simulator
    has no wall clock and ignores ``time_scale``.
    """
    check_transport(name, transport)
    if name == "sim":
        return SimBackend()
    if name == "mp":
        return MPBackend(MPBackendOptions(time_scale=time_scale, transport=transport))
    from repro.dsim.net_backend import NetBackend, NetBackendOptions  # imports this module

    return NetBackend(NetBackendOptions(time_scale=time_scale))
