"""NetBackend: the cluster API over a sharded asyncio socket router.

The third execution substrate.  Workers are real OS processes — the
same :class:`~repro.dsim.process.Process` subclasses and the same
worker event loop the mp backend runs — but the transport is a stream
socket (Unix-domain by default, TCP optionally) to one of N **shard
routers** instead of an inherited pipe or a shared-memory ring.  This
is the first transport that does not require a shared kernel object
between router and worker, i.e. the first one whose wire protocol
could leave the box.

Topology::

    worker ──socket──▶ shard router 0 ─┐
    worker ──socket──▶ shard router 0 ─┤        ┌─▶ shard router 1 ──socket──▶ worker
                                       ├─ coordinator
    worker ──socket──▶ shard router 1 ─┤  (hooks, fault rules, Scroll)
    worker ──socket──▶ shard router 2 ─┘        └─▶ shard router 2 ──socket──▶ worker

* **Placement** is a consistent hash (:class:`ConsistentHashRing`):
  each pid maps to one shard, which owns that worker's connection for
  the whole run.
* **Shard routers** are asyncio event loops on their own threads.  They
  do the parallelizable work: accept connections, reassemble and decode
  inbound frames, encode outbound items, batch per-destination writes.
  With N shards the codec and syscall cost of routing spreads over N
  loops instead of serializing in one.
* **The coordinator** is the one :class:`~repro.dsim.router.Router`
  every real-process backend runs.  It does the work that *must* be
  serial: fault-rule decisions, hook replay and the Scroll are one
  ordered log, so flushes from every shard funnel into one uplink queue
  and are replayed in arrival order.  Routed deliveries are handed back
  to the destination's shard over its **inter-shard link**
  (:meth:`ShardRouter.submit`, a thread-safe handoff onto the owning
  loop): a message from a worker on shard A to a worker on shard B is
  decoded on A's loop, routed by the coordinator, and encoded + written
  on B's loop.

Because the router and the worker loop are shared, fault-plan mapping,
probe-based quiescence, the flush-log protocol and the halt reasons
(``worker-lost:<pid>``, ``worker-stalled:<pid>``, ``worker-error:<pid>``)
are those of :class:`~repro.dsim.backend.MPBackend` by construction;
this module only contributes the link set (:class:`_ShardLinks`).

This module is dsim-internal; construct it via ``backend="net"`` on a
:class:`~repro.api.scenario.Scenario` or ``Cluster`` (or pass a
``NetBackend`` instance for custom options).
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
import multiprocessing as mp
import os
import queue as queue_module
import shutil
import socket
import tempfile
import threading
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.dsim import net_transport
from repro.dsim.backend import RoutedBackend
from repro.dsim.router import RouterOptions, reap_workers, resolved_start_method, worker_loop
from repro.errors import SimulationError

SOCKET_FAMILIES = net_transport.SOCKET_FAMILIES


@dataclass
class NetBackendOptions(RouterOptions):
    """Tuning knobs of the socket substrate.

    The shared knobs (``time_scale``, ``flush_watermark``,
    ``batch_deliveries``, ``max_batch_messages``) are documented on
    :class:`~repro.dsim.router.RouterOptions` — the worker loop and the
    batching watermarks are shared, so a plan written for the mp backend
    injects at the equivalent wall moment here.  ``flush_watermark=1``
    plus ``batch_deliveries=False`` degenerates to one socket write per
    message, kept reachable as the net batching benchmark's baseline.
    Frame chunking and the worker connect/retry handshake run on
    :mod:`~repro.dsim.net_transport`'s defaults.

    Attributes
    ----------
    shards:
        Number of shard routers.  Each runs its own asyncio loop on its
        own thread and owns the connections of the pids the hash ring
        places on it; clamped to the process count.
    family:
        ``"unix"`` (default: Unix-domain sockets under a per-run temp
        directory, unlinked at teardown) or ``"tcp"`` (ephemeral
        loopback ports).
    write_timeout:
        Bound on any single socket write, both directions.  A worker
        that stops draining its socket for this long halts the run as
        ``worker-stalled:<pid>`` instead of hanging it.
    socket_buffer_bytes:
        Optional ``SO_SNDBUF``/``SO_RCVBUF`` override.  Production runs
        leave the OS default; the stalled-writer regression test shrinks
        it so a stall is provokable without megabytes of backlog.
    """

    shards: int = 2
    family: str = "unix"
    write_timeout: float = 10.0
    socket_buffer_bytes: Optional[int] = None


def _stable_hash(token: str) -> int:
    # placement must not depend on PYTHONHASHSEED: two runs of the same
    # scenario (or a future multi-host router) must agree on it
    return int.from_bytes(hashlib.blake2b(token.encode(), digest_size=8).digest(), "big")


class ConsistentHashRing:
    """Deterministic pid → shard placement via a hash ring.

    Virtual nodes (``replicas`` per shard) keep the load roughly even,
    and consistent hashing keeps most placements stable when the shard
    count changes — the property that matters once shards are hosts.
    """

    def __init__(self, shards: int, replicas: int = 64) -> None:
        if shards < 1:
            raise SimulationError(f"consistent hash ring needs >= 1 shard, got {shards}")
        points = sorted(
            (_stable_hash(f"shard-{shard}#{replica}"), shard)
            for shard in range(shards)
            for replica in range(replicas)
        )
        self._hashes = [point for point, _ in points]
        self._shards = [shard for _, shard in points]

    def shard_for(self, pid: str) -> int:
        index = bisect.bisect(self._hashes, _stable_hash(pid)) % len(self._shards)
        return self._shards[index]


def _net_worker_main(address, options: NetBackendOptions, worker_args: Tuple) -> None:
    """Entry point of one net worker: connect, hello, run the worker loop.

    The loop itself is :func:`repro.dsim.router.worker_loop` — the
    protocol (flush log, probes, crash/recover, result) is transport-
    independent, which is the point of the endpoint abstraction.
    """
    try:
        sock = net_transport.connect_with_retry(
            address, options.family, buffer_bytes=options.socket_buffer_bytes
        )
    except net_transport.TransportError:
        return  # router never came up: nothing to report to
    endpoint = net_transport.SocketEndpoint(sock, write_timeout=options.write_timeout)
    try:
        # the hello maps this connection to its pid on the shard; it must
        # be first on the stream, before any flush
        endpoint.send_control(("hello", worker_args[0]))
        worker_loop(endpoint, options, *worker_args)
    except net_transport.TransportError:
        pass  # router went away mid-handshake: nothing left to report to
    finally:
        endpoint.close()


class _ShardConnection:
    """One worker's socket as its owning shard sees it."""

    __slots__ = ("sock", "pid", "outbox", "writer_active", "closing")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.pid: Optional[str] = None
        #: queued wire buffers; one buffer == one submit == one sendall,
        #: so the socket_writes counter measures batching honestly
        self.outbox: deque = deque()
        self.writer_active = False
        self.closing = False


class ShardRouter:
    """One shard: an asyncio loop on its own thread owning N worker sockets.

    Inbound: per-connection reader tasks reassemble and decode frames
    (codec work runs here, in parallel across shards) and push
    ``(pid, item)`` onto the coordinator's uplink queue.  Outbound:
    :meth:`submit` is the **inter-shard link** — a thread-safe handoff
    from the coordinator (or, in principle, another shard) onto this
    loop, which encodes and writes on its own thread.  Items submitted
    before a worker's hello arrives are buffered and flushed to its
    connection in order once it registers.

    A write that stalls past the write timeout reports
    ``("__stalled__",)`` for that pid and stops writing to it; a
    connection that closes reports ``("__lost__",)`` — the coordinator
    turns those into the ``worker-stalled:``/``worker-lost:`` halts.
    """

    def __init__(
        self,
        shard_id: int,
        options: NetBackendOptions,
        uplink: "queue_module.SimpleQueue",
        socket_dir: Optional[str],
    ) -> None:
        self.shard_id = shard_id
        self.options = options
        self.uplink = uplink
        self.stats = net_transport.new_socket_stats()
        self.socket_path: Optional[str] = None
        if options.family == "unix":
            self.socket_path = os.path.join(socket_dir or ".", f"shard-{shard_id}.sock")
        # bound + listening before any worker spawns: connects land in the
        # backlog even while the accept loop is still starting
        self.server_sock, self.address = net_transport.listen_socket(
            options.family, path=self.socket_path,
            buffer_bytes=options.socket_buffer_bytes,
        )
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run, name=f"net-shard-{shard_id}", daemon=True
        )
        self._conns: Dict[str, _ShardConnection] = {}
        self._pre_connect: Dict[str, List[bytes]] = {}
        self._closing = False
        self._started = threading.Event()

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        self._thread.start()
        self._started.wait(timeout=5.0)

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.create_task(self._accept_loop())
        self._loop.call_soon(self._started.set)
        try:
            self._loop.run_forever()
        finally:
            tasks = asyncio.all_tasks(self._loop)
            for task in tasks:
                task.cancel()
            if tasks:
                self._loop.run_until_complete(
                    asyncio.gather(*tasks, return_exceptions=True)
                )
            self._loop.close()

    def close(self) -> None:
        """Stop the loop, close every socket, unlink the unix path."""
        self._closing = True
        if self._thread.is_alive():
            try:
                self._loop.call_soon_threadsafe(self._loop.stop)
            except RuntimeError:  # loop already closed
                pass
            self._thread.join(timeout=5.0)
        for conn in list(self._conns.values()):
            try:
                conn.sock.close()
            except OSError:
                pass
        self._conns.clear()
        try:
            self.server_sock.close()
        except OSError:
            pass
        net_transport.unlink_quietly(self.socket_path)

    # -- inbound -----------------------------------------------------------
    async def _accept_loop(self) -> None:
        loop = self._loop
        options = self.options
        while not self._closing:
            try:
                sock, _ = await loop.sock_accept(self.server_sock)
            except (OSError, ValueError):
                return
            sock.setblocking(False)
            if options.family == "tcp":
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            loop.create_task(self._serve(sock))

    async def _serve(self, sock: socket.socket) -> None:
        loop = self._loop
        conn = _ShardConnection(sock)
        reassembler = net_transport.FrameReassembler()
        uplink = self.uplink
        try:
            while not self._closing:
                data = await loop.sock_recv(sock, 1 << 16)
                if not data:
                    break
                for item in reassembler.feed(data):
                    if conn.pid is None:
                        # the first frame on every connection is the hello
                        if item[0] != "hello":
                            raise net_transport.TransportError(
                                f"shard {self.shard_id}: first frame was "
                                f"{item[0]!r}, expected the hello handshake"
                            )
                        self._register(conn, item[1])
                    else:
                        uplink.put((conn.pid, item))
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass  # connection loss: reported below like a clean EOF
        except net_transport.TransportError:
            pass  # torn frame from a dying worker: same as connection loss
        finally:
            conn.closing = True
            try:
                sock.close()
            except OSError:
                pass
            if conn.pid is not None and self._conns.get(conn.pid) is conn:
                self._conns.pop(conn.pid, None)
                uplink.put((conn.pid, ("__lost__",)))

    def _register(self, conn: _ShardConnection, pid: str) -> None:
        conn.pid = pid
        self._conns[pid] = conn
        queued = self._pre_connect.pop(pid, None)
        if queued:
            # deliveries routed before the worker finished connecting go
            # out now, ahead of anything submitted later (FIFO preserved)
            conn.outbox.extend(queued)
            self._kick_writer(conn)

    # -- outbound: the inter-shard link ------------------------------------
    def submit(self, pid: str, item: Tuple) -> None:
        """Hand one item to this shard for delivery to ``pid``.

        Thread-safe; encode and write run on the shard's own loop, so
        the caller (the coordinator) never blocks on a transport write.
        """
        try:
            self._loop.call_soon_threadsafe(self._submit_local, pid, item)
        except RuntimeError:
            pass  # loop closed (teardown): the worker is gone anyway

    def _submit_local(self, pid: str, item: Tuple) -> None:
        wire = net_transport.encode_wire(item, self.stats)
        conn = self._conns.get(pid)
        if conn is None:
            self._pre_connect.setdefault(pid, []).append(wire)
            return
        if conn.closing:
            return  # stalled or dying: the halt is already on its way
        conn.outbox.append(wire)
        self._kick_writer(conn)

    def _kick_writer(self, conn: _ShardConnection) -> None:
        if not conn.writer_active:
            conn.writer_active = True
            self._loop.create_task(self._write_pump(conn))

    async def _write_pump(self, conn: _ShardConnection) -> None:
        loop = self._loop
        stats = self.stats
        timeout = self.options.write_timeout
        try:
            while conn.outbox and not conn.closing and not self._closing:
                wire = conn.outbox.popleft()
                try:
                    await asyncio.wait_for(
                        loop.sock_sendall(conn.sock, wire), timeout=timeout
                    )
                except asyncio.TimeoutError:
                    # The worker is ALIVE but has not drained its socket
                    # for the whole write timeout — dropping frames
                    # silently would strand tseqs in in_flight until the
                    # wall cap.  Surface the stall loudly and stop
                    # writing to this connection (the cancelled sendall
                    # may have written a partial frame; the stream is no
                    # longer trustworthy).
                    conn.closing = True
                    conn.outbox.clear()
                    if conn.pid is not None:
                        self.uplink.put((conn.pid, ("__stalled__",)))
                    return
                except (BrokenPipeError, ConnectionResetError, OSError):
                    conn.closing = True
                    conn.outbox.clear()
                    return  # worker gone: its reader task reports the loss
                stats["socket_writes"] += 1
                stats["socket_bytes"] += len(wire)
        finally:
            conn.writer_active = False


class _ShardLinks:
    """The net link set: N shard routers, one socket per worker.

    Implements the five operations :mod:`repro.dsim.router` documents.
    Flushes from every shard funnel into one uplink queue, so
    :meth:`drain` hands them to the router in arrival order; the shards
    already report a closed connection as ``("__lost__",)`` and a write
    timeout as ``("__stalled__",)``.
    """

    def __init__(self, options: NetBackendOptions, pids: Tuple[str, ...]) -> None:
        self.options = options
        self.shard_count = max(1, min(options.shards, len(pids) or 1))
        ring = ConsistentHashRing(self.shard_count)
        #: pid → shard placement for this run
        self.placement: Dict[str, int] = {pid: ring.shard_for(pid) for pid in pids}
        #: unix socket paths of this run's shards
        self.socket_paths: List[str] = []
        self._uplink: "queue_module.SimpleQueue" = queue_module.SimpleQueue()
        self._shards: List[ShardRouter] = []
        self._workers: List = []
        self._socket_dir: Optional[str] = None
        self._deliver = None

    def open(self, spawn, deliver) -> None:
        self._deliver = deliver
        options = self.options
        if options.family == "unix":
            self._socket_dir = tempfile.mkdtemp(prefix="fixd-net-")
        # 1. shard routers: bound + listening, loops NOT yet running —
        #    workers must fork before any router thread exists (the
        #    classic fork-with-threads hazard); their connects queue
        #    in the listen backlog until the loops start.
        for shard_id in range(self.shard_count):
            self._shards.append(
                ShardRouter(shard_id, options, self._uplink, self._socket_dir)
            )
        self.socket_paths = [s.socket_path for s in self._shards if s.socket_path]
        # 2. workers
        ctx = mp.get_context(resolved_start_method())
        for pid, worker_args in spawn.items():
            address = self._shards[self.placement[pid]].address
            worker = ctx.Process(
                target=_net_worker_main,
                args=(address, options, worker_args),
                daemon=True,
            )
            worker.start()
            self._workers.append(worker)
        # 3. now the shard loops may spin up their threads
        for shard in self._shards:
            shard.start()

    def send(self, pid: str, item: Tuple) -> None:
        self._shards[self.placement[pid]].submit(pid, item)

    def drain(self, idle_timeout: float) -> None:
        """Deliver everything queued by the shard readers, in arrival order."""
        uplink = self._uplink
        deliver = self._deliver
        try:
            pid, item = uplink.get(timeout=idle_timeout)
        except queue_module.Empty:
            return
        while True:
            deliver(pid, item)
            try:
                pid, item = uplink.get_nowait()
            except queue_module.Empty:
                return

    def close(self) -> None:
        """Stop the shard loops, reap the workers, remove the socket dir."""
        for shard in self._shards:
            shard.close()
        reap_workers(self._workers)
        if self._socket_dir is not None:
            shutil.rmtree(self._socket_dir, ignore_errors=True)

    def stats(self, results) -> Tuple[Dict[str, int], Dict[str, int]]:
        codec = net_transport.new_socket_stats()
        for shard in self._shards:
            for key, value in shard.stats.items():
                codec[key] += value
        workers = [result.get("transport", {}) for result in results.values()]
        parent_writes = codec["socket_writes"]
        worker_writes = sum(stats.get("socket_writes", 0) for stats in workers)
        return codec, {
            "shards": self.shard_count,
            "parent_socket_writes": parent_writes,
            "worker_socket_writes": worker_writes,
            "socket_writes": parent_writes + worker_writes,
            "socket_bytes": codec["socket_bytes"]
            + sum(stats.get("socket_bytes", 0) for stats in workers),
        }


class NetBackend(RoutedBackend):
    """Real OS processes over sharded socket routers.

    Semantics match :class:`~repro.dsim.backend.MPBackend` — it is the
    same :class:`~repro.dsim.router.Router` and the same worker loop,
    with the limitations :class:`~repro.dsim.backend.RoutedBackend`
    lists.  What changes is the transport topology: N shard routers own
    the worker connections and parallelize codec + syscall work, while
    the router keeps the serial responsibilities — fault decisions, hook
    replay, the Scroll — exactly once.
    """

    name = "net"

    def __init__(self, options: Optional[NetBackendOptions] = None) -> None:
        super().__init__(options or NetBackendOptions())
        if self.options.family not in SOCKET_FAMILIES:
            raise SimulationError(
                f"unknown socket family {self.options.family!r}; "
                f"expected one of {SOCKET_FAMILIES}"
            )
        if self.options.shards < 1:
            raise SimulationError(
                f"the net backend needs >= 1 shard, got {self.options.shards}"
            )
        #: unix socket paths of the last run (teardown-leak tests)
        self.socket_paths: List[str] = []
        #: pid → shard placement of the last run
        self.placement: Dict[str, int] = {}

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None):
        links = _ShardLinks(self.options, tuple(self.cluster.pids))
        self.placement = links.placement
        try:
            return self._run_router(links, until, max_events)
        finally:
            self.socket_paths = links.socket_paths
