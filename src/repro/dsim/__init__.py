"""Deterministic distributed-system simulation substrate.

The paper assumes a cluster of communicating OS processes.  This package
provides the equivalent substrate in pure Python:

* :mod:`repro.dsim.scheduler` — a deterministic discrete-event scheduler
  with stable tie-breaking, so a run is a pure function of its seed and
  the injected faults.
* :mod:`repro.dsim.process` — the application programming model: event
  handler classes with message handlers, timers, tracked local state and
  invariant declarations.
* :mod:`repro.dsim.channel` / :mod:`repro.dsim.network` — point-to-point
  channels with configurable delay, loss, duplication, reordering and
  partitions.
* :mod:`repro.dsim.failure` — the one fault vocabulary: JSON-round-tripping
  specs (crashes, message faults, partitions, state corruption) composed
  into a :class:`~repro.dsim.failure.FaultSchedule` every backend runs.
* :mod:`repro.dsim.cluster` — the frontend: process registration, hooks,
  the fault schedule and the violation policy over a pluggable backend.
* :mod:`repro.dsim.backend` — the :class:`~repro.dsim.backend.Backend`
  protocol with three substrates: the deterministic simulator
  (:class:`~repro.dsim.backend.SimBackend`, the default), real OS
  processes over batched pipe writes or zero-pickle shared-memory rings
  (:class:`~repro.dsim.backend.MPBackend`), and real OS processes over
  sharded asyncio socket routers
  (:class:`~repro.dsim.net_backend.NetBackend`).
* :mod:`repro.dsim.router` — the one parent-side router and the worker
  loop every real-process backend runs; a backend only supplies the
  *link set* that moves items (pipe/shm links in ``backend``, socket
  links in ``net_backend``).  :mod:`repro.dsim.wire` is the flat-frame
  codec the links share; :mod:`repro.dsim.shm_ring` and
  :mod:`repro.dsim.net_transport` are the ring and stream transports.

The FixD components attach to the simulator exclusively through the hook
interfaces in :mod:`repro.dsim.hooks`, which keeps this substrate free of
dependencies on the rest of the library.
"""

from repro.dsim.backend import Backend, MPBackend, MPBackendOptions, SimBackend
from repro.dsim.net_backend import NetBackend, NetBackendOptions
from repro.dsim.clock import LamportClock, VectorClock, happens_before
from repro.dsim.cluster import Cluster, ClusterConfig, RunResult
from repro.dsim.failure import Corrupt, Crash, Delay, Drop, Duplicate, FaultSchedule, Partition
from repro.dsim.message import Message
from repro.dsim.network import Network, NetworkConfig
from repro.dsim.process import Process, ProcessContext, handler
from repro.dsim.scheduler import Event, EventKind, Scheduler

__all__ = [
    "Backend",
    "SimBackend",
    "MPBackend",
    "MPBackendOptions",
    "NetBackend",
    "NetBackendOptions",
    "LamportClock",
    "VectorClock",
    "happens_before",
    "Cluster",
    "ClusterConfig",
    "RunResult",
    "Corrupt",
    "Crash",
    "Delay",
    "Drop",
    "Duplicate",
    "FaultSchedule",
    "Partition",
    "Message",
    "Network",
    "NetworkConfig",
    "Process",
    "ProcessContext",
    "handler",
    "Event",
    "EventKind",
    "Scheduler",
]
