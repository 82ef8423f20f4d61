"""Shared fixtures: small applications and cluster builders used across the suite."""

from __future__ import annotations

import os
import random

import pytest

from repro.dsim.cluster import Cluster, ClusterConfig
from repro.dsim.message import Message
from repro.dsim.process import Process, handler, invariant, timer_handler


class PingPong(Process):
    """Two processes bounce a PING message ``rounds`` times each."""

    rounds: int = 5

    def on_start(self):
        self.state["count"] = 0
        if self.pid.endswith("0"):
            self.send(self._other(), "PING", 1)

    def _other(self) -> str:
        return self.peers[0]

    @handler("PING")
    def on_ping(self, msg: Message):
        self.state["count"] += 1
        if self.state["count"] < self.rounds:
            self.send(msg.src, "PING", msg.payload + 1)

    @invariant("count-bounded")
    def count_bounded(self):
        return self.state["count"] <= self.rounds


class BoundedCounterBuggy(Process):
    """Counts TICKs without respecting its declared bound (used to trigger faults)."""

    bound: int = 3

    def on_start(self):
        self.state["count"] = 0
        if self.pid.endswith("0"):
            self.send(self.peers[0], "TICK", None)

    @handler("TICK")
    def on_tick(self, msg: Message):
        self.state["count"] += 1
        self.send(msg.src, "TICK", None)

    @invariant("count-within-bound")
    def count_within_bound(self):
        return self.state["count"] <= self.bound


class BoundedCounterFixed(BoundedCounterBuggy):
    """The corrected counter: stops ticking at the bound."""

    @handler("TICK")
    def on_tick(self, msg: Message):
        if self.state["count"] < self.bound:
            self.state["count"] += 1
            self.send(msg.src, "TICK", None)


class RandomWorker(Process):
    """A process that uses every nondeterministic primitive (for Scroll tests)."""

    def on_start(self):
        self.state["draws"] = []
        self.state["timer_fired"] = 0
        self.set_timer("work", 2.0, {"batch": 1})
        if self.pid.endswith("0"):
            self.send(self.peers[0], "WORK", 1)

    @handler("WORK")
    def on_work(self, msg: Message):
        value = self.randint(0, 100)
        self.state["draws"].append(value)
        self.state.setdefault("clock_reads", []).append(self.now())
        if len(self.state["draws"]) < 3:
            self.send(msg.src, "WORK", value)

    @timer_handler("work")
    def on_timer(self, payload):
        self.state["timer_fired"] += 1


@pytest.fixture
def ping_cluster():
    """A started two-process PingPong cluster (not yet run)."""
    cluster = Cluster(ClusterConfig(seed=1))
    cluster.add_process("p0", PingPong)
    cluster.add_process("p1", PingPong)
    return cluster


@pytest.fixture
def buggy_counter_cluster():
    """A two-process cluster that will violate its invariant when run."""
    cluster = Cluster(ClusterConfig(seed=2))
    cluster.add_process("c0", BoundedCounterBuggy)
    cluster.add_process("c1", BoundedCounterBuggy)
    return cluster


@pytest.fixture
def random_worker_cluster():
    """A cluster exercising random draws, clock reads and timers."""
    cluster = Cluster(ClusterConfig(seed=3))
    cluster.add_process("r0", RandomWorker)
    cluster.add_process("r1", RandomWorker)
    return cluster


def make_cluster(factories, seed: int = 0, **config_kwargs) -> Cluster:
    """Helper used by many tests: build a cluster from a pid->factory mapping."""
    cluster = Cluster(ClusterConfig(seed=seed, **config_kwargs))
    for pid, factory in factories.items():
        cluster.add_process(pid, factory)
    return cluster


@pytest.fixture
def store_path(tmp_path):
    """A scratch durable-checkpoint-store root, so `durable` tests never
    touch a shared directory and tier-1 stays hermetic."""
    return str(tmp_path / "checkpoint-store")


@pytest.fixture(params=["sync", "pipelined"])
def durable_flush_mode(request, monkeypatch):
    """Run a durable-store test in both flush modes.

    In pipelined mode every :class:`DurableCheckpointStore` the test
    constructs gets ``flush_mode="pipelined"`` and every flush is
    followed by a hard :meth:`drain`, so tests that read the store right
    back observe landed writes — and ``pytest.raises`` around a flush
    still sees the worker's error, because the drain re-raises it.
    """
    mode = request.param
    if mode == "pipelined":
        from repro.timemachine import DurableCheckpointStore

        orig_init = DurableCheckpointStore.__init__

        def pipelined_init(self, *args, **kwargs):
            kwargs.setdefault("flush_mode", "pipelined")
            orig_init(self, *args, **kwargs)

        monkeypatch.setattr(DurableCheckpointStore, "__init__", pipelined_init)

        def drained(method):
            def wrapper(self, *args, **kwargs):
                try:
                    return method(self, *args, **kwargs)
                finally:
                    self.drain()

            return wrapper

        monkeypatch.setattr(
            DurableCheckpointStore,
            "flush_line",
            drained(DurableCheckpointStore.flush_line),
        )
        monkeypatch.setattr(
            DurableCheckpointStore,
            "flush_scroll",
            drained(DurableCheckpointStore.flush_scroll),
        )
    return mode


# ----------------------------------------------------------------------
# order shuffling for the flake hunt (`make soak`)
# ----------------------------------------------------------------------
ORDER_SEED_VARIABLE = "REPRO_TEST_ORDER_SEED"


def pytest_report_header(config):
    seed = os.environ.get(ORDER_SEED_VARIABLE)
    if seed:
        return f"test order shuffled with {ORDER_SEED_VARIABLE}={seed}"
    return None


def pytest_collection_modifyitems(config, items):
    """Shuffle the collected tests when ``REPRO_TEST_ORDER_SEED`` is set.

    ``make soak`` sets it per run, so an order dependence between tests
    shows up as a failing soak run; rerun that order with the printed
    seed.  Unset (every other run), the order is pytest's own.
    """
    seed = os.environ.get(ORDER_SEED_VARIABLE)
    if seed:
        random.Random(seed).shuffle(items)
