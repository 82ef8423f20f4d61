"""Benchmark-owned applications: ``bench_ledger`` and ``bench_pingpong``.

Both are written against the ``repro.api`` re-exports only, like any
downstream user's application.  Importing this module registers
nothing: the workload child calls :func:`register` once it is running,
so pytest collecting ``benchmarks/`` never touches the app registry.
"""

from __future__ import annotations

import time
from typing import Any, Dict

from repro.api import ConfiguredFactory, Process, handler, timer_handler
from repro.api import apps as registry

States = Dict[str, Dict[str, Any]]

#: every ledger account starts here; :func:`ledger_consistent` rebuilds
#: the expected total from it
LEDGER_OPENING_BALANCE = 100


class Ledger(Process):
    """A large, slowly mutating state with one small message per tick.

    The dict is far above ``cow_chunk_threshold`` and each tick touches
    under 2% of its keys, so checkpoint capture and the durable commit
    path see the shape chunked COW was built for: big state, small delta.
    """

    keys: int = 2048
    ticks: int = 24
    mutations_per_tick: int = 16

    def on_start(self) -> None:
        self.state["accounts"] = {
            f"{self.pid}-{index:05d}": LEDGER_OPENING_BALANCE for index in range(self.keys)
        }
        self.state["deposited"] = 0
        self.state["ticks_done"] = 0
        self.state["syncs_seen"] = 0
        self.state["peer_ticks"] = 0
        self.set_timer("tick", 1.0)

    @timer_handler("tick")
    def tick(self, payload: Any) -> None:
        accounts = self.state["accounts"]
        for _ in range(self.mutations_per_tick):
            index = self.randint(0, self.keys - 1)
            amount = self.randint(1, 9)
            accounts[f"{self.pid}-{index:05d}"] += amount
            self.state["deposited"] += amount
        self.state["ticks_done"] += 1
        for peer in self.peers:
            self.send(peer, "SYNC", {"tick": self.state["ticks_done"]})
        if self.state["ticks_done"] < self.ticks:
            self.set_timer("tick", 1.0)

    @handler("SYNC")
    def handle_sync(self, msg) -> None:
        self.state["syncs_seen"] += 1
        self.state["peer_ticks"] = max(self.state["peer_ticks"], msg.payload["tick"])


def ledger_consistent(states: States) -> bool:
    """Every deposit is on the books: balances equal opening total plus deposits."""
    return all(
        sum(state["accounts"].values())
        == len(state["accounts"]) * LEDGER_OPENING_BALANCE + state["deposited"]
        for state in states.values()
    )


def build_ledger(cluster, keys: int, ticks: int, mutations_per_tick: int) -> None:
    for index in range(2):
        cluster.add_process(
            f"ledger{index}",
            ConfiguredFactory(
                Ledger, keys=keys, ticks=ticks, mutations_per_tick=mutations_per_tick
            ),
        )


class Pinger(Process):
    """Keeps exactly one ``PING`` in flight and records each round trip.

    The stamp is taken and compared inside this one process, so the
    sample is the application-visible round trip of the link, whatever
    the backend does to deliver the two messages.
    """

    rounds: int = 500

    def on_start(self) -> None:
        self.state["rtts"] = []
        self.set_timer("kick", 1.0)

    def _ping(self) -> None:
        self.send("ponger", "PING", {"t0": time.perf_counter_ns()})

    @timer_handler("kick")
    def kick(self, payload: Any) -> None:
        self._ping()

    @handler("PONG")
    def handle_pong(self, msg) -> None:
        self.state["rtts"].append(time.perf_counter_ns() - msg.payload["t0"])
        if len(self.state["rtts"]) < self.rounds:
            self._ping()


class Ponger(Process):
    def on_start(self) -> None:
        self.state["echoed"] = 0

    @handler("PING")
    def handle_ping(self, msg) -> None:
        self.state["echoed"] += 1
        self.send(msg.src, "PONG", msg.payload)


def pingpong_consistent(states: States) -> bool:
    return len(states["pinger"]["rtts"]) == states["ponger"]["echoed"]


def build_pingpong(cluster, rounds: int) -> None:
    cluster.add_process("pinger", ConfiguredFactory(Pinger, rounds=rounds))
    cluster.add_process("ponger", Ponger)


def register() -> None:
    """Register both apps; ``replace=True`` keeps repeated set-up passes legal."""
    registry.register_app(
        "bench_ledger",
        build_ledger,
        defaults={"keys": 2048, "ticks": 24, "mutations_per_tick": 16},
        checks={"default": ledger_consistent},
        description="benchmark: large slowly-mutating state, one small message per tick",
        replace=True,
    )
    registry.register_app(
        "bench_pingpong",
        build_pingpong,
        defaults={"rounds": 500},
        checks={"default": pingpong_consistent},
        description="benchmark: one message in flight, app-level round-trip samples",
        replace=True,
    )
