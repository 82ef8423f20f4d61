"""The Investigator facade used by FixD's fault-response protocol.

Given (a) a globally consistent checkpoint assembled from the peers'
replies, (b) a model per process — by default the implementation itself,
optionally an :class:`~repro.investigator.models.EnvironmentModel` for
components outside FixD's control — and (c) the invariants to check, the
Investigator explores the executions possible from that state and returns
the trails that lead to invariant violations (Section 3.3).
"""

from __future__ import annotations

import time as wall_time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.dsim.message import Message
from repro.dsim.process import Process
from repro.investigator.explorer import ExplorationResult, Explorer, SearchOrder
from repro.investigator.models import DistributedSystemModel, SystemState
from repro.investigator.trails import Trail
from repro.timemachine.checkpoint import GlobalCheckpoint

ProcessFactory = Callable[[], Process]


@dataclass
class InvestigatorConfig:
    """Exploration limits and defaults for investigations."""

    search_order: SearchOrder = SearchOrder.BFS
    max_states: int = 20_000
    max_depth: int = 200
    stop_at_first_violation: bool = False
    check_deadlocks: bool = False
    seed: int = 0


@dataclass
class InvestigationReport:
    """What an investigation found."""

    trails: List[Trail]
    states_explored: int
    transitions: int
    truncated: bool
    elapsed_seconds: float
    search_order: SearchOrder
    deadlocks: List[Trail] = field(default_factory=list)

    @property
    def found_violation(self) -> bool:
        return bool(self.trails) or bool(self.deadlocks)

    @property
    def violated_invariants(self) -> List[str]:
        return sorted({trail.violated_invariant for trail in self.trails + self.deadlocks})

    def shortest_trail(self) -> Optional[Trail]:
        candidates = self.trails + self.deadlocks
        if not candidates:
            return None
        return min(candidates, key=lambda trail: trail.length)

    def summary(self) -> str:
        """A few human-readable lines describing the outcome."""
        lines = [
            f"Investigation ({self.search_order.value}): "
            f"{self.states_explored} states, {self.transitions} transitions"
            + (", truncated" if self.truncated else ""),
        ]
        if not self.found_violation:
            lines.append("No invariant violations were reachable from the restored state.")
            return "\n".join(lines)
        lines.append(
            f"{len(self.trails)} violating trail(s) across invariants: "
            + ", ".join(self.violated_invariants)
        )
        shortest = self.shortest_trail()
        if shortest is not None:
            lines.append(shortest.describe(max_steps=10))
        return "\n".join(lines)


class Investigator:
    """Explores executions of real process implementations from a global state."""

    def __init__(self, config: Optional[InvestigatorConfig] = None) -> None:
        self.config = config or InvestigatorConfig()

    # ------------------------------------------------------------------
    # main entry point
    # ------------------------------------------------------------------
    def investigate(
        self,
        factories: Dict[str, ProcessFactory],
        checkpoint: Optional[GlobalCheckpoint] = None,
        in_flight: Optional[Sequence[Message]] = None,
        global_invariants: Optional[Dict[str, Callable[[Dict[str, Dict[str, Any]]], bool]]] = None,
        search_order: Optional[SearchOrder] = None,
        take_msg_id: Optional[Callable[[], int]] = None,
    ) -> InvestigationReport:
        """Explore from ``checkpoint`` (or the initial states) and report violating trails.

        Parameters
        ----------
        factories:
            One factory per process id — the peers' "models", which may be
            the real implementations or :class:`EnvironmentModel` stand-ins.
        checkpoint:
            The globally consistent checkpoint to start from; omitted means
            start from the processes' initial states.
        in_flight:
            Messages that were in transit at the checkpoint (channel state).
        global_invariants:
            Named predicates over ``{pid: state_dict}`` checked in every
            explored state, in addition to the processes' own invariants.
        take_msg_id:
            The investigated run's ``cluster.msg_ids.take``; omitted, the model counts its own.
        """
        adapter = DistributedSystemModel(
            factories,
            seed=self.config.seed,
            global_invariants=global_invariants,
            take_msg_id=take_msg_id,
        )
        initial: SystemState
        if checkpoint is not None:
            initial = adapter.state_from_checkpoint(checkpoint, in_flight)
        else:
            initial = adapter.initial_state()
        model = adapter.build_model(initial)

        order = search_order or self.config.search_order
        explorer = Explorer(
            model,
            search_order=order,
            max_states=self.config.max_states,
            max_depth=self.config.max_depth,
            stop_at_first_violation=self.config.stop_at_first_violation,
            check_deadlocks=self.config.check_deadlocks,
            terminal_predicate=DistributedSystemModel.terminal_predicate,
        )
        started = wall_time.perf_counter()
        result = explorer.explore()
        elapsed = wall_time.perf_counter() - started
        return self._report(result, elapsed, order)

    def replay_single_path(
        self,
        factories: Dict[str, ProcessFactory],
        checkpoint: Optional[GlobalCheckpoint] = None,
        in_flight: Optional[Sequence[Message]] = None,
    ) -> InvestigationReport:
        """Follow one conventional execution path only (no branching exploration)."""
        return self.investigate(
            factories,
            checkpoint=checkpoint,
            in_flight=in_flight,
            search_order=SearchOrder.SINGLE_PATH,
        )

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _report(
        self, result: ExplorationResult, elapsed: float, order: SearchOrder
    ) -> InvestigationReport:
        return InvestigationReport(
            trails=list(result.violations),
            deadlocks=list(result.deadlocks),
            states_explored=result.states_explored,
            transitions=result.transitions,
            truncated=result.truncated,
            elapsed_seconds=elapsed,
            search_order=order,
        )
