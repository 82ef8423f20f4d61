"""Record (or recompute) the exploration oracle: what BFS finds in each model.

For every case below the oracle keeps the explorer's counts
(``states_explored``, ``transitions``, ``unique_states``, ``truncated``),
the violated invariants and every trail as ``(invariant, actions)``.
Fingerprint values are deliberately left out: the oracle pins the
*equivalence classes* of states (what BFS merges), not how a digest is
spelled.

The cases are every registry app's model (default parameters, plus the
buggy variants the registry exposes) under a bounded BFS budget, the
2/3/4-process broadcast of ``benchmarks/test_claim_state_blowup.py``,
and the kvstore ``fault_heal`` case explored from the checkpoint FixD
collects when the fault is detected.

Regenerate the fixture with::

    PYTHONPATH=src python tests/golden/record_exploration_oracle.py
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Dict, List

from repro.api import Cluster, ClusterConfig, FixD, FixDConfig, Process, handler
from repro.api import apps as registry
from repro.investigator.explorer import ExplorationResult, Explorer, SearchOrder
from repro.investigator.investigator import Investigator, InvestigatorConfig
from repro.investigator.models import DistributedSystemModel

FIXTURE = Path(__file__).with_name("exploration_oracle.json")

#: (case name, registry app, parameter overrides, BFS state budget)
REGISTRY_CASES = (
    ("bank", "bank", {}, 200),
    ("kvstore", "kvstore", {}, 200),
    ("kvstore-stale-rewriting", "kvstore", {"stale_backups": True, "rewriting_clients": True}, 200),
    ("leader_election", "leader_election", {}, 200),
    ("token_ring", "token_ring", {}, 200),
    ("token_ring-buggy", "token_ring", {"buggy": True}, 200),
    ("two_phase_commit", "two_phase_commit", {}, 200),
    ("wordcount", "wordcount", {}, 200),
    ("wordcount_burst", "wordcount_burst", {}, 40),
)
REGISTRY_MAX_DEPTH = 50

#: the kvstore fault_heal case: the same scenario and investigator limits
FAULT_CASE_SEED = 11
FAULT_CASE_UNTIL = 100.0
FAULT_CASE_LIMITS = InvestigatorConfig(max_states=2000, max_depth=50)


class Broadcaster(Process):
    """The claim-2.1 blow-up protocol: broadcast one HELLO, count greetings."""

    def on_start(self):
        self.state["greetings"] = 0
        for peer in self.peers:
            self.send(peer, "HELLO", None)

    @handler("HELLO")
    def on_hello(self, msg):
        self.state["greetings"] += 1


def summarise(result: ExplorationResult) -> Dict[str, Any]:
    return {
        "states_explored": result.states_explored,
        "transitions": result.transitions,
        "unique_states": result.unique_states,
        "truncated": result.truncated,
        "violated_invariants": sorted({trail.violated_invariant for trail in result.all_trails}),
        "trails": [[trail.violated_invariant, trail.actions] for trail in result.all_trails],
    }


def registry_case(app: str, params: Dict[str, Any], budget: int) -> Dict[str, Any]:
    cluster = Cluster(ClusterConfig(seed=0))
    spec = registry.build(cluster, app, **params)
    factories = {pid: cluster.factory_for(pid) for pid in cluster.pids}
    adapter = DistributedSystemModel(factories, global_invariants={"default": spec.check()})
    explorer = Explorer(
        adapter.build_model(),
        SearchOrder.BFS,
        max_states=budget,
        max_depth=REGISTRY_MAX_DEPTH,
        terminal_predicate=DistributedSystemModel.terminal_predicate,
    )
    return summarise(explorer.explore())


def broadcast_case(process_count: int) -> Dict[str, Any]:
    adapter = DistributedSystemModel({f"p{i}": Broadcaster for i in range(process_count)})
    explorer = Explorer(
        adapter.build_model(),
        SearchOrder.BFS,
        max_states=20_000,
        check_deadlocks=False,
        terminal_predicate=DistributedSystemModel.terminal_predicate,
    )
    return summarise(explorer.explore())


class _CheckpointExplorer(Investigator):
    """Runs the oracle's explorer on the first investigation FixD requests."""

    def __init__(self, config: InvestigatorConfig) -> None:
        super().__init__(config)
        self.results: List[Dict[str, Any]] = []

    def investigate(self, factories, checkpoint=None, in_flight=None, **kwargs):
        if not self.results:
            adapter = DistributedSystemModel(factories, seed=self.config.seed)
            explorer = Explorer(
                adapter.build_model(adapter.state_from_checkpoint(checkpoint, in_flight)),
                self.config.search_order,
                max_states=self.config.max_states,
                max_depth=self.config.max_depth,
                check_deadlocks=self.config.check_deadlocks,
                terminal_predicate=DistributedSystemModel.terminal_predicate,
            )
            self.results.append(summarise(explorer.explore()))
        return super().investigate(factories, checkpoint=checkpoint, in_flight=in_flight, **kwargs)


def kvstore_fault_case() -> Dict[str, Any]:
    cluster = Cluster(ClusterConfig(seed=FAULT_CASE_SEED, halt_on_violation=False))
    registry.build(cluster, "kvstore", stale_backups=True, rewriting_clients=True)
    fixd = FixD(FixDConfig(investigator=FAULT_CASE_LIMITS))
    fixd.investigator = _CheckpointExplorer(FAULT_CASE_LIMITS)
    fixd.attach(cluster)
    cluster.run(until=FAULT_CASE_UNTIL)
    if not fixd.investigator.results:
        raise AssertionError("the kvstore fault case raised no fault to investigate")
    return fixd.investigator.results[0]


def cases() -> Dict[str, Callable[[], Dict[str, Any]]]:
    """Every oracle case by name, each a zero-argument recomputation."""
    table: Dict[str, Callable[[], Dict[str, Any]]] = {}
    for name, app, params, budget in REGISTRY_CASES:
        table[f"registry/{name}"] = lambda a=app, p=params, b=budget: registry_case(a, p, b)
    for count in (2, 3, 4):
        table[f"broadcast/{count}"] = lambda n=count: broadcast_case(n)
    table["fault_heal/kvstore"] = kvstore_fault_case
    return table


def main() -> None:
    recorded = {name: compute() for name, compute in cases().items()}
    FIXTURE.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    for name, entry in recorded.items():
        print(
            f"{name:34} states={entry['states_explored']:>5} transitions={entry['transitions']:>6} "
            f"unique={entry['unique_states']:>5} truncated={entry['truncated']} "
            f"violated={entry['violated_invariants']} trails={len(entry['trails'])}"
        )


if __name__ == "__main__":
    main()
