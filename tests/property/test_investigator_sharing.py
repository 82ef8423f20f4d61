"""Structural sharing in the Investigator's model states is safe (hypothesis).

Successor states share every process state, channel record and timer
entry their step did not touch, and inherit the digests of what they
share.  Sharing is only sound if nothing shared is ever mutated, so:

* (a) after a BFS over a registry app's model, every visited state's
  cached fingerprint equals the fingerprint of the same fields rebuilt
  into a fresh :class:`SystemState` (no inherited digests);
* (b) applying an action never changes its input state, even when the
  handler mutates nested lists of its state, of the delivered payload
  and of a timer payload, and sends or arms payloads aliasing its state;
* (c) the fast-path ``_normalise`` produces exactly the canonical form
  of the original ABC-based one.
"""

from __future__ import annotations

import pickle
from collections import OrderedDict
from types import MappingProxyType
from typing import Any, List, Mapping

from hypothesis import given, settings, strategies as st

from repro.api import Cluster, ClusterConfig
from repro.api import apps as registry
from repro.dsim.process import Process, handler, timer_handler
from repro.investigator.explorer import Explorer, SearchOrder
from repro.investigator.guarded import GuardedModel
from repro.investigator.models import DistributedSystemModel, SystemState
from repro.investigator.state import _normalise


def from_scratch(state: SystemState) -> SystemState:
    """The same fields in a fresh state: every digest is recomputed."""
    return SystemState(
        process_states=state.process_states,
        rng_cursors=state.rng_cursors,
        channels=state.channels,
        timers=state.timers,
        step=state.step,
    )


# ----------------------------------------------------------------------
# (a) cached fingerprints stay true after a whole BFS
# ----------------------------------------------------------------------
@settings(max_examples=12, deadline=None)
@given(
    app=st.sampled_from(registry.app_names()),
    seed=st.integers(0, 3),
    budget=st.integers(1, 60),
)
def test_every_visited_state_keeps_its_fingerprint(app, seed, budget):
    cluster = Cluster(ClusterConfig(seed=seed))
    spec = registry.build(cluster, app)
    adapter = DistributedSystemModel(
        {pid: cluster.factory_for(pid) for pid in cluster.pids},
        seed=seed,
        global_invariants={"default": spec.check()},
    )
    built = adapter.build_model()
    visited: List[SystemState] = []

    def recording_fingerprint(state: SystemState) -> str:
        visited.append(state)
        return state.fingerprint()

    model = GuardedModel(
        built.initial_state, built.actions, built.invariants, fingerprint_fn=recording_fingerprint
    )
    Explorer(
        model,
        SearchOrder.BFS,
        max_states=budget,
        max_depth=50,
        terminal_predicate=DistributedSystemModel.terminal_predicate,
    ).explore()
    assert visited
    for state in visited:
        assert from_scratch(state).fingerprint() == state.fingerprint()


# ----------------------------------------------------------------------
# (b) apply never changes its input
# ----------------------------------------------------------------------
class Mutator(Process):
    """Mutates everything it can reach in place and sends/arms aliases of its state."""

    def on_start(self):
        self.state["log"] = [[0]]
        self.state["inbox"] = []
        self.send(self.peers[0], "PUSH", self.state["log"])
        self.set_timer("tick", 1.0, self.state["log"])

    @handler("PUSH")
    def on_push(self, msg):
        msg.payload[0].append(len(msg.payload[0]))
        self.state["log"][0].append(msg.payload[0][-1])
        self.state["inbox"].append(msg.payload)
        if len(self.state["log"][0]) < 4:
            self.send(msg.src, "PUSH", self.state["log"])

    @timer_handler("tick")
    def on_tick(self, payload):
        payload[0].append(-1)
        self.state["log"].append(payload)
        if len(self.state["log"]) < 4:
            self.set_timer("tick", 1.0, self.state["log"])


@settings(max_examples=40, deadline=None)
@given(choices=st.lists(st.integers(0, 7), min_size=1, max_size=14))
def test_apply_never_changes_its_input(choices):
    model = DistributedSystemModel({"p0": Mutator, "p1": Mutator}).build_model()
    path = [model.initial_state]
    recorded = [from_scratch(model.initial_state).fingerprint()]
    for choice in choices:
        enabled = model.enabled_actions(path[-1])
        if not enabled:
            break
        (successor,) = enabled[choice % len(enabled)].apply(path[-1])
        assert [from_scratch(state).fingerprint() for state in path] == recorded
        path.append(successor)
        recorded.append(from_scratch(successor).fingerprint())
        assert successor.fingerprint() == recorded[-1]


# ----------------------------------------------------------------------
# (c) the fast-path _normalise is the original canonical form
# ----------------------------------------------------------------------
def original_normalise(value: Any) -> Any:
    """``repro.investigator.state._normalise`` before its exact-type fast paths."""
    if isinstance(value, Mapping):
        return tuple(sorted((key, original_normalise(sub)) for key, sub in value.items()))
    if isinstance(value, (set, frozenset)):
        return tuple(sorted((original_normalise(item) for item in value), key=repr))
    if isinstance(value, (list, tuple)):
        return tuple(original_normalise(item) for item in value)
    return value


scalars = (
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.sampled_from([0.0, -0.0, 1.0, 1.5])
    | st.text(max_size=3)
    | st.binary(max_size=2)
)


def _containers(children):
    dicts = st.dictionaries(st.text(max_size=3), children, max_size=4)
    return (
        st.lists(children, max_size=3)
        | st.lists(children, max_size=3).map(tuple)
        | dicts
        | dicts.map(lambda d: dict(reversed(list(d.items()))))
        | dicts.map(OrderedDict)
        | dicts.map(MappingProxyType)
        | st.sets(scalars, max_size=4)
        | st.frozensets(scalars, max_size=4)
    )


nested = st.recursive(scalars, _containers, max_leaves=16)


@settings(max_examples=300, deadline=None)
@given(value=nested)
def test_normalise_matches_the_original(value):
    assert pickle.dumps(_normalise(value)) == pickle.dumps(original_normalise(value))


@given(items=st.lists(nested, max_size=4), keys=st.lists(st.text(max_size=3), max_size=4, unique=True))
def test_normalise_equivalence_classes_are_unchanged(items, keys):
    # a list and a tuple normalise alike ...
    assert _normalise(list(items)) == _normalise(tuple(items))
    # ... and dict insertion order is ignored
    forward = dict(zip(keys, items))
    backward = dict(reversed(list(forward.items())))
    assert pickle.dumps(_normalise(forward)) == pickle.dumps(_normalise(backward))
