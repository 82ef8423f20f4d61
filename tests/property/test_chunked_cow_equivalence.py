"""Property: the delta-chunked COW store is observationally identical to the
whole-value oracle.

A ``CowPageStore`` with chunking enabled must restore every checkpoint of a
random mutate/capture program byte-identically to a ``chunk_threshold=None``
store (the pre-chunking capture path) fed the same program — including dict
insertion order, which is part of state identity under deterministic replay.
"""

from __future__ import annotations

import copy
import pickle

from hypothesis import given, settings, strategies as st

from repro.timemachine.cow import CowPageStore

# Scalar element pools: small enough to collide across steps (exercising
# chunk reuse), typed to cover the trusted-scalar comparisons.
element_values = st.one_of(
    st.integers(-50, 50),
    st.text(alphabet="abcdef", max_size=6),
    st.sampled_from([0.0, -0.0, 1.5, None, True, False]),
)

dict_keys = st.text(alphabet="klmnop", min_size=1, max_size=5)

# One mutation step against a state of the fixed shape below.
mutations = st.one_of(
    st.tuples(st.just("list_set"), st.integers(0, 10_000), element_values),
    st.tuples(st.just("list_append"), st.just(0), element_values),
    st.tuples(st.just("list_pop"), st.just(0), st.none()),
    st.tuples(st.just("dict_set"), dict_keys, element_values),
    st.tuples(st.just("dict_del"), dict_keys, st.none()),
    st.tuples(st.just("set_add"), st.just(0), element_values),
    st.tuples(st.just("set_discard"), st.just(0), element_values),
    st.tuples(st.just("scalar"), st.just(0), element_values),
)


def initial_state(n: int) -> dict:
    return {
        "items": [f"item-{i:03d}" for i in range(n)],
        "table": {f"k{i:03d}": i for i in range(n)},
        "members": {f"m{i:03d}" for i in range(n)},
        "epoch": 0,
    }


def apply_mutation(state: dict, mutation) -> None:
    op, arg, value = mutation
    if op == "list_set" and state["items"]:
        state["items"][arg % len(state["items"])] = value
    elif op == "list_append":
        state["items"].append(value)
    elif op == "list_pop" and state["items"]:
        state["items"].pop()
    elif op == "dict_set":
        state["table"][arg] = value
    elif op == "dict_del":
        state["table"].pop(arg, None)
    elif op == "set_add":
        state["members"].add(value)
    elif op == "set_discard" and state["members"]:
        state["members"].discard(next(iter(state["members"])))
    elif op == "scalar":
        state["epoch"] = value


def canonical(value):
    """Replace sets by sorted tuples so the pickle byte-compare ignores set
    iteration order (insertion-history-dependent, not part of state identity)
    while still catching 0.0/-0.0 and bool/int drift everywhere else.

    Strings are rebuilt as fresh objects: pickle memoizes repeated *objects*,
    and whether two equal strings are one interned object or two is an
    accident of how the program constructed them (the chunked store splits
    aliased elements across separately-pickled chunks), not state identity.
    """
    if isinstance(value, dict):
        return {canonical(k): canonical(v) for k, v in value.items()}
    if isinstance(value, list):
        return [canonical(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(((repr(v), canonical(v)) for v in value)))
    if isinstance(value, str):
        return str(value.encode("utf-8"), "utf-8")
    return value


def run_program(store: CowPageStore, size: int, program) -> list:
    """Apply the program, capturing after every step; return restored states."""
    state = initial_state(size)
    checkpoints = [store.capture("p", state, 0.0)]
    for step, mutation in enumerate(program, start=1):
        apply_mutation(state, mutation)
        checkpoints.append(store.capture("p", state, float(step)))
    return [store.restore(checkpoint) for checkpoint in checkpoints]


@settings(max_examples=40, deadline=None)
@given(
    size=st.integers(0, 40),
    program=st.lists(mutations, max_size=12),
)
def test_chunked_restores_match_whole_value_oracle(size, program):
    chunked = CowPageStore(page_size=128, chunk_threshold=8, chunk_elems=4)
    oracle = CowPageStore(page_size=128, chunk_threshold=None)
    got = run_program(chunked, size, program)
    expected = run_program(oracle, size, program)
    assert len(got) == len(expected)
    for restored, reference in zip(got, expected):
        assert restored == reference
        # dict insertion order is part of state identity under replay
        assert list(restored["table"]) == list(reference["table"])
        # byte-identical, not merely equal (catches 0.0/-0.0, bool/int drift)
        assert pickle.dumps(
            canonical(restored), protocol=pickle.HIGHEST_PROTOCOL
        ) == pickle.dumps(canonical(reference), protocol=pickle.HIGHEST_PROTOCOL)


@settings(max_examples=25, deadline=None)
@given(
    size=st.integers(0, 40),
    program=st.lists(mutations, max_size=10),
)
def test_capture_does_not_alias_live_state(size, program):
    """Restored snapshots are frozen: later mutations never leak into them."""
    store = CowPageStore(page_size=128, chunk_threshold=8, chunk_elems=4)
    state = initial_state(size)
    store.capture("p", state, 0.0)
    frozen = copy.deepcopy(state)
    checkpoint_before = store.capture("p", state, 1.0)
    for mutation in program:
        apply_mutation(state, mutation)
    store.capture("p", state, 2.0)
    assert store.restore(checkpoint_before) == frozen


@settings(max_examples=25, deadline=None)
@given(
    size=st.integers(8, 40),
    program=st.lists(mutations, min_size=1, max_size=10),
)
def test_gc_to_newest_checkpoint_keeps_it_restorable(size, program):
    store = CowPageStore(page_size=128, chunk_threshold=8, chunk_elems=4)
    state = initial_state(size)
    older = [store.capture("p", state, 0.0)]
    for step, mutation in enumerate(program, start=1):
        apply_mutation(state, mutation)
        older.append(store.capture("p", state, float(step)))
    last = older.pop()
    for checkpoint in older:
        store.release(checkpoint)
    restored = store.restore(last)
    assert restored == state
    assert list(restored["table"]) == list(state["table"])
