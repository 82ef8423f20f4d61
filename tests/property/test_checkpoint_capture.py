"""One checkpoint, one copy: COW-backed checkpoints against a deep-copy oracle.

The Time Machine keeps no deep copy of a checkpointed state; the
checkpoint references its copy-on-write capture and materialises the
state on demand.  These properties hold that design to the behaviour of
the deep copy it replaced, over every registry application:

* every checkpoint materialises exactly the state ``copy.deepcopy``
  would have taken at capture time (values and key order), on every
  read, and each read is an independent object graph — including
  states carrying a container above the COW chunk threshold, which no
  registry app grows on its own;
* rolling back to the latest recovery line after any run prefix
  installs exactly the captured states, and rolling back again after
  the restored states were mutated installs them again;
* rolling back anywhere, replaying each process forward through the
  Scroll and continuing ends in exactly the states of a twin run that
  never rolled back;
* a commit keeps the line restorable while every checkpoint it makes
  unreachable leaves the store, with no page left behind.
"""

from __future__ import annotations

import copy

from hypothesis import given, settings, strategies as st

from repro.api import apps as registry
from repro.core.fixd import FixD, FixDConfig
from repro.dsim.cluster import Cluster, ClusterConfig
from repro.dsim.scheduler import EventKind
from repro.scroll.replayer import Replayer
from repro.timemachine.cow import DEFAULT_CHUNK_THRESHOLD
from repro.timemachine.time_machine import TimeMachine

from tests.conftest import assert_pages_match_log

APPS = sorted(registry.app_names())


def _grow_ballast(state, kind: str, size: int, step: int) -> None:
    """Give ``state`` a chunkable container and dirty one element of it per call."""
    ballast = state.get("ballast")
    if ballast is None:
        if kind == "dict":
            ballast = dict.fromkeys(range(size), 0)
        elif kind == "list":
            ballast = [0] * size
        else:
            ballast = set(range(size))
        state["ballast"] = ballast
    if kind == "set":
        ballast.add(size + step)
    else:
        ballast[step % size] = step


def _run_with_oracle(app: str, seed: int, events: int, ballast=None):
    """Run ``app`` under a Time Machine, deep-copying every state it captures.

    ``ballast`` is an optional ``(kind, size)``: each state then carries a
    container of that kind and size, dirtied a little before each capture.
    """
    cluster = Cluster(ClusterConfig(seed=seed, halt_on_violation=False))
    registry.build(cluster, app)
    time_machine = TimeMachine()
    time_machine.attach(cluster)
    oracle = []
    capture = time_machine.store.capture

    def capture_with_oracle(process, time):
        if ballast is not None:
            _grow_ballast(process.state, *ballast, step=len(oracle))
        checkpoint = capture(process, time)
        oracle.append((checkpoint, copy.deepcopy(process.state)))
        return checkpoint

    time_machine.store.capture = capture_with_oracle
    cluster.run(max_events=events)
    return cluster, time_machine, oracle


def _same(restored, expected) -> bool:
    return restored == expected and list(restored) == list(expected)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(APPS),
    st.integers(0, 2**16),
    st.integers(1, 120),
    st.none()
    | st.tuples(
        st.sampled_from(["dict", "list", "set"]),
        st.integers(DEFAULT_CHUNK_THRESHOLD, 3 * DEFAULT_CHUNK_THRESHOLD),
    ),
)
def test_restore_of_capture_equals_deepcopy(app, seed, events, ballast):
    _cluster, time_machine, oracle = _run_with_oracle(app, seed, events, ballast)
    assert oracle, "every registry app checkpoints at run start"
    for checkpoint, expected in oracle:
        assert checkpoint.cow is not None
        if ballast is not None:
            assert checkpoint.cow.entries["ballast"].kind == ballast[0]  # captured chunked
        first = checkpoint.state
        assert _same(first, expected)
        first.clear()  # a read is a private copy: the next one is untouched
        assert _same(checkpoint.fresh_state(), expected)
    # the page store holds exactly what the log references
    assert_pages_match_log(time_machine.store)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(APPS), st.integers(0, 2**16), st.integers(1, 120))
def test_rollback_anywhere_installs_the_captured_states(app, seed, events):
    cluster, time_machine, oracle = _run_with_oracle(app, seed, events)
    expected = {id(checkpoint): state for checkpoint, state in oracle}
    line = time_machine.latest_recovery_line()
    for _attempt in range(2):
        time_machine.rollback_to(line)
        for pid, checkpoint in line.checkpoints.items():
            process = cluster.process(pid)
            assert _same(process.state, expected[id(checkpoint)])
            assert process.vector_timestamp == checkpoint.vt
            assert process.ctx.rng.draws == checkpoint.rng_draws
            process.state["__scribbled__"] = True  # must not leak into the checkpoint
    cluster.resume()
    cluster.run(max_events=20)  # the restored system runs on


def _fixd_cluster(app: str, seed: int):
    cluster = Cluster(ClusterConfig(seed=seed, halt_on_violation=False))
    registry.build(cluster, app)
    return cluster, FixD(FixDConfig(investigate_on_fault=False)).attach(cluster)


def _final(cluster):
    return {
        pid: (cluster.process(pid).state, cluster.process(pid).vector_timestamp)
        for pid in cluster.pids
    }


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(APPS), st.integers(0, 2**16), st.integers(1, 120), st.integers(0, 80)
)
def test_rollback_anywhere_then_continue_equals_the_twin(app, seed, prefix, rest):
    twin, _ = _fixd_cluster(app, seed)
    twin.run(max_events=prefix)
    twin.resume()
    twin.run(max_events=rest)

    cluster, fixd = _fixd_cluster(app, seed)
    cluster.run(max_events=prefix)
    # the rollback cancels every in-flight delivery and timer; keep them in
    # execution order, since same-time events run in the order they were queued
    in_flight = [
        event
        for event in cluster.scheduler.pending()
        if event.kind in (EventKind.DELIVER, EventKind.TIMER)
    ]
    line = fixd.time_machine.latest_recovery_line()
    fixd.time_machine.rollback_to(line)
    replayer = Replayer(fixd.scroll, {}, strict=True)
    for pid, checkpoint in sorted(line.checkpoints.items()):
        genesis = checkpoint.time == 0.0 and checkpoint.rng_draws == 0 and (
            checkpoint.sent_count == checkpoint.received_count == 0
        )
        replay = replayer.replay_forward(
            pid,
            cluster.process(pid),
            from_position=checkpoint.extra["scroll_position"],
            start_time=checkpoint.time,
            rng_draws_base=checkpoint.rng_draws,
            run_on_start=genesis,
        )
        assert not replay.diverged, replay.divergence_detail
    for event in in_flight:
        if event.kind is EventKind.DELIVER:
            cluster.backend.inject_delivery(event.payload, event.time)
        else:
            name, payload = event.payload
            cluster.backend.inject_timer(event.target, name, event.time, payload)
    cluster.resume()
    cluster.run(max_events=rest)
    assert _final(cluster) == _final(twin)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(APPS), st.integers(0, 2**16), st.integers(1, 120))
def test_commit_releases_exactly_what_it_makes_unreachable(app, seed, events):
    _cluster, time_machine, oracle = _run_with_oracle(app, seed, events)
    expected = {id(checkpoint): state for checkpoint, state in oracle}
    store = time_machine.store
    line = time_machine.latest_recovery_line()
    time_machine.rollback_manager.commit(line)
    for pid, member in line.checkpoints.items():
        log = store.log_for(pid).all()
        assert log[0] is member  # everything older is gone
        assert _same(member.state, expected[id(member)])
    assert_pages_match_log(store)
    live = {digest for pid in store.pids() for c in store.log_for(pid) for digest in c.cow.page_hashes}
    assert store.cow.stored_pages() == len(live)  # no page outlives its last checkpoint


def test_object_sharing_survives_a_checkpoint_only_at_the_top_level():
    """The one way a checkpoint departs from the deep copy it replaced.

    Each top-level key is captured on its own.  Two keys bound to one
    object are detected and captured together, so the sharing survives;
    an object shared deeper down restores as two equal copies, where
    the deep copy kept one (the limit the README states).
    """
    cluster = Cluster(ClusterConfig(seed=1, halt_on_violation=False))
    registry.build(cluster, APPS[0])
    time_machine = TimeMachine()
    time_machine.attach(cluster)
    cluster.start()
    process = cluster.process(cluster.pids[0])
    shared, nested = [1, 2], {"n": 3}

    process.state = {"a": shared, "b": shared, "c": 0}
    checkpoint = time_machine.store.capture(process, cluster.now)
    oracle = copy.deepcopy(process.state)
    for restored in (checkpoint.state, checkpoint.fresh_state()):
        assert _same(restored, oracle)
        assert restored["a"] is restored["b"] and oracle["a"] is oracle["b"]

    process.state = {"a": {"x": nested}, "b": [nested], "c": 0}
    checkpoint = time_machine.store.capture(process, cluster.now)
    oracle = copy.deepcopy(process.state)
    assert oracle["a"]["x"] is oracle["b"][0]
    for restored in (checkpoint.state, checkpoint.fresh_state()):
        assert _same(restored, oracle)
        assert restored["a"]["x"] is not restored["b"][0]  # split into copies
