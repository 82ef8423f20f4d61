"""Property tests for the facade's two serialization promises.

1. **Canonical round trip** — any scenario built from the declarative
   vocabulary survives ``to_json`` / ``from_json`` *byte-identically*
   (the artefact you attach to a bug report is exactly the artefact a
   re-serialization produces).
2. **Replayable artefacts** — running the *same serialized scenario*
   twice on the simulator backend produces identical
   :meth:`Outcome.projection` records: the JSON text alone pins the run.
3. **Loud on junk** — a canonical dict with a key dropped, a value
   swapped for a wrong type or a number pushed out of range either
   loads into a scenario that round-trips byte-stably or raises
   ``ScenarioError`` — never a bare ``TypeError``/``ValueError``.

The properties are exercised over randomly generated scenarios and
fault schedules (seeded ``random.Random`` programs, in the style of the
other property suites in this directory).
"""

from __future__ import annotations

import random

import pytest

from repro.api import (
    Corrupt,
    Crash,
    Delay,
    Drop,
    Duplicate,
    FaultSchedule,
    Partition,
    Scenario,
    ScenarioError,
    run_scenario,
)

PIDS = ["node0", "node1", "node2", "replica0", "replica1", "worker0", "branch1"]
KINDS = ["TOKEN", "REPLICATE", "TRANSFER", "COUNT", "ELECTION", None]
APPS = ["kvstore", "bank", "token_ring", "leader_election", "two_phase_commit", "wordcount"]


def random_spec(rng: random.Random):
    choice = rng.randrange(6)
    if choice == 0:
        at = round(rng.uniform(0.5, 10.0), 3)
        recover = rng.choice([None, round(at + rng.uniform(0.5, 5.0), 3)])
        return Crash(
            pid=rng.choice(PIDS),
            at=at,
            recover_at=recover,
            recover_from_checkpoint=rng.random() < 0.5,
        )
    if choice == 1:
        return Drop(
            match_kind=rng.choice(KINDS),
            match_src=rng.choice(PIDS + [None]),
            count=rng.choice([None, 1, 2, 5]),
            after=round(rng.uniform(0.0, 3.0), 3),
        )
    if choice == 2:
        return Duplicate(match_kind=rng.choice(KINDS), count=rng.choice([1, 3]))
    if choice == 3:
        return Delay(
            match_kind=rng.choice(KINDS),
            count=rng.choice([None, 1, 2]),
            extra_delay=round(rng.uniform(0.1, 5.0), 3),
        )
    if choice == 4:
        members = rng.sample(PIDS, k=4)
        start = round(rng.uniform(0.0, 5.0), 3)
        return Partition(
            groups=(tuple(members[:2]), tuple(members[2:])),
            start=start,
            end=round(start + rng.uniform(0.5, 5.0), 3),
        )
    ops = []
    for _ in range(rng.randrange(1, 4)):
        op = rng.choice(["set", "add", "append"])
        path = tuple(rng.sample(["counter", "store", "flags", "log"], k=rng.randrange(1, 3)))
        value = rng.choice([0, -5, 17, "corrupt", True])
        if op == "add":
            value = rng.randrange(-10, 10)
        ops.append((op, path, value))
    return Corrupt(
        pid=rng.choice(PIDS),
        at=round(rng.uniform(0.5, 8.0), 3),
        ops=tuple(ops),
        description=rng.choice(["bitflip", "rogue write", "state corruption"]),
    )


def random_schedule(rng: random.Random) -> FaultSchedule:
    return FaultSchedule.of(*(random_spec(rng) for _ in range(rng.randrange(0, 4))))


def random_scenario(rng: random.Random) -> Scenario:
    backend = "sim" if rng.random() < 0.8 else "mp"
    return Scenario(
        app=rng.choice(APPS),
        name=f"prop-{rng.randrange(10**9)}",
        params=rng.choice([{}, {"replicas": 2}, {"nodes": 3, "max_rounds": 4}]),
        backend=backend,
        seed=rng.randrange(1000),
        until=round(rng.uniform(10.0, 500.0), 3) if backend == "mp" or rng.random() < 0.3 else None,
        max_events=rng.choice([None, 1000, 4000]),
        faults=random_schedule(rng),
        check=rng.choice(["default", "conservation", "single-token"]),
        expect_violation=rng.random() < 0.3,
        recovering=tuple(rng.sample(PIDS, k=rng.randrange(0, 3))),
        hot_window=rng.choice([None, 16, 48]),
        investigate=rng.random() < 0.2,
        max_faults_handled=rng.randrange(1, 8),
        auto_commit_interval=rng.choice([None, 2.0, 5.5]),
        time_scale=rng.choice([0.01, 0.05]),
    )


@pytest.mark.parametrize("seed", range(20))
def test_random_scenarios_round_trip_byte_identical(seed):
    rng = random.Random(seed)
    for _ in range(15):
        scenario = random_scenario(rng)
        text = scenario.to_json()
        rebuilt = Scenario.from_json(text)
        assert rebuilt == scenario
        assert rebuilt.to_json().encode("utf-8") == text.encode("utf-8")
        # and a second hop stays fixed (serialization is a projection)
        assert Scenario.from_json(rebuilt.to_json()) == rebuilt


#: values no scenario field accepts everywhere: each field meets several wrong types
WRONG_TYPES = [None, True, 5, -3, 0, 1.5, "junk", [1], {"k": 1}, []]
OUT_OF_RANGE = [0, -1, -3, 0.0, -0.5, float("nan"), float("inf"), 10**12]


def mutate(payload: dict, rng: random.Random) -> dict:
    mutated = dict(payload)
    key = rng.choice(sorted(mutated))
    action = rng.randrange(3)
    if action == 0:
        del mutated[key]
    elif action == 1:
        mutated[key] = rng.choice(WRONG_TYPES)
    else:
        numeric = [k for k, v in sorted(mutated.items()) if isinstance(v, (int, float))]
        mutated[rng.choice(numeric)] = rng.choice(OUT_OF_RANGE)
    return mutated


@pytest.mark.parametrize("seed", range(20))
def test_mutated_scenario_dicts_load_cleanly_or_raise_scenario_error(seed):
    rng = random.Random(2000 + seed)
    rejected = 0
    for _ in range(40):
        payload = mutate(random_scenario(rng).to_dict(), rng)
        try:
            scenario = Scenario.from_dict(payload)
        except ScenarioError:
            rejected += 1
            continue
        text = scenario.to_json()
        assert Scenario.from_json(text).to_json() == text
    assert rejected  # the mutations do reach the validation


@pytest.mark.parametrize("seed", range(10))
def test_random_schedules_round_trip_through_dicts(seed):
    rng = random.Random(1000 + seed)
    for _ in range(20):
        schedule = random_schedule(rng)
        assert FaultSchedule.from_dicts(schedule.to_dicts()) == schedule


#: Deterministic-rerun scenarios: small, fast, covering benign faults,
#: provoked violations with rollback, multi-fault schedules, tiered
#: Scroll and the auto-commit path.
RERUN_SCENARIOS = [
    Scenario(
        app="token_ring",
        name="rerun-ring-drop",
        params={"nodes": 3, "max_rounds": 4},
        faults=FaultSchedule.of(Drop(match_kind="TOKEN")),
    ),
    Scenario(
        app="kvstore",
        name="rerun-kv-crash-partition",
        params={"replicas": 2, "clients": 1},
        seed=7,
        hot_window=48,
        faults=FaultSchedule.of(
            Partition(groups=(("replica0", "client0"), ("replica1",)), start=2.0, end=6.0),
            Crash(pid="replica1", at=3.0, recover_at=8.0),
        ),
        recovering=("replica1",),
    ),
    Scenario(
        app="wordcount",
        name="rerun-wc-duplicate-violation",
        params={"workers": 2, "chunks": 8},
        faults=FaultSchedule.of(Duplicate(match_kind="COUNTED")),
        expect_violation=True,
        hot_window=16,
        auto_commit_interval=2.0,
    ),
    Scenario(
        app="bank",
        name="rerun-bank-corruption",
        params={"branches": 3, "fixed": True},
        check="local",
        seed=13,
        faults=FaultSchedule.of(
            Corrupt(pid="branch1", at=3.5, ops=(("set", ("in_flight_debits",), -5),))
        ),
        expect_violation=True,
    ),
]


@pytest.mark.parametrize("scenario", RERUN_SCENARIOS, ids=lambda s: s.name)
def test_serialized_scenario_reruns_identically(scenario):
    """Two runs of one serialized scenario agree on the full projection."""
    text = scenario.to_json()
    first = run_scenario(Scenario.from_json(text))
    second = run_scenario(Scenario.from_json(text))
    assert first.projection() == second.projection()
    # and the run satisfied the expectations the artefact declares
    assert first.passed, first.failures
