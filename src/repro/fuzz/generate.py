"""Seeded fault-schedule generation against a learned app vocabulary.

The generator never guesses blindly: it first runs one fault-free
**probe** of the target application (a deterministic simulator run) and
learns the *vocabulary* faults can be phrased in — which pids exist,
which message kinds actually travel, how long a quiescent run lasts,
and which state paths hold numeric values a :class:`~repro.dsim.failure.
Corrupt` could mutate.  Every sampled fault is therefore valid by
construction (crashes name real pids, drops match real message kinds,
corruptions address real state), which keeps the fuzzer's executions
spent on *interleavings* instead of on rejected schedules.

Determinism contract: ``generate_scenario(app, seed)`` is a pure
function of ``(app, params, seed, knobs)`` — the probe run is
deterministic, sampling uses a private :class:`random.Random`, and all
sampled floats live on a coarse grid — so the same seed yields
byte-identical canonical scenario JSON in any process.  The property
suite enforces this across a process pool.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.dsim.failure import (
    Corrupt,
    Crash,
    Delay,
    Drop,
    Duplicate,
    FaultSchedule,
    Partition,
)
from repro.api.scenario import Scenario
from repro.errors import ScenarioError
from repro.scroll.entry import ActionKind

#: sampling grid for fault times (multiples are exact binary floats, so
#: canonical JSON stays byte-stable)
TIME_GRID = 0.5

#: relative weights of the sampled fault kinds
KIND_WEIGHTS = (
    ("crash", 20),
    ("drop", 18),
    ("duplicate", 18),
    ("delay", 14),
    ("partition", 12),
    ("corruption", 18),
)


@dataclass(frozen=True)
class Vocabulary:
    """What faults can talk about for one (app, params) target.

    Attributes
    ----------
    app / params:
        The registry target the vocabulary was learned from.
    pids:
        Every process the probe run built, sorted.
    message_kinds:
        Every message kind the probe observed on the wire, sorted.
    horizon:
        The probe run's quiescent final time — fault times are sampled
        inside it so scheduled faults actually fire.
    int_paths:
        ``(pid, path)`` pairs addressing integer-valued state entries
        (booleans excluded), the targets :class:`Corrupt` ops can hit.
    """

    app: str
    params: Tuple[Tuple[str, Any], ...]
    pids: Tuple[str, ...]
    message_kinds: Tuple[str, ...]
    horizon: float
    int_paths: Tuple[Tuple[str, Tuple[str, ...]], ...]


def _int_paths(
    state: Mapping[str, Any], prefix: Tuple[str, ...] = ()
) -> List[Tuple[str, ...]]:
    """Paths to plain-int leaves of a (possibly nested) state dict."""
    paths: List[Tuple[str, ...]] = []
    for key in sorted(state, key=str):
        if not isinstance(key, str):
            continue  # non-string keys do not survive JSON round-trips
        value = state[key]
        if isinstance(value, bool):
            continue
        if isinstance(value, int):
            paths.append(prefix + (key,))
        elif isinstance(value, dict):
            paths.extend(_int_paths(value, prefix + (key,)))
    return paths


_VOCABULARY_CACHE: Dict[Tuple[str, str, int], Vocabulary] = {}


def vocabulary_for(
    app: str,
    params: Optional[Mapping[str, Any]] = None,
    *,
    probe_seed: int = 7,
    max_events: int = 4000,
) -> Vocabulary:
    """Learn the fault vocabulary of ``app`` from one fault-free probe run.

    The probe is a deterministic simulator run, so the vocabulary — and
    with it every generated schedule — is a pure function of
    ``(app, params, probe_seed)``.  Results are cached per target.
    """
    from repro.api.experiment import execute

    params = dict(params or {})
    cache_key = (app, repr(sorted(params.items())), probe_seed)
    cached = _VOCABULARY_CACHE.get(cache_key)
    if cached is not None:
        return cached
    probe = execute(
        Scenario(
            app=app,
            name=f"fuzz-probe-{app}",
            params=params,
            seed=probe_seed,
            max_events=max_events,
        )
    )
    scroll = probe.fixd.scroll
    kinds = sorted(
        {
            entry.detail["message"]["kind"]
            for entry in scroll.of_kind(ActionKind.SEND)
            if "message" in entry.detail
        }
    )
    # Corruption targets must hold an int at *any* injection time, not
    # just at quiescence — lazily created dict entries (a client's
    # observed_versions) or late-bound values (leader: None -> 3) would
    # make an early "add" op blow up the run.  A second, early-cut probe
    # bounds the window: keep only paths that are int leaves both right
    # after startup and at quiescence.
    early = execute(
        Scenario(
            app=app,
            name=f"fuzz-probe-early-{app}",
            params=params,
            seed=probe_seed,
            max_events=max(1, min(60, max_events)),
        )
    )
    early_paths = {
        (pid, path)
        for pid, state in early.outcome.final_states.items()
        for path in _int_paths(state)
    }
    final_states = probe.outcome.final_states
    int_paths: List[Tuple[str, Tuple[str, ...]]] = []
    for pid in sorted(final_states):
        for path in _int_paths(final_states[pid]):
            if (pid, path) in early_paths:
                int_paths.append((pid, path))
    vocabulary = Vocabulary(
        app=app,
        params=tuple(sorted(params.items())),
        pids=tuple(sorted(final_states)),
        message_kinds=tuple(kinds),
        horizon=max(2.0, float(probe.outcome.final_time)),
        int_paths=tuple(int_paths),
    )
    _VOCABULARY_CACHE[cache_key] = vocabulary
    return vocabulary


def _grid_time(rng: random.Random, horizon: float, *, lowest: float = TIME_GRID) -> float:
    """A sampled time on the grid, strictly positive and inside the horizon."""
    steps = max(1, int(horizon / TIME_GRID))
    return max(lowest, TIME_GRID * rng.randint(1, steps))


def _sample_match(rng: random.Random, values: Tuple[str, ...]) -> Optional[str]:
    """Mostly-specific match predicate: None (match all) one time in three."""
    if not values or rng.random() < 1 / 3:
        return None
    return rng.choice(values)


def _sample_fault(rng: random.Random, vocabulary: Vocabulary):
    """One fault spec sampled from the vocabulary, or None when the kind
    cannot be phrased against this target (e.g. a partition of one pid)."""
    kinds = [kind for kind, _ in KIND_WEIGHTS]
    weights = [weight for _, weight in KIND_WEIGHTS]
    kind = rng.choices(kinds, weights=weights, k=1)[0]
    horizon = vocabulary.horizon
    if kind == "crash":
        pid = rng.choice(vocabulary.pids)
        at = _grid_time(rng, horizon)
        if rng.random() < 0.6:
            recover_at = at + _grid_time(rng, horizon / 2)
            return Crash(pid=pid, at=at, recover_at=recover_at)
        return Crash(pid=pid, at=at)
    if kind in ("drop", "duplicate", "delay"):
        spec_class = {"drop": Drop, "duplicate": Duplicate, "delay": Delay}[kind]
        kwargs: Dict[str, Any] = {
            "match_kind": _sample_match(rng, vocabulary.message_kinds),
            "match_src": _sample_match(rng, vocabulary.pids),
            "match_dst": _sample_match(rng, vocabulary.pids),
            "count": rng.choices([1, 2, 3, None], weights=[5, 3, 2, 1], k=1)[0],
            "after": rng.choice([0.0, _grid_time(rng, horizon)]),
        }
        if kind == "delay":
            kwargs["extra_delay"] = _grid_time(rng, 5.0)
        return spec_class(**kwargs)
    if kind == "partition":
        if len(vocabulary.pids) < 2:
            return None
        pids = list(vocabulary.pids)
        rng.shuffle(pids)
        split = rng.randint(1, len(pids) - 1)
        groups = (tuple(sorted(pids[:split])), tuple(sorted(pids[split:])))
        start = _grid_time(rng, horizon)
        return Partition(groups=groups, start=start, end=start + _grid_time(rng, horizon / 2))
    if kind == "corruption":
        if not vocabulary.int_paths:
            return None
        pid, path = rng.choice(vocabulary.int_paths)
        # only "set" ops: an "add" needs the leaf to hold a number at
        # injection time, which a *faulted* interleaving can prevent
        # (the probe only proves existence on the fault-free path)
        op = ("set", path, rng.choice([-1000, -5, -1, 0, 7, 999]))
        return Corrupt(
            pid=pid,
            at=_grid_time(rng, horizon),
            ops=(op,),
            description="fuzzed state corruption",
        )
    raise ScenarioError(f"unknown sampled fault kind {kind!r}")  # pragma: no cover


def generate_schedule(
    vocabulary: Vocabulary, seed: int, *, max_faults: int = 4
) -> FaultSchedule:
    """A non-empty fault schedule sampled deterministically from ``seed``."""
    if max_faults < 1:
        raise ScenarioError("generate_schedule needs max_faults >= 1")
    rng = random.Random(seed)
    target = rng.randint(1, max_faults)
    faults = []
    attempts = 0
    while len(faults) < target and attempts < target * 8:
        attempts += 1
        spec = _sample_fault(rng, vocabulary)
        if spec is not None:
            faults.append(spec)
    if not faults:
        # degenerate vocabulary (no pids would already have failed the
        # probe); fall back to the one always-phrasable fault
        faults.append(Crash(pid=vocabulary.pids[0], at=TIME_GRID))
    return FaultSchedule(faults=tuple(faults))


def generate_scenario(
    app: str,
    seed: int,
    params: Optional[Mapping[str, Any]] = None,
    *,
    vocabulary: Optional[Vocabulary] = None,
    max_faults: int = 4,
    max_events: int = 4000,
    check: str = "default",
    name: Optional[str] = None,
) -> Scenario:
    """One candidate scenario, a pure function of ``(app, params, seed)``.

    The run seed varies with the generator seed too, so the fuzzer
    explores both fault interleavings *and* workload nondeterminism.
    Every generated scenario round-trips byte-identically through
    ``Scenario.from_json(s.to_json())`` — all sampled attributes are
    JSON-basic values on coarse grids.
    """
    vocabulary = vocabulary or vocabulary_for(app, params)
    rng = random.Random(seed)
    run_seed = rng.randint(0, 2**20)
    return Scenario(
        app=app,
        name=name or f"fuzz-{app}-{seed:08d}",
        params=dict(params or {}),
        seed=run_seed,
        max_events=max_events,
        faults=generate_schedule(vocabulary, rng.randint(0, 2**30), max_faults=max_faults),
        check=check,
    )
