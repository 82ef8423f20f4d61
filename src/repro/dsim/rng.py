"""Seeded, per-process random number streams.

Randomness is one of the nondeterministic actions the Scroll has to
record (Section 3.1: "only nondeterministic actions ... and their outcome
need to be recorded").  To make recording and replay practical the
simulator gives every process its own deterministic stream derived from
the run seed and the process id, so that

* two runs with the same seed and fault plan produce identical Scrolls,
  and
* the Scroll can replace a stream with a *replayed* stream that returns
  the recorded outcomes instead of fresh draws.
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterable, List, Sequence, TypeVar

T = TypeVar("T")


def derive_seed(root_seed: int, *components: str) -> int:
    """Derive a child seed from a root seed and a path of string components.

    The derivation is stable across Python versions and platforms (it
    uses SHA-256 rather than ``hash``), which keeps simulation runs
    reproducible in tests and benchmarks.
    """
    digest = hashlib.sha256()
    digest.update(str(int(root_seed)).encode("utf-8"))
    for part in components:
        digest.update(b"/")
        digest.update(part.encode("utf-8"))
    return int.from_bytes(digest.digest()[:8], "big")


class DeterministicRNG:
    """A counted, rewindable random stream.

    Every draw method consumes exactly **one** value of the underlying
    generator and derives its result from it, so the stream position is
    fully described by the draw counter.  That makes checkpoints cheap
    (store one integer) and restores exact: rewinding to draw ``n`` and
    drawing again yields the same values regardless of which draw methods
    were used, which the Time Machine and the model checker rely on.
    """

    __slots__ = ("_seed", "_rng", "_draws")

    def __init__(self, seed: int) -> None:
        self._seed = int(seed)
        self._rng = random.Random(self._seed)
        self._draws = 0

    @property
    def seed(self) -> int:
        return self._seed

    @property
    def draws(self) -> int:
        """Number of values drawn so far (the replay cursor)."""
        return self._draws

    def _unit(self) -> float:
        """Consume one underlying value; every public draw goes through here."""
        self._draws += 1
        return self._rng.random()

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return self._unit()

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high] inclusive."""
        if high < low:
            raise ValueError("randint bounds must satisfy low <= high")
        span = high - low + 1
        return low + min(int(self._unit() * span), span - 1)

    def choice(self, items: Sequence[T]) -> T:
        """Uniformly pick one element of a non-empty sequence."""
        if not items:
            raise ValueError("cannot choose from an empty sequence")
        index = min(int(self._unit() * len(items)), len(items) - 1)
        return items[index]

    def shuffle(self, items: List[T]) -> List[T]:
        """Return a shuffled copy of ``items`` (the input is not mutated)."""
        derived = random.Random(int(self._unit() * 2**63))
        copy = list(items)
        derived.shuffle(copy)
        return copy

    def sample(self, items: Sequence[T], k: int) -> List[T]:
        """Sample ``k`` distinct elements."""
        derived = random.Random(int(self._unit() * 2**63))
        return derived.sample(list(items), k)

    def expovariate(self, rate: float) -> float:
        """Exponentially distributed value with the given rate (used for delays)."""
        if rate <= 0:
            raise ValueError("rate must be positive")
        import math

        u = self._unit()
        return -math.log(1.0 - u) / rate

    def state_marker(self) -> int:
        """Return the replay cursor, suitable for inclusion in a checkpoint."""
        return self._draws

    def restore(self, draws: int) -> None:
        """Rewind/fast-forward the stream so exactly ``draws`` values have been drawn."""
        if draws < 0:
            raise ValueError("draw count cannot be negative")
        self._rng = random.Random(self._seed)
        self._draws = 0
        for _ in range(draws):
            self._rng.random()
            self._draws += 1

    def fork(self, label: str) -> "DeterministicRNG":
        """Create an independent child stream labelled ``label``."""
        return DeterministicRNG(derive_seed(self._seed, "fork", label))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DeterministicRNG(seed={self._seed}, draws={self._draws})"


def spawn_streams(root_seed: int, labels: Iterable[str]) -> dict:
    """Create one independent stream per label from a single root seed."""
    return {label: DeterministicRNG(derive_seed(root_seed, label)) for label in labels}
