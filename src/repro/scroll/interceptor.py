"""Interception modes and replay-side substitutes for nondeterminism.

The paper proposes two concrete implementations of the Scroll with
different interception granularity: liblog (library-level: record libc
interactions) and Flashback (syscall-level: record everything that
crosses the kernel boundary, language agnostic).  In this reproduction
the distinction maps onto *which* simulator notifications are recorded:

* :attr:`InterceptionMode.LIBRARY` — message sends/receives, drops,
  duplications, timer firings and the process's random draws (the
  application-visible library surface: everything libc would mediate);
* :attr:`InterceptionMode.SYSCALL` — everything in LIBRARY plus clock
  reads and checkpoint markers (the full "kernel" surface of the simulator);
* :attr:`InterceptionMode.BLACKBOX` — only interactions with *remote*
  components (receives and sends), treating the remote side as a black
  box defined by the interaction, as suggested in Section 2.2.

:class:`ReplayRandomStream` is the replay-time substitute for a process's
random stream: instead of drawing fresh values it returns the recorded
outcomes, raising :class:`~repro.errors.ReplayDivergenceError` if the
replayed code asks for more (or differently typed) randomness than was
recorded.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import ReplayDivergenceError
from repro.scroll.entry import ActionKind


class InterceptionMode(Enum):
    """Which class of actions the recorder intercepts."""

    LIBRARY = "library"    # liblog-style
    SYSCALL = "syscall"    # Flashback-style
    BLACKBOX = "blackbox"  # record only remote interactions


@dataclass(frozen=True)
class RecordingPolicy:
    """Maps an interception mode to the set of action kinds recorded.

    ``record_payloads`` controls whether full message payloads are
    stored (needed for replay) or only metadata (cheaper, enough for
    tracing).

    ``hot_window`` and ``spill_dir`` configure *where* the recording
    lives: when ``hot_window`` is set, the recorder builds a tiered
    :class:`~repro.scroll.scroll.Scroll` that keeps at most that many
    entries in memory and evicts sealed segments to a private store in
    ``spill_dir`` (a temporary directory when unset); a durable flush
    moves them into the run's store.  ``None`` keeps the whole log in
    memory — the right choice for short runs and unit tests.
    """

    mode: InterceptionMode = InterceptionMode.SYSCALL
    record_payloads: bool = True
    hot_window: Optional[int] = None
    spill_dir: Optional[str] = None

    def recorded_kinds(self) -> frozenset:
        """The action kinds this policy records."""
        return _KINDS_BY_MODE[self.mode]

    def should_record(self, kind: ActionKind) -> bool:
        """True when entries of ``kind`` are recorded under this policy.

        Called once per intercepted action, so it must not rebuild the
        kind set; the per-mode sets are precomputed at import time.
        """
        return kind in _KINDS_BY_MODE[self.mode]


_LIBRARY_KINDS = frozenset(
    {
        ActionKind.SEND,
        ActionKind.RECEIVE,
        ActionKind.DROP,
        ActionKind.DUPLICATE,
        ActionKind.RANDOM,
        ActionKind.TIMER,
        ActionKind.VIOLATION,
        ActionKind.CRASH,
        ActionKind.RECOVER,
        ActionKind.CORRUPTION,
    }
)

#: Recorded kind set per interception mode, computed once.
_KINDS_BY_MODE = {
    InterceptionMode.BLACKBOX: frozenset({ActionKind.SEND, ActionKind.RECEIVE}),
    InterceptionMode.LIBRARY: _LIBRARY_KINDS,
    InterceptionMode.SYSCALL: _LIBRARY_KINDS
    | frozenset({ActionKind.CLOCK_READ, ActionKind.CHECKPOINT}),
}


class ReplayRandomStream:
    """A drop-in replacement for :class:`~repro.dsim.rng.DeterministicRNG` during replay.

    The stream returns exactly the recorded outcomes, in order.  Any
    mismatch — running out of recorded values or the replayed code using
    a different draw method — is a divergence, the same condition liblog
    detects when replay leaves the recorded path.
    """

    def __init__(self, pid: str, outcomes: Sequence[Dict[str, Any]]) -> None:
        self.pid = pid
        self._outcomes: List[Dict[str, Any]] = list(outcomes)
        self._cursor = 0

    @property
    def draws(self) -> int:
        """Number of values handed out so far (mirrors DeterministicRNG.draws)."""
        return self._cursor

    @property
    def remaining(self) -> int:
        return len(self._outcomes) - self._cursor

    def _next(self, method: str) -> Any:
        if self._cursor >= len(self._outcomes):
            raise ReplayDivergenceError(self.pid, "<end of recorded randomness>", method)
        outcome = self._outcomes[self._cursor]
        if outcome.get("method") != method:
            raise ReplayDivergenceError(self.pid, outcome.get("method"), method)
        self._cursor += 1
        return outcome.get("value")

    # The subset of the DeterministicRNG surface that application code uses.
    def random(self) -> float:
        return self._next("random")

    def randint(self, low: int, high: int) -> int:
        return self._next("randint")

    def choice(self, items: Sequence[Any]) -> Any:
        return self._next("choice")

    def shuffle(self, items: List[Any]) -> List[Any]:
        return self._next("shuffle")

    def sample(self, items: Sequence[Any], k: int) -> List[Any]:
        return self._next("sample")

    def expovariate(self, rate: float) -> float:
        return self._next("expovariate")

    def state_marker(self) -> int:
        return self._cursor

    def restore(self, draws: int) -> None:
        """Rewind the replay cursor (used when re-exploring from a checkpoint)."""
        if draws < 0 or draws > len(self._outcomes):
            raise ReplayDivergenceError(self.pid, f"cursor in [0,{len(self._outcomes)}]", draws)
        self._cursor = draws


class ReplayClock:
    """Replay-time substitute for clock reads: returns the recorded values."""

    def __init__(self, pid: str, readings: Sequence[float], fallback: float = 0.0) -> None:
        self.pid = pid
        self._readings = list(readings)
        self._cursor = 0
        self._fallback = fallback

    def read(self) -> float:
        """Return the next recorded clock value (or the last known one).

        Only *application* clock reads (:meth:`Process.now`) consume the
        recorded stream; runtime bookkeeping reads :meth:`ambient`.
        """
        if self._cursor < len(self._readings):
            value = self._readings[self._cursor]
            self._cursor += 1
            self._fallback = value
            return value
        return self._fallback

    def ambient(self) -> float:
        """The current replay time, without consuming a recorded reading.

        Used as the context's ``now_fn`` during replay so internal
        timestamping (e.g. ``send_time`` on outgoing messages) does not
        steal recorded clock outcomes from the application.
        """
        return self._fallback

    def advance_fallback(self, value: float) -> None:
        """Update the value returned after recorded readings are exhausted."""
        self._fallback = max(self._fallback, value)
