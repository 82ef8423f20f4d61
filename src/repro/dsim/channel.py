"""Point-to-point channels with configurable fault behaviour.

A channel connects an ordered pair of processes.  Its behaviour —
latency, loss, duplication, reordering — is sampled from the *network's*
deterministic RNG stream, so channel faults are themselves reproducible
nondeterministic actions that the Scroll can record and the replayer can
re-impose.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Tuple

from repro.dsim.message import Message
from repro.dsim.rng import DeterministicRNG


class DeliveryOutcome(Enum):
    """What the channel decided to do with a message."""

    DELIVER = "deliver"
    DROP = "drop"
    DUPLICATE = "duplicate"


@dataclass
class ChannelConfig:
    """Behavioural parameters of a single channel.

    Attributes
    ----------
    base_delay:
        Fixed propagation delay added to every message.
    jitter:
        Maximum additional random delay (uniform in ``[0, jitter]``);
        non-zero jitter produces message reordering between a pair of
        processes unless ``fifo`` is set.
    drop_rate, duplicate_rate:
        Probabilities of dropping or duplicating each message.
    fifo:
        When true, delivery times are forced to be non-decreasing per
        channel so the channel behaves like TCP; when false the channel
        behaves like UDP and can reorder.
    """

    base_delay: float = 1.0
    jitter: float = 0.0
    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    fifo: bool = True

    def validate(self) -> None:
        if self.base_delay < 0:
            raise ValueError("base_delay must be non-negative")
        if self.jitter < 0:
            raise ValueError("jitter must be non-negative")
        for name in ("drop_rate", "duplicate_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability in [0, 1]")


class Channel:
    """A unidirectional channel from ``src`` to ``dst``.

    The channel does not hold messages itself — the scheduler owns the
    event queue — it only decides *when* and *whether* each message is
    delivered, and reports that decision so it can be logged.
    """

    def __init__(self, src: str, dst: str, config: ChannelConfig, rng: DeterministicRNG) -> None:
        config.validate()
        self.src = src
        self.dst = dst
        self.config = config
        self._rng = rng
        self._last_delivery_time = 0.0
        self._sent = 0
        self._dropped = 0
        self._duplicated = 0

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    @property
    def stats(self) -> Tuple[int, int, int]:
        """Return ``(sent, dropped, duplicated)`` counters."""
        return self._sent, self._dropped, self._duplicated

    # ------------------------------------------------------------------
    # continuation support
    # ------------------------------------------------------------------
    def state_snapshot(self) -> dict:
        """The channel's replay-relevant position as plain data.

        Covers exactly what a continuation cannot rebuild from the
        checkpointed process states: the RNG draw position (how far into
        the channel's deterministic jitter/loss stream the run got) and
        the FIFO delivery watermark.  The traffic counters are excluded
        on purpose — they are reporting, not behaviour.
        """
        return {
            "rng_draws": self._rng.draws,
            "last_delivery_time": self._last_delivery_time,
        }

    def restore_state(self, snapshot: dict) -> None:
        """Fast-forward this channel to a persisted :meth:`state_snapshot`."""
        self._rng.restore(int(snapshot.get("rng_draws", 0)))
        self._last_delivery_time = float(snapshot.get("last_delivery_time", 0.0))

    # ------------------------------------------------------------------
    # behaviour
    # ------------------------------------------------------------------
    def plan_delivery(
        self, message: Message, now: float, partitioned: bool = False
    ) -> List[Tuple[DeliveryOutcome, Optional[float], Message]]:
        """Decide the fate of ``message`` sent at time ``now``.

        Returns a list of ``(outcome, delivery_time, message)`` tuples:
        an empty delivery time accompanies :attr:`DeliveryOutcome.DROP`.
        A duplicated message yields two entries carrying the original;
        the caller, which owns the run's message ids, makes the copy.

        ``partitioned`` is decided by the network layer (partitions are a
        property of the topology, not of a single channel) and forces a
        drop without consuming randomness, so injecting a partition does
        not perturb the rest of the schedule.
        """
        self._sent += 1
        if partitioned:
            self._dropped += 1
            return [(DeliveryOutcome.DROP, None, message)]

        outcomes: List[Tuple[DeliveryOutcome, Optional[float], Message]] = []

        if self.config.drop_rate > 0 and self._rng.random() < self.config.drop_rate:
            self._dropped += 1
            return [(DeliveryOutcome.DROP, None, message)]

        delivery_time = self._delivery_time(now)
        outcomes.append((DeliveryOutcome.DELIVER, delivery_time, message))

        if self.config.duplicate_rate > 0 and self._rng.random() < self.config.duplicate_rate:
            self._duplicated += 1
            outcomes.append((DeliveryOutcome.DUPLICATE, self._delivery_time(now), message))

        return outcomes

    def _delivery_time(self, now: float) -> float:
        """Sample an absolute delivery time, honouring FIFO ordering if configured."""
        delay = self.config.base_delay
        if self.config.jitter > 0:
            delay += self._rng.random() * self.config.jitter
        delivery_time = now + delay
        if self.config.fifo:
            # enforce non-decreasing delivery times per channel (TCP-like behaviour)
            delivery_time = max(delivery_time, self._last_delivery_time)
            self._last_delivery_time = delivery_time
        return delivery_time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Channel({self.src}->{self.dst})"
