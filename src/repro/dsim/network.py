"""The simulated network: channels, partitions and global message routing.

The network owns one :class:`~repro.dsim.channel.Channel` per ordered
pair of processes (created lazily), applies partitions, and keeps the
global registry of every message that has entered the system.  The FixD
runtime observes the network through the hook interface so the Scroll can
log sends, deliveries, drops and duplications without the network knowing
anything about logging.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.dsim.channel import Channel, ChannelConfig, DeliveryOutcome
from repro.dsim.message import Message
from repro.dsim.rng import DeterministicRNG, derive_seed
from repro.errors import UnknownProcessError


@dataclass
class NetworkConfig:
    """Network-wide defaults, overridable per channel.

    ``channel_overrides`` maps ``(src, dst)`` pairs to a
    :class:`ChannelConfig` used for that direction only; all other pairs
    use ``default_channel``.
    """

    default_channel: ChannelConfig = field(default_factory=ChannelConfig)
    channel_overrides: Dict[Tuple[str, str], ChannelConfig] = field(default_factory=dict)


class Partition:
    """A network partition: a set of groups that cannot talk across groups.

    A partition is active during a half-open time window
    ``[start, end)``.  Processes not named in any group form an implicit
    extra group, so a two-group partition ``[{a}, {b}]`` in a three
    process system isolates ``a`` and ``b`` from each other but both may
    still reach ``c`` only if ``c`` is listed with them; unlisted
    processes can reach everyone (they are assumed to be on the healthy
    side of every cut).
    """

    def __init__(self, groups: Iterable[Iterable[str]], start: float, end: float) -> None:
        self.groups: List[Set[str]] = [set(group) for group in groups]
        if start >= end:
            raise ValueError("partition start time must precede its end time")
        self.start = float(start)
        self.end = float(end)

    def active_at(self, time: float) -> bool:
        return self.start <= time < self.end

    def separates(self, src: str, dst: str) -> bool:
        """True when ``src`` and ``dst`` are in different named groups."""
        src_group = self._group_of(src)
        dst_group = self._group_of(dst)
        if src_group is None or dst_group is None:
            return False
        return src_group != dst_group

    def _group_of(self, pid: str) -> Optional[int]:
        for index, group in enumerate(self.groups):
            if pid in group:
                return index
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Partition(groups={self.groups}, [{self.start}, {self.end}))"


class Network:
    """Routes messages between registered processes through channels."""

    def __init__(self, config: NetworkConfig | None = None, seed: int = 0) -> None:
        self.config = config or NetworkConfig()
        self._seed = seed
        self._processes: Set[str] = set()
        self._channels: Dict[Tuple[str, str], Channel] = {}
        self._partitions: List[Partition] = []
        self._delivered: int = 0
        self._dropped: int = 0
        self._duplicated: int = 0

    # ------------------------------------------------------------------
    # topology management
    # ------------------------------------------------------------------
    def register_process(self, pid: str) -> None:
        """Make ``pid`` addressable on the network."""
        self._processes.add(pid)

    def add_partition(self, partition: Partition) -> None:
        """Install a partition window."""
        self._partitions.append(partition)

    def clear_partitions(self) -> None:
        self._partitions.clear()

    def channel(self, src: str, dst: str) -> Channel:
        """Return (creating if necessary) the channel from ``src`` to ``dst``."""
        key = (src, dst)
        if key not in self._channels:
            config = self.config.channel_overrides.get(key, self.config.default_channel)
            rng = DeterministicRNG(derive_seed(self._seed, "channel", src, dst))
            self._channels[key] = Channel(src, dst, config, rng)
        return self._channels[key]

    # ------------------------------------------------------------------
    # continuation support
    # ------------------------------------------------------------------
    def channel_states(self) -> Dict[Tuple[str, str], dict]:
        """Per-channel replay positions for every channel created so far.

        Channels are created lazily with seeds derived purely from the
        network seed and the endpoint pair, so a rebuilt network recreates
        identical channels on demand — only their *positions* (RNG draws,
        FIFO watermark) need persisting for a faithful continuation.
        """
        return {
            key: channel.state_snapshot() for key, channel in self._channels.items()
        }

    def restore_channel_states(self, states: Dict[Tuple[str, str], dict]) -> None:
        """Fast-forward channels to persisted :meth:`channel_states`."""
        for key, snapshot in states.items():
            src, dst = key
            self.channel(src, dst).restore_state(snapshot)

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def route(
        self, message: Message, now: float
    ) -> List[Tuple[DeliveryOutcome, Optional[float], Message]]:
        """Decide the fate of ``message`` and return delivery plans.

        Raises :class:`UnknownProcessError` if either endpoint has not
        been registered — catching silent misrouting early is far easier
        than debugging a protocol that quietly never hears back.
        """
        if message.src not in self._processes:
            raise UnknownProcessError(message.src)
        if message.dst not in self._processes:
            raise UnknownProcessError(message.dst)

        partitioned = self.is_partitioned(message.src, message.dst, now)
        plans = self.channel(message.src, message.dst).plan_delivery(message, now, partitioned)
        for outcome, _, _ in plans:
            if outcome is DeliveryOutcome.DROP:
                self._dropped += 1
            elif outcome is DeliveryOutcome.DUPLICATE:
                self._duplicated += 1
            else:
                self._delivered += 1
        return plans

    def is_partitioned(self, src: str, dst: str, time: float) -> bool:
        """True when an active partition separates ``src`` from ``dst``."""
        return any(p.active_at(time) and p.separates(src, dst) for p in self._partitions)

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    @property
    def stats(self) -> Dict[str, int]:
        """Aggregate counters over the whole run."""
        return {
            "delivered": self._delivered,
            "dropped": self._dropped,
            "duplicated": self._duplicated,
        }
