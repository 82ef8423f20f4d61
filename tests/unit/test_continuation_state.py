"""Unit tests for continuation-fidelity state.

A faithful continuation needs two things that are neither checkpointed
process state nor recorded Scroll history: the message-fault engine's
per-rule hit counters (so count-limited rules re-arm at their remaining
budget) and each channel's RNG draw position plus FIFO watermark (so the
continuation samples exactly the jitter/loss stream the uninterrupted
run would have).  Both ride the scroll sidecar's pending snapshot
(:func:`repro.timemachine.scroll_persistence.capture_pending`) and are
restored by ``ResumedRun.continue_run``.
"""

from __future__ import annotations

from repro.dsim.channel import ChannelConfig
from repro.dsim.cluster import Cluster, ClusterConfig
from repro.dsim.failure import Drop, FaultSchedule, MessageFaultEngine
from repro.dsim.message import Message
from repro.dsim.network import Network, NetworkConfig
from repro.dsim.process import Process, handler
from repro.timemachine.scroll_persistence import capture_pending  # facade-ok: tests the pending-snapshot capture itself


def lossy_network(seed: int = 5) -> Network:
    config = NetworkConfig(
        default_channel=ChannelConfig(
            base_delay=1.0, jitter=0.7, drop_rate=0.2, fifo=True
        )
    )
    network = Network(config, seed=seed)
    for pid in ("a", "b"):
        network.register_process(pid)
    return network


def route_burst(network: Network, count: int, start: float = 0.0):
    """Route ``count`` messages and return their (outcome, time) decisions."""
    decisions = []
    for index in range(count):
        message = Message(
            src="a", dst="b", kind="DATA", payload=index, msg_id=index + 1
        )
        decisions.append(
            [
                (outcome.value, time)
                for outcome, time, _ in network.route(message, start + index)
            ]
        )
    return decisions


class TestChannelStateRoundtrip:
    def test_restored_network_continues_the_rng_stream(self):
        twin = lossy_network()
        route_burst(twin, 10)
        expected = route_burst(twin, 10, start=10.0)

        interrupted = lossy_network()
        route_burst(interrupted, 10)
        states = interrupted.channel_states()
        assert states[("a", "b")]["rng_draws"] > 0

        # a resumed run rebuilds the network fresh; channels are lazily
        # re-created with the same derived seeds, so restoring only the
        # positions must reproduce the twin's decisions exactly
        rebuilt = lossy_network()
        rebuilt.restore_channel_states(states)
        assert route_burst(rebuilt, 10, start=10.0) == expected

    def test_fresh_network_without_restore_diverges(self):
        """The regression guard: skipping the restore replays the channel
        RNG from position zero, so the continuation samples a different
        jitter/loss sequence than the uninterrupted twin."""
        twin = lossy_network()
        route_burst(twin, 10)
        expected = route_burst(twin, 10, start=10.0)

        fresh = lossy_network()
        assert route_burst(fresh, 10, start=10.0) != expected

    def test_snapshot_is_positions_only(self):
        network = lossy_network()
        route_burst(network, 4)
        snapshot = network.channel_states()[("a", "b")]
        # traffic counters are reporting, not behaviour: they stay out
        assert set(snapshot) == {"rng_draws", "last_delivery_time"}

    def test_fifo_watermark_survives_the_roundtrip(self):
        network = lossy_network()
        route_burst(network, 6)
        watermark = network.channel_states()[("a", "b")]["last_delivery_time"]
        assert watermark > 0.0
        rebuilt = lossy_network()
        rebuilt.restore_channel_states(network.channel_states())
        assert (
            rebuilt.channel_states()[("a", "b")]["last_delivery_time"] == watermark
        )


def count_limited_engine() -> MessageFaultEngine:
    return MessageFaultEngine([Drop(match_kind="DATA", count=1)])


class TestFaultHitRestore:
    def test_restore_hits_rearms_exhausted_rule(self):
        original = count_limited_engine()
        message = Message(src="a", dst="b", kind="DATA")
        assert original.decide(message, 1.0) is not None  # budget consumed
        assert original.decide(message, 2.0) is None

        # a continuation rebuilds the engine from the fault schedule,
        # which resets every counter — restoring must keep the rule dead
        rebuilt = count_limited_engine()
        rebuilt.restore_hits(original.hit_counts())
        assert rebuilt.decide(message, 3.0) is None

    def test_restore_hits_accepts_string_keys_and_ignores_unknown(self):
        rebuilt = count_limited_engine()
        rebuilt.restore_hits({"0": 1, "7": 3})  # JSON round-trip shape
        assert rebuilt.hit_counts() == {0: 1}
        assert rebuilt.decide(Message(src="a", dst="b", kind="DATA"), 1.0) is None

    def test_restore_hits_never_lowers_a_counter(self):
        engine = count_limited_engine()
        engine.decide(Message(src="a", dst="b", kind="DATA"), 1.0)
        engine.restore_hits({0: 0})
        assert engine.hit_counts() == {0: 1}


class Chatter(Process):
    """A two-process chain that keeps DATA messages moving."""

    def on_start(self):
        self.state["n"] = 0
        if self.pid == "a":
            self.send("b", "DATA", 0)

    @handler("DATA")
    def on_data(self, msg: Message):
        self.state["n"] += 1
        if self.state["n"] < 6:
            self.send(msg.src, "DATA", msg.payload + 1)


class TestCapturePendingCarriesContinuationState:
    def test_pending_snapshot_includes_hits_and_channel_positions(self):
        cluster = Cluster(
            ClusterConfig(
                seed=4,
                network=NetworkConfig(
                    default_channel=ChannelConfig(base_delay=1.0, jitter=0.5)
                ),
            )
        )
        cluster.add_process("a", Chatter)
        cluster.add_process("b", Chatter)
        cluster.set_failure_plan(
            FaultSchedule.of(Drop(match_kind="DATA", count=1, after=2.0))
        )
        cluster.run(until=30.0)

        pending = capture_pending(cluster.backend)
        assert pending is not None
        assert pending["fault_hits"].get(0, 0) == 1
        channels = pending["channels"]
        assert channels[("a", "b")]["rng_draws"] > 0
