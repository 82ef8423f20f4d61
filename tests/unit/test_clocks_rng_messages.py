"""Unit tests for logical clocks, deterministic RNG streams, messages and channels."""

from __future__ import annotations

import pytest

from repro.dsim.channel import Channel, ChannelConfig, DeliveryOutcome
from repro.dsim.clock import (
    LamportClock,
    VectorClock,
    VectorTimestamp,
    concurrent,
    happens_before,
    merge_all,
)
from repro.dsim.cluster import Cluster, ClusterConfig
from repro.dsim.message import Message
from repro.dsim.process import Process, ProcessContext
from repro.dsim.rng import DeterministicRNG, derive_seed, spawn_streams
from repro.errors import SimulationError


class Echo(Process):
    """A process with no handlers: the tests send through it by hand."""


# ----------------------------------------------------------------------
# Lamport clocks
# ----------------------------------------------------------------------
class TestLamportClock:
    def test_starts_at_zero(self):
        assert LamportClock("a").time == 0

    def test_tick_increments(self):
        clock = LamportClock("a")
        assert clock.tick() == 1
        assert clock.tick() == 2

    def test_merge_jumps_past_received_timestamp(self):
        clock = LamportClock("a")
        clock.tick()
        assert clock.merge(10) == 11

    def test_merge_with_smaller_timestamp_still_advances(self):
        clock = LamportClock("a", start=5)
        assert clock.merge(2) == 6

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            LamportClock("a", start=-1)

    def test_negative_merge_rejected(self):
        with pytest.raises(ValueError):
            LamportClock("a").merge(-3)

    def test_restore(self):
        clock = LamportClock("a")
        clock.tick()
        clock.tick()
        clock.restore(1)
        assert clock.time == 1

    def test_restore_negative_rejected(self):
        with pytest.raises(ValueError):
            LamportClock("a").restore(-1)


# ----------------------------------------------------------------------
# Vector clocks
# ----------------------------------------------------------------------
class TestVectorClock:
    def test_tick_increments_own_component(self):
        clock = VectorClock("a")
        ts = clock.tick()
        assert ts.component("a") == 1
        assert ts.component("b") == 0

    def test_merge_takes_componentwise_max_then_ticks(self):
        a = VectorClock("a")
        b = VectorClock("b")
        tb = b.tick()
        ta = a.merge(tb)
        assert ta.component("b") == 1
        assert ta.component("a") == 1

    def test_happens_before_through_message(self):
        a = VectorClock("a")
        b = VectorClock("b")
        send_ts = a.tick()
        recv_ts = b.merge(send_ts)
        assert happens_before(send_ts, recv_ts)
        assert not happens_before(recv_ts, send_ts)

    def test_concurrent_events(self):
        a = VectorClock("a").tick()
        b = VectorClock("b").tick()
        assert concurrent(a, b)
        assert not happens_before(a, b)

    def test_restore(self):
        clock = VectorClock("a")
        snapshot = clock.tick()
        clock.tick()
        clock.restore(snapshot)
        assert clock.snapshot() == snapshot

    def test_component_query(self):
        clock = VectorClock("a")
        clock.tick()
        assert clock.component("a") == 1
        assert clock.component("zzz") == 0


class TestVectorTimestamp:
    def test_from_mapping_drops_zero_entries(self):
        ts = VectorTimestamp.from_mapping({"a": 0, "b": 2})
        assert ts.as_dict() == {"b": 2}

    def test_partial_order_le(self):
        small = VectorTimestamp.from_mapping({"a": 1})
        big = VectorTimestamp.from_mapping({"a": 2, "b": 1})
        assert small <= big
        assert small < big
        assert not (big <= small)

    def test_equal_timestamps_not_strictly_less(self):
        ts = VectorTimestamp.from_mapping({"a": 1})
        same = VectorTimestamp.from_mapping({"a": 1})
        assert ts <= same
        assert not (ts < same)

    def test_concurrent_detection(self):
        x = VectorTimestamp.from_mapping({"a": 2, "b": 1})
        y = VectorTimestamp.from_mapping({"a": 1, "b": 2})
        assert x.concurrent(y)

    def test_merge_is_componentwise_max(self):
        x = VectorTimestamp.from_mapping({"a": 2, "b": 1})
        y = VectorTimestamp.from_mapping({"a": 1, "b": 3})
        assert x.merge(y).as_dict() == {"a": 2, "b": 3}

    def test_merge_all(self):
        merged = merge_all(
            [VectorTimestamp.from_mapping({"a": 1}), VectorTimestamp.from_mapping({"b": 2})]
        )
        assert merged.as_dict() == {"a": 1, "b": 2}


# ----------------------------------------------------------------------
# Deterministic RNG
# ----------------------------------------------------------------------
class TestDeterministicRNG:
    def test_same_seed_same_sequence(self):
        a, b = DeterministicRNG(42), DeterministicRNG(42)
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_seed_different_sequence(self):
        a, b = DeterministicRNG(1), DeterministicRNG(2)
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_draw_counter_tracks_all_methods(self):
        rng = DeterministicRNG(0)
        rng.random()
        rng.randint(0, 10)
        rng.choice([1, 2, 3])
        assert rng.draws == 3

    def test_restore_replays_identical_values(self):
        rng = DeterministicRNG(7)
        first = [rng.random() for _ in range(4)]
        rng.restore(0)
        assert [rng.random() for _ in range(4)] == first

    def test_restore_to_midpoint(self):
        rng = DeterministicRNG(7)
        values = [rng.random() for _ in range(6)]
        rng.restore(3)
        assert rng.random() == values[3]

    def test_restore_negative_rejected(self):
        with pytest.raises(ValueError):
            DeterministicRNG(0).restore(-1)

    def test_choice_on_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            DeterministicRNG(0).choice([])

    def test_shuffle_does_not_mutate_input(self):
        rng = DeterministicRNG(0)
        items = [1, 2, 3, 4]
        shuffled = rng.shuffle(items)
        assert items == [1, 2, 3, 4]
        assert sorted(shuffled) == items

    def test_fork_is_independent(self):
        rng = DeterministicRNG(5)
        child = rng.fork("worker")
        assert child.seed != rng.seed

    def test_derive_seed_is_stable_and_label_sensitive(self):
        assert derive_seed(1, "a") == derive_seed(1, "a")
        assert derive_seed(1, "a") != derive_seed(1, "b")
        assert derive_seed(1, "a", "b") != derive_seed(1, "ab")

    def test_spawn_streams(self):
        streams = spawn_streams(3, ["x", "y"])
        assert set(streams) == {"x", "y"}
        assert streams["x"].random() != streams["y"].random()


# ----------------------------------------------------------------------
# Messages
# ----------------------------------------------------------------------
class TestMessage:
    def test_run_ids_are_unique_and_increasing(self):
        cluster = Cluster(ClusterConfig(seed=1))
        cluster.add_process("a", Echo)
        cluster.add_process("b", Echo)
        cluster.start()
        first = cluster.process("a").send("b", "X")
        second = cluster.process("a").send("b", "X")
        assert (first.msg_id, second.msg_id) == (1, 2)
        assert cluster.msg_ids.peek() == 3

    def test_each_run_numbers_its_messages_from_one(self):
        for _ in range(2):
            cluster = Cluster(ClusterConfig(seed=1))
            cluster.add_process("a", Echo)
            cluster.add_process("b", Echo)
            cluster.start()
            assert cluster.process("a").send("b", "X").msg_id == 1

    def test_a_continuation_numbers_past_its_frontier(self):
        cluster = Cluster(ClusterConfig(seed=1), first_msg_id=41)
        cluster.add_process("a", Echo)
        cluster.add_process("b", Echo)
        cluster.start()
        assert cluster.process("a").send("b", "X").msg_id == 41

    def test_send_without_an_id_source_fails_loudly(self):
        process = Echo()
        process.bind(
            ProcessContext(
                pid="a",
                peers=("a", "b"),
                send_fn=lambda message: None,
                timer_fn=lambda name, delay, payload: None,
                cancel_timer_fn=lambda name: None,
                now_fn=lambda: 0.0,
                rng=DeterministicRNG(0),
            )
        )
        with pytest.raises(SimulationError, match="no message-id source"):
            process.send("b", "X")

    def test_round_trip_through_record(self):
        message = Message(src="a", dst="b", kind="PUT", payload={"k": 1}, lamport=4)
        rebuilt = Message.from_record(message.to_record())
        assert rebuilt.src == "a" and rebuilt.dst == "b"
        assert rebuilt.payload == {"k": 1}
        assert rebuilt.lamport == 4
        assert rebuilt.msg_id == message.msg_id

    def test_duplicate_carries_original_id(self):
        message = Message(src="a", dst="b", kind="X")
        copy = message.as_duplicate(7)
        assert copy.duplicate_of == message.msg_id
        assert copy.msg_id == 7

    def test_taint_adds_speculations(self):
        message = Message(src="a", dst="b", kind="X")
        tainted = message.with_taint(frozenset({"spec-1"}))
        assert "spec-1" in tainted.speculations
        assert message.speculations == frozenset()

    def test_taint_with_empty_set_returns_same_message(self):
        message = Message(src="a", dst="b", kind="X")
        assert message.with_taint(frozenset()) is message

    def test_describe_mentions_endpoints_and_kind(self):
        message = Message(src="a", dst="b", kind="PING")
        text = message.describe()
        assert "a->b" in text and "PING" in text


# ----------------------------------------------------------------------
# Channels
# ----------------------------------------------------------------------
def make_channel(**config):
    return Channel("a", "b", ChannelConfig(**config), DeterministicRNG(0))


class TestChannel:
    def test_reliable_channel_delivers_with_base_delay(self):
        channel = make_channel(base_delay=2.0)
        plans = channel.plan_delivery(Message(src="a", dst="b", kind="X"), now=10.0)
        outcome, deliver_at, _ = plans[0]
        assert outcome is DeliveryOutcome.DELIVER
        assert deliver_at == pytest.approx(12.0)

    def test_partitioned_send_is_dropped_without_consuming_randomness(self):
        channel = make_channel(drop_rate=0.0)
        before = channel._rng.draws
        plans = channel.plan_delivery(Message(src="a", dst="b", kind="X"), now=0.0, partitioned=True)
        assert plans[0][0] is DeliveryOutcome.DROP
        assert channel._rng.draws == before

    def test_always_drop_channel(self):
        channel = make_channel(drop_rate=1.0)
        plans = channel.plan_delivery(Message(src="a", dst="b", kind="X"), now=0.0)
        assert [outcome for outcome, _, _ in plans] == [DeliveryOutcome.DROP]

    def test_always_duplicate_channel(self):
        channel = make_channel(duplicate_rate=1.0)
        message = Message(src="a", dst="b", kind="X")
        plans = channel.plan_delivery(message, now=0.0)
        outcomes = [outcome for outcome, _, _ in plans]
        assert DeliveryOutcome.DELIVER in outcomes and DeliveryOutcome.DUPLICATE in outcomes
        # the channel plans the copy; the run that owns the ids makes it
        assert all(planned is message for _, _, planned in plans)

    def test_fifo_channel_preserves_order_under_jitter(self):
        channel = make_channel(base_delay=1.0, jitter=5.0, fifo=True)
        times = []
        for index in range(20):
            plans = channel.plan_delivery(Message(src="a", dst="b", kind="X"), now=float(index))
            times.append(plans[0][1])
        assert times == sorted(times)

    def test_non_fifo_channel_can_reorder(self):
        channel = make_channel(base_delay=1.0, jitter=50.0, fifo=False)
        times = []
        for index in range(30):
            plans = channel.plan_delivery(Message(src="a", dst="b", kind="X"), now=float(index))
            times.append(plans[0][1])
        assert times != sorted(times)

    def test_stats_count_sent_and_dropped(self):
        channel = make_channel(drop_rate=1.0)
        for _ in range(3):
            channel.plan_delivery(Message(src="a", dst="b", kind="X"), now=0.0)
        sent, dropped, duplicated = channel.stats
        assert sent == 3 and dropped == 3 and duplicated == 0

    def test_invalid_probabilities_rejected(self):
        with pytest.raises(ValueError):
            make_channel(drop_rate=1.5)
        with pytest.raises(ValueError):
            make_channel(base_delay=-1.0)
