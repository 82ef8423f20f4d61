"""Unit tests for the scheduler, the network layer and fault injection."""

from __future__ import annotations

import pytest

from repro.dsim.channel import ChannelConfig, DeliveryOutcome
from repro.dsim.failure import (
    Corrupt,
    Crash,
    Delay,
    Drop,
    Duplicate,
    FaultSchedule,
    MessageFaultEngine,
    Partition,
    spec_from_dict,
)
from repro.dsim.message import Message
from repro.dsim.network import Network, NetworkConfig
from repro.dsim.scheduler import EventKind, Scheduler
from repro.errors import ScenarioError, SimulationError, UnknownProcessError


# ----------------------------------------------------------------------
# Scheduler
# ----------------------------------------------------------------------
class TestScheduler:
    def test_events_pop_in_time_order(self):
        scheduler = Scheduler()
        scheduler.schedule(5.0, EventKind.TIMER, "a")
        scheduler.schedule(1.0, EventKind.TIMER, "b")
        scheduler.schedule(3.0, EventKind.TIMER, "c")
        order = [scheduler.pop_next().target for _ in range(3)]
        assert order == ["b", "c", "a"]

    def test_ties_break_by_scheduling_order(self):
        scheduler = Scheduler()
        scheduler.schedule(1.0, EventKind.TIMER, "first")
        scheduler.schedule(1.0, EventKind.TIMER, "second")
        assert scheduler.pop_next().target == "first"
        assert scheduler.pop_next().target == "second"

    def test_now_advances_with_execution(self):
        scheduler = Scheduler()
        scheduler.schedule(2.5, EventKind.TIMER, "a")
        scheduler.pop_next()
        assert scheduler.now == pytest.approx(2.5)

    def test_cannot_schedule_in_the_past(self):
        scheduler = Scheduler()
        scheduler.schedule(1.0, EventKind.TIMER, "a")
        scheduler.pop_next()
        with pytest.raises(SimulationError):
            scheduler.schedule_at(0.5, EventKind.TIMER, "a")
        with pytest.raises(SimulationError):
            scheduler.schedule(-1.0, EventKind.TIMER, "a")

    def test_cancelled_events_are_skipped(self):
        scheduler = Scheduler()
        event = scheduler.schedule(1.0, EventKind.TIMER, "a")
        scheduler.schedule(2.0, EventKind.TIMER, "b")
        scheduler.cancel(event)
        assert scheduler.pop_next().target == "b"

    def test_cancel_for_target(self):
        scheduler = Scheduler()
        scheduler.schedule(1.0, EventKind.TIMER, "a")
        scheduler.schedule(2.0, EventKind.DELIVER, "a")
        scheduler.schedule(3.0, EventKind.TIMER, "b")
        assert scheduler.cancel_for_target("a") == 2
        assert scheduler.pop_next().target == "b"

    def test_cancel_for_target_with_kind_filter(self):
        scheduler = Scheduler()
        scheduler.schedule(1.0, EventKind.TIMER, "a")
        scheduler.schedule(2.0, EventKind.DELIVER, "a")
        assert scheduler.cancel_for_target("a", EventKind.TIMER) == 1
        assert scheduler.pop_next().kind is EventKind.DELIVER

    def test_pop_next_returns_none_when_exhausted(self):
        assert Scheduler().pop_next() is None

    def test_peek_time_ignores_cancelled(self):
        scheduler = Scheduler()
        event = scheduler.schedule(1.0, EventKind.TIMER, "a")
        scheduler.schedule(4.0, EventKind.TIMER, "b")
        scheduler.cancel(event)
        assert scheduler.peek_time() == pytest.approx(4.0)

    def test_pending_lists_events_in_order(self):
        scheduler = Scheduler()
        scheduler.schedule(2.0, EventKind.DELIVER, "b")
        scheduler.schedule(1.0, EventKind.TIMER, "a")
        pending = scheduler.pending()
        assert [event.target for event in pending] == ["a", "b"]
        assert [event.target for event in scheduler.pending(EventKind.TIMER)] == ["a"]

    def test_drain_respects_until(self):
        scheduler = Scheduler()
        for t in (1.0, 2.0, 3.0):
            scheduler.schedule(t, EventKind.TIMER, "a")
        drained = list(scheduler.drain(until=2.0))
        assert len(drained) == 2
        assert scheduler.pending_events == 1

    def test_reset_to_discards_queue(self):
        scheduler = Scheduler()
        scheduler.schedule(1.0, EventKind.TIMER, "a")
        scheduler.reset_to(0.0)
        assert scheduler.pending_events == 0
        assert scheduler.pop_next() is None

    def test_executed_counter(self):
        scheduler = Scheduler()
        scheduler.schedule(1.0, EventKind.TIMER, "a")
        scheduler.pop_next()
        assert scheduler.executed_events == 1


class TestSchedulerHeapCompaction:
    """Dead (cancelled) heap entries are compacted before they dominate."""

    def test_heavy_cancel_for_target_churn_keeps_heap_bounded(self):
        scheduler = Scheduler()
        survivors = 0
        for round_index in range(200):
            # a burst of work for one doomed target plus one survivor
            for offset in range(50):
                scheduler.schedule(
                    1.0 + round_index + offset * 0.001, EventKind.DELIVER, "doomed"
                )
            scheduler.schedule(500.0 + round_index, EventKind.TIMER, "survivor")
            survivors += 1
            cancelled = scheduler.cancel_for_target("doomed")
            assert cancelled == 50
            # invariant: the heap never holds more than live + max(64, live)
            # entries — dead events cannot exceed half once compaction runs
            assert scheduler.heap_size <= 2 * scheduler.pending_events + 65
        assert scheduler.pending_events == survivors
        # 10_000 events were cancelled over the run; without compaction the
        # heap would hold them all until drain.  It must stay near `live`.
        assert scheduler.heap_size < 1_000
        drained = [event.target for event in scheduler.drain()]
        assert drained == ["survivor"] * survivors

    def test_scattered_single_cancels_trigger_compaction(self):
        scheduler = Scheduler()
        events = [
            scheduler.schedule(1.0 + index * 0.01, EventKind.TIMER, f"t{index % 7}")
            for index in range(2_000)
        ]
        for index, event in enumerate(events):
            if index % 10:  # cancel 90%
                scheduler.cancel(event)
        assert scheduler.pending_events == 200
        assert scheduler.heap_size <= 2 * scheduler.pending_events + 65
        assert len(list(scheduler.drain())) == 200

    def test_compaction_preserves_order_and_counters(self):
        scheduler = Scheduler()
        keep = []
        for index in range(500):
            event = scheduler.schedule(float(500 - index), EventKind.TIMER, "t")
            if index % 5 == 0:
                keep.append(event)
            else:
                scheduler.cancel(event)
        order = [event.time for event in scheduler.drain()]
        assert order == sorted(event.time for event in keep)
        assert scheduler.pending_events == 0


# ----------------------------------------------------------------------
# Network
# ----------------------------------------------------------------------
class TestNetwork:
    def _network(self, **kwargs) -> Network:
        network = Network(NetworkConfig(**kwargs), seed=1)
        network.register_process("a")
        network.register_process("b")
        network.register_process("c")
        return network

    def test_route_to_unknown_process_raises(self):
        network = self._network()
        with pytest.raises(UnknownProcessError):
            network.route(Message(src="a", dst="zzz", kind="X"), now=0.0)
        with pytest.raises(UnknownProcessError):
            network.route(Message(src="zzz", dst="a", kind="X"), now=0.0)

    def test_route_returns_delivery_plan(self):
        network = self._network()
        plans = network.route(Message(src="a", dst="b", kind="X"), now=0.0)
        assert plans[0][0] is DeliveryOutcome.DELIVER
        assert network.stats["delivered"] == 1

    def test_channel_override_applies_to_one_direction(self):
        config = NetworkConfig(
            channel_overrides={("a", "b"): ChannelConfig(drop_rate=1.0)}
        )
        network = Network(config, seed=1)
        for pid in ("a", "b"):
            network.register_process(pid)
        dropped = network.route(Message(src="a", dst="b", kind="X"), now=0.0)
        delivered = network.route(Message(src="b", dst="a", kind="X"), now=0.0)
        assert dropped[0][0] is DeliveryOutcome.DROP
        assert delivered[0][0] is DeliveryOutcome.DELIVER

    def test_partition_blocks_cross_group_traffic(self):
        network = self._network()
        network.add_partition(Partition([["a"], ["b"]], start=0.0, end=10.0))
        assert network.is_partitioned("a", "b", 5.0)
        assert not network.is_partitioned("a", "b", 15.0)
        assert not network.is_partitioned("a", "c", 5.0)  # c is in no named group
        plans = network.route(Message(src="a", dst="b", kind="X"), now=5.0)
        assert plans[0][0] is DeliveryOutcome.DROP

    def test_partition_requires_valid_window(self):
        with pytest.raises(ScenarioError):
            Partition([["a"], ["b"]], start=5.0, end=5.0)

    def test_partition_first_named_group_wins(self):
        partition = Partition([["a", "b"], ["b", "c"]], start=0.0, end=1.0)
        assert not partition.separates("a", "b")
        assert partition.separates("b", "c")
        assert not partition.separates("a", "z")

    def test_clear_partitions(self):
        network = self._network()
        network.add_partition(Partition([["a"], ["b"]], start=0.0, end=10.0))
        network.clear_partitions()
        assert not network.is_partitioned("a", "b", 5.0)

    def test_channels_are_created_lazily_and_cached(self):
        network = self._network()
        channel = network.channel("a", "b")
        assert network.channel("a", "b") is channel


# ----------------------------------------------------------------------
# Fault injection declarations
# ----------------------------------------------------------------------
class TestFaultSchedule:
    def test_schedule_sorts_faults_into_categories(self):
        schedule = FaultSchedule.of(
            Crash("a", at=5.0),
            Drop(match_kind="PING"),
            Partition([["a"], ["b"]], 0.0, 1.0),
            Corrupt("a", 2.0, ops=(("set", ("k",), 1),)),
        )
        assert schedule.summary() == {
            "crashes": 1,
            "message_faults": 1,
            "partitions": 1,
            "corruptions": 1,
        }
        assert not schedule.is_empty()

    def test_unknown_entry_rejected(self):
        with pytest.raises(ScenarioError):
            FaultSchedule.of(object())

    def test_crash_recovery_must_follow_crash(self):
        with pytest.raises(ScenarioError):
            Crash("a", at=5.0, recover_at=5.0)

    def test_message_fault_kind_validation(self):
        with pytest.raises(ScenarioError):
            spec_from_dict({"kind": "explode"})
        with pytest.raises(ScenarioError):
            Delay(extra_delay=0.0)

    def test_message_fault_matching(self):
        fault = Drop(match_kind="PING", match_src="a", match_dst="b", after=5.0)
        ping = Message(src="a", dst="b", kind="PING")
        pong = Message(src="a", dst="b", kind="PONG")
        assert fault.matches(ping, time=6.0)
        assert not fault.matches(ping, time=1.0)
        assert not fault.matches(pong, time=6.0)
        assert not fault.matches(Message(src="c", dst="b", kind="PING"), time=6.0)
        assert not fault.matches(Message(src="a", dst="c", kind="PING"), time=6.0)

    def test_fault_engine_respects_count_limit(self):
        engine = MessageFaultEngine([Drop(match_kind="PING", count=2)])
        ping = Message(src="a", dst="b", kind="PING")
        assert engine.decide(ping, 0.0) is not None
        assert engine.decide(ping, 0.0) is not None
        assert engine.decide(ping, 0.0) is None
        assert engine.hit_counts() == {0: 2}

    def test_fault_engine_first_match_wins(self):
        engine = MessageFaultEngine(
            [
                Drop(match_kind="PING", count=None),
                Duplicate(match_kind="PING", count=None),
            ]
        )
        decided = engine.decide(Message(src="a", dst="b", kind="PING"), 0.0)
        assert decided.kind == "drop"
