"""The one real-process router, driven through a scripted fake link set.

No worker processes, no sockets, no rings: :class:`FakeLinks` implements
the five link-set operations in memory and plays the worker side from a
script, so every routing, fault-accounting, quiescence and teardown rule
of :class:`~repro.dsim.router.Router` is checked deterministically —
the same rules all three real links (pipe, shm, net) run under.
"""

from __future__ import annotations

import pickle
import time
from collections import deque

import pytest

from repro.dsim.backend import MPBackendOptions
from repro.dsim.cluster import Cluster, ClusterConfig
from repro.dsim.failure import Corrupt, Crash, Delay, Drop, Duplicate, FaultSchedule, Partition
from repro.dsim.hooks import RuntimeHook
from repro.dsim.message import Message
from repro.dsim.process import Process
from repro.dsim.router import Router  # facade-ok: the router itself is under test
from repro.dsim.wire import new_stats  # facade-ok: the link-set stats contract
from repro.errors import UnknownProcessError

SCALE = 0.001  # wall seconds per simulated unit: a 50-unit delay is 50 ms


class _Idle(Process):
    """Workers are scripted; the frontend only needs a factory per pid."""


class FakeWorker:
    """What one worker would answer, from counters the script controls."""

    def __init__(self, pid: str) -> None:
        self.pid = pid
        self.sent_total = 0
        self.timers_armed = 0
        self.corruptions_pending = 0
        self.crashed = False
        self.received = 0
        self.stale_acks = False      # answer probes with the previous sequence
        self.answers_stop = True
        self.result_error = None


class FakeLinks:
    """A scripted in-memory link set (the five operations, nothing else).

    ``at(t, pid, item)`` schedules an uplink item ``t`` wall seconds
    after ``open``; until a worker's scripted items are all delivered it
    reports an armed timer, exactly as a real worker waiting to send
    would.  Downlink ``batch`` items are acknowledged with the flush a
    real worker produces (``brecv``/``recv``/``handled`` per message,
    ``dead`` when crashed).
    """

    def __init__(self, pids, open_error=None) -> None:
        self.workers = {pid: FakeWorker(pid) for pid in pids}
        self.open_error = open_error
        self.sent = []          # every (pid, item) the router sent
        self.closed = 0
        self._script = []       # (due, seq, pid, item, armed)
        self._uplink = deque()
        self._deliver = None
        self._opened_at = 0.0

    # -- scripting ---------------------------------------------------------
    def at(self, when: float, pid: str, item, armed: bool = True) -> None:
        self._script.append((when, len(self._script), pid, item, armed))
        self._script.sort(key=lambda entry: entry[:2])

    def sends(self, when, src, dst, kind="MSG", sent_at=None, armed=True) -> Message:
        """Script ``src`` flushing one sent message at wall time ``when``.

        Like a real worker's ``messages_sent``, ``sent_total`` counts the
        message from the moment it is sent, before its flush arrives.
        """
        message = Message(src, dst, kind, send_time=when / SCALE if sent_at is None else sent_at)
        self.workers[src].sent_total += 1
        self.at(when, src, ("flush", src, [("sent", message)]), armed)
        return message

    def batches_to(self, pid: str):
        return [item[1] for dst, item in self.sent if dst == pid and item[0] == "batch"]

    def control_to(self, pid: str):
        return [item[0] for dst, item in self.sent if dst == pid and item[0] != "batch"]

    # -- the link-set contract ----------------------------------------------
    def open(self, spawn, deliver) -> None:
        if self.open_error is not None:
            raise self.open_error
        assert list(spawn) == list(self.workers)
        self._deliver = deliver
        self._opened_at = time.monotonic()

    def send(self, pid: str, item) -> None:
        self.sent.append((pid, item))
        worker = self.workers[pid]
        tag = item[0]
        if tag == "batch":
            log = []
            for tseq, message in item[1]:
                if worker.crashed:
                    log.append(("dead", tseq))
                    continue
                worker.received += 1
                log += [
                    ("brecv", tseq, 0.0),
                    ("recv", tseq, 0.0, None),
                    ("handled", f"deliver {message.kind}", 0.0),
                ]
            self._uplink.append((pid, ("flush", pid, log)))
        elif tag == "crash":
            worker.crashed = True
            self._uplink.append((pid, ("flush", pid, [("event", "crash", "", 0.0, None)])))
        elif tag == "recover":
            worker.crashed = False
            self._uplink.append((pid, ("flush", pid, [("event", "recover", "", 0.0, None)])))
        elif tag == "probe":
            waiting = any(entry[2] == pid and entry[4] for entry in self._script)
            ack = {
                "sent_total": worker.sent_total,
                "timers_armed": worker.timers_armed + (1 if waiting else 0),
                "corruptions_pending": worker.corruptions_pending,
                "crashed": worker.crashed,
            }
            seq = item[1] - 1 if worker.stale_acks else item[1]
            self._uplink.append((pid, ("probe_ack", pid, seq, ack)))
        elif tag == "stop":
            if worker.answers_stop:
                result = {
                    "state": {"received": worker.received},
                    "sent": worker.sent_total,
                    "received": worker.received,
                    "timer_fires": 0,
                    "transport": {},
                    "error": worker.result_error,
                }
                self._uplink.append((pid, ("result", pid, result)))
            # result or not, the worker exits and its link closes
            self._uplink.append((pid, ("__lost__",)))

    def drain(self, idle_timeout: float) -> None:
        elapsed = time.monotonic() - self._opened_at
        while self._script and self._script[0][0] <= elapsed:
            _, _, pid, item, _ = self._script.pop(0)
            self._uplink.append((pid, item))
        if not self._uplink:
            time.sleep(idle_timeout)
            return
        while self._uplink:
            pid, item = self._uplink.popleft()
            self._deliver(pid, item)

    def close(self) -> None:
        self.closed += 1

    def stats(self, results):
        return new_stats(), {"fake_writes": len(self.sent)}


class _Recorder(RuntimeHook):
    def __init__(self) -> None:
        self.calls = []

    def on_run_start(self, time):
        self.calls.append("start")

    def on_run_end(self, time):
        self.calls.append("end")

    def on_receive(self, pid, message, time, vt=None):
        self.calls.append(("recv", pid, message.kind))

    def on_drop(self, message, time, vt=None):
        self.calls.append(("drop", message.kind))

    def on_duplicate(self, message, time, vt=None):
        self.calls.append(("dup", message.kind))


def make(pids=("a", "b"), plan=None, hook=None, open_error=None, **option_overrides):
    cluster = Cluster(ClusterConfig(seed=1), backend="mp")
    for pid in pids:
        cluster.add_process(pid, _Idle)
    if plan is not None:
        cluster.set_failure_plan(plan)
    if hook is not None:
        cluster.add_hook(hook)
    links = FakeLinks(pids, open_error=open_error)
    options = MPBackendOptions(time_scale=SCALE, **option_overrides)
    return Router(cluster, options, links), links, cluster


# ----------------------------------------------------------------------
# quiescence
# ----------------------------------------------------------------------
def test_idle_cluster_quiesces_after_one_clean_probe_round():
    router, links, _ = make()
    result = router.run(until=10_000)
    assert result.stopped_reason == "quiescent"
    assert links.control_to("a") == ["probe", "stop"]
    assert links.closed == 1


def test_message_is_routed_delivered_and_accounted():
    router, links, _ = make()
    links.sends(0.0, "a", "b", "PING")
    result = router.run(until=10_000)
    assert result.stopped_reason == "quiescent"
    assert [[m.kind for _, m in batch] for batch in links.batches_to("b")] == [["PING"]]
    stats = router.transport_stats
    assert stats["messages_routed"] == 1 and stats["messages_delivered"] == 1
    assert stats["fake_writes"] == len(links.sent)  # the link set's own write keys ride along
    assert result.events_executed == 1
    assert result.process_states == {"a": {"received": 0}, "b": {"received": 1}}


def test_sent_total_must_match_routed_uplink_messages():
    """A worker that sent more than the router has seen has a flush in transit."""
    router, links, _ = make()
    # "a" counts the message as sent from t=0 but reports no armed timer,
    # so only the sent_total mismatch can hold quiescence back
    links.sends(0.03, "a", "b", "LATE", armed=False)
    started = time.monotonic()
    result = router.run(until=10_000)
    assert result.stopped_reason == "quiescent"
    assert time.monotonic() - started >= 0.03
    assert links.control_to("a").count("probe") >= 2
    assert router.transport_stats["messages_routed"] == 1


@pytest.mark.parametrize("field", ["timers_armed", "corruptions_pending"])
def test_armed_timers_and_pending_corruptions_block_quiescence(field):
    router, links, _ = make()
    setattr(links.workers["b"], field, 1)
    result = router.run(until=40)                # 40 ms wall cap
    assert result.stopped_reason == "time-limit"
    assert links.control_to("b").count("probe") >= 2, "armed work means fresh probe rounds"


def test_stale_probe_ack_is_ignored():
    router, links, _ = make()
    links.workers["b"].stale_acks = True         # clean answers, wrong sequence
    result = router.run(until=40)
    assert result.stopped_reason == "time-limit"
    assert "b" not in router.probe_acks


# ----------------------------------------------------------------------
# the fault schedule, router side
# ----------------------------------------------------------------------
def test_corruptions_ship_to_their_worker_as_plain_specs():
    corrupt = Corrupt("b", at=5.0, ops=(("add", ("received",), 100),), description="overcount")
    router, _, _ = make(plan=FaultSchedule.of(corrupt))
    spawn = router._prepare(until=10)
    corruptions = {pid: args[6] for pid, args in spawn.items()}
    assert corruptions == {"a": [], "b": [corrupt]}
    assert pickle.loads(pickle.dumps(corruptions["b"])) == [corrupt]


@pytest.mark.parametrize(
    "spec", [Crash("ghost", at=1.0), Corrupt("ghost", at=1.0, ops=(("set", ("k",), 1),))]
)
def test_faults_on_unknown_pids_are_rejected(spec):
    router, _, _ = make(plan=FaultSchedule.of(spec))
    with pytest.raises(UnknownProcessError):
        router._prepare(until=10)


def test_crash_dead_letters_until_recover():
    plan = FaultSchedule.of(Crash("b", at=20.0, recover_at=120.0))
    router, links, cluster = make(plan=plan)
    links.sends(0.000, "a", "b", "BEFORE")
    links.sends(0.060, "a", "b", "DURING")
    links.sends(0.170, "a", "b", "AFTER")
    result = router.run(until=10_000)
    assert result.stopped_reason == "quiescent"
    delivered = [m.kind for batch in links.batches_to("b") for _, m in batch]
    assert delivered == ["BEFORE", "AFTER"]
    assert router.transport_stats["dead_letters"] == 1
    assert [c for c in links.control_to("b") if c in ("crash", "recover")] == ["crash", "recover"]
    actions = [record.action for record in cluster.trace]
    assert actions.count("dead-letter") == 1 and "crash" in actions and "recover" in actions


def test_delay_fault_releases_at_its_wall_deadline_and_blocks_quiescence():
    plan = FaultSchedule.of(Delay(match_kind="SLOW", extra_delay=50.0, count=None))
    router, links, _ = make(plan=plan)
    links.sends(0.0, "a", "b", "SLOW", sent_at=0.0)
    started = time.monotonic()
    result = router.run(until=10_000)
    assert result.stopped_reason == "quiescent"
    assert time.monotonic() - started >= 50.0 * SCALE
    assert [m.kind for batch in links.batches_to("b") for _, m in batch] == ["SLOW"]
    # no probe went out while the delayed message was still held
    first_batch = next(i for i, (_, item) in enumerate(links.sent) if item[0] == "batch")
    assert not any(item[0] == "probe" for _, item in links.sent[:first_batch])


def test_drop_duplicate_and_partition_accounting():
    plan = FaultSchedule.of(
        Drop(match_kind="LOSE", count=None),
        Duplicate(match_kind="TWICE", count=None),
        Partition([["a"], ["c"]], start=0.0, end=1_000_000.0),
    )
    hook = _Recorder()
    router, links, _ = make(pids=("a", "b", "c"), plan=plan, hook=hook)
    links.sends(0.0, "a", "b", "LOSE")
    links.sends(0.0, "a", "b", "TWICE")
    links.sends(0.0, "a", "c", "CUT")
    links.sends(0.0, "a", "b", "PLAIN")
    result = router.run(until=10_000)
    assert result.stopped_reason == "quiescent"
    stats = router.transport_stats
    assert (stats["messages_routed"], stats["dropped"], stats["duplicated"]) == (4, 2, 1)
    assert stats["messages_delivered"] == 3      # TWICE x2 + PLAIN
    assert result.network_stats == {"delivered": 3, "dropped": 2, "duplicated": 1}
    assert links.batches_to("c") == []
    assert sorted(c for c in hook.calls if c[0] in ("drop", "dup")) == [
        ("drop", "CUT"), ("drop", "LOSE"), ("dup", "TWICE"),
    ]
    assert [c for c in hook.calls if c[0] == "recv"].count(("recv", "b", "TWICE")) == 2


# ----------------------------------------------------------------------
# batch shipping
# ----------------------------------------------------------------------
def _burst(links, count):
    log = [("sent", Message("a", "b", "N", payload=i)) for i in range(count)]
    links.workers["a"].sent_total += count
    links.at(0.0, "a", ("flush", "a", log))


def test_max_batch_messages_splits_one_ticks_deliveries():
    router, links, _ = make(max_batch_messages=4)
    _burst(links, 10)
    assert router.run(until=10_000).stopped_reason == "quiescent"
    assert [len(batch) for batch in links.batches_to("b")] == [4, 4, 2]
    assert [m.payload for batch in links.batches_to("b") for _, m in batch] == list(range(10))
    assert router.transport_stats["max_batch"] == 4
    assert router.transport_stats["delivery_batches"] == 3


def test_unbatched_delivery_is_a_piece_size_of_one():
    router, links, _ = make(batch_deliveries=False)
    _burst(links, 10)
    assert router.run(until=10_000).stopped_reason == "quiescent"
    assert [len(batch) for batch in links.batches_to("b")] == [1] * 10
    assert router.transport_stats["max_batch"] == 1
    assert router.transport_stats["delivery_batches"] == 10


# ----------------------------------------------------------------------
# halt reasons
# ----------------------------------------------------------------------
def test_lost_peer_before_its_result_halts_the_run():
    router, links, cluster = make()
    links.at(0.0, "b", ("__lost__",))
    result = router.run(until=10_000)
    assert result.stopped_reason == "worker-lost:b"
    assert any(r.action == "error" and r.pid == "b" for r in cluster.trace)
    assert links.closed == 1


def test_lost_peer_is_tolerated_while_collecting():
    """After the stop went out, a peer closing its link is just a peer exiting."""
    router, links, _ = make()
    links.workers["b"].answers_stop = False      # exits without a result
    started = time.monotonic()
    result = router.run(until=10_000)
    assert result.stopped_reason == "quiescent"
    assert set(result.process_states) == {"a"}
    assert time.monotonic() - started < 1.0, "lost peers must not cost the collect deadline"


def test_stalled_peer_halts_the_run():
    router, links, _ = make()
    links.at(0.0, "a", ("__stalled__",))
    assert router.run(until=10_000).stopped_reason == "worker-stalled:a"


def test_result_error_found_while_collecting_overrides_quiescent():
    router, links, _ = make()
    links.workers["b"].result_error = "on_stop: ValueError: boom"
    result = router.run(until=10_000)
    assert result.stopped_reason == "worker-error:b"


# ----------------------------------------------------------------------
# lifecycle
# ----------------------------------------------------------------------
def test_failed_open_closes_links_without_run_hooks():
    hook = _Recorder()
    router, links, _ = make(hook=hook, open_error=OSError("no more pipes"))
    with pytest.raises(OSError, match="no more pipes"):
        router.run(until=10_000)
    assert links.closed == 1
    assert links.sent == [], "nothing to stop: no worker was ever reachable"
    assert hook.calls == []


def test_exception_mid_run_still_stops_collects_closes_and_ends():
    class _Interrupter(_Recorder):
        def on_send(self, pid, message, time, vt=None):
            raise KeyboardInterrupt

    hook = _Interrupter()
    router, links, _ = make(hook=hook)
    links.sends(0.0, "a", "b")
    with pytest.raises(KeyboardInterrupt):
        router.run(until=10_000)
    assert links.closed == 1
    assert links.control_to("a")[-1] == "stop" and links.control_to("b")[-1] == "stop"
    assert set(router.results) == {"a", "b"}, "results are still collected"
    assert hook.calls == ["start", "end"]


def test_clean_run_fires_start_and_end_exactly_once():
    hook = _Recorder()
    router, links, _ = make(hook=hook)
    router.run(until=10_000)
    assert hook.calls == ["start", "end"]
    assert links.closed == 1
