#!/usr/bin/env python
"""Hot-path benchmark entry point: emits and checks ``BENCH_hotpaths.json``.

Measures the hot paths the perf PRs target — indexed Scroll queries, the
lazy-deletion scheduler, dirty-page COW captures, whole-log replay from
a spilled Scroll, and the three real-process transports (batched pipe
writes; zero-pickle shared-memory rings; batched socket frames) — and
writes the results as two profiles::

    PYTHONPATH=src python benchmarks/run_bench.py            # full + quick
    PYTHONPATH=src python benchmarks/run_bench.py --quick    # quick only
    PYTHONPATH=src python benchmarks/run_bench.py --quick --check   # CI smoke

``BENCH_hotpaths.json`` holds a ``full`` profile (the committed perf
trajectory at production-ish sizes) and a ``quick`` profile (small sizes,
cheap enough for the default test run).  ``--check`` re-measures the
selected profile(s) and fails (exit 1) when a guarded metric regresses
more than 20% against the committed baseline.  Guarded metrics are the
machine-relative ratios (speedups, reduction factors, slowdowns) — raw
ns/op numbers vary across machines and are reported but not guarded;
each guard also has a green zone derived from the issue's acceptance
floors so scheduler-scale ratios (~10^4x) can't flap CI on timing noise.

The same measurement functions back ``benchmarks/test_perf_hotpaths.py``
and the non-slow smoke test in ``tests/integration/test_bench_smoke.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import statistics  # noqa: E402

from hotpath_baselines import (  # noqa: E402
    NaiveCowCapture,
    NaiveScheduler,
    NaiveScrollQueries,
    interleaved_ns_per_op,
)

from repro.api import Cluster, ClusterConfig, Process, apps, handler  # noqa: E402

# Internal perf oracles: this benchmark measures the scheduler and the
# mp transport's batching knobs themselves, below the facade.
from repro.dsim.backend import MPBackend, MPBackendOptions  # noqa: E402  # facade-ok: transport batching knobs under measurement
from repro.dsim.net_backend import NetBackend, NetBackendOptions  # noqa: E402  # facade-ok: socket batching knobs under measurement
from repro.dsim.scheduler import EventKind, Scheduler  # noqa: E402  # facade-ok: scheduler hot path under measurement
from repro.scroll.entry import ActionKind, ScrollEntry  # noqa: E402
from repro.scroll.replayer import Replayer  # noqa: E402
from repro.scroll.scroll import Scroll  # noqa: E402
from repro.dsim.clock import VectorTimestamp  # noqa: E402  # facade-ok: synthetic recovery lines for the durable store under measurement
from repro.dsim.process import ProcessCheckpoint  # noqa: E402  # facade-ok: synthetic recovery lines for the durable store under measurement
from repro.timemachine import DurableCheckpointStore, RecoveryLine  # noqa: E402
from repro.timemachine.cow import CowPageStore  # noqa: E402

DEFAULT_BASELINE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCH_hotpaths.json"
)

_QUERY_KINDS = [
    ActionKind.RECEIVE,
    ActionKind.SEND,
    ActionKind.RANDOM,
    ActionKind.CLOCK_READ,
    ActionKind.TIMER,
]


def make_entries(n: int, pids: int):
    """A deterministic, realistically shaped global log of ``n`` entries."""
    entries = []
    for index in range(n):
        pid = f"p{index % pids}"
        kind = _QUERY_KINDS[index % len(_QUERY_KINDS)]
        detail = {}
        if kind in (ActionKind.RECEIVE, ActionKind.SEND):
            detail = {"message": {"msg_id": index, "src": pid, "dst": "p0", "kind": "X", "payload": index}}
        elif kind is ActionKind.RANDOM:
            detail = {"method": "random", "value": (index % 997) / 997.0}
        elif kind is ActionKind.CLOCK_READ:
            detail = {"value": index * 0.001}
        elif kind is ActionKind.TIMER:
            detail = {"name": f"t{index % 7}"}
        entries.append(ScrollEntry(pid=pid, kind=kind, time=index * 0.001, detail=detail))
    return entries


def measure_scroll(n: int = 50_000, pids: int = 50, repeats: int = 5) -> Dict[str, float]:
    """Per-pid replay-material queries: indexed Scroll vs linear scans."""
    entries = make_entries(n, pids)
    indexed = Scroll(entries)
    naive = NaiveScrollQueries(entries)
    all_pids = [f"p{i}" for i in range(pids)]

    def run_queries(log) -> int:
        for pid in all_pids:
            log.entries_for(pid)
            log.received_messages(pid)
            log.random_outcomes(pid)
            log.clock_reads(pid)
            log.timer_firings(pid)
        return 5 * len(all_pids)

    indexed_samples, naive_samples = interleaved_ns_per_op(
        lambda: run_queries(indexed), lambda: run_queries(naive), repeats
    )
    return {
        "n_entries": n,
        "indexed_ns_per_query": statistics.median(indexed_samples),
        "naive_ns_per_query": statistics.median(naive_samples),
        # ratio of minima: the uncontended costs, robust to machine load
        "speedup": min(naive_samples) / min(indexed_samples),
    }


def _fill_scheduler(scheduler, n: int, targets: int) -> None:
    """Schedule ``n`` events and cancel roughly half of them.

    Mimics the crash/rollback pattern: whole-target cancellations via
    ``cancel_for_target`` plus scattered single-event cancels.
    """
    events = []
    for index in range(n):
        target = f"t{index % targets}"
        kind = EventKind.DELIVER if index % 3 else EventKind.TIMER
        events.append(scheduler.schedule((index * 7919) % 1000 + 0.001, kind, target, payload=index))
    for target_index in range(0, targets, 2):  # "crash" every other target
        scheduler.cancel_for_target(f"t{target_index}")
    for index in range(0, n, 13):  # scattered timer cancellations
        scheduler.cancel(events[index])


def measure_scheduler(
    n: int = 50_000, targets: int = 100, repeats: int = 3, naive_sample: int = 25
) -> Dict[str, float]:
    """drain()-with-cancellations: lazy deletion vs sort-per-peek.

    The optimized scheduler drains all ``n`` events.  The seed scheduler
    sorts the whole queue on every ``peek_time``, so draining 50k events
    outright is infeasible; its per-event cost is sampled over the first
    ``naive_sample`` drain steps at full queue depth (which *understates*
    the seed's true total cost, since the queue only shrinks later).
    """

    def drain_fast() -> int:
        scheduler = Scheduler()
        _fill_scheduler(scheduler, n, targets)
        count = 0
        for _ in scheduler.drain():
            count += 1
        return count

    def drain_naive_sample() -> int:
        scheduler = NaiveScheduler()
        _fill_scheduler(scheduler, n, targets)
        count = 0
        for _ in scheduler.drain():
            count += 1
            if count >= naive_sample:
                break
        return count

    indexed_samples, naive_samples = interleaved_ns_per_op(
        drain_fast, drain_naive_sample, repeats
    )
    return {
        "n_events": n,
        "indexed_ns_per_event": statistics.median(indexed_samples),
        "naive_ns_per_event": statistics.median(naive_samples),
        "speedup": min(naive_samples) / min(indexed_samples),
    }


def measure_cow(
    keys: int = 200,
    key_bytes: int = 512,
    captures: int = 50,
    mutate_fraction: float = 0.01,
    page_size: int = 1024,
) -> Dict[str, float]:
    """Bytes SHA-1'd per capture: dirty-key tracking vs full re-hash."""
    def make_state() -> dict:
        return {f"key{i:04d}": f"v0-{i:04d}-".ljust(key_bytes, "x") for i in range(keys)}

    mutated = max(1, int(keys * mutate_fraction))

    cow = CowPageStore(page_size=page_size)
    naive = NaiveCowCapture(page_size=page_size)
    state = make_state()
    checkpoints = []
    for round_index in range(captures):
        if round_index:
            for offset in range(mutated):
                position = (round_index * 17 + offset) % keys
                state[f"key{position:04d}"] = f"v{round_index:03d}-{offset:04d}-".ljust(key_bytes, "x")
        checkpoints.append(cow.capture("p", state, float(round_index)))
        naive.capture(state)

    restore_ok = cow.restore(checkpoints[-1]) == state
    cow_per_capture = cow.hashed_bytes_total / captures
    naive_per_capture = naive.hashed_bytes_total / captures
    return {
        "captures": captures,
        "mutate_fraction": mutate_fraction,
        "cow_hashed_bytes_per_capture": cow_per_capture,
        "naive_hashed_bytes_per_capture": naive_per_capture,
        "hash_reduction": naive_per_capture / cow_per_capture,
        "cow_serialized_bytes_per_capture": cow.serialized_bytes_total / captures,
        "naive_serialized_bytes_per_capture": naive.serialized_bytes_total / captures,
        "restore_ok": restore_ok,
    }


def measure_chunked_cow(
    elements: int = 100_000,
    captures: int = 12,
    mutate_fraction: float = 0.01,
    commit_every: int = 3,
    chunk_elems: int = 8,
    page_size: int = 1024,
) -> Dict[str, float]:
    """Delta-chunked captures of one huge dict key vs whole-key re-serialization.

    The kvstore-shaped worst case the chunking exists for: a state with
    a single ``elements``-entry dict, mutated 1% per capture at
    *scattered* positions (scatter is the hard case for chunk locality —
    a contiguous mutation run would flatter the ratio).  The oracle is
    the same store with chunking disabled (``chunk_threshold=None``),
    which re-pickles and re-hashes the whole key per capture; both
    guarded ratios (``pickled_reduction``, ``hash_reduction``) are
    steady-state per-capture costs, excluding the first full capture
    that both stores pay identically.

    Every ``commit_every``-th capture also flushes a synthetic
    single-process recovery line to a durable blob store in a scratch
    directory; ``dedup_ratio`` (logical manifest bytes over unique bytes
    on disk) is the content-addressing payoff across committed lines,
    and ``resume_ok`` gates that the state read back from disk is
    exactly the state at the last commit, insertion order included.
    """
    import shutil
    import tempfile

    def scattered_positions(round_index: int, count: int) -> list:
        # deterministic pseudo-scatter (no RNG): Knuth-style multiplicative
        # stride so mutations land all over the key space every round
        return [
            (round_index * 2654435761 + offset * 97003) % elements
            for offset in range(count)
        ]

    state = {
        "table": {f"k{i:06d}": f"v000-{i:06d}" for i in range(elements)},
        "epoch": 0,
    }
    chunked = CowPageStore(
        page_size=page_size, chunk_threshold=256, chunk_elems=chunk_elems
    )
    whole = CowPageStore(page_size=page_size, chunk_threshold=None)
    mutated = max(1, int(elements * mutate_fraction))
    store_dir = tempfile.mkdtemp(prefix="bench-blobstore-")
    committed_snapshot = None
    try:
        durable = DurableCheckpointStore(
            store_dir, run_id="bench", chunk_threshold=256, chunk_elems=chunk_elems
        )
        chunked_first = whole_first = (0, 0)
        for round_index in range(captures):
            if round_index:
                state["epoch"] = round_index
                for position in scattered_positions(round_index, mutated):
                    state["table"][f"k{position:06d}"] = f"v{round_index:03d}-{position:06d}"
            chunked_latest = chunked.capture("p", state, float(round_index))
            whole_latest = whole.capture("p", state, float(round_index))
            if round_index == 0:
                chunked_first = (chunked.serialized_bytes_total, chunked.hashed_bytes_total)
                whole_first = (whole.serialized_bytes_total, whole.hashed_bytes_total)
            if round_index and round_index % commit_every == 0:
                checkpoint = ProcessCheckpoint(
                    pid="p",
                    sequence=round_index,
                    time=float(round_index),
                    state=state,
                    vt=VectorTimestamp.from_mapping({"p": round_index}),
                    lamport=round_index,
                    rng_draws=0,
                    sent_count=0,
                    received_count=0,
                )
                durable.flush_line(
                    RecoveryLine(
                        checkpoints={"p": checkpoint},
                        rolled_back_steps={},
                        iterations=1,
                        domino_effect=False,
                        label=f"bench-{round_index}",
                    )
                )
                committed_snapshot = {"table": dict(state["table"]), "epoch": state["epoch"]}

        steady = captures - 1
        chunked_pickled = (chunked.serialized_bytes_total - chunked_first[0]) / steady
        chunked_hashed = (chunked.hashed_bytes_total - chunked_first[1]) / steady
        whole_pickled = (whole.serialized_bytes_total - whole_first[0]) / steady
        whole_hashed = (whole.hashed_bytes_total - whole_first[1]) / steady

        restored_chunked = chunked.restore(chunked_latest)
        restored_whole = whole.restore(whole_latest)
        restore_ok = (
            restored_chunked == state
            and restored_whole == state
            and list(restored_chunked["table"]) == list(state["table"])
        )
        _, resumed = DurableCheckpointStore.restore_line(store_dir, "bench")
        resumed_state = resumed["p"].state
        resume_ok = (
            resumed_state == committed_snapshot
            and list(resumed_state["table"]) == list(committed_snapshot["table"])
        )
        stats = durable.stats()
        return {
            "elements": elements,
            "captures": captures,
            "mutate_fraction": mutate_fraction,
            "chunked_pickled_bytes_per_capture": chunked_pickled,
            "whole_pickled_bytes_per_capture": whole_pickled,
            "pickled_reduction": whole_pickled / chunked_pickled,
            "chunked_hashed_bytes_per_capture": chunked_hashed,
            "whole_hashed_bytes_per_capture": whole_hashed,
            "hash_reduction": whole_hashed / chunked_hashed,
            "lines_committed": stats["lines_committed"],
            "chunks_written": stats["chunks_written"],
            "chunks_deduped": stats["chunks_deduped"],
            "chunks_reused": stats["chunks_reused"],
            "logical_bytes": stats["logical_bytes"],
            "bytes_on_disk": stats["bytes_on_disk"],
            "dedup_ratio": stats["logical_bytes"] / max(1, stats["bytes_on_disk"]),
            "restore_ok": restore_ok,
            "resume_ok": resume_ok,
        }
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)


def measure_durable_flush(
    elements: int = 60_000,
    commits: int = 10,
    mutate_fraction: float = 0.01,
    chunk_elems: int = 8,
    page_size: int = 1024,
) -> Dict[str, float]:
    """Commit-path cost of durable flushes: cached chunk sources vs
    re-chunking, and pipelined vs sync commit stall.

    The zero-re-pickle claim: a commit whose checkpoints were captured
    by the chunked COW store should flush from the capture-time pickled
    chunks (the member's ``cow`` capture), so the commit path pickles
    nothing and hashes only the chunks that actually changed since the
    last commit — on a ~1% scattered mutation profile, a small fraction
    of the state.  The oracle is the same store flushed from members
    holding a plain state dict, which re-pickles and re-hashes every
    chunk of every key per commit.  ``commit_bytes_reduction`` is the
    steady-state ratio of those per-commit costs (first commit excluded:
    both variants pay the full initial line identically).

    The pipelining claim: with ``flush_mode="pipelined"`` the hot path
    only snapshots and enqueues — blob IO and fsyncs run on the
    background writer — so the wall time a commit spends inside
    ``flush_line`` (``*_stall_s_per_commit``) must drop strictly below
    the sync mode's.  ``restore_ok``/``resume_ok`` are hard gates: the
    COW store must restore the live state exactly, and each durable
    store (after the pipeline barrier) must resume to exactly the last
    committed snapshot, insertion order included.
    """
    import shutil
    import tempfile
    import time as wall_clock

    mutated = max(1, int(elements * mutate_fraction))

    def scattered_positions(round_index: int, count: int) -> list:
        return [
            (round_index * 2654435761 + offset * 97003) % elements
            for offset in range(count)
        ]

    def run(mode: str, use_cache: bool) -> Dict[str, float]:
        state = {
            "table": {f"k{i:06d}": f"v000-{i:06d}" for i in range(elements)},
            "epoch": 0,
        }
        cow = CowPageStore(
            page_size=page_size, chunk_threshold=256, chunk_elems=chunk_elems
        )
        root = tempfile.mkdtemp(prefix=f"bench-durable-{mode}-")
        durable = None
        try:
            durable = DurableCheckpointStore(
                root,
                run_id="bench",
                chunk_threshold=256,
                chunk_elems=chunk_elems,
                flush_mode=mode,
            )
            stall_s = 0.0
            first_bytes = 0
            committed = None
            for round_index in range(commits):
                if round_index:
                    state["epoch"] = round_index
                    for position in scattered_positions(round_index, mutated):
                        state["table"][f"k{position:06d}"] = (
                            f"v{round_index:03d}-{position:06d}"
                        )
                captured = cow.capture("p", state, float(round_index))
                line = RecoveryLine(
                    checkpoints={
                        "p": ProcessCheckpoint(
                            pid="p",
                            sequence=round_index,
                            time=float(round_index),
                            state=None if use_cache else state,
                            cow=captured if use_cache else None,
                            vt=VectorTimestamp.from_mapping({"p": round_index}),
                            lamport=round_index,
                            rng_draws=0,
                            sent_count=0,
                            received_count=0,
                        )
                    },
                    rolled_back_steps={},
                    iterations=1,
                    domino_effect=False,
                    label=f"bench-{round_index}",
                )
                began = wall_clock.perf_counter()
                durable.flush_line(line)
                if round_index:
                    stall_s += wall_clock.perf_counter() - began
                else:
                    # both variants pay the full first line identically;
                    # steady-state metrics exclude it (stats() drains, so
                    # the pipelined queue is empty entering steady state)
                    stats = durable.stats()
                    first_bytes = (
                        stats["commit_pickled_bytes"] + stats["commit_hashed_bytes"]
                    )
                committed = {"table": dict(state["table"]), "epoch": state["epoch"]}
            stats = durable.stats()  # pipeline barrier: every flush landed
            restore_ok = cow.restore(captured) == state
            _, resumed = DurableCheckpointStore.restore_line(root, "bench")
            resumed_state = resumed["p"].state
            resume_ok = (
                resumed_state == committed
                and list(resumed_state["table"]) == list(committed["table"])
            )
            steady = max(1, commits - 1)
            return {
                "commit_bytes": (
                    stats["commit_pickled_bytes"]
                    + stats["commit_hashed_bytes"]
                    - first_bytes
                )
                / steady,
                "stall_s_per_commit": stall_s / steady,
                "chunks_cached": stats["chunks_cached"],
                "restore_ok": restore_ok,
                "resume_ok": resume_ok,
            }
        finally:
            if durable is not None:
                durable.close()
            shutil.rmtree(root, ignore_errors=True)

    cached = run("sync", True)
    rechunk = run("sync", False)
    pipelined = run("pipelined", True)
    return {
        "elements": elements,
        "commits": commits,
        "mutate_fraction": mutate_fraction,
        "cached_commit_bytes_per_commit": cached["commit_bytes"],
        "rechunk_commit_bytes_per_commit": rechunk["commit_bytes"],
        "commit_bytes_reduction": rechunk["commit_bytes"]
        / max(1.0, cached["commit_bytes"]),
        "chunks_cached": cached["chunks_cached"],
        "sync_stall_s_per_commit": cached["stall_s_per_commit"],
        "pipelined_stall_s_per_commit": pipelined["stall_s_per_commit"],
        "stall_ratio": pipelined["stall_s_per_commit"]
        / max(cached["stall_s_per_commit"], 1e-12),
        "restore_ok": cached["restore_ok"]
        and rechunk["restore_ok"]
        and pipelined["restore_ok"],
        "resume_ok": cached["resume_ok"]
        and rechunk["resume_ok"]
        and pipelined["resume_ok"],
    }


# ----------------------------------------------------------------------
# tiered Scroll: replay from a spilled log vs from memory
# ----------------------------------------------------------------------
class _ReplaySink(Process):
    """Minimal replayable consumer: counts and checksums delivered messages."""

    def on_start(self):
        self.state["received"] = 0
        self.state["checksum"] = 0

    @handler("X")
    def on_x(self, msg):
        self.state["received"] += 1
        self.state["checksum"] = (self.state["checksum"] * 31 + (msg.payload or 0)) % 1_000_003


def make_replay_entries(n: int, pids: int):
    """A deterministic all-RECEIVE log that replays cleanly through _ReplaySink."""
    entries = []
    for index in range(n):
        pid = f"p{index % pids}"
        message = {
            "msg_id": index + 1,
            "src": f"p{(index + 1) % pids}",
            "dst": pid,
            "kind": "X",
            "payload": index % 9973,
        }
        entries.append(
            ScrollEntry(
                pid=pid, kind=ActionKind.RECEIVE, time=index * 0.001, detail={"message": message}
            )
        )
    return entries


def measure_scroll_spill(
    n: int = 100_000, pids: int = 20, hot_fraction: float = 0.10, repeats: int = 3
) -> Dict[str, float]:
    """Whole-system replay driven from a spilled Scroll vs an in-memory one.

    This is the workload tiered storage exists for: the log has
    outgrown memory (only ``hot_fraction`` of it stays hot), and the
    replay driver pulls every process's history back through the
    segment index.  Reported gates: ``replay_slowdown`` (spilled replay
    wall-time over in-memory replay wall-time; acceptance ceiling 2x)
    and ``memory_reduction`` (resident entry-storage bytes, in-memory
    over tiered; acceptance floor 5x at a 10% hot window).
    """
    entries = make_replay_entries(n, pids)
    hot_window = max(1, int(n * hot_fraction))
    memory = Scroll(entries)
    tiered = Scroll(entries, hot_window=hot_window)
    factories = {f"p{i}": _ReplaySink for i in range(pids)}

    def replay(log) -> int:
        report = Replayer(log, factories).replay_all()
        return report.total_events()

    # correctness first: both logs must replay to identical states
    from_memory = Replayer(memory, factories).replay_all()
    from_tiered = Replayer(tiered, factories).replay_all()
    replay_equivalent = from_memory.ok == from_tiered.ok and all(
        from_memory.processes[pid].final_state == from_tiered.processes[pid].final_state
        for pid in from_memory.processes
    )

    memory_samples, tiered_samples = interleaved_ns_per_op(
        lambda: replay(memory), lambda: replay(tiered), repeats
    )
    resident_memory = memory.resident_bytes()
    resident_tiered = tiered.resident_bytes()  # steady state: cache warm after replays
    metrics = {
        "n_entries": n,
        "hot_window": hot_window,
        "spilled_entries": tiered.spill_watermark,
        "segments": tiered.storage_stats()["store"]["segments"],
        "replay_equivalent": replay_equivalent,
        "memory_replay_ns_per_event": statistics.median(memory_samples),
        "tiered_replay_ns_per_event": statistics.median(tiered_samples),
        "replay_slowdown": min(tiered_samples) / min(memory_samples),
        "resident_bytes_memory": resident_memory,
        "resident_bytes_tiered": resident_tiered,
        "memory_reduction": resident_memory / resident_tiered,
    }
    tiered.close()
    return metrics


# ----------------------------------------------------------------------
# multiprocessing transport: batched vs per-message pipe writes
# ----------------------------------------------------------------------
def measure_mp_batching(
    workers: int = 4, chunks: int = 360, words_per_chunk: int = 12, seed: int = 3
) -> Dict[str, float]:
    """Pipe writes and wall time for a heavy-traffic wordcount on real processes.

    Runs the burst-dispatching wordcount twice on the ``mp`` backend:
    once with the batched transport (workers flush at the watermark, the
    router writes one batch per destination per tick) and once degraded
    to one pickled pipe write per message — the pre-batching behaviour.
    Both runs must aggregate the full corpus to the exact expected
    counts; the guarded metric is ``pipe_write_reduction`` (acceptance
    floor 2x), with wall-clock reported alongside.
    """
    import time as wall_clock

    def run(batched: bool):
        options = MPBackendOptions(
            time_scale=0.01,
            flush_watermark=64 if batched else 1,
            batch_deliveries=batched,
        )
        backend = MPBackend(options)
        cluster = Cluster(ClusterConfig(seed=seed), backend=backend)
        apps.build(
            cluster,
            "wordcount_burst",
            workers=workers,
            chunks=chunks,
            words_per_chunk=words_per_chunk,
        )
        began = wall_clock.perf_counter()
        result = cluster.run(until=1000.0)
        wall = wall_clock.perf_counter() - began
        master = result.process_states.get("master", {})
        expected_counts = apps.app("wordcount_burst").exports["expected_counts"]
        complete = (
            master.get("aggregated") == chunks
            and master.get("counts") == expected_counts(chunks, words_per_chunk)
        )
        return wall, backend.transport_stats, complete

    batched_wall, batched_stats, batched_ok = run(True)
    unbatched_wall, unbatched_stats, unbatched_ok = run(False)
    return {
        "workers": workers,
        "chunks": chunks,
        "messages": batched_stats["messages_routed"],
        "pipe_writes_batched": batched_stats["pipe_writes"],
        "pipe_writes_unbatched": unbatched_stats["pipe_writes"],
        "pipe_write_reduction": unbatched_stats["pipe_writes"] / batched_stats["pipe_writes"],
        "max_batch": batched_stats["max_batch"],
        "wall_batched_s": batched_wall,
        "wall_unbatched_s": unbatched_wall,
        "wall_speedup": unbatched_wall / batched_wall,
        "results_complete": batched_ok and unbatched_ok,
    }


# ----------------------------------------------------------------------
# socket transport: batched frames vs per-message socket writes
# ----------------------------------------------------------------------
def measure_net_transport(
    workers: int = 4,
    chunks: int = 360,
    words_per_chunk: int = 12,
    shards: int = 2,
    seed: int = 3,
) -> Dict[str, float]:
    """Socket writes and pickle bytes for a heavy-traffic wordcount on ``net``.

    Runs the burst-dispatching wordcount twice on the socket backend:
    once with the batched transport (workers flush at the watermark, the
    shard routers coalesce per-destination writes) and once degraded to
    one framed socket write per message — the naive wire behaviour.
    Both runs must aggregate the full corpus to the exact expected
    counts.  The guarded headline is ``socket_write_reduction``
    (acceptance floor 5x); ``messages_pickled_batched`` must be zero —
    the delivery hot path rides the marshal fast frames, pickle only
    survives on control frames (probes/results/hello).
    """
    import time as wall_clock

    def run(batched: bool):
        options = NetBackendOptions(
            time_scale=0.01,
            flush_watermark=64 if batched else 1,
            batch_deliveries=batched,
            shards=shards,
        )
        backend = NetBackend(options)
        cluster = Cluster(ClusterConfig(seed=seed), backend=backend)
        apps.build(
            cluster,
            "wordcount_burst",
            workers=workers,
            chunks=chunks,
            words_per_chunk=words_per_chunk,
        )
        began = wall_clock.perf_counter()
        result = cluster.run(until=1000.0)
        wall = wall_clock.perf_counter() - began
        master = result.process_states.get("master", {})
        expected_counts = apps.app("wordcount_burst").exports["expected_counts"]
        complete = (
            master.get("aggregated") == chunks
            and master.get("counts") == expected_counts(chunks, words_per_chunk)
        )
        return wall, backend.transport_stats, complete

    batched_wall, batched_stats, batched_ok = run(True)
    unbatched_wall, unbatched_stats, unbatched_ok = run(False)
    return {
        "workers": workers,
        "chunks": chunks,
        "shards": shards,
        "messages": batched_stats["messages_routed"],
        "socket_writes_batched": batched_stats["socket_writes"],
        "socket_writes_unbatched": unbatched_stats["socket_writes"],
        "socket_write_reduction": unbatched_stats["socket_writes"]
        / max(1, batched_stats["socket_writes"]),
        "socket_bytes_batched": batched_stats["socket_bytes"],
        "messages_fast": batched_stats["messages_fast"],
        "messages_pickled_batched": batched_stats["messages_pickled"],
        "max_batch": batched_stats["max_batch"],
        "wall_batched_s": batched_wall,
        "wall_unbatched_s": unbatched_wall,
        "wall_speedup": unbatched_wall / batched_wall,
        "results_complete": batched_ok and unbatched_ok,
    }


# ----------------------------------------------------------------------
# shared-memory ring transport: zero-pickle frames vs the batched pipe
# ----------------------------------------------------------------------
def measure_shm_ring(
    workers: int = 4,
    chunks: int = 1200,
    words_per_chunk: int = 24,
    repeats: int = 3,
    seed: int = 3,
) -> Dict[str, float]:
    """Serialization bytes and wall time: shm rings vs the batched pipe.

    Runs the burst-dispatching wordcount fan-in on the ``mp`` backend
    with both transports.  The shm transport moves every data frame
    through per-worker shared-memory rings with a marshal fast path, so
    the hot path never touches ``pickle`` — the guarded headline is
    ``pickled_reduction`` (pickled bytes *per routed message*, pipe over
    shm; acceptance floor 2x, measured orders of magnitude above it).

    ``wall_speedup`` is the ratio of minima over ``repeats`` paired runs
    (minima: uncontended cost, robust to machine load).  On a
    single-core container wall tracks *total CPU across all processes*,
    and the transport's share of a faithful workload bounds the
    reachable ratio (~1.1x here; multi-core hosts, where the rings'
    zero-copy path overlaps with application work, see more).  It is
    therefore guarded as a no-regression backstop (green zone 0.85 =
    "never materially slower than the pipe") rather than as the
    headline.  Both runs must aggregate the full corpus exactly
    (``results_complete``), which is a hard gate.
    """
    import time as wall_clock

    def run(transport: str):
        options = MPBackendOptions(time_scale=0.01, transport=transport)
        backend = MPBackend(options)
        cluster = Cluster(ClusterConfig(seed=seed), backend=backend)
        apps.build(
            cluster,
            "wordcount_burst",
            workers=workers,
            chunks=chunks,
            words_per_chunk=words_per_chunk,
        )
        began = wall_clock.perf_counter()
        result = cluster.run(until=4000.0)
        wall = wall_clock.perf_counter() - began
        master = result.process_states.get("master", {})
        expected = apps.app("wordcount_burst").exports["expected_counts"]
        complete = (
            result.stopped_reason == "quiescent"
            and master.get("aggregated") == chunks
            and master.get("counts") == expected(chunks, words_per_chunk)
        )
        return wall, backend.transport_stats, complete

    pipe_walls, shm_walls = [], []
    complete = True
    pipe_stats = shm_stats = None
    for _ in range(repeats):
        wall, pipe_stats, ok = run("pipe")
        pipe_walls.append(wall)
        complete = complete and ok
        wall, shm_stats, ok = run("shm")
        shm_walls.append(wall)
        complete = complete and ok

    messages = max(1, pipe_stats["messages_routed"])
    pipe_bytes_per_message = pipe_stats["pickled_bytes"] / messages
    shm_bytes_per_message = shm_stats["pickled_bytes"] / max(1, shm_stats["messages_routed"])
    return {
        "workers": workers,
        "chunks": chunks,
        "messages": messages,
        "pickled_bytes_per_message_pipe": pipe_bytes_per_message,
        "pickled_bytes_per_message_shm": shm_bytes_per_message,
        # pickle only survives on the shm control plane (probes/results)
        "pickled_reduction": pipe_bytes_per_message / max(shm_bytes_per_message, 1e-9),
        "messages_fast": shm_stats["messages_fast"],
        "messages_pickled_shm": shm_stats["messages_pickled"],
        "ring_bytes": shm_stats["ring_bytes"],
        "nudges": shm_stats["nudges"],
        "wall_pipe_s": min(pipe_walls),
        "wall_shm_s": min(shm_walls),
        "wall_speedup": min(pipe_walls) / min(shm_walls),
        "results_complete": complete,
    }


# ----------------------------------------------------------------------
# profiles and the regression guard
# ----------------------------------------------------------------------
def run_profile(profile: str) -> Dict[str, Dict[str, float]]:
    """Measure every section at the sizes of ``profile`` ("full"|"quick")."""
    if profile == "quick":
        return {
            "scroll_per_pid_queries": measure_scroll(n=10_000, pids=20, repeats=3),
            "scheduler_drain_cancellations": measure_scheduler(
                n=10_000, targets=50, repeats=2, naive_sample=15
            ),
            "cow_capture_dirty_pages": measure_cow(keys=100, captures=20),
            "chunked_cow": measure_chunked_cow(elements=20_000, captures=6, commit_every=1),
            "durable_flush": measure_durable_flush(elements=10_000, commits=5),
            "scroll_spill_replay": measure_scroll_spill(n=20_000, pids=10, repeats=2),
            "mp_batching": measure_mp_batching(workers=2, chunks=120),
            "net_transport": measure_net_transport(workers=2, chunks=120),
            # repeats=4: the sub-second quick samples need min-of-4 pairs
            # for a stable wall ratio (min-of-2 flaps under machine load)
            "shm_ring": measure_shm_ring(workers=2, chunks=240, words_per_chunk=12, repeats=4),
        }
    return {
        "scroll_per_pid_queries": measure_scroll(),
        "scheduler_drain_cancellations": measure_scheduler(),
        "cow_capture_dirty_pages": measure_cow(),
        "chunked_cow": measure_chunked_cow(),
        "durable_flush": measure_durable_flush(),
        "scroll_spill_replay": measure_scroll_spill(),
        "mp_batching": measure_mp_batching(),
        "net_transport": measure_net_transport(),
        "shm_ring": measure_shm_ring(),
    }


#: (section, metric, direction, green_zone) — the regression guard.
#:
#: direction "higher": regression when current < baseline * 0.8;
#: direction "lower":  regression when current > baseline * 1.2.
#: The green zone (derived from each metric's acceptance criterion with
#: margin) overrides the relative check: values on its safe side never
#: fail, so enormous noisy ratios can't flap the guard.
#: Count and byte guards: functions of what the code does, not of how
#: fast the box is.  These are the only guards tier-1 checks
#: (``tests/integration/test_bench_smoke.py``).
COUNT_GUARDS: List[Tuple[str, str, str, float]] = [
    ("cow_capture_dirty_pages", "hash_reduction", "higher", 10.0),
    # delta-chunked container captures: acceptance floor 10x on the full
    # profile; green zones at half so the small quick profile (fewer
    # elements -> coarser scatter math) can't flap CI
    ("chunked_cow", "pickled_reduction", "higher", 5.0),
    ("chunked_cow", "hash_reduction", "higher", 5.0),
    # content-addressed dedup across committed lines (acceptance floor 2x)
    ("chunked_cow", "dedup_ratio", "higher", 2.0),
    # zero-re-pickle commits: flushing from the COW chunk cache must cut
    # commit-path pickled+hashed bytes >=5x on ~1% inter-commit mutations
    ("durable_flush", "commit_bytes_reduction", "higher", 5.0),
    ("scroll_spill_replay", "memory_reduction", "higher", 5.0),
    ("mp_batching", "pipe_write_reduction", "higher", 2.0),
    # socket batching: one framed sendall per destination batch must cut
    # socket writes >=5x vs per-message frames (the net acceptance floor)
    ("net_transport", "socket_write_reduction", "higher", 5.0),
    # zero pickle on the net delivery hot path — every batch/flush item
    # rides the marshal fast frames; direction "lower" with green zone 0
    # makes any nonzero count an immediate failure
    ("net_transport", "messages_pickled_batched", "lower", 0.0),
    # the shm acceptance floor (2x); measured ~2 orders of magnitude above
    ("shm_ring", "pickled_reduction", "higher", 2.0),
]

#: Wall-clock guards: ratios of two timings taken on this box.  Checked
#: by ``--check`` / ``make bench-smoke`` only — a sub-second sample on a
#: shared core must not be able to fail ``pytest -x -q``; the wall story
#: proper is ``BENCHMARK.json`` (``benchmarks/e2e``).
WALL_GUARDS: List[Tuple[str, str, str, float]] = [
    ("scroll_per_pid_queries", "speedup", "higher", 10.0),
    ("scheduler_drain_cancellations", "speedup", "higher", 100.0),
    # the pipelined writer must keep commit stall strictly below sync;
    # green zone 0.95 leaves headroom for timing noise on loaded boxes
    ("durable_flush", "stall_ratio", "lower", 0.95),
    ("scroll_spill_replay", "replay_slowdown", "lower", 1.6),
    # conservative wall floor: 2x measured on this box, green zone well
    # below it so scheduler noise can't flap CI
    ("mp_batching", "wall_speedup", "higher", 1.2),
    # shm must never be materially slower than the pipe.  The perf claim
    # lives in pickled_reduction; wall_speedup is a no-regression
    # backstop because on single-core hosts its honest value sits near
    # 1.1 (see measure_shm_ring) over sub-second samples — a tight
    # near-1.0 wall guard would flap CI on scheduler noise alone.
    ("shm_ring", "wall_speedup", "higher", 0.85),
]

GUARDED_METRICS = COUNT_GUARDS + WALL_GUARDS


def check_against(
    baseline: Dict[str, Dict[str, float]],
    current: Dict[str, Dict[str, float]],
    tolerance: float = 0.20,
    guards: List[Tuple[str, str, str, float]] = GUARDED_METRICS,
) -> List[str]:
    """Compare ``guards`` (default: all); returns human-readable failure strings."""
    failures: List[str] = []
    for section, metric, direction, green_zone in guards:
        if section not in baseline or section not in current:
            failures.append(f"{section}: missing from {'baseline' if section not in baseline else 'current run'}")
            continue
        base = baseline[section].get(metric)
        now = current[section].get(metric)
        if base is None or now is None:
            failures.append(f"{section}.{metric}: missing value (baseline={base}, current={now})")
            continue
        if direction == "higher":
            if now >= green_zone:
                continue
            if now < base * (1.0 - tolerance):
                failures.append(
                    f"{section}.{metric}: {now:.2f} regressed >{tolerance:.0%} vs baseline {base:.2f}"
                )
        else:
            if now <= green_zone:
                continue
            if now > base * (1.0 + tolerance):
                failures.append(
                    f"{section}.{metric}: {now:.2f} regressed >{tolerance:.0%} vs baseline {base:.2f}"
                )
    # hard correctness gates ride along with the guard
    spill = current.get("scroll_spill_replay", {})
    if spill and not spill.get("replay_equivalent", True):
        failures.append("scroll_spill_replay: spilled replay is NOT equivalent to in-memory replay")
    cow = current.get("cow_capture_dirty_pages", {})
    if cow and not cow.get("restore_ok", True):
        failures.append("cow_capture_dirty_pages: restore mismatch")
    chunked = current.get("chunked_cow", {})
    if chunked and not chunked.get("restore_ok", True):
        failures.append("chunked_cow: chunked restore does not match the live state")
    if chunked and not chunked.get("resume_ok", True):
        failures.append("chunked_cow: durable resume does not match the last committed state")
    flush = current.get("durable_flush", {})
    if flush and not flush.get("restore_ok", True):
        failures.append("durable_flush: COW restore does not match the live state")
    if flush and not flush.get("resume_ok", True):
        failures.append("durable_flush: a durable store did not resume to the last committed snapshot")
    batching = current.get("mp_batching", {})
    if batching and not batching.get("results_complete", True):
        failures.append("mp_batching: a run failed to aggregate the full corpus")
    net = current.get("net_transport", {})
    if net and not net.get("results_complete", True):
        failures.append("net_transport: a run failed to aggregate the full corpus")
    if net and net.get("messages_pickled_batched", 0) != 0:
        failures.append("net_transport: pickle leaked onto the delivery hot path")
    ring = current.get("shm_ring", {})
    if ring and not ring.get("results_complete", True):
        failures.append("shm_ring: a run failed to aggregate the full corpus")
    return failures


def load_baseline(path: str) -> Dict[str, Dict]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _print_profile(profile: str, results: Dict[str, Dict[str, float]]) -> None:
    for name, metrics in results.items():
        line = ", ".join(
            f"{key}={value:.1f}" if isinstance(value, float) else f"{key}={value}"
            for key, value in metrics.items()
        )
        print(f"[{profile}] {name}: {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="measure only the quick (CI smoke) profile")
    parser.add_argument("--out", default=DEFAULT_BASELINE, help="output path for profile JSON")
    parser.add_argument(
        "--check",
        nargs="?",
        const=DEFAULT_BASELINE,
        default=None,
        metavar="BASELINE",
        help="do not write results; fail if a guarded metric regresses >20%% "
        "vs BASELINE (default: the committed BENCH_hotpaths.json)",
    )
    args = parser.parse_args(argv)

    profiles = ["quick"] if args.quick else ["full", "quick"]
    results = {profile: run_profile(profile) for profile in profiles}
    for profile in profiles:
        _print_profile(profile, results[profile])

    if args.check is not None:
        baseline = load_baseline(args.check)
        failed = False
        for profile in profiles:
            if profile not in baseline:
                print(f"check[{profile}]: no such profile in {args.check}")
                failed = True
                continue
            failures = check_against(baseline[profile], results[profile])
            if failures:
                failed = True
                for failure in failures:
                    print(f"check[{profile}] FAIL: {failure}")
            else:
                print(f"check[{profile}]: all guarded metrics within 20% of baseline")
        return 1 if failed else 0

    # Merge into an existing baseline rather than overwrite it: a
    # `--quick` run must not silently drop the committed full profile.
    merged = {}
    if os.path.exists(args.out):
        try:
            merged = load_baseline(args.out)
        except (OSError, ValueError):
            merged = {}
    merged.update(results)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(merged, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.out} (profiles: {', '.join(sorted(merged))})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
