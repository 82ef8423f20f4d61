"""The traced pass: spans around calls into each layer, and the layer metrics.

Nothing under ``src/`` is edited.  Spans are recorded from here, either
around whole runs that differ by one attached layer (the simulator
ladder, the durable-store ablation, the link probes) or by wrapping a
layer's public method for the duration of a probe (:func:`patched`), so
the real pipeline is timed while it handles a real fault or resume.

Every traced run emits every per-layer metric.  ``--workload`` picks the
*focus*: its probe group repeats until the time budget is spent, every
other group runs once, and ``harness.trace_overhead_share`` compares
that workload's iterations with and without the spans.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import json
import re
import shutil
import statistics
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.api import Cluster, ClusterConfig, FixD, FixDConfig, Message, Scenario, run_scenario
from repro.api import apps as registry
from repro.api.modelcheck import Investigator
from repro.core.faults import FaultDetector
from repro.core.protocol import FaultResponseCoordinator
from repro.core.report import BugReport
from repro.dsim.shm_ring import decode_item, encode_item, new_stats  # facade-ok: the flat-frame codec is timed directly
from repro.healer.healer import Healer
from repro.scroll.recorder import ScrollRecorder
from repro.scroll.replayer import Replayer
from repro.timemachine import DurableCheckpointStore, TimeMachine

import workloads as wl

LINKS = {"pipe": ("mp", "pipe"), "shm": ("mp", "shm"), "net": ("net", "pipe")}


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class Tracer:
    """In-memory spans; self time and the file are computed when the run ends."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        self.iteration = 0

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "layer": layer,
            "parent": self._stack[-1] if self._stack else None,
            "iteration": self.iteration,
            "start_ns": time.perf_counter_ns(),
            "end_ns": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end_ns"] = time.perf_counter_ns()
            self._stack.pop()

    def finish(self) -> None:
        """Fill in ``dur_ns`` and ``self_ns`` (duration minus direct children)."""
        for record in self.spans:
            record["dur_ns"] = record["end_ns"] - record["start_ns"]
            record["self_ns"] = record["dur_ns"]
        for record in self.spans:
            if record["parent"] is not None:
                self.spans[record["parent"]]["self_ns"] -= record["dur_ns"]

    def layer_self_ms(self) -> Dict[str, float]:
        table: Dict[str, float] = {}
        for record in self.spans:
            table[record["layer"]] = table.get(record["layer"], 0.0) + record["self_ns"] / 1e6
        return table

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for record in self.spans:
                out.write(json.dumps(record) + "\n")


def total_ms(spans: Iterable[Dict[str, Any]], name: str, field: str = "dur_ns") -> float:
    return sum(s[field] for s in spans if s["name"] == name) / 1e6


#: (owner class, attribute, span name, layer, note) — ``note(result)`` may
#: return extra fields to keep on the span
Target = Tuple[type, str, str, str, Optional[Callable[[Any], Dict[str, Any]]]]


@contextlib.contextmanager
def patched(tracer: Tracer, targets: List[Target]):
    """Wrap public methods in spans for the duration of the block."""
    originals = []
    try:
        for owner, attr, name, layer, note in targets:
            raw = owner.__dict__[attr]
            originals.append((owner, attr, raw))
            rewrap = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
            function = raw.__func__ if rewrap else raw

            def traced(*args, _function=function, _name=name, _layer=layer, _note=note, **kwargs):
                with tracer.span(_name, _layer) as record:
                    result = _function(*args, **kwargs)
                    if _note is not None:
                        record.update(_note(result))
                    return result

            functools.update_wrapper(traced, function)
            setattr(owner, attr, rewrap(traced) if rewrap else traced)
        yield
    finally:
        for owner, attr, raw in originals:
            setattr(owner, attr, raw)


PIPELINE_TARGETS: List[Target] = [
    (FaultDetector, "on_invariant_violation", "core.respond", "core", None),
    (FaultResponseCoordinator, "run", "core.collect", "core", None),
    (TimeMachine, "latest_recovery_line", "timemachine.recovery_line", "timemachine", None),
    (TimeMachine, "rollback_to", "timemachine.rollback", "timemachine", None),
    (
        Investigator,
        "investigate",
        "investigator.investigate",
        "investigator",
        lambda report: {"states": report.states_explored},
    ),
    (BugReport, "build_scroll_tail", "core.report", "core", None),
    (BugReport, "__init__", "core.report", "core", None),
    (Healer, "heal", "healer.heal", "healer", None),
]
RESUME_TARGETS: List[Target] = [
    (DurableCheckpointStore, "restore_line", "timemachine.restore", "timemachine", None),
    (DurableCheckpointStore, "rebuild_scroll", "timemachine.rebuild_scroll", "timemachine", None),
    (
        Replayer,
        "replay_forward",
        "scroll.replay_forward",
        "scroll",
        lambda replay: {"entries": replay.events_replayed + replay.draws_consumed},
    ),
]
TARGETS = {"fault_heal": PIPELINE_TARGETS, "durable_resume": RESUME_TARGETS}


class Probe:
    """Shared state of one traced run: the tracer, pass/fail counts, the budget."""

    def __init__(self, args) -> None:
        self.tracer = Tracer()
        self.seed = args.seed
        self.tmp = Path(args.tmp)
        self.fixed_reps = args.iterations
        self.attempted = 0
        self.failures: List[str] = []

    def check(self, what: str, held: bool) -> None:
        self.attempted += 1
        if not held:
            self.failures.append(what)

    def check_sample(self, what: str, sample: wl.Sample) -> None:
        self.check(f"{what}: {sample.note}", sample.ok)

    def reps(self, budget_s: float):
        """Yield rep numbers: at least one, then until the budget is spent."""
        deadline = time.perf_counter() + budget_s
        rep = 0
        while rep == 0 or (
            rep < self.fixed_reps if self.fixed_reps else time.perf_counter() < deadline
        ):
            self.tracer.iteration = rep
            yield rep
            rep += 1

    def workload(self, name: str, warm: bool = False) -> wl.Workload:
        workload = wl.WORKLOADS[name](self.seed, self.tmp)
        workload.setup()
        if warm:
            self.check_sample(f"{name} warm-up", workload.warmup(-1))
        return workload


# ----------------------------------------------------------------------
# the simulator ladder: one more layer attached per rung
# ----------------------------------------------------------------------
def _bare(scenario: Scenario) -> Cluster:
    cluster = Cluster(ClusterConfig(seed=scenario.seed, halt_on_violation=False))
    registry.build(cluster, scenario.app, **scenario.params)
    return cluster


def _with_recorder(scenario: Scenario) -> Cluster:
    cluster = _bare(scenario)
    cluster.add_hook(ScrollRecorder())
    return cluster


def _with_time_machine(scenario: Scenario) -> Cluster:
    cluster = _with_recorder(scenario)
    TimeMachine().attach(cluster)
    return cluster


def _with_fixd(scenario: Scenario) -> Cluster:
    cluster = _bare(scenario)
    FixD(
        FixDConfig(
            investigate_on_fault=scenario.investigate,
            max_faults_handled=scenario.max_faults_handled,
            auto_commit_interval=scenario.auto_commit_interval,
        )
    ).attach(cluster)
    return cluster


#: rung -> (builder, the layer that rung adds, metric the step to it is reported as)
LADDER = [
    ("L0", _bare, "dsim", "dsim.{}us_per_event"),
    ("L1", _with_recorder, "scroll", "scroll.{}record_us_per_event"),
    ("L2", _with_time_machine, "timemachine", "timemachine.{}capture_us_per_event"),
    ("L3", _with_fixd, "core", "core.{}detect_us_per_event"),
]


def ladder(probe: Probe, scenario: Scenario, prefix: str, budget_s: float) -> Dict[str, float]:
    """L0 bare cluster .. L3 full FixD (``cluster.run`` only), L4 ``run_scenario``."""
    rungs = [("L4", None, "api")] + [(rung, build, layer) for rung, build, layer, _ in LADDER]
    walls: Dict[str, List[int]] = {rung: [] for rung, *_ in rungs}
    reference = run_scenario(scenario)  # untimed: warms caches, fixes what every rung must reproduce
    events, entries = reference.events_executed, reference.scroll["entries"]
    for rep in probe.reps(budget_s):
        # rotate the order so no rung always runs on the heap another one left
        turn = rep % len(rungs)
        for rung, build, layer in rungs[turn:] + rungs[:turn]:
            cluster = build(scenario) if build else None
            gc.collect()
            with probe.tracer.span(f"{prefix}ladder.{rung}", layer) as record:
                if cluster is None:
                    outcome = run_scenario(scenario)
                else:
                    result = cluster.run(until=scenario.until, max_events=scenario.max_events)
            walls[rung].append(record["end_ns"] - record["start_ns"])
            if cluster is None:
                same = outcome.passed and outcome.projection() == reference.projection()
            else:
                same = (
                    result.events_executed == events
                    and result.process_states == reference.final_states
                )
            probe.check(f"{prefix}ladder {rung}: same events and states on every rung", same)
    per_event = {rung: statistics.median(ns) / 1e3 / events for rung, ns in walls.items()}
    metrics = {f"scroll.{prefix}entries_per_event": entries / events}
    below = 0.0
    for rung, _build, _layer, metric in LADDER:
        metrics[metric.format(prefix)] = per_event[rung] - below
        below = per_event[rung]
    metrics[f"api.{prefix}us_per_event"] = per_event["L4"] - below
    return metrics


# ----------------------------------------------------------------------
# the fault pipeline, phase by phase
# ----------------------------------------------------------------------
def fault_pipeline(probe: Probe, workload: wl.Workload, budget_s: float) -> Dict[str, float]:
    first = len(probe.tracer.spans)
    faults = 0
    with patched(probe.tracer, PIPELINE_TARGETS):
        for rep in probe.reps(budget_s):
            sample = workload.iterate(rep, probe.tracer.span)
            probe.check_sample("fault pipeline", sample)
            faults += sample.ops
    probe.tracer.finish()
    spans = probe.tracer.spans[first:]
    states = sum(s.get("states", 0) for s in spans)
    investigate_ms = total_ms(spans, "investigator.investigate")
    phases = {
        "core.collect_ms": total_ms(spans, "core.collect", "self_ns"),
        "timemachine.recovery_line_ms": total_ms(spans, "timemachine.recovery_line"),
        "timemachine.rollback_ms": total_ms(spans, "timemachine.rollback"),
        "investigator.investigate_ms": investigate_ms,
        "core.report_ms": total_ms(spans, "core.report"),
        "healer.heal_ms": total_ms(spans, "healer.heal", "self_ns"),
    }
    metrics = {name: value / faults for name, value in phases.items()}
    metrics["dsim.history_build_ms"] = total_ms(spans, "dsim.history_build") / faults
    metrics["investigator.states_explored"] = states / faults
    metrics["investigator.us_per_state"] = investigate_ms * 1e3 / states
    # the ">= 90% of the fault-to-healed wall is explained" criterion
    metrics["core.pipeline_coverage_share"] = sum(phases.values()) / total_ms(
        spans, "fault_heal.phase_b"
    )
    return metrics


# ----------------------------------------------------------------------
# the durable store: ablation plus the resume path's public calls
# ----------------------------------------------------------------------
def durable_store(probe: Probe, workload: wl.Workload, budget_s: float) -> Dict[str, float]:
    first = len(probe.tracer.spans)
    walls: Dict[str, List[int]] = {"memory": [], "sync": [], "pipelined": []}
    store: Dict[str, int] = {}
    with patched(probe.tracer, RESUME_TARGETS):
        for rep in probe.reps(budget_s):
            for mode in walls:
                root = None if mode == "memory" else str(workload.stores / f"ablate-{mode}-{rep}")
                scenario = workload.scenario(root, workload.horizon, mode if root else "sync")
                gc.collect()
                with probe.tracer.span(f"timemachine.ablation.{mode}", "timemachine") as record:
                    outcome = run_scenario(scenario)
                walls[mode].append(record["end_ns"] - record["start_ns"])
                probe.check(f"durable ablation {mode}: {outcome.failures}", outcome.passed)
                if mode == "sync":
                    store = outcome.store
                if root:
                    shutil.rmtree(root, ignore_errors=True)
            probe.check_sample("durable resume", workload.iterate(1000 + rep, probe.tracer.span))
            workload.tidy()
    probe.tracer.finish()
    spans = probe.tracer.spans[first:]
    wall_ms = {mode: statistics.median(ns) / 1e6 for mode, ns in walls.items()}
    lines, written = store["lines_committed"], store["chunks_written"]
    resumes = sum(1 for s in spans if s["name"] == "api.resume")
    continues = sum(1 for s in spans if s["name"] == "api.continue")
    replayed = sum(s.get("entries", 0) for s in spans)
    commit_ms = wall_ms["sync"] - wall_ms["memory"]
    return {
        "timemachine.commit_ms_per_line": commit_ms / lines,
        "timemachine.pipelined_wall_ratio": wall_ms["pipelined"] / wall_ms["sync"],
        "timemachine.chunks_written_per_line": written / lines,
        "timemachine.chunk_reuse_share": store["chunks_reused"]
        / (written + store["chunks_reused"] + store["chunks_deduped"]),
        "timemachine.disk_bytes_per_line": store["bytes_on_disk"] / lines,
        "timemachine.fsync_us_per_chunk": commit_ms * 1e3 / written,
        "timemachine.restore_ms": total_ms(spans, "timemachine.restore") / resumes,
        "timemachine.rebuild_scroll_ms": total_ms(spans, "timemachine.rebuild_scroll") / resumes,
        "scroll.replay_forward_us_per_entry": total_ms(spans, "scroll.replay_forward")
        * 1e3
        / replayed,
        "api.run_to_cut_ms": total_ms(spans, "api.run_to_cut") / continues,
        "api.resume_ms": total_ms(spans, "api.resume") / resumes,
        "api.continue_ms": total_ms(spans, "api.continue") / continues,
    }


# ----------------------------------------------------------------------
# the three real-process links, the simulator's round, the codec
# ----------------------------------------------------------------------
def link(probe: Probe, tag: str, budget_s: float) -> Dict[str, float]:
    backend, transport = LINKS[tag]
    burst = wl.BurstPipe(probe.seed, probe.tmp)
    pingpong = wl.PingpongPipe(probe.seed, probe.tmp)
    for workload in (burst, pingpong):
        workload.backend, workload.transport = backend, transport
        workload.setup()
    burst.pickles = tag == "pipe"
    rounds = pingpong.rounds if budget_s else 100  # the full sample only when in focus
    idle_ms, full_ms, rtts, stats = [], [], [], {}
    for rep in probe.reps(budget_s):
        with probe.tracer.span(f"dsim.{tag}.spawn_teardown", "dsim") as record:
            idle = run_scenario(burst.scenario(chunks=1))
        idle_ms.append((record["end_ns"] - record["start_ns"]) / 1e6)
        probe.check(f"{tag} idle burst: {idle.failures}", idle.passed)
        sample = burst.iterate(rep, probe.tracer.span)
        probe.check_sample(f"{tag} burst", sample)
        full_ms.extend(sample.latencies_ms)
        stats = burst.last_transport
        sample = pingpong.play(rounds, probe.tracer.span)
        probe.check_sample(f"{tag} pingpong", sample)
        rtts.extend(sample.latencies_ms)
    rtts.sort()
    messages = stats["messages_delivered"]
    writes = stats.get("socket_writes", stats.get("pipe_writes", 0)) + stats["ring_frames"]
    wire_bytes = stats.get("socket_bytes", stats["pickled_bytes"] + stats["ring_bytes"])
    return {
        f"dsim.{tag}.spawn_teardown_ms": statistics.median(idle_ms),
        f"dsim.{tag}.marginal_us_per_msg": (statistics.median(full_ms) - statistics.median(idle_ms))
        * 1e3
        / messages,
        f"dsim.{tag}.writes_per_kmsg": writes * 1e3 / messages,
        f"dsim.{tag}.wire_bytes_per_msg": wire_bytes / messages,
        f"dsim.{tag}.max_batch": stats["max_batch"],
        f"dsim.{tag}.pickled_msgs": stats["messages_pickled"],
        f"dsim.{tag}.rtt_p50_us": wl.percentile(rtts, 50) * 1e3,
        f"dsim.{tag}.rtt_p99_us": wl.percentile(rtts, 99) * 1e3,
    }


def sim_round(probe: Probe) -> Dict[str, float]:
    """CPU floor of a ping-pong round: the same app on the simulator."""
    pingpong = wl.PingpongPipe(probe.seed, probe.tmp)
    pingpong.backend = "sim"
    pingpong.setup()
    sample = pingpong.play(pingpong.rounds, probe.tracer.span)
    probe.check_sample("sim pingpong", sample)
    return {"dsim.sim.rtt_us": statistics.median(sample.latencies_ms) * 1e3}


def codec(probe: Probe, repeats: int = 40) -> Dict[str, float]:
    """encode_item/decode_item over a router batch shaped like the burst's."""
    words = ["alpha", "beta", "gamma", "delta"] * 3
    batch = [
        (tseq, Message("master", f"worker{tseq % 2}", "COUNT", {"chunk_id": tseq, "words": words}))
        for tseq in range(128)
    ]
    item = ("batch", batch)
    with probe.tracer.span("dsim.codec.encode", "dsim") as encoding:
        for _ in range(repeats):
            frame = encode_item(item, new_stats())
    with probe.tracer.span("dsim.codec.decode", "dsim") as decoding:
        for _ in range(repeats):
            decoded = decode_item(frame)
    probe.check(
        "codec round trip",
        decoded[0] == "batch" and [m.payload for _t, m in decoded[1]] == [m.payload for _t, m in batch],
    )
    calls = repeats * len(batch)
    return {
        "dsim.codec.encode_us_per_msg": (encoding["end_ns"] - encoding["start_ns"]) / 1e3 / calls,
        "dsim.codec.decode_us_per_msg": (decoding["end_ns"] - decoding["start_ns"]) / 1e3 / calls,
    }


# ----------------------------------------------------------------------
# tracing overhead on the focus workload
# ----------------------------------------------------------------------
def overhead(probe: Probe, workload: wl.Workload, budget_s: float) -> Dict[str, float]:
    """(traced - untraced) / untraced wall of the workload's own iteration."""
    walls: Dict[bool, List[float]] = {False: [], True: []}
    for rep in probe.reps(budget_s):
        for tracing in (False, True) if rep % 2 else (True, False):
            gc.collect()
            started = time.perf_counter()
            if tracing:
                with patched(probe.tracer, TARGETS.get(workload.name, [])):
                    with probe.tracer.span(f"{workload.name}.iteration", "harness"):
                        sample = workload.iterate(2 * rep + 1, probe.tracer.span)
            else:
                sample = workload.iterate(2 * rep)
            walls[tracing].append(time.perf_counter() - started)
            workload.tidy()
            probe.check_sample("traced iteration" if tracing else "untraced iteration", sample)
    plain, traced = walls[False], walls[True]
    return {
        "harness.trace_overhead_share": statistics.median(traced) / statistics.median(plain) - 1.0
    }


# ----------------------------------------------------------------------
# the traced run
# ----------------------------------------------------------------------
FOCUS = {
    "sim_burst": "sim_ladder",
    "fault_heal": "fault_pipeline",
    "durable_resume": "durable",
    "burst_pipe": "pipe",
    "pingpong_pipe": "pipe",
    "burst_shm": "shm",
    "burst_net": "net",
}
#: share of ``--seconds`` spent comparing traced and untraced iterations
OVERHEAD_SHARE = 0.2
#: what one pass over every non-focus group costs on the reference box
ONE_PASS_S = 4.5


def trace(args) -> Dict[str, Any]:
    probe = Probe(args)
    focus = FOCUS[args.workload]
    # the focus group repeats for whatever the single passes leave over
    focus_s = max(0.0, args.seconds * (1 - OVERHEAD_SHARE) - ONE_PASS_S)

    def budget(group: str) -> float:
        return focus_s if group == focus else 0.0

    started = time.perf_counter()
    metrics: Dict[str, float] = {}
    metrics.update(
        overhead(probe, probe.workload(args.workload, warm=True), args.seconds * OVERHEAD_SHARE)
    )
    sim_burst = probe.workload("sim_burst")
    durable = probe.workload("durable_resume")
    metrics.update(ladder(probe, sim_burst.scenario(), "", budget("sim_ladder")))
    metrics.update(
        ladder(probe, durable.scenario(None, durable.horizon), "ledger_", budget("durable") / 2)
    )
    metrics.update(durable_store(probe, durable, budget("durable") / 2))
    metrics.update(fault_pipeline(probe, probe.workload("fault_heal"), budget("fault_pipeline")))
    for tag in LINKS:
        metrics.update(link(probe, tag, budget(tag)))
    metrics.update(sim_round(probe))
    metrics.update(codec(probe))
    wall = time.perf_counter() - started

    probe.tracer.finish()
    spans_file = Path(args.out) / f"spans-{args.workload}.jsonl"
    probe.tracer.write(spans_file)
    return {
        "correct": not probe.failures,
        "attempted": probe.attempted,
        "failed": len(probe.failures),
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
        "detail": {
            "workload": args.workload,
            "focus": focus,
            "traced_wall_s": wall,
            "spans": len(probe.tracer.spans),
            "spans_file": str(spans_file),
            "layer_self_ms": probe.tracer.layer_self_ms(),
            "failures": probe.failures[:5],
            "fingerprint": args.fingerprint,
        },
    }


def unit_of(name: str) -> str:
    """A per-layer metric's unit is one of the words of its name."""
    words = set(re.split(r"[._]", name))
    for word, unit in (("ms", "ms"), ("us", "us"), ("bytes", "B"), ("share", "share"), ("ratio", "ratio")):
        if word in words:
            return unit
    return "count"
