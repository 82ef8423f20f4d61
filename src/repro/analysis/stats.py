"""Run statistics: summarising Scrolls and comparing runs.

Benchmarks use these helpers to turn raw Scrolls and run results into the
rows they print (events per process, overhead ratios, recovery costs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.dsim.cluster import RunResult
from repro.scroll.entry import ActionKind
from repro.scroll.scroll import Scroll


@dataclass
class RunStatistics:
    """Aggregate numbers describing one recorded run."""

    total_entries: int
    entries_by_kind: Dict[str, int]
    entries_by_process: Dict[str, int]
    messages_sent: int
    messages_received: int
    messages_dropped: int
    random_draws: int
    violations: int
    nondeterministic_entries: int

    @property
    def delivery_ratio(self) -> float:
        """Fraction of sent messages that were received."""
        if self.messages_sent == 0:
            return 1.0
        return self.messages_received / self.messages_sent

    def describe(self) -> str:
        lines = [
            f"scroll entries: {self.total_entries} "
            f"({self.nondeterministic_entries} nondeterministic)",
            f"messages: {self.messages_sent} sent, {self.messages_received} received, "
            f"{self.messages_dropped} dropped (delivery ratio {self.delivery_ratio:.2f})",
            f"random draws: {self.random_draws}, violations: {self.violations}",
        ]
        return "\n".join(lines)


def summarize_scroll(scroll: Scroll) -> RunStatistics:
    """Compute :class:`RunStatistics` from a Scroll."""
    by_kind = scroll.counts_by_kind()
    return RunStatistics(
        total_entries=len(scroll),
        entries_by_kind=by_kind,
        entries_by_process=scroll.counts_by_process(),
        messages_sent=by_kind.get(ActionKind.SEND.value, 0),
        messages_received=by_kind.get(ActionKind.RECEIVE.value, 0),
        messages_dropped=by_kind.get(ActionKind.DROP.value, 0),
        random_draws=by_kind.get(ActionKind.RANDOM.value, 0),
        violations=by_kind.get(ActionKind.VIOLATION.value, 0),
        nondeterministic_entries=len(scroll.nondeterministic()),
    )


@dataclass
class RunComparison:
    """Differences between two runs of the same application."""

    events_delta: int
    time_delta: float
    state_differences: Dict[str, List[str]] = field(default_factory=dict)

    @property
    def identical_states(self) -> bool:
        return not self.state_differences


def compare_runs(baseline: RunResult, other: RunResult) -> RunComparison:
    """Compare two run results: event counts, final time and per-process state."""
    differences: Dict[str, List[str]] = {}
    pids = set(baseline.process_states) | set(other.process_states)
    for pid in sorted(pids):
        base_state = baseline.process_states.get(pid)
        other_state = other.process_states.get(pid)
        if base_state is None or other_state is None:
            differences[pid] = ["process missing from one run"]
            continue
        keys = set(base_state) | set(other_state)
        diffs = [
            f"{key}: {base_state.get(key)!r} != {other_state.get(key)!r}"
            for key in sorted(keys)
            if base_state.get(key) != other_state.get(key)
        ]
        if diffs:
            differences[pid] = diffs
    return RunComparison(
        events_delta=other.events_executed - baseline.events_executed,
        time_delta=other.final_time - baseline.final_time,
        state_differences=differences,
    )


def overhead_ratio(baseline_seconds: float, instrumented_seconds: float) -> Optional[float]:
    """Relative overhead of an instrumented run versus its baseline."""
    if baseline_seconds <= 0:
        return None
    return (instrumented_seconds - baseline_seconds) / baseline_seconds
