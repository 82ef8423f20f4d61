"""Bug reports: the artefact FixD hands to the programmer.

A bug report gathers, for one detected fault, everything the paper says
the programmer needs to "narrow down the problem in his/her code and try
to provide a fix" (Section 3.4):

* the fault itself (which invariant, where, when);
* the tail of the Scroll for the processes involved (what happened just
  before);
* the Investigator's trails (how the system can reach the bad state from
  the restored checkpoint); and
* the recovery timeline (what FixD did about it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.events import FaultEvent, RecoveryTimeline
from repro.investigator.investigator import InvestigationReport
from repro.investigator.trails import Trail
from repro.scroll.entry import ScrollEntry
from repro.scroll.scroll import Scroll


@dataclass
class BugReport:
    """A self-contained description of one fault and FixD's response to it."""

    fault: FaultEvent
    scroll_tail: List[ScrollEntry] = field(default_factory=list)
    investigation: Optional[InvestigationReport] = None
    timeline: Optional[RecoveryTimeline] = None
    recovery_line_times: Dict[str, float] = field(default_factory=dict)
    healed: Optional[bool] = None
    notes: List[str] = field(default_factory=list)

    # ------------------------------------------------------------------
    # derived facts
    # ------------------------------------------------------------------
    @property
    def trails(self) -> List[Trail]:
        if self.investigation is None:
            return []
        return self.investigation.trails + self.investigation.deadlocks

    @property
    def violated_invariants(self) -> List[str]:
        names = {self.fault.invariant}
        names.update(trail.violated_invariant for trail in self.trails)
        return sorted(names)

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def to_text(self, max_scroll_entries: int = 20, max_trail_steps: int = 12) -> str:
        """Render the report as readable plain text (also used by examples)."""
        lines: List[str] = []
        lines.append("=" * 72)
        lines.append("FixD bug report")
        lines.append("=" * 72)
        lines.append(self.fault.describe())
        lines.append("")

        if self.recovery_line_times:
            lines.append("Rolled back to recovery line:")
            for pid, time in sorted(self.recovery_line_times.items()):
                lines.append(f"  {pid}: checkpoint at t={time:.3f}")
            lines.append("")

        if self.scroll_tail:
            lines.append(f"Scroll tail ({len(self.scroll_tail)} most recent recorded actions):")
            for entry in self.scroll_tail[-max_scroll_entries:]:
                lines.append("  " + entry.describe())
            lines.append("")

        if self.investigation is not None:
            lines.append("Investigation:")
            lines.append("  " + self.investigation.summary().replace("\n", "\n  "))
            lines.append("")
            for index, trail in enumerate(self.investigation.trails[:3], start=1):
                lines.append(f"Trail {index}:")
                lines.append("  " + trail.describe(max_steps=max_trail_steps).replace("\n", "\n  "))
                lines.append("")

        if self.timeline is not None and self.timeline.events:
            lines.append("Recovery timeline:")
            lines.append("  " + self.timeline.describe().replace("\n", "\n  "))
            lines.append("")

        if self.healed is not None:
            lines.append(f"Healing outcome: {'succeeded' if self.healed else 'not attempted / failed'}")
        for note in self.notes:
            lines.append(f"Note: {note}")
        return "\n".join(lines)

    @staticmethod
    def build_scroll_tail(scroll: Scroll, pids: List[str], limit: int = 50) -> List[ScrollEntry]:
        """The last ``limit`` Scroll entries touching the given processes."""
        relevant = [entry for entry in scroll if entry.pid in set(pids)]
        return relevant[-limit:]


def incident_report(faults, scroll: Scroll, result) -> str:
    """A run-level incident summary: injected faults versus observed effects.

    Bug reports require a detected invariant violation; many injected
    faults (a tolerated message drop, a crash that recovery absorbs) are
    handled without one.  The fault-scenario matrix still needs an
    artefact proving the run *noticed* the fault, so this report pairs
    the run's :class:`~repro.dsim.failure.FaultSchedule` (counted per
    category by :meth:`~repro.dsim.failure.FaultSchedule.summary`) with
    what the Scroll recorded and how the run ended.
    """
    lines: List[str] = []
    lines.append("=" * 72)
    lines.append("FixD incident report")
    lines.append("=" * 72)
    lines.append("Injected faults:")
    for category, count in sorted(faults.summary().items()):
        lines.append(f"  {category}: {count}")
    lines.append("")
    lines.append("Observed on the Scroll:")
    counts = scroll.counts_by_kind()
    for kind in ("crash", "recover", "drop", "duplicate", "corruption", "violation"):
        lines.append(f"  {kind}: {counts.get(kind, 0)}")
    lines.append(f"  total entries: {len(scroll)}")
    storage = scroll.storage_stats()
    if storage.get("tiered"):
        lines.append(
            f"  scroll tiers: {storage['hot_entries']} hot / "
            f"{storage['spilled_entries']} spilled"
        )
    lines.append("")
    lines.append(f"Run stopped: {result.stopped_reason} at t={result.final_time:.3f} "
                 f"after {result.events_executed} events")
    for violation in result.violations:
        status = "handled" if violation.handled else "UNHANDLED"
        lines.append(
            f"  violation {violation.invariant!r} at {violation.pid} "
            f"t={violation.time:.3f} [{status}]"
        )
    return "\n".join(lines)
