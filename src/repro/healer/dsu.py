"""The dynamic software updater: applying patches to running processes.

Applying a patch to a live process means, in this substrate:

1. verify the update is safe at this point (:mod:`repro.healer.safety`);
2. build an instance of the new class, bind it to the *existing* process
   context (so its identity, peers, clocks and random stream carry
   over);
3. install the mapped state; and
4. swap the instance into the cluster, so every subsequent delivery runs
   the new code.

This is the moral equivalent of Ginseng's indirection tables — the
process keeps running, only its code and state layout change — and of
ModelD's "inject actions that divert the execution of a program using an
updated version of the actions".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.dsim.process import Process
from repro.errors import PatchApplicationError
from repro.healer.patch import Patch
from repro.healer.safety import SafetyVerdict, UpdateSafetyChecker


@dataclass
class UpdateRecord:
    """One applied (or refused) update."""

    pid: str
    patch_name: str
    applied: bool
    time: float
    verdict: SafetyVerdict
    old_class: str = ""
    new_class: str = ""


class DynamicUpdater:
    """Applies :class:`Patch` objects to processes of a running cluster."""

    def __init__(self, cluster, safety_checker: Optional[UpdateSafetyChecker] = None) -> None:
        self._cluster = cluster
        self.safety = safety_checker or UpdateSafetyChecker()
        self.history: List[UpdateRecord] = []

    # ------------------------------------------------------------------
    # application
    # ------------------------------------------------------------------
    def apply_to(self, pid: str, patch: Patch, force: bool = False) -> UpdateRecord:
        """Apply ``patch`` to one process.

        ``force=True`` skips the refusal on an unsafe verdict (the checks
        still run and are recorded); it exists because the paper allows
        the programmer to take responsibility: "the programmer has to
        either force rollback to a point where this condition can be
        automatically verified or has to write the update such that state
        equivalence is guaranteed".
        """
        if not patch.targets(pid):
            raise PatchApplicationError(f"patch {patch.name!r} does not target process {pid!r}")
        verdict = self.safety.check(self._cluster, pid, patch)
        if not verdict.safe and not force:
            record = UpdateRecord(
                pid=pid,
                patch_name=patch.name,
                applied=False,
                time=self._cluster.now,
                verdict=verdict,
                old_class=type(self._cluster.process(pid)).__name__,
                new_class=patch.new_class.__name__,
            )
            self.history.append(record)
            return record

        old_process = self._cluster.process(pid)
        mapped_state = verdict.mapped_state
        if mapped_state is None:
            # force-applied despite a failed mapping: fall back to the raw state
            mapped_state = dict(old_process.state)

        new_process = self._instantiate(patch, old_process, mapped_state)
        self._cluster._processes[pid] = new_process  # noqa: SLF001 - deliberate swap point
        if pid in self._cluster._factories:  # keep restart-from-scratch consistent with new code
            self._cluster._factories[pid] = patch.new_class

        record = UpdateRecord(
            pid=pid,
            patch_name=patch.name,
            applied=True,
            time=self._cluster.now,
            verdict=verdict,
            old_class=type(old_process).__name__,
            new_class=patch.new_class.__name__,
        )
        self.history.append(record)
        return record

    def apply(self, patch: Patch, force: bool = False) -> List[UpdateRecord]:
        """Apply ``patch`` to every process it targets."""
        records = []
        for pid in self._cluster.pids:
            if patch.targets(pid):
                records.append(self.apply_to(pid, patch, force=force))
        return records

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _instantiate(self, patch: Patch, old_process: Process, mapped_state: Dict) -> Process:
        try:
            new_process = patch.new_class()
        except Exception as exc:
            raise PatchApplicationError(
                f"could not instantiate replacement class {patch.new_class.__name__}: {exc}"
            ) from exc
        new_process.bind(old_process.ctx)
        # Carry execution identity across the update: clocks, counters, crash flag.
        new_process._vector_clock = old_process._vector_clock  # noqa: SLF001
        new_process._lamport = old_process._lamport  # noqa: SLF001
        new_process._sent_count = old_process._sent_count  # noqa: SLF001
        new_process._received_count = old_process._received_count  # noqa: SLF001
        new_process._checkpoint_sequence = old_process._checkpoint_sequence  # noqa: SLF001
        new_process.state = dict(mapped_state)
        return new_process

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def applied_updates(self) -> List[UpdateRecord]:
        return [record for record in self.history if record.applied]

    def refused_updates(self) -> List[UpdateRecord]:
        return [record for record in self.history if not record.applied]
