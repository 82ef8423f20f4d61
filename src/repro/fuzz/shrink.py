"""Schedule shrinking: minimize a failing schedule, hypothesis-style.

Given a scenario whose run produced a failure signature, find a smaller
schedule that *still reproduces the identical signature*.  Soundness
rests on the rerun-determinism property the repo already enforces: the
simulator run of a serialized scenario is a pure function of the
scenario, so "re-run the candidate and compare signatures" is a real
test, not a coin flip.

Two phases, both budgeted by executions:

1. **Delta debugging over schedule entries** (ddmin): try dropping
   chunks of the fault list at increasing granularity, then greedy
   single-fault removal ordered by each spec's ``shrink_order``
   metadata (delays are tried before crashes — removing a crash
   reshapes the whole run and rarely survives).
2. **Per-fault attribute shrinking**: each surviving spec proposes
   simpler variants via ``shrink_candidates()`` (count→1, delay
   halved, partition window narrowed, multi-op corruption split);
   a variant is kept only when the signature survives.

Every candidate is materialized through the ordinary
:class:`~repro.api.scenario.Scenario` constructor, so the shrinker can
never emit a schedule that fails validation — an invalid candidate is
simply skipped.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence

from repro.dsim.failure import FaultSchedule
from repro.api.outcome import Outcome
from repro.api.scenario import Scenario
from repro.errors import ScenarioError


@dataclass
class ShrinkResult:
    """What the shrinker achieved for one failing scenario."""

    scenario: Scenario
    signature: str
    original_faults: int
    runs: int = 0
    #: True when the run budget was exhausted before reaching a fixpoint
    budget_exhausted: bool = False

    @property
    def faults(self) -> int:
        return len(self.scenario.faults)

    @property
    def removed(self) -> int:
        return self.original_faults - self.faults


class _Shrinker:
    def __init__(
        self,
        scenario: Scenario,
        signature: str,
        runner: Callable[[Scenario], Outcome],
        max_runs: int,
    ) -> None:
        self.scenario = scenario
        self.signature = signature
        self.runner = runner
        self.max_runs = max_runs
        self.runs = 0
        self._cache: Dict[str, bool] = {}

    def out_of_budget(self) -> bool:
        return self.runs >= self.max_runs

    def reproduces(self, faults: Sequence) -> bool:
        """Does the candidate schedule reproduce the exact signature?"""
        try:
            candidate = replace(
                self.scenario, faults=FaultSchedule(faults=tuple(faults))
            )
        except ScenarioError:
            return False  # invalid candidates are skipped, never emitted
        cached = self._cache.get(candidate.to_json())
        if cached is not None:
            return cached
        if self.out_of_budget():
            return False
        self.runs += 1
        outcome = self.runner(candidate)
        verdict = outcome.failure_signature() == self.signature
        self._cache[candidate.to_json()] = verdict
        return verdict

    # ------------------------------------------------------------------
    # phase 1: delta debugging over schedule entries
    # ------------------------------------------------------------------
    def ddmin(self, faults: List) -> List:
        granularity = 2
        while len(faults) >= 2 and not self.out_of_budget():
            chunk = max(1, len(faults) // granularity)
            reduced = False
            for start in range(0, len(faults), chunk):
                candidate = faults[:start] + faults[start + chunk :]
                if candidate != faults and self.reproduces(candidate):
                    faults = candidate
                    granularity = max(granularity - 1, 2)
                    reduced = True
                    break
            if not reduced:
                if granularity >= len(faults):
                    break
                granularity = min(len(faults), granularity * 2)
        # greedy singles, cheapest-to-remove kinds first
        changed = True
        while changed and len(faults) >= 1 and not self.out_of_budget():
            changed = False
            order = sorted(
                range(len(faults)), key=lambda i: (faults[i].shrink_order, i)
            )
            for index in order:
                candidate = faults[:index] + faults[index + 1 :]
                if self.reproduces(candidate):
                    faults = candidate
                    changed = True
                    break
        return faults

    # ------------------------------------------------------------------
    # phase 2: per-fault attribute shrinking
    # ------------------------------------------------------------------
    def shrink_attributes(self, faults: List) -> List:
        changed = True
        while changed and not self.out_of_budget():
            changed = False
            for index, spec in enumerate(faults):
                for simpler in spec.shrink_candidates():
                    candidate = faults[:index] + [simpler] + faults[index + 1 :]
                    if self.reproduces(candidate):
                        faults = candidate
                        changed = True
                        break
                if changed:
                    break
        return faults


def shrink_scenario(
    scenario: Scenario,
    signature: Optional[str] = None,
    *,
    runner: Optional[Callable[[Scenario], Outcome]] = None,
    max_runs: int = 128,
) -> ShrinkResult:
    """Minimize ``scenario``'s fault schedule while its failure reproduces.

    ``signature`` is the failure to preserve; when omitted the scenario
    is run once to establish it (raising :class:`ScenarioError` when
    the run is healthy — there is nothing to shrink toward).
    ``runner`` defaults to :func:`repro.api.experiment.run_scenario`;
    injectable for tests and for pooled execution.
    """
    if runner is None:
        from repro.api.experiment import run_scenario as runner  # type: ignore[no-redef]

    baseline_runs = 0
    if signature is None:
        baseline_runs = 1
        signature = runner(scenario).failure_signature()
    if signature is None:
        raise ScenarioError(
            f"scenario {scenario.name!r} met every expectation; nothing to shrink"
        )
    shrinker = _Shrinker(scenario, signature, runner, max_runs)
    faults = list(scenario.faults.faults)
    faults = shrinker.ddmin(faults)
    faults = shrinker.shrink_attributes(faults)
    minimized = replace(scenario, faults=FaultSchedule(faults=tuple(faults)))
    return ShrinkResult(
        scenario=minimized,
        signature=signature,
        original_faults=len(scenario.faults),
        runs=shrinker.runs + baseline_runs,
        budget_exhausted=shrinker.out_of_budget(),
    )
