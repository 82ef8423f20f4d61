"""``repro.api`` — the declarative public facade of the FixD reproduction.

The paper's pitch is that a developer attaches FixD and gets detection,
bug reporting and recovery *without touching application code*.  This
package is that surface:

* a :class:`Scenario` describes one run as pure data — which registered
  application (:mod:`repro.api.apps`), which backend, seed and limits,
  a composable :class:`FaultSchedule` of injected faults (multi-fault
  scenarios are just longer schedules), and the expectations the run
  must meet;
* an :class:`Experiment` executes one scenario or a whole grid
  (``Experiment.grid(apps=..., backends=..., faults=...)``), optionally
  fanned out over a process pool;
* every run returns a structured :class:`Outcome` — detected /
  reported / rolled back / healed / consistent plus final-state,
  Scroll and transport statistics — instead of a tuple to poke at;
* scenarios serialize canonically (``Scenario.to_json`` /
  ``from_json``) and travel in suite files (:func:`load_suite` /
  :func:`save_suite`, runnable via ``python -m repro.api suite.json``),
  so a fault schedule is a shareable repro artefact.

For custom applications the programming model is re-exported here too
(:class:`Process`, ``handler``, ``invariant``, ``timer_handler``), as
are the orchestration classes (:class:`FixD`, :class:`Cluster`) for
advanced phased workflows that a declarative scenario cannot express.

Quickstart::

    from repro.api import Crash, Experiment, FaultSchedule, Partition, Scenario

    scenario = Scenario(
        app="kvstore",
        params={"replicas": 2, "clients": 1},
        faults=FaultSchedule.of(
            Partition(groups=(("replica0", "client0"), ("replica1",)), start=2.0, end=6.0),
            Crash(pid="replica1", at=3.0, recover_at=8.0),
        ),
        recovering=("replica1",),
    )
    outcome = Experiment([scenario]).run()[0]
    assert outcome.passed and outcome.detected
"""

from repro.api import apps
from repro.api.experiment import (
    Experiment,
    ResumedRun,
    ScenarioRun,
    execute,
    resume_run,
    run_scenario,
)
from repro.dsim.failure import (
    Corrupt,
    Crash,
    Delay,
    Drop,
    Duplicate,
    FaultSchedule,
    Partition,
)
from repro.api.outcome import Outcome
from repro.api.scenario import Scenario
from repro.api.suite import load_suite, run_suite, save_suite

# Programming model + orchestration re-exports: the facade is the one
# sanctioned import surface for examples and downstream users.
from repro.core.fixd import FixD, FixDConfig, FixDReport
from repro.dsim.cluster import Cluster, ClusterConfig, RunResult
from repro.dsim.message import Message
from repro.dsim.process import ConfiguredFactory, Process, handler, invariant, timer_handler
from repro.errors import ScenarioError, UnknownAppError

__all__ = [
    # declarative layer
    "Scenario",
    "Experiment",
    "ScenarioRun",
    "ResumedRun",
    "resume_run",
    "Outcome",
    "FaultSchedule",
    "Crash",
    "Drop",
    "Duplicate",
    "Delay",
    "Partition",
    "Corrupt",
    "execute",
    "run_scenario",
    "load_suite",
    "save_suite",
    "run_suite",
    "apps",
    "ScenarioError",
    "UnknownAppError",
    # programming model / orchestration
    "FixD",
    "FixDConfig",
    "FixDReport",
    "Cluster",
    "ClusterConfig",
    "RunResult",
    "Message",
    "Process",
    "ConfiguredFactory",
    "handler",
    "invariant",
    "timer_handler",
]
