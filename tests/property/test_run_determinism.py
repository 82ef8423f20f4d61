"""A run reproduces byte for byte, whatever ran before it in the interpreter.

Message ids belong to the run's :class:`~repro.dsim.cluster.Cluster` and
entry seqs to its :class:`~repro.scroll.scroll.Scroll`, so nothing a
previous run (or a previous investigation) drew can shift them.  For a
sampled registry app, seed and fault schedule, the run's ``save_scroll``
JSONL and its bug-report text must come out identical before and after
other work has run in the same interpreter.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import Scenario, execute
from repro.fuzz import generate_scenario
from repro.investigator.investigator import Investigator, InvestigatorConfig
from repro.scroll.storage import save_scroll

APPS = ("bank", "kvstore", "token_ring", "two_phase_commit", "leader_election")


def artefacts(scenario: Scenario, path) -> tuple:
    """The run's Scroll as JSONL bytes and its bug reports as text."""
    run = execute(scenario)
    save_scroll(run.fixd.scroll, path)
    reports = [report.bug_report.to_text() for report in run.fixd.reports]
    return path.read_bytes(), reports


def run_other_work() -> None:
    """Another scenario, and an investigation outside any run."""
    other = execute(Scenario(app="token_ring", seed=3))
    Investigator(InvestigatorConfig(max_states=200)).investigate(other.replay_factories())


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(app=st.sampled_from(APPS), seed=st.integers(0, 2**16))
def test_a_run_reproduces_whatever_ran_before_it(tmp_path, app, seed):
    scenario = generate_scenario(app, seed, max_events=1500)
    first = artefacts(scenario, tmp_path / "first.jsonl")
    run_other_work()
    assert artefacts(scenario, tmp_path / "again.jsonl") == first
