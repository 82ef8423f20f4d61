"""Storage knobs change what a run costs, never what it does.

``hot_window`` (a tiered Scroll), ``checkpoint_store="disk"`` and its
``flush_mode`` decide where the Scroll's segments and the committed lines
live.  For a sampled registry app, seed and fault schedule, a run under
any of them must write the same ``save_scroll`` JSONL and the same
bug-report text as the default run.

The disk arms also draw ``auto_commit_interval``, which is what makes a
durable run flush its Scroll.  The ``hot_window`` arms run without it: a
committed line lets a tiered Scroll collect its evicted prefix, which is
garbage collection by design, and a bug report's Scroll tail then stops
at the commit frontier.

``investigate`` decides whether a detected fault is also explored by
the Investigator.  That must not change the run either, but it does
change the report: an investigated bug report gains a trail.  Its arm
therefore compares the JSONL alone.  One exploration can take seconds
(up to the Investigator's 20,000-state budget), so the arm draws a
fixed sample, and its explicit examples are runs known to report.

The disk arms are marked ``durable`` (``make resume-smoke``); the
in-memory arms run in tier-1.
"""

from __future__ import annotations

import dataclasses
import shutil
import tempfile

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.api import Scenario, execute
from repro.fuzz import generate_scenario
from repro.scroll.storage import save_scroll

APPS = ("bank", "kvstore", "token_ring", "two_phase_commit", "leader_election")

_SETTINGS = dict(
    deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


def artefacts(scenario: Scenario, path) -> tuple:
    """The run's Scroll as JSONL bytes and its bug reports as text."""
    run = execute(scenario)
    save_scroll(run.fixd.scroll, path)
    run.fixd.scroll.close()
    return path.read_bytes(), [report.bug_report.to_text() for report in run.fixd.reports]


def assert_neutral(tmp_path, app, seed, auto_commit=None, **arm) -> None:
    scenario = dataclasses.replace(
        generate_scenario(app, seed, max_events=1500), auto_commit_interval=auto_commit
    )
    default = artefacts(scenario, tmp_path / "default.jsonl")
    store = tempfile.mkdtemp(prefix="neutral-")
    try:
        if arm.get("checkpoint_store") == "disk":
            arm["store_path"] = store
        assert artefacts(dataclasses.replace(scenario, **arm), tmp_path / "arm.jsonl") == default
    finally:
        shutil.rmtree(store, ignore_errors=True)


@settings(max_examples=25, **_SETTINGS)
@given(app=st.sampled_from(APPS), seed=st.integers(0, 2**16))
def test_hot_window_is_behaviour_neutral(tmp_path, app, seed):
    assert_neutral(tmp_path, app, seed, hot_window=16)


@settings(max_examples=10, derandomize=True, **_SETTINGS)
@given(app=st.sampled_from(APPS), seed=st.integers(0, 2**16))
@example(app="bank", seed=3)  # each of these reports a fault
@example(app="leader_election", seed=9)
@example(app="kvstore", seed=2)
def test_investigate_is_behaviour_neutral(tmp_path, app, seed):
    scenario = generate_scenario(app, seed, max_events=1500)
    default, _ = artefacts(scenario, tmp_path / "default.jsonl")
    investigated = dataclasses.replace(scenario, investigate=True)
    assert artefacts(investigated, tmp_path / "arm.jsonl")[0] == default


@pytest.mark.durable
@settings(max_examples=30, **_SETTINGS)
@given(
    app=st.sampled_from(APPS),
    seed=st.integers(0, 2**16),
    flush_mode=st.sampled_from(["sync", "pipelined"]),
    auto_commit=st.sampled_from([None, 2.0]),
)
def test_durable_store_is_behaviour_neutral(tmp_path, app, seed, flush_mode, auto_commit):
    assert_neutral(
        tmp_path, app, seed, auto_commit, checkpoint_store="disk", flush_mode=flush_mode
    )


@pytest.mark.durable
@settings(max_examples=15, **_SETTINGS)
@given(app=st.sampled_from(APPS), seed=st.integers(0, 2**16))
def test_hot_window_with_a_durable_store_is_behaviour_neutral(tmp_path, app, seed):
    assert_neutral(tmp_path, app, seed, checkpoint_store="disk", hot_window=16)
