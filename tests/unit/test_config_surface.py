"""The configuration surface, pinned: a new knob is a visible, reviewed diff.

Every in-process option is a dataclass field on exactly one class — the
layer that reads it.  ``FixDConfig`` *nests* the layer configs instead of
re-declaring their fields under new names, and ``Scenario`` (the
persisted artefact format) is the only other place a name may recur.
"""

from __future__ import annotations

from dataclasses import fields
from pathlib import Path

import pytest

from repro.api import FixDConfig, Scenario, load_suite
from repro.dsim.backend import MPBackendOptions
from repro.dsim.net_backend import NetBackendOptions
from repro.dsim.router import RouterOptions  # facade-ok: pins the router's own option list
from repro.investigator.investigator import InvestigatorConfig
from repro.scroll.interceptor import RecordingPolicy
from repro.timemachine.time_machine import TimeMachineConfig

SUITES = sorted((Path(__file__).resolve().parents[2] / "suites").glob("*.json"))

ROUTER = ("time_scale", "flush_watermark", "batch_deliveries", "max_batch_messages")

SURFACE = {
    FixDConfig: (
        "time_machine",
        "recording_policy",
        "investigator",
        "investigate_on_fault",
        "heal_strategy",
        "max_faults_handled",
        "truncate_scroll_on_rollback",
        "auto_commit_interval",
    ),
    TimeMachineConfig: (
        "policy",
        "periodic_interval",
        "checkpoint_store",
        "store_path",
        "run_id",
        "flush_mode",
        "flush_queue_bytes",
    ),
    RouterOptions: ROUTER,
    MPBackendOptions: ROUTER + ("transport",),
    NetBackendOptions: ROUTER + ("shards", "family", "write_timeout", "socket_buffer_bytes"),
    Scenario: (
        "app",
        "name",
        "params",
        "backend",
        "seed",
        "until",
        "max_events",
        "faults",
        "check",
        "expect_violation",
        "recovering",
        "hot_window",
        "investigate",
        "max_faults_handled",
        "auto_commit_interval",
        "time_scale",
        "transport",
        "checkpoint_store",
        "store_path",
        "flush_mode",
        "flush_queue_bytes",
    ),
}


def names(config_class):
    return tuple(spec.name for spec in fields(config_class))


@pytest.mark.parametrize("config_class", SURFACE, ids=lambda cls: cls.__name__)
def test_option_list_is_pinned(config_class):
    assert names(config_class) == SURFACE[config_class]


@pytest.mark.parametrize("nested", [TimeMachineConfig, InvestigatorConfig, RecordingPolicy])
def test_fixd_config_nests_instead_of_redeclaring(nested):
    flattened = {
        prefix + name
        for name in names(nested)
        for prefix in ("", "checkpoint_", "cow_", "durable_")
    }
    assert not flattened & set(names(FixDConfig))


def test_nested_time_machine_config_is_per_instance():
    # ResumedRun.continue_run patches config.time_machine in place
    assert FixDConfig().time_machine == TimeMachineConfig()
    assert FixDConfig().time_machine is not FixDConfig().time_machine


def test_committed_suites_still_load():
    assert len(SUITES) >= 11
    for path in SUITES:
        assert load_suite(str(path)), path.name
