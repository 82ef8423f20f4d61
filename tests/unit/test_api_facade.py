"""Unit tests for the ``repro.api`` facade: registry, specs, scenarios,
experiments, suites — plus the FixD satellites that ride along with the
facade (idempotent-or-loud ``attach``, periodic recovery-line commit).
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.api import (
    Cluster,
    ClusterConfig,
    Corrupt,
    Crash,
    Delay,
    Drop,
    Duplicate,
    Experiment,
    FaultSchedule,
    FixD,
    FixDConfig,
    Partition,
    Scenario,
    ScenarioError,
    UnknownAppError,
    apps,
    execute,
    load_suite,
    run_scenario,
    save_suite,
)
from repro.dsim.failure import apply_corruption_ops, spec_from_dict, spec_to_dict
from repro.dsim.backend import make_backend
from repro.errors import AttachmentError, SimulationError
from repro.scroll.interceptor import RecordingPolicy


class TestAppRegistry:
    def test_builtin_apps_registered(self):
        names = apps.app_names()
        for expected in (
            "bank",
            "kvstore",
            "leader_election",
            "token_ring",
            "two_phase_commit",
            "wordcount",
            "wordcount_burst",
        ):
            assert expected in names

    def test_unknown_app_lists_known_names(self):
        with pytest.raises(UnknownAppError) as excinfo:
            apps.app("does-not-exist")
        assert "kvstore" in str(excinfo.value)

    def test_register_rejects_silent_override(self):
        with pytest.raises(ScenarioError, match="already registered"):
            apps.register_app("kvstore", lambda cluster: None, checks={"default": lambda s: True})

    def test_register_requires_default_check(self):
        with pytest.raises(ScenarioError, match="default"):
            apps.register_app("no-check-app", lambda cluster: None, checks={})

    def test_build_merges_defaults_and_rejects_unknown_params(self):
        cluster = Cluster(ClusterConfig(seed=1))
        apps.build(cluster, "token_ring", nodes=4)
        assert len(cluster.pids) == 4
        with pytest.raises(ScenarioError, match="does not accept"):
            apps.build(Cluster(ClusterConfig(seed=1)), "token_ring", bogus=1)

    def test_exports_give_classes_without_internal_imports(self):
        bank = apps.app("bank")
        assert "BankBranch" in bank.exports and "total_balance" in bank.exports
        assert callable(bank.check("conservation"))
        with pytest.raises(ScenarioError, match="no consistency check"):
            bank.check("nope")


class TestFaultSpecs:
    def test_crash_validates_recovery_order(self):
        with pytest.raises(ScenarioError, match="strictly after"):
            Crash(pid="p0", at=5.0, recover_at=4.0)

    def test_delay_needs_positive_extra_delay(self):
        with pytest.raises(ScenarioError, match="positive"):
            Delay(match_kind="X", extra_delay=0.0)

    def test_partition_validates_shape(self):
        with pytest.raises(ScenarioError, match="two groups"):
            Partition(groups=(("a", "b"),), start=1.0, end=2.0)
        with pytest.raises(ScenarioError, match="after its start"):
            Partition(groups=(("a",), ("b",)), start=2.0, end=2.0)

    def test_corrupt_validates_ops(self):
        with pytest.raises(ScenarioError, match="at least one"):
            Corrupt(pid="p0", at=1.0, ops=())
        with pytest.raises(ScenarioError, match="unknown corruption op"):
            Corrupt(pid="p0", at=1.0, ops=(("frobnicate", ("k",), 1),))

    def test_corruption_ops_apply(self):
        state = {"a": 1, "nested": {"b": 2}, "log": [1]}
        apply_corruption_ops(
            state,
            (
                ("set", ("nested", "b"), 9),
                ("add", ("a",), 10),
                ("append", ("log",), 2),
            ),
        )
        assert state == {"a": 11, "nested": {"b": 9}, "log": [1, 2]}

    def test_corrupt_is_plain_data_a_worker_can_apply(self):
        spec = Corrupt(pid="p0", at=1.0, ops=(("set", ("k",), 5),), description="boom")
        shipped = pickle.loads(pickle.dumps(spec))
        assert shipped == spec
        state = {"k": 0}
        apply_corruption_ops(state, shipped.ops)
        assert state["k"] == 5 and shipped.pid == "p0"

    def test_spec_dict_round_trip(self):
        specs = [
            Crash(pid="p0", at=1.0, recover_at=2.0),
            Drop(match_kind="MSG", count=None, after=1.5),
            Duplicate(match_src="a", match_dst="b"),
            Delay(match_kind="MSG", extra_delay=2.5, count=3),
            Partition(groups=(("a", "b"), ("c",)), start=1.0, end=2.0),
            Corrupt(pid="p1", at=3.0, ops=(("append", ("xs",), 7),)),
        ]
        for spec in specs:
            payload = json.loads(json.dumps(spec_to_dict(spec)))
            assert spec_from_dict(payload) == spec

    def test_spec_from_dict_rejects_junk(self):
        with pytest.raises(ScenarioError, match="unknown fault kind"):
            spec_from_dict({"kind": "gremlin"})
        with pytest.raises(ScenarioError, match="unknown fields"):
            spec_from_dict({"kind": "crash", "pid": "p", "at": 1.0, "frob": 2})


class TestFaultSchedule:
    def test_composition_preserves_order(self):
        a = FaultSchedule.of(Drop(match_kind="A"))
        b = FaultSchedule.of(Delay(match_kind="B", extra_delay=1.0))
        combined = a + b
        chained = a.then(Delay(match_kind="B", extra_delay=1.0))
        assert combined == chained
        assert [spec.kind for spec in combined.faults] == ["drop", "delay"]
        assert combined.kinds == ("drop", "delay")
        assert combined.label == "drop+delay"
        assert FaultSchedule().label == "fault-free"

    def test_summary_categorizes(self):
        schedule = FaultSchedule.of(
            Crash(pid="p0", at=1.0),
            Drop(match_kind="A"),
            Partition(groups=(("a",), ("b",)), start=1.0, end=2.0),
            Corrupt(pid="p1", at=2.0, ops=(("set", ("k",), 1),)),
        )
        assert schedule.summary() == {
            "crashes": 1,
            "message_faults": 1,
            "partitions": 1,
            "corruptions": 1,
        }
        assert schedule.message_specs() == [schedule.faults[1]]
        assert schedule.of_kind("crash", "corruption") == [schedule.faults[0], schedule.faults[3]]

    def test_rejects_non_spec_entries(self):
        with pytest.raises(ScenarioError, match="fault specs"):
            FaultSchedule.of("crash")


class TestScenario:
    def test_default_name_and_validation(self):
        scenario = Scenario(app="token_ring", faults=FaultSchedule.of(Drop(match_kind="TOKEN")))
        assert scenario.name == "token_ring-drop"
        with pytest.raises(ScenarioError, match="unknown backend"):
            Scenario(app="token_ring", backend="quantum")
        with pytest.raises(ScenarioError, match="until"):
            Scenario(app="token_ring", backend="mp")

    def test_json_round_trip_byte_identical(self):
        scenario = Scenario(
            app="bank",
            params={"branches": 3, "fixed": True},
            check="conservation",
            faults=FaultSchedule.of(
                Duplicate(match_kind="TRANSFER_ACK"),
                Corrupt(pid="branch1", at=3.5, ops=(("set", ("in_flight_debits",), -5),)),
            ),
            expect_violation=True,
            hot_window=32,
        )
        text = scenario.to_json()
        rebuilt = Scenario.from_json(text)
        assert rebuilt == scenario
        assert rebuilt.to_json().encode() == text.encode()

    def test_from_dict_rejects_unknown_fields(self):
        payload = Scenario(app="token_ring").to_dict()
        payload["surprise"] = 1
        with pytest.raises(ScenarioError, match="unknown fields"):
            Scenario.from_dict(payload)

    def test_transport_field_validated_and_serialized(self):
        scenario = Scenario(app="token_ring", backend="mp", until=60.0, transport="shm")
        assert scenario.name == "token_ring-fault-free-mp-shm"
        rebuilt = Scenario.from_json(scenario.to_json())
        assert rebuilt == scenario and rebuilt.transport == "shm"
        # older artefacts without the field default to the pipe transport
        payload = scenario.to_dict()
        del payload["transport"]
        payload["name"] = ""
        assert Scenario.from_dict(payload).transport == "pipe"
        with pytest.raises(ScenarioError, match="unknown transport"):
            Scenario(app="token_ring", backend="mp", until=60.0, transport="carrier-pigeon")
        with pytest.raises(ScenarioError, match="mp-backend knob"):
            Scenario(app="token_ring", transport="shm")

    def test_from_json_rejects_garbage(self):
        with pytest.raises(ScenarioError, match="not valid JSON"):
            Scenario.from_json("{nope")

    @pytest.mark.parametrize(
        "payload, field",
        [
            ({}, "app"),
            ({"app": "bank", "recovering": 5}, "recovering"),
            ({"app": "bank", "recovering": [1]}, "recovering"),
            ({"app": "bank", "params": [1]}, "params"),
            ({"app": "bank", "faults": 5}, "faults"),
            ({"app": "bank", "name": 5}, "name"),
            ({"app": "bank", "seed": True}, "seed"),
        ],
    )
    def test_from_dict_names_the_malformed_field(self, payload, field):
        # suite files come from outside the program: never a bare TypeError
        with pytest.raises(ScenarioError, match=field):
            Scenario.from_dict(payload)

    @pytest.mark.parametrize("time_scale", [0, -1, float("nan"), float("inf"), "fast", True])
    def test_time_scale_must_be_a_positive_number(self, time_scale):
        # -1 used to "pass" having executed nothing; 0 died in the router
        with pytest.raises(ScenarioError, match="time_scale"):
            Scenario(app="wordcount", backend="mp", until=50.0, time_scale=time_scale)
        with pytest.raises(SimulationError, match="time_scale"):
            make_backend("mp", time_scale=time_scale)

    @pytest.mark.parametrize("hot_window", [0, -3, 1.5, True])
    def test_hot_window_rejected_at_construction(self, hot_window):
        # used to load fine and die with a ValueError inside Scroll mid-execute
        with pytest.raises(ScenarioError, match="hot_window"):
            Scenario(app="token_ring", hot_window=hot_window)
        assert Scenario(app="token_ring", hot_window=1).hot_window == 1

    def test_run_unknown_app_fails_loudly(self):
        with pytest.raises(UnknownAppError):
            run_scenario(Scenario(app="made-up"))

    def test_run_unknown_check_fails_loudly(self):
        with pytest.raises(ScenarioError, match="consistency check"):
            run_scenario(Scenario(app="token_ring", check="nope"))


class TestExperiment:
    def test_grid_builds_cross_product_with_unique_names(self):
        experiment = Experiment.grid(
            apps=("token_ring", "wordcount"),
            faults=(FaultSchedule(), FaultSchedule.of(Drop(count=1))),
            seeds=(1, 2),
        )
        assert len(experiment.scenarios) == 8
        names = {scenario.name for scenario in experiment.scenarios}
        assert len(names) == 8
        assert "token_ring-fault-free-sim-s1" in names

    def test_duplicate_names_rejected(self):
        scenario = Scenario(app="token_ring", name="dup")
        with pytest.raises(ScenarioError, match="duplicate scenario name"):
            Experiment([scenario, scenario])

    def test_grid_requires_schedules(self):
        with pytest.raises(ScenarioError, match="FaultSchedule"):
            Experiment.grid(apps=("token_ring",), faults=(Drop(),))

    def test_grid_axes_may_be_generators(self):
        """Regression: grid len()-ed the seeds axis and then iterated it
        again, so a generator axis silently drained and produced either an
        empty grid or unsuffixed duplicate names.  Every axis is now
        materialized exactly once up front."""
        experiment = Experiment.grid(
            apps=(app for app in ("token_ring", "wordcount")),
            faults=iter((FaultSchedule(),)),
            seeds=(seed for seed in (1, 2, 3)),
        )
        assert len(experiment.scenarios) == 6
        names = {scenario.name for scenario in experiment.scenarios}
        assert len(names) == 6
        # multi-seed grids still get the per-seed name suffix
        assert "token_ring-fault-free-sim-s3" in names

    def test_grid_with_empty_axis_is_rejected(self):
        with pytest.raises(ScenarioError, match="empty"):
            Experiment.grid(apps=("token_ring",), seeds=())
        with pytest.raises(ScenarioError, match="empty"):
            Experiment.grid(apps=(), seeds=(1,))

    def test_grid_transport_axis_applies_to_mp_cells_only(self):
        experiment = Experiment.grid(
            apps=("token_ring",),
            backends=("sim", "mp"),
            transports=("pipe", "shm"),
            until=60.0,
        )
        names = [scenario.name for scenario in experiment.scenarios]
        # one sim cell (the simulator has no transport) + one mp cell per transport
        assert names == [
            "token_ring-fault-free-sim",
            "token_ring-fault-free-mp",
            "token_ring-fault-free-mp-shm",
        ]
        by_name = {s.name: s for s in experiment.scenarios}
        assert by_name["token_ring-fault-free-mp-shm"].transport == "shm"
        assert by_name["token_ring-fault-free-sim"].transport == "pipe"

    def test_run_preserves_order_and_collects_outcomes(self):
        experiment = Experiment.grid(
            apps=("token_ring",),
            faults=(FaultSchedule(), FaultSchedule.of(Drop(match_kind="TOKEN"))),
            params={"nodes": 3, "max_rounds": 3},
        )
        outcomes = experiment.run()
        assert [o.scenario_id for o in outcomes] == [s.name for s in experiment.scenarios]
        assert experiment.passed and not experiment.failures()
        assert "PASS" in experiment.describe()

    @pytest.mark.slow
    def test_process_pool_matches_serial_projections(self):
        def grid(processes):
            return Experiment.grid(
                apps=("token_ring", "leader_election"),
                faults=(FaultSchedule.of(Delay(count=1, extra_delay=2.0)),),
                processes=processes,
            )

        serial = [outcome.projection() for outcome in grid(None).run()]
        pooled = [outcome.projection() for outcome in grid(2).run()]
        assert serial == pooled


class TestOutcome:
    def test_crash_outcome_fields(self):
        scenario = Scenario(
            app="kvstore",
            params={"replicas": 2, "clients": 1},
            faults=FaultSchedule.of(Crash(pid="replica1", at=3.0, recover_at=8.0)),
            recovering=("replica1",),
        )
        outcome = run_scenario(scenario)
        assert outcome.passed and outcome.detected and outcome.consistent
        assert outcome.observed == {"crash": True}
        assert outcome.recovered == {"replica1": True}
        assert outcome.reported and "Injected faults" in outcome.incident
        assert outcome.final_states["replica1"]["store"] is not None
        assert outcome.scroll["entries"] > 0

    def test_violation_outcome_reports_and_rolls_back(self):
        scenario = Scenario(
            app="wordcount",
            params={"workers": 2, "chunks": 8},
            faults=FaultSchedule.of(Duplicate(match_kind="COUNTED")),
            expect_violation=True,
        )
        outcome = run_scenario(scenario)
        assert outcome.passed, outcome.failures
        assert outcome.reports >= 1 and outcome.rolled_back
        report = outcome.bug_reports[0]
        assert report["invariant"] and report["scroll_tail_entries"] > 0

    def test_failed_expectation_is_reported_not_raised(self):
        # a fault-free run that *claims* it provokes a violation must fail
        scenario = Scenario(app="token_ring", expect_violation=True)
        outcome = run_scenario(scenario)
        assert not outcome.passed
        assert any("violation" in failure for failure in outcome.failures)
        assert "FAIL" in outcome.summary()

    def test_execute_exposes_live_objects(self):
        run = execute(Scenario(app="kvstore", params={"replicas": 2, "clients": 1}))
        assert run.cluster.pids == ["client0", "replica0", "replica1"]
        assert len(run.fixd.scroll) == run.outcome.scroll["entries"]
        factories = run.replay_factories()
        assert set(factories) == set(run.cluster.pids)
        assert run.outcome.projection()["scenario"] == run.scenario.name


class TestSuiteFiles:
    def test_save_load_round_trip(self, tmp_path):
        scenarios = [
            Scenario(app="token_ring", name="a", faults=FaultSchedule.of(Drop(match_kind="TOKEN"))),
            Scenario(app="wordcount", name="b"),
        ]
        path = save_suite(scenarios, tmp_path / "suite.json")
        assert load_suite(path) == scenarios

    def test_load_missing_and_malformed(self, tmp_path):
        with pytest.raises(ScenarioError, match="not found"):
            load_suite(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{]")
        with pytest.raises(ScenarioError, match="not valid JSON"):
            load_suite(bad)
        empty = tmp_path / "empty.json"
        empty.write_text('{"version": 1, "scenarios": []}')
        with pytest.raises(ScenarioError, match="no scenarios"):
            load_suite(empty)
        versioned = tmp_path / "versioned.json"
        versioned.write_text('{"version": 99, "scenarios": [{}]}')
        with pytest.raises(ScenarioError, match="unsupported version"):
            load_suite(versioned)

    def test_main_runs_suite(self, tmp_path, capsys):
        from repro.api.__main__ import main

        path = save_suite([Scenario(app="token_ring", name="cli-run")], tmp_path / "s.json")
        assert main([str(path)]) == 0
        assert "cli-run" in capsys.readouterr().out
        assert main([]) == 2


class TestAttachIdempotence:
    def test_second_attach_raises(self):
        fixd = FixD(FixDConfig(investigate_on_fault=False))
        cluster = Cluster(ClusterConfig(seed=1))
        fixd.attach(cluster)
        with pytest.raises(AttachmentError, match="already attached"):
            fixd.attach(cluster)
        with pytest.raises(AttachmentError):
            fixd.attach(Cluster(ClusterConfig(seed=2)))
        # the hook chain holds exactly one recorder and one detector
        hooks = cluster.hooks.hooks
        assert hooks.count(fixd.recorder) == 1
        assert hooks.count(fixd.detector) == 1
        assert len(fixd.detector.responders) == 1

    def test_attach_to_real_process_cluster_then_attach_raises(self):
        fixd = FixD(FixDConfig(investigate_on_fault=False))
        fixd.attach(Cluster(ClusterConfig(seed=1), backend="mp"))
        with pytest.raises(AttachmentError):
            fixd.attach(Cluster(ClusterConfig(seed=2)))

    @pytest.mark.parametrize(
        "backend, transport, message",
        [
            ("net", "shm", "mp-backend knob"),
            ("sim", "shm", "mp-backend knob"),
            ("sim", "bogus", "unknown transport"),
            ("mp", "bogus", "unknown transport"),
        ],
    )
    def test_make_backend_rejects_transport_the_backend_cannot_honour(
        self, backend, transport, message
    ):
        # the rule Scenario enforces: transport is an mp knob — a net
        # cluster must not silently run sockets when asked for "shm"
        with pytest.raises(ScenarioError, match=message):
            Scenario(app="token_ring", backend=backend, transport=transport)
        with pytest.raises(SimulationError, match=message):
            make_backend(backend, transport)

    def test_make_backend_builds_the_requested_mp_transport(self):
        cluster = Cluster(backend=make_backend("mp", "shm", time_scale=0.01))
        assert cluster.backend.options.transport == "shm"
        assert cluster.backend.options.time_scale == 0.01
        # the bare name is the other sanctioned spelling; it takes the defaults
        assert Cluster(backend="mp").backend.options.transport == "pipe"


class TestAutoCommit:
    def _run(self, interval):
        cluster = Cluster(ClusterConfig(seed=11, halt_on_violation=False))
        apps.build(cluster, "wordcount", workers=2, chunks=10)
        fixd = FixD(
            FixDConfig(
                investigate_on_fault=False,
                recording_policy=RecordingPolicy(hot_window=16),
                auto_commit_interval=interval,
            )
        )
        fixd.attach(cluster)
        result = cluster.run(max_events=8000)
        return cluster, fixd, result

    def test_auto_commit_bounds_scroll_storage(self):
        _cluster, fixd, result = self._run(interval=3.0)
        assert result.ok
        committer = fixd.auto_committer
        assert committer is not None and committer.commits >= 1
        assert committer.entries_collected > 0
        manager = fixd.time_machine.rollback_manager
        assert manager.committed_lines
        storage = fixd.scroll.storage_stats()
        assert storage["collected_entries"] == committer.entries_collected
        stats = fixd.stats()
        assert stats["auto_commits"] == committer.commits

    def test_disabled_by_default(self):
        _cluster, fixd, result = self._run(interval=None)
        assert result.ok
        assert fixd.auto_committer is None
        assert fixd.scroll.storage_stats()["collected_entries"] == 0

    def test_rollback_still_possible_with_auto_commit(self):
        # A provoked violation after commits must still roll back: the
        # age margin keeps the recovery line ahead of the commit frontier.
        scenario = Scenario(
            app="wordcount",
            name="wc-autocommit-rollback",
            params={"workers": 2, "chunks": 8},
            faults=FaultSchedule.of(Duplicate(match_kind="COUNTED")),
            expect_violation=True,
            hot_window=16,
            auto_commit_interval=2.0,
        )
        outcome = run_scenario(scenario)
        assert outcome.passed, outcome.failures
        assert outcome.rolled_back

    def test_interval_must_be_positive(self):
        from repro.core.fixd import PeriodicLineCommitter
        from repro.timemachine.time_machine import TimeMachine

        with pytest.raises(ValueError, match="positive"):
            PeriodicLineCommitter(TimeMachine(), 0.0)
