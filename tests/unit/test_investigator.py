"""Unit tests for the Investigator: states, guarded models, explorer, ModelD,
the CMC-style checker, process-model adapters and the facade."""

from __future__ import annotations

import collections.abc
import copy
import types

import pytest

from repro.dsim.process import ConfiguredFactory, Process, handler, invariant
from repro.errors import ModelCheckingError, StateSpaceLimitExceeded
from repro.investigator import state as state_module
from repro.investigator.cmc import CMCChecker, CMCConfig, GenericProperty
from repro.investigator.explorer import Explorer, SearchOrder
from repro.investigator.frontend import ModelBuilder
from repro.investigator.guarded import Action, GuardedModel
from repro.investigator.heap import SimulatedHeap
from repro.investigator.invariants import InvariantSpec, always, never, state_variable_bounded
from repro.investigator.investigator import Investigator, InvestigatorConfig
from repro.investigator.modeld import ModelD, ModelDConfig
from repro.investigator.models import DistributedSystemModel, EnvironmentModel, SystemState
from repro.investigator.state import ModelState, fingerprint
from repro.investigator.trails import Trail, TrailStep, deduplicate_trails

from tests.conftest import make_cluster


# ----------------------------------------------------------------------
# Fingerprints and model states
# ----------------------------------------------------------------------
class TestStateFingerprint:
    def test_dict_order_does_not_matter(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})

    def test_sets_are_canonicalised(self):
        assert fingerprint({"s": {3, 1, 2}}) == fingerprint({"s": {1, 2, 3}})

    def test_different_values_differ(self):
        assert fingerprint({"a": 1}) != fingerprint({"a": 2})

    def test_nested_structures(self):
        a = {"outer": [{"x": 1}, {"y": {2, 3}}]}
        b = {"outer": [{"x": 1}, {"y": {3, 2}}]}
        assert fingerprint(a) == fingerprint(b)

    def test_model_state_accessors(self):
        state = ModelState.from_dict({"x": 1, "y": "s"})
        assert state["x"] == 1
        assert state.get("missing", 9) == 9
        assert "y" in state
        assert sorted(state) == ["x", "y"]
        with pytest.raises(KeyError):
            _ = state["zzz"]

    def test_with_values_is_pure(self):
        state = ModelState.from_dict({"x": 1})
        updated = state.with_values(x=2, y=3)
        assert state["x"] == 1
        assert updated["x"] == 2 and updated["y"] == 3

    def test_fingerprint_stable_under_construction_order(self):
        a = ModelState.from_dict({"x": 1, "y": 2})
        b = ModelState.from_dict({"y": 2, "x": 1})
        assert a.fingerprint() == b.fingerprint()

    def test_plain_nodes_skip_the_abc_checks(self, monkeypatch):
        checked = []

        class Counting(type):
            def __instancecheck__(cls, value):
                checked.append(value)
                return isinstance(value, collections.abc.Mapping)

        class SpyMapping(metaclass=Counting):
            pass

        monkeypatch.setattr(state_module, "Mapping", SpyMapping)
        state_module._normalise({"a": [1, (2.0, None)], "b": {"c": True, "d": b"x", "e": "s"}})
        assert checked == []
        proxy = types.MappingProxyType({"a": 1})
        state_module._normalise([proxy])
        assert checked == [proxy]


# ----------------------------------------------------------------------
# Guarded models
# ----------------------------------------------------------------------
def build_counter_model(limit: int = 3) -> GuardedModel:
    initial = ModelState.from_dict({"n": 0})
    return GuardedModel(
        initial_state=initial,
        actions=[
            Action(
                "inc",
                effect=lambda s: s.with_values(n=s["n"] + 1),
                guard=lambda s: s["n"] < limit,
            )
        ],
        invariants=[always("n-bounded", lambda s: s["n"] <= limit)],
    )


class TestGuardedModel:
    def test_enabled_actions_respect_guards(self):
        model = build_counter_model(1)
        assert [a.name for a in model.enabled_actions(model.initial_state)] == ["inc"]
        done = ModelState.from_dict({"n": 1})
        assert model.enabled_actions(done) == []

    def test_apply_wraps_single_successor_in_list(self):
        model = build_counter_model()
        successors = model.action("inc").apply(model.initial_state)
        assert len(successors) == 1 and successors[0]["n"] == 1

    def test_effect_returning_none_rejected(self):
        action = Action("bad", effect=lambda s: None)
        with pytest.raises(ModelCheckingError):
            action.apply(ModelState.from_dict({}))

    def test_add_remove_replace_actions(self):
        model = build_counter_model()
        model.add_action(Action("dec", effect=lambda s: s.with_values(n=s["n"] - 1)))
        assert "dec" in model.action_names()
        removed = model.remove_action("dec")
        assert removed.name == "dec"
        with pytest.raises(ModelCheckingError):
            model.remove_action("dec")
        with pytest.raises(ModelCheckingError):
            model.replace_action(Action("missing", effect=lambda s: s))

    def test_swap_tagged_actions(self):
        model = build_counter_model()
        model.add_action(Action("net-send", effect=lambda s: s, tags=frozenset({"communication"})))
        removed = model.swap_tagged_actions(
            "communication", [Action("net-model", effect=lambda s: s)]
        )
        assert [a.name for a in removed] == ["net-send"]
        assert "net-model" in model.action_names()
        assert "net-send" not in model.action_names()

    def test_violated_invariants(self):
        model = build_counter_model(2)
        bad = ModelState.from_dict({"n": 5})
        assert [inv.name for inv in model.violated_invariants(bad)] == ["n-bounded"]


class TestInvariantSpecs:
    def test_predicate_exception_counts_as_violation(self):
        spec = InvariantSpec("boom", lambda s: 1 / 0)
        assert not spec.holds(ModelState.from_dict({}))

    def test_never_inverts(self):
        spec = never("no-flag", lambda s: s["flag"])
        assert spec.holds(ModelState.from_dict({"flag": False}))
        assert not spec.holds(ModelState.from_dict({"flag": True}))

    def test_state_variable_bounded(self):
        spec = state_variable_bounded("x-range", "x", low=0, high=10)
        assert spec.holds(ModelState.from_dict({"x": 5}))
        assert not spec.holds(ModelState.from_dict({"x": -1}))
        assert spec.holds(ModelState.from_dict({}))  # missing variable is tolerated


# ----------------------------------------------------------------------
# Explorer
# ----------------------------------------------------------------------
class TestExplorer:
    def test_bfs_explores_whole_bounded_space(self):
        model = build_counter_model(4)
        result = Explorer(model, SearchOrder.BFS, check_deadlocks=False).explore()
        assert result.states_explored == 5  # n = 0..4
        assert result.ok

    def test_violation_found_with_shortest_trail_by_bfs(self):
        model = build_counter_model(3)
        model.add_invariant(always("n-below-2", lambda s: s["n"] < 2))
        result = Explorer(model, SearchOrder.BFS, check_deadlocks=False).explore()
        assert not result.ok
        assert result.shortest_violation().length == 2
        assert result.shortest_violation().actions == ["inc", "inc"]

    def test_dfs_finds_same_violation(self):
        model = build_counter_model(3)
        model.add_invariant(always("n-below-2", lambda s: s["n"] < 2))
        result = Explorer(model, SearchOrder.DFS, check_deadlocks=False).explore()
        assert not result.ok

    def test_deadlock_detection(self):
        model = build_counter_model(2)   # no action enabled at n=2, not marked terminal
        result = Explorer(model, SearchOrder.BFS, check_deadlocks=True).explore()
        assert result.deadlocks
        assert result.deadlocks[0].violated_invariant == "no-deadlock"

    def test_terminal_predicate_suppresses_deadlock(self):
        model = build_counter_model(2)
        result = Explorer(
            model,
            SearchOrder.BFS,
            check_deadlocks=True,
            terminal_predicate=lambda s: s["n"] == 2,
        ).explore()
        assert not result.deadlocks

    def test_state_budget_truncates(self):
        model = build_counter_model(10_000)
        result = Explorer(model, SearchOrder.BFS, max_states=10, check_deadlocks=False).explore()
        assert result.truncated
        assert result.states_explored <= 10

    def test_strict_budget_raises(self):
        model = build_counter_model(10_000)
        explorer = Explorer(
            model, SearchOrder.BFS, max_states=10, strict_budget=True, check_deadlocks=False
        )
        with pytest.raises(StateSpaceLimitExceeded):
            explorer.explore()

    def test_single_path_follows_first_enabled_action(self):
        model = build_counter_model(5)
        result = Explorer(model, SearchOrder.SINGLE_PATH, check_deadlocks=False).explore()
        assert result.max_depth_reached == 5
        assert result.transitions == 5

    def test_single_path_with_custom_schedule(self):
        model = build_counter_model(5)
        model.add_action(Action("stop", effect=lambda s: s.with_values(n=99), guard=lambda s: s["n"] == 2))
        picked = []

        def schedule(state, enabled):
            choice = enabled[-1]
            picked.append(choice.name)
            return choice

        Explorer(model, SearchOrder.SINGLE_PATH, schedule=schedule, check_deadlocks=False).explore()
        assert "stop" in picked

    def test_random_walks_find_shallow_bug(self):
        model = build_counter_model(3)
        model.add_invariant(always("n-below-2", lambda s: s["n"] < 2))
        result = Explorer(
            model, SearchOrder.RANDOM, max_states=500, max_depth=10, random_seed=1, check_deadlocks=False
        ).explore()
        assert not result.ok

    def test_heuristic_search_uses_scoring(self):
        model = build_counter_model(50)
        model.add_invariant(always("n-below-40", lambda s: s["n"] < 40))
        result = Explorer(
            model,
            SearchOrder.HEURISTIC,
            heuristic=lambda s: s["n"],
            stop_at_first_violation=True,
            check_deadlocks=False,
        ).explore()
        assert not result.ok

    def test_reachability_graph_built_on_request(self):
        model = build_counter_model(3)
        result = Explorer(model, SearchOrder.BFS, build_graph=True, check_deadlocks=False).explore()
        assert result.reachability_graph
        assert result.transitions == sum(len(edges) for edges in result.reachability_graph.values())


class TestTrails:
    def test_describe_includes_invariant_and_steps(self):
        trail = Trail(
            violated_invariant="inv",
            steps=[TrailStep("a", "fp1", "{x=1}", 1), TrailStep("b", "fp2", "{x=2}", 2)],
        )
        text = trail.describe()
        assert "inv" in text and "a" in text and "{x=2}" in text
        assert trail.length == 2

    def test_describe_truncates(self):
        trail = Trail(
            violated_invariant="inv",
            steps=[TrailStep(f"s{i}", f"fp{i}", "{}", i) for i in range(10)],
        )
        assert "omitted" in trail.describe(max_steps=3)

    def test_shares_prefix(self):
        a = Trail("inv", [TrailStep("x", "1", "", 1), TrailStep("y", "2", "", 2)])
        b = Trail("inv", [TrailStep("x", "1", "", 1), TrailStep("z", "3", "", 2)])
        assert a.shares_prefix_with(b) == 1

    def test_deduplicate_keeps_shortest_per_final_state(self):
        short = Trail("inv", [TrailStep("a", "same", "", 1)])
        long = Trail("inv", [TrailStep("b", "x", "", 1), TrailStep("c", "same", "", 2)])
        kept = deduplicate_trails([long, short])
        assert len(kept) == 1 and kept[0] is short


# ----------------------------------------------------------------------
# Front-end, ModelD and CMC
# ----------------------------------------------------------------------
class TestModelBuilderAndModelD:
    def _mutex_builder(self) -> ModelBuilder:
        builder = ModelBuilder("mutex")
        builder.variables(a=False, b=False)
        builder.add_action("enter-a", lambda s: s.with_values(a=True), guard=lambda s: not s["a"])
        builder.add_action("enter-b", lambda s: s.with_values(b=True), guard=lambda s: not s["b"])
        builder.add_action("leave-a", lambda s: s.with_values(a=False), guard=lambda s: s["a"])
        builder.add_action("leave-b", lambda s: s.with_values(b=False), guard=lambda s: s["b"])
        builder.invariant("mutex", lambda s: not (s["a"] and s["b"]))
        return builder

    def test_duplicate_declarations_rejected(self):
        builder = ModelBuilder("m")
        builder.variable("x", 0)
        with pytest.raises(ModelCheckingError):
            builder.variable("x", 1)
        builder.add_action("a", lambda s: s)
        with pytest.raises(ModelCheckingError):
            builder.add_action("a", lambda s: s)

    def test_build_requires_actions(self):
        with pytest.raises(ModelCheckingError):
            ModelBuilder("empty").build()

    def test_action_decorator_form(self):
        builder = ModelBuilder("m")
        builder.variable("x", 0)

        @builder.action("bump")
        def bump(state):
            return state.with_values(x=state["x"] + 1)

        model = builder.build()
        assert model.action_names() == ["bump"]

    def test_modeld_finds_mutex_violation_and_counts_states(self):
        checker = ModelD.from_builder(self._mutex_builder(), ModelDConfig(max_states=100))
        result = checker.check()
        assert not result.ok
        assert result.shortest_violation().length == 2

    def test_modeld_dynamic_injection_fixes_the_model(self):
        checker = ModelD.from_builder(self._mutex_builder(), ModelDConfig(max_states=100))
        checker.inject_action(
            Action("enter-a", effect=lambda s: s.with_values(a=True), guard=lambda s: not s["a"] and not s["b"])
        )
        checker.inject_action(
            Action("enter-b", effect=lambda s: s.with_values(b=True), guard=lambda s: not s["b"] and not s["a"])
        )
        assert checker.check().ok

    def test_modeld_single_path_and_random(self):
        checker = ModelD.from_builder(self._mutex_builder(), ModelDConfig(max_states=100))
        single = checker.run_single_path()
        assert single.search_order is SearchOrder.SINGLE_PATH
        random_result = checker.random_walks(seed=3)
        assert random_result.search_order is SearchOrder.RANDOM

    def test_swap_communication_actions(self):
        builder = ModelBuilder("net")
        builder.variable("sent", 0)
        builder.add_action(
            "send-real",
            lambda s: s.with_values(sent=s["sent"] + 1),
            guard=lambda s: s["sent"] < 1,
            tags={"communication"},
        )
        checker = ModelD.from_builder(builder)
        removed = checker.swap_communication_actions(
            [Action("send-model", effect=lambda s: s.with_values(sent=s["sent"] + 1), guard=lambda s: s["sent"] < 1)]
        )
        assert [a.name for a in removed] == ["send-real"]
        assert "send-model" in checker.model.action_names()


class TestSimulatedHeapAndCMC:
    def test_heap_alloc_access_free_cycle(self):
        heap = SimulatedHeap()
        heap, block = heap.malloc(32, tag="buf")
        heap = heap.access(block)
        heap = heap.free(block)
        assert not heap.has_errors
        assert heap.live_blocks == []

    def test_heap_detects_use_after_free_and_double_free(self):
        heap = SimulatedHeap()
        heap, block = heap.malloc(8)
        heap = heap.free(block)
        heap = heap.access(block)
        heap = heap.free(block)
        kinds = {error.kind for error in heap.errors}
        assert kinds == {"invalid-access", "double-free"}

    def test_heap_detects_wild_access_and_invalid_free(self):
        heap = SimulatedHeap()
        heap = heap.access(99)
        heap = heap.free(42)
        kinds = [error.kind for error in heap.errors]
        assert "invalid-access" in kinds and "invalid-free" in kinds

    def test_heap_leak_report(self):
        heap, _ = SimulatedHeap().malloc(16, tag="leaky")
        leaks = heap.leaks()
        assert len(leaks) == 1 and leaks[0].kind == "leak"

    def test_heap_invalid_size_rejected(self):
        with pytest.raises(ModelCheckingError):
            SimulatedHeap().malloc(0)

    def _allocator_builder(self, leak: bool) -> ModelBuilder:
        builder = ModelBuilder("alloc")
        builder.variables(heap=SimulatedHeap(), done=False, block=None)
        builder.add_action(
            "alloc",
            lambda s: (lambda heap_block: s.with_values(heap=heap_block[0], block=heap_block[1]))(
                s["heap"].malloc(8)
            ),
            guard=lambda s: s["block"] is None,
        )
        if leak:
            builder.add_action(
                "finish", lambda s: s.with_values(done=True), guard=lambda s: s["block"] is not None and not s["done"]
            )
        else:
            builder.add_action(
                "finish",
                lambda s: s.with_values(heap=s["heap"].free(s["block"]), done=True),
                guard=lambda s: s["block"] is not None and not s["done"],
            )
        builder.terminal(lambda s: s["done"])
        return builder

    def test_cmc_reports_leak_at_termination(self):
        builder = self._allocator_builder(leak=True)
        checker = CMCChecker(builder.build(), CMCConfig(max_states=100), builder.terminal_predicate)
        result = checker.check()
        assert GenericProperty.NO_LEAKS_AT_TERMINATION.value in checker.found_property_violations(result)

    def test_cmc_clean_allocator_passes(self):
        builder = self._allocator_builder(leak=False)
        checker = CMCChecker(builder.build(), CMCConfig(max_states=100), builder.terminal_predicate)
        result = checker.check()
        assert checker.found_property_violations(result) == []


# ----------------------------------------------------------------------
# Distributed-system models built from real process implementations
# ----------------------------------------------------------------------
class Echo(Process):
    """p0 sends one request; the peer echoes it back; p0 records the reply."""

    def on_start(self):
        self.state["replies"] = 0
        if self.pid == "p0":
            self.send("p1", "REQ", 1)

    @handler("REQ")
    def on_req(self, msg):
        self.send(msg.src, "REP", msg.payload)

    @handler("REP")
    def on_rep(self, msg):
        self.state["replies"] += 1

    @invariant("replies-bounded")
    def replies_bounded(self):
        return self.state["replies"] <= 1


class TimerJuggler(Process):
    """On ``GO``, p1 runs the timer operations listed in the message payload."""

    script = (("set", "t"), ("cancel", "t"))

    def on_start(self):
        if self.pid == "p0":
            self.send("p1", "GO", self.script)

    @handler("GO")
    def on_go(self, msg):
        for op, name in msg.payload:
            if op == "set":
                self.set_timer(name, 1.0)
            else:
                self.cancel_timer(name)


class Snooper(Process):
    """An invariant that breaks the contract by reading the clock."""

    def on_start(self):
        self.state["n"] = 0

    @invariant("reads-the-clock")
    def reads_the_clock(self):
        return self.now() >= 0


class TestDistributedSystemModel:
    @pytest.mark.parametrize(
        "script, expected",
        [
            ((("set", "t"), ("cancel", "t")), ()),
            ((("cancel", "t"), ("set", "t")), (("t", None),)),
            ((("set", "t"), ("cancel", "t"), ("set", "t")), (("t", None),)),
            ((("set", "t"), ("set", "u"), ("cancel", "t")), (("u", None),)),
        ],
    )
    def test_timer_operations_apply_in_handler_order(self, script, expected):
        """A cancel removes every pending timer of that name, as the simulator's does."""
        factory = ConfiguredFactory(TimerJuggler, script=script)
        adapter = DistributedSystemModel({"p0": factory, "p1": factory})
        model = adapter.build_model()
        (after,) = model.action("deliver:p0->p1").apply(model.initial_state)
        assert after.timer_queue("p1") == expected

    def test_a_transition_deep_copies_only_the_handled_process(self, monkeypatch):
        adapter = DistributedSystemModel({"p0": Echo, "p1": Echo, "p2": Echo})
        model = adapter.build_model()
        initial = model.initial_state
        copied = []
        real_deepcopy = copy.deepcopy

        def counting_deepcopy(value, *args):
            copied.append(value)
            return real_deepcopy(value, *args)

        def no_pre_state(*args, **kwargs):
            raise AssertionError("an effect built a whole SystemState")

        monkeypatch.setattr(copy, "deepcopy", counting_deepcopy)
        monkeypatch.setattr(SystemState, "build", staticmethod(no_pre_state))
        (after,) = model.action("deliver:p0->p1").apply(initial)
        process_copies = [value for value in copied if any(value is s for _, s in initial.process_states)]
        assert len(process_copies) == 1 and process_copies[0] is initial.state_of("p1")
        assert after.state_of("p0") is initial.state_of("p0")
        assert after.state_of("p2") is initial.state_of("p2")

    def test_invariants_cannot_read_the_clock(self):
        adapter = DistributedSystemModel({"p0": Snooper})
        report = Explorer(adapter.build_model(), SearchOrder.BFS, check_deadlocks=False).explore()
        assert [trail.violated_invariant for trail in report.violations] == ["process:p0"]

    def test_initial_state_runs_on_start(self):
        adapter = DistributedSystemModel({"p0": Echo, "p1": Echo})
        initial = adapter.initial_state()
        assert initial.pending_messages() == 1
        assert initial.state_of("p0")["replies"] == 0

    def test_exploration_reaches_quiescence_without_violations(self):
        adapter = DistributedSystemModel({"p0": Echo, "p1": Echo})
        model = adapter.build_model()
        result = Explorer(
            model,
            SearchOrder.BFS,
            terminal_predicate=DistributedSystemModel.terminal_predicate,
        ).explore()
        assert result.ok
        assert result.states_explored >= 3

    def test_global_invariant_violation_found(self):
        adapter = DistributedSystemModel(
            {"p0": Echo, "p1": Echo},
            global_invariants={"no-replies-ever": lambda states: states["p0"]["replies"] == 0},
        )
        model = adapter.build_model()
        result = Explorer(
            model,
            SearchOrder.BFS,
            terminal_predicate=DistributedSystemModel.terminal_predicate,
        ).explore()
        assert not result.ok
        assert any(t.violated_invariant == "global:no-replies-ever" for t in result.violations)

    def test_state_from_checkpoint_uses_checkpointed_values(self):
        cluster = make_cluster({"p0": Echo, "p1": Echo}, seed=1)
        cluster.run()
        checkpoints = cluster.capture_all()
        from repro.timemachine.checkpoint import GlobalCheckpoint

        bundle = GlobalCheckpoint()
        for ckpt in checkpoints.values():
            bundle.add(ckpt)
        adapter = DistributedSystemModel({"p0": Echo, "p1": Echo})
        state = adapter.state_from_checkpoint(bundle)
        assert state.state_of("p0")["replies"] == 1
        assert state.pending_messages() == 0

    def test_empty_factory_map_rejected(self):
        with pytest.raises(ModelCheckingError):
            DistributedSystemModel({})

    def test_environment_model_answers_scripted_messages(self):
        def respond(process, message):
            process.send(message.src, "REP", "modelled")

        adapter = DistributedSystemModel(
            {"p0": Echo, "p1": lambda: EnvironmentModel(respond)}
        )
        model = adapter.build_model()
        result = Explorer(
            model,
            SearchOrder.BFS,
            terminal_predicate=DistributedSystemModel.terminal_predicate,
        ).explore()
        assert result.ok

    def test_system_state_fingerprint_ignores_step_counter(self):
        adapter = DistributedSystemModel({"p0": Echo, "p1": Echo})
        initial = adapter.initial_state()
        bumped = SystemState(
            process_states=initial.process_states,
            rng_cursors=initial.rng_cursors,
            channels=initial.channels,
            timers=initial.timers,
            step=initial.step + 5,
        )
        assert initial.fingerprint() == bumped.fingerprint()


class TestInvestigatorFacade:
    def test_clean_system_reports_no_violation(self):
        report = Investigator().investigate({"p0": Echo, "p1": Echo})
        assert not report.found_violation
        assert report.states_explored > 0
        assert "No invariant violations" in report.summary()

    def test_violation_reported_with_trails(self):
        report = Investigator(InvestigatorConfig(max_states=500)).investigate(
            {"p0": Echo, "p1": Echo},
            global_invariants={"never-reply": lambda states: states["p0"]["replies"] == 0},
        )
        assert report.found_violation
        assert report.shortest_trail() is not None
        assert "global:never-reply" in report.violated_invariants
        assert "violating trail" in report.summary()

    def test_single_path_mode(self):
        report = Investigator().replay_single_path({"p0": Echo, "p1": Echo})
        assert report.search_order is SearchOrder.SINGLE_PATH
        assert not report.found_violation
