"""The checkpoint lifecycle as one stateful model.

Checkpoints enter a :class:`~repro.timemachine.checkpoint.CheckpointStore`
from three policies (communication-induced capture, a forced local
checkpoint, a speculation's entry checkpoint) and leave it by two exits:
a committed recovery line's ``drop_before`` and a resolved speculation's
``release``.  Each exit releases the capture's COW pages.  Hand-written
tests cover one interleaving each; this machine drives a registry app
under the Time Machine through arbitrary sequences of runs, checkpoints,
speculations, commits and rollbacks, and after every step checks:

* every logged checkpoint materialises its state;
* every page's reference count equals a recount over the logged
  captures, and ``logical_bytes`` equals the sum of their sizes;
* each pid's committed member is still logged, and nothing older than
  it is, unless an active speculation holds it;
* every checkpoint an active speculation holds is still logged, so an
  abort can restore it.

A speculation that began before a commit may abort after it, rolling its
members back past the committed line; the log then no longer explains
their states and no consistent recovery line may exist.  The commit and
rollback rules change nothing in that case (an open question in ROADMAP.md).
"""

from __future__ import annotations

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.api import apps as registry
from repro.dsim.cluster import Cluster, ClusterConfig
from repro.errors import RecoveryLineError
from repro.timemachine.time_machine import TimeMachine

from tests.conftest import assert_pages_match_log

APPS = ["bank", "kvstore", "token_ring", "two_phase_commit"]


class CheckpointLifecycle(RuleBasedStateMachine):
    @initialize(app=st.sampled_from(APPS), seed=st.integers(0, 2**16))
    def build(self, app, seed):
        self.cluster = Cluster(ClusterConfig(seed=seed, halt_on_violation=False))
        registry.build(self.cluster, app)
        self.time_machine = TimeMachine()
        self.time_machine.attach(self.cluster)
        self.cluster.start()
        self.store = self.time_machine.store
        self.pids = sorted(self.cluster.pids)
        self.active = []
        #: per pid, the member of the last committed line
        self.committed = {}

    @rule(events=st.integers(1, 25))
    def run_events(self, events):
        self.cluster.resume()
        self.cluster.run(max_events=events)

    @rule(index=st.integers(0, 15))
    def checkpoint(self, index):
        self.time_machine.checkpoint_process(self.pids[index % len(self.pids)])

    @rule(index=st.integers(0, 15))
    def begin_speculation(self, index):
        pid = self.pids[index % len(self.pids)]
        self.active.append(self.time_machine.speculations.begin(pid, "the peer will ack"))

    @precondition(lambda self: self.active)
    @rule(index=st.integers(0, 15), abort=st.booleans())
    def resolve_speculation(self, index, abort):
        speculation = self.active.pop(index % len(self.active))
        if abort:
            self.time_machine.speculations.abort(speculation.spec_id)
        else:
            self.time_machine.speculations.commit(speculation.spec_id)

    def _latest_line(self):
        try:
            return self.time_machine.latest_recovery_line()
        except RecoveryLineError:
            return None  # see the module docstring

    @rule()
    def commit_latest_line(self):
        line = self._latest_line()
        if line is not None:
            self.time_machine.rollback_manager.commit(line)
            self.committed = dict(line.checkpoints)

    @rule()
    def roll_back_to_latest_line(self):
        line = self._latest_line()
        if line is not None:
            self.time_machine.rollback_to(line)

    @invariant()
    def every_logged_checkpoint_materialises(self):
        for pid in self.store.pids():
            for checkpoint in self.store.log_for(pid):
                assert isinstance(checkpoint.fresh_state(), dict)

    @invariant()
    def page_refcounts_match_the_logged_captures(self):
        assert_pages_match_log(self.store)

    @invariant()
    def commits_and_speculations_keep_what_they_promise(self):
        held = {
            id(checkpoint)
            for speculation in self.active
            for checkpoint in speculation.checkpoints.values()
        }
        for speculation in self.active:
            for pid, checkpoint in speculation.checkpoints.items():
                assert any(c is checkpoint for c in self.store.log_for(pid))
        for pid, member in self.committed.items():
            log = self.store.log_for(pid).all()
            assert any(c is member for c in log)
            for checkpoint in log:
                if checkpoint.sequence < member.sequence:
                    assert id(checkpoint) in held


TestCheckpointLifecycle = CheckpointLifecycle.TestCase
TestCheckpointLifecycle.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
