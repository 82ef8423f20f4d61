"""The rollback manager: applying recovery lines to a running cluster."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.errors import RecoveryLineError
from repro.timemachine.recovery_line import RecoveryLine, is_consistent


@dataclass
class RollbackResult:
    """What a rollback did, for reports and benchmarks."""

    restored_pids: List[str]
    recovery_line: RecoveryLine
    time_before: float
    rollback_distance: Dict[str, float] = field(default_factory=dict)
    alternate_paths_invoked: int = 0
    #: Scroll entries discarded (both tiers) when log truncation was requested.
    scroll_entries_truncated: int = 0

    @property
    def max_rollback_distance(self) -> float:
        """Largest amount of simulated time any process lost to the rollback."""
        return max(self.rollback_distance.values(), default=0.0)


class RollbackManager:
    """Applies recovery lines to a cluster and optionally re-routes execution.

    The second function of the Time Machine (Section 3.2) is "the ability
    to resume execution from the saved checkpoint on a different branch
    of execution that could bypass the error".  Alternate branches are
    registered per process as callbacks invoked right after the rollback;
    an application typically uses them to flip a mode flag or re-issue a
    request along a different path.
    """

    def __init__(self, cluster, store=None, durable=None) -> None:
        self._cluster = cluster
        self._alternate_paths: Dict[str, Callable[[object], None]] = {}
        self.history: List[RollbackResult] = []
        #: recovery lines the caller promised never to roll back past
        self.committed_lines: List[RecoveryLine] = []
        #: optional CheckpointStore; a commit releases the checkpoints it
        #: makes unreachable from it
        self._store = store
        #: optional DurableCheckpointStore; committed lines flush to it
        self._durable = durable
        #: per-flush counter dicts returned by the durable store
        self.durable_flushes: List[Dict[str, int]] = []
        #: per-flush counter dicts for durable Scroll segments
        self.scroll_flushes: List[Dict[str, int]] = []

    def register_alternate_path(self, pid: str, callback: Callable[[object], None]) -> None:
        """Register a callback invoked with the process object after it is rolled back."""
        self._alternate_paths[pid] = callback

    def rollback(
        self, line: RecoveryLine, verify: bool = True, truncate_scroll: bool = False
    ) -> RollbackResult:
        """Restore every process named in ``line`` and cancel their in-flight events.

        With ``truncate_scroll=True`` the cluster's registered Scroll is
        also cut back to the line's recorded log position (the spill
        watermark + hot length stamped on the member checkpoints), so
        both storage tiers forget the rolled-back future.  Callers that
        still need the post-line log — e.g. to assemble a bug report
        tail — truncate explicitly afterwards instead.
        """
        if verify and not is_consistent(line.checkpoints):
            raise RecoveryLineError(
                "refusing to roll back to an inconsistent set of checkpoints"
            )
        if self._durable is not None:
            # hard pipeline barrier: the commit-ordering check below reasons
            # about the durable frontier, so queued flushes (and any error
            # they hit) must land before state is rewound
            self._durable.drain()
        self._check_not_past_commit(line)
        time_before = self._cluster.now
        distances = {
            pid: max(0.0, time_before - checkpoint.time)
            for pid, checkpoint in line.checkpoints.items()
        }
        self._cluster.restore_checkpoints(dict(line.checkpoints))
        invoked = 0
        for pid in line.checkpoints:
            callback = self._alternate_paths.get(pid)
            if callback is not None:
                callback(self._cluster.process(pid))
                invoked += 1
        truncated = 0
        if truncate_scroll:
            truncated = self.truncate_scroll_to(line)
        result = RollbackResult(
            restored_pids=sorted(line.checkpoints),
            recovery_line=line,
            time_before=time_before,
            rollback_distance=distances,
            alternate_paths_invoked=invoked,
            scroll_entries_truncated=truncated,
        )
        self.history.append(result)
        return result

    def truncate_scroll_to(self, line: RecoveryLine) -> int:
        """Cut the cluster's Scroll back to ``line``'s recorded position.

        The cut is the *earliest* position stamped on the line's
        checkpoints, so the kept prefix is history every member agrees
        happened.  Members checkpointed later than the cut lose the
        window between the cut and their own stamp — including recorded
        nondeterminism their restored state has already consumed — so a
        truncated log explains the post-rollback era *from the recovery
        line's restored states*, not from process genesis.  That is the
        deliberate trade: bounded log growth and a log that never
        describes the rolled-back future, at the cost of
        replay-from-genesis across the cut.  Callers needing a
        genesis-replayable artefact of the pre-rollback run should
        ``save_scroll`` before truncating (FixD captures the bug-report
        tail first for the same reason).

        Returns the number of entries discarded (0 when the cluster has
        no registered Scroll or the line predates Scroll recording).
        """
        scroll = getattr(self._cluster, "scroll", None)
        position = line.scroll_position()
        if scroll is None or position is None:
            return 0
        return scroll.truncate(position)

    def _check_not_past_commit(self, line: RecoveryLine) -> None:
        """Refuse to roll back past a committed recovery line.

        Committing a line garbage-collects the Scroll prefix below its
        recorded position; a rollback to an *earlier* line would restore
        state whose replay window was already unlinked from disk, so the
        promise behind :meth:`commit` must be enforced, not assumed.
        """
        position = line.scroll_position()
        if position is None:
            return
        for committed in self.committed_lines:
            committed_position = committed.scroll_position()
            if committed_position is not None and position < committed_position:
                raise RecoveryLineError(
                    f"recovery line at Scroll position {position} predates the "
                    f"committed line at position {committed_position}; its replay "
                    "window was garbage-collected and the rollback is unsound"
                )

    def commit(self, line: RecoveryLine, collect_scroll: bool = True) -> int:
        """Commit a recovery line: the system will never roll back past it.

        Committing is the garbage-collection trigger of the log-bounding
        story: everything on the Scroll *before* the committed line's
        recorded position is unreachable for any future rollback, so the
        cold-tier segments holding it are unlinked from disk and the
        offset index is re-based
        (:meth:`repro.scroll.scroll.Scroll.collect`).  The line itself
        and everything after it stay fully replayable.  Returns the
        number of Scroll entries collected (0 when the cluster has no
        registered Scroll, the Scroll is untiered, or nothing had
        spilled below the line yet).

        The same promise makes every checkpoint older than a member of
        the line unreachable, so with a checkpoint store attached each
        member's older checkpoints leave the store and their COW pages
        are released (the store's ``pages_freed`` counts them); an
        active speculation's entry checkpoints stay until it resolves.

        When a durable checkpoint store is attached, the committed line
        is flushed to disk *before* any garbage collection: a commit
        whose flush fails must not have discarded the replay window it
        promised to preserve.  The flush writes the members' capture-time
        chunk bytes straight from their COW captures, without re-pickling.
        The Scroll window the line makes
        reachable (plus the scheduler's in-flight snapshot) is flushed
        alongside it, which is what lets ``Experiment.resume`` continue
        the run instead of merely restoring quiescent state.

        Commits must advance: a line at or below the current commit
        frontier raises :class:`~repro.errors.RecoveryLineError` *before*
        anything durable is written — flushing an older line as the
        newest manifest would make a later resume restore regressed
        state.
        """
        self._check_commit_advances(line)
        position = line.scroll_position()
        if self._durable is not None:
            self.durable_flushes.append(self._durable.flush_line(line))
            self._flush_scroll(committed_position=position)
        self.committed_lines.append(line)
        if self._store is not None:
            for pid, checkpoint in line.checkpoints.items():
                self._store.drop_before(pid, checkpoint.sequence)
        if not collect_scroll:
            return 0
        scroll = getattr(self._cluster, "scroll", None)
        if scroll is None or position is None:
            return 0
        collector = getattr(scroll, "collect", None)
        return collector(position) if collector is not None else 0

    def _check_commit_advances(self, line: RecoveryLine) -> None:
        """Refuse to commit a line at or below the current commit frontier.

        The newest durable line manifest is what resume restores; the
        hot-side ``committed_lines`` list is what rollback-ordering
        checks consult.  Both assume commits are monotonic in Scroll
        position, so a stale line (auto-committer racing a rollback,
        replayed commit, caller error) must be rejected up front — not
        appended and flushed as if it were the new frontier.
        """
        position = line.scroll_position()
        if position is None:
            return
        for committed in reversed(self.committed_lines):
            committed_position = committed.scroll_position()
            if committed_position is None:
                continue
            if position <= committed_position:
                raise RecoveryLineError(
                    f"cannot commit recovery line at Scroll position {position}: "
                    f"the commit frontier is already at {committed_position} "
                    "(commits must advance)"
                )
            return

    def _flush_scroll(self, committed_position=None) -> None:
        """Flush the registered Scroll's durable tail (no-op without one)."""
        if self._durable is None:
            return
        scroll = getattr(self._cluster, "scroll", None)
        if scroll is None:
            return
        from repro.timemachine.scroll_persistence import capture_pending

        pending = capture_pending(self._cluster.backend)
        self.scroll_flushes.append(
            self._durable.flush_scroll(
                scroll,
                pending=pending,
                now=self._cluster.now,
                committed_position=committed_position,
            )
        )

    def maybe_flush_scroll(self, threshold: int) -> bool:
        """Incrementally flush when ``threshold`` entries await durability.

        Called between commits (e.g. by the periodic committer's
        ``after_handler``) so the durable log trails the hot log by at
        most one window; returns True when a flush happened.
        """
        if self._durable is None or threshold <= 0:
            return False
        scroll = getattr(self._cluster, "scroll", None)
        if scroll is None:
            return False
        if self._durable.scroll_entries_pending(scroll) < threshold:
            return False
        self._flush_scroll()
        return True

    @property
    def rollbacks_performed(self) -> int:
        return len(self.history)
