"""Deterministic replay of recorded executions (liblog-style local playback).

The replayer re-executes each process *locally* from its initial state,
feeding it the recorded message deliveries and timer firings in the
recorded order and substituting recorded outcomes for every source of
nondeterminism (random draws, clock reads).  The remote side of every
interaction is therefore "played" from the Scroll — the black-box view of
Section 2.2 — so no other process needs to run.

Replay serves two purposes in FixD:

* **bug reporting** — the developer gets a precise, re-executable trace
  of what each process did before a violation;
* **validation** — a replay whose sends differ from the recorded sends
  (a *divergence*) means the recorded log is not sufficient to explain
  the execution, exactly the condition liblog flags.

Replaying every process of a global Scroll is O(n) in the log size: the
per-process views the replayer consumes (``iter_entries_for``,
``sent_messages``, ``random_outcomes``, ``clock_reads``) are backed by
the Scroll's ``(pid, kind)`` indexes, so each process's replay touches
only its own entries instead of rescanning the whole log once per
process.  The views are tier-transparent: against a spilled Scroll the
per-process history is streamed in batches from the on-disk segments
(see :mod:`repro.scroll.storage`), so replaying a log much larger than
memory holds only one batch of cold entries at a time.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.dsim.message import IdCounter, Message
from repro.dsim.process import Process, ProcessContext
from repro.errors import ReplayDivergenceError
from repro.scroll.entry import ActionKind
from repro.scroll.interceptor import ReplayClock, ReplayRandomStream
from repro.scroll.scroll import Scroll

ProcessFactory = Callable[[], Process]


@dataclass
class ProcessReplay:
    """Outcome of replaying one process."""

    pid: str
    events_replayed: int
    sends_recorded: int
    sends_replayed: int
    diverged: bool
    divergence_detail: Optional[str]
    final_state: Dict[str, Any]
    replayed_sends: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.diverged


@dataclass
class ForwardReplay:
    """Outcome of replaying one live process forward from a checkpoint."""

    pid: str
    from_position: int
    events_replayed: int
    draws_consumed: int
    diverged: bool
    divergence_detail: Optional[str]
    last_time: float

    @property
    def ok(self) -> bool:
        return not self.diverged


@dataclass
class ReplayReport:
    """Outcome of replaying every process recorded on a Scroll."""

    processes: Dict[str, ProcessReplay]

    @property
    def ok(self) -> bool:
        return all(replay.ok for replay in self.processes.values())

    def diverged_processes(self) -> List[str]:
        return sorted(pid for pid, replay in self.processes.items() if replay.diverged)

    def total_events(self) -> int:
        return sum(replay.events_replayed for replay in self.processes.values())


class _ReplaySendChecker:
    """Compares replayed sends against the recorded ones in order."""

    def __init__(self, pid: str, recorded: List[Dict[str, Any]], strict: bool) -> None:
        self.pid = pid
        self.recorded = recorded
        self.strict = strict
        self.observed: List[Dict[str, Any]] = []
        self.divergence: Optional[str] = None

    def observe(self, message: Message) -> None:
        index = len(self.observed)
        record = message.to_record()
        self.observed.append(record)
        if self.divergence is not None:
            return
        if index >= len(self.recorded):
            self._diverge(f"extra send #{index}: {message.describe()}", "<no recorded send>", record)
            return
        expected = self.recorded[index]
        for key in ("dst", "kind", "payload"):
            if expected.get(key) != record.get(key):
                self._diverge(
                    f"send #{index} field {key!r} differs: recorded {expected.get(key)!r}, "
                    f"replayed {record.get(key)!r}",
                    expected,
                    record,
                )
                return

    def finish(self) -> None:
        if self.divergence is None and len(self.observed) < len(self.recorded):
            self._diverge(
                f"replay produced {len(self.observed)} sends but {len(self.recorded)} were recorded",
                self.recorded[len(self.observed)],
                "<no replayed send>",
            )

    def _diverge(self, detail: str, expected: Any, actual: Any) -> None:
        self.divergence = detail
        if self.strict:
            raise ReplayDivergenceError(self.pid, expected, actual)


class Replayer:
    """Replays processes recorded on a Scroll from fresh instances."""

    def __init__(
        self,
        scroll: Scroll,
        factories: Dict[str, ProcessFactory],
        strict: bool = False,
    ) -> None:
        """
        Parameters
        ----------
        scroll:
            The recorded execution (a global Scroll or a per-process slice).
        factories:
            A zero-argument factory per process id; the replayer builds a
            fresh instance so replay starts from the initial state.
        strict:
            When true, the first divergence raises
            :class:`ReplayDivergenceError`; when false (default) the
            divergence is recorded in the report and replay continues.
        """
        self.scroll = scroll
        self.factories = dict(factories)
        self.strict = strict

    # ------------------------------------------------------------------
    # single-process replay
    # ------------------------------------------------------------------
    def replay_process(self, pid: str) -> ProcessReplay:
        """Replay one process against the Scroll and report the outcome.

        A fresh instance runs ``on_start`` and then the process's whole
        recorded history: :meth:`replay_forward`'s loop from position 0.
        """
        if pid not in self.factories:
            raise KeyError(f"no factory registered for process {pid!r}")
        process = self.factories[pid]()
        replay, checker = self._drive(pid, process, 0, 0.0, None, run_on_start=True)
        return ProcessReplay(
            pid=pid,
            events_replayed=replay.events_replayed,
            sends_recorded=len(checker.recorded),
            sends_replayed=len(checker.observed),
            diverged=replay.diverged,
            divergence_detail=replay.divergence_detail,
            final_state=dict(process.state),
            replayed_sends=list(checker.observed),
        )

    # ------------------------------------------------------------------
    # replay-forward (resume continuation)
    # ------------------------------------------------------------------
    def replay_forward(
        self,
        pid: str,
        process: Process,
        *,
        from_position: int,
        start_time: float = 0.0,
        rng_draws_base: Optional[int] = None,
        run_on_start: bool = False,
    ) -> ForwardReplay:
        """Drive a *live, already-restored* process forward through the log.

        Unlike :meth:`replay_process`, which rebuilds a fresh instance
        and replays from the initial state, this method takes a process
        just restored from a checkpoint and re-applies only the recorded
        history *after* the checkpoint's Scroll position
        (``from_position``): deliveries and timer firings are fed in
        recorded order, random draws and clock reads substitute their
        recorded outcomes, and replayed sends are checked against the
        recorded ones.  The process's state, vector clock and counters
        evolve exactly as they did in the original run, which is how
        ``Experiment.resume`` closes the gap between the last committed
        recovery line and the crash point.

        The process's original context is restored afterwards; when
        ``rng_draws_base`` is given (the checkpoint's ``rng_draws``),
        the live context's deterministic RNG is fast-forwarded to
        ``rng_draws_base + draws consumed during replay`` so post-replay
        execution continues the original random stream.

        ``run_on_start=True`` re-executes the process's ``on_start``
        under the replay context first: a *genesis* checkpoint (taken at
        ``on_run_start``, before any handler ran) precedes the recorded
        effects of ``on_start`` — its state initialization, random draws
        and timer registrations — so the window can only replay cleanly
        if ``on_start`` runs again, consuming the recorded outcomes.
        """
        replay, _checker = self._drive(
            pid, process, from_position, start_time, rng_draws_base, run_on_start
        )
        return replay

    def _drive(
        self,
        pid: str,
        process: Process,
        from_position: int,
        start_time: float,
        rng_draws_base: Optional[int],
        run_on_start: bool,
    ) -> Tuple[ForwardReplay, _ReplaySendChecker]:
        """The one replay loop: feed ``pid``'s history from ``from_position``.

        ``process`` runs under a replay context (recorded rng/clock,
        checked sends) and gets its own context back afterwards, its RNG
        fast-forwarded past the replayed draws when ``rng_draws_base`` is
        given.  A fresh instance has no context yet, so it is bound and
        its logical clocks start at zero; a live one keeps its restored
        clocks.  Index-backed per-process views keep this O(k) in the
        process's own entry count, and the history is streamed so
        spilled logs are not rematerialized.

        Returns the replay's outcome and its send checker.
        """
        original_ctx = process.swap_context(None)

        recorded_sends = self.scroll.sent_messages(pid, start=from_position)
        checker = _ReplaySendChecker(pid, recorded_sends, self.strict)
        rng = ReplayRandomStream(pid, self.scroll.random_outcomes(pid, start=from_position))
        clock = ReplayClock(
            pid, self.scroll.clock_reads(pid, start=from_position), fallback=start_time
        )
        pending_timer_payloads: Dict[str, deque] = defaultdict(deque)

        def send_fn(message: Message) -> None:
            checker.observe(message)

        def timer_fn(name: str, delay: float, payload: Any) -> None:
            pending_timer_payloads[name].append(payload)

        def cancel_timer_fn(name: str) -> None:
            pending_timer_payloads[name].clear()

        all_pids = tuple(self.scroll.pids()) or (pid,)
        ctx = ProcessContext(
            pid=pid,
            peers=original_ctx.peers if original_ctx is not None else all_pids,
            send_fn=send_fn,
            timer_fn=timer_fn,
            cancel_timer_fn=cancel_timer_fn,
            # the ambient clock timestamps runtime artefacts; only
            # Process.now() consumes the recorded reads (read_clock_fn)
            now_fn=clock.ambient,
            rng=rng,  # type: ignore[arg-type] — same draw interface as DeterministicRNG
            read_clock_fn=clock.read,
            take_msg_id=IdCounter().take,  # sends are checked, never delivered
        )
        if original_ctx is None:
            process.bind(ctx)
        else:
            process.swap_context(ctx)

        divergence: Optional[str] = None
        events_replayed = 0
        last_time = start_time
        try:
            if run_on_start:
                process.on_start()
            for entry in self.scroll.iter_entries_for(pid, start=from_position):
                clock.advance_fallback(entry.time)
                last_time = max(last_time, entry.time)
                if entry.kind is ActionKind.RECEIVE and "message" in entry.detail:
                    if process.crashed:
                        continue  # dead-lettered in the original run too
                    process.deliver(Message.from_record(entry.detail["message"]))
                    events_replayed += 1
                elif entry.kind is ActionKind.TIMER:
                    if process.crashed:
                        continue
                    name = entry.detail.get("name")
                    queue = pending_timer_payloads.get(name)
                    # a timer set before the replay window carries no
                    # queued payload here — fall back to the recorded one
                    payload = queue.popleft() if queue else entry.detail.get("payload")
                    process.fire_timer(name, payload)
                    events_replayed += 1
                elif entry.kind is ActionKind.CRASH:
                    process.mark_crashed()
                elif entry.kind is ActionKind.RECOVER:
                    process.mark_recovered()
            checker.finish()
        except ReplayDivergenceError as error:
            if self.strict:
                raise
            divergence = str(error)
        finally:
            process.swap_context(original_ctx)

        if rng_draws_base is not None and original_ctx is not None:
            original_ctx.rng.restore(rng_draws_base + rng.draws)

        divergence = divergence or checker.divergence
        replay = ForwardReplay(
            pid=pid,
            from_position=from_position,
            events_replayed=events_replayed,
            draws_consumed=rng.draws,
            diverged=divergence is not None,
            divergence_detail=divergence,
            last_time=last_time,
        )
        return replay, checker

    # ------------------------------------------------------------------
    # whole-system replay
    # ------------------------------------------------------------------
    def replay_all(self) -> ReplayReport:
        """Replay every process that both appears on the Scroll and has a factory."""
        results: Dict[str, ProcessReplay] = {}
        for pid in self.scroll.pids():
            if pid in self.factories:
                results[pid] = self.replay_process(pid)
        return ReplayReport(processes=results)

    def replay_until_violation(self) -> Tuple[ReplayReport, Optional[str]]:
        """Replay only the prefix that precedes the first recorded violation.

        Returns the report and the pid of the violating process (or None
        if the Scroll records no violation).
        """
        violations = self.scroll.violations()
        if not violations:
            return self.replay_all(), None
        first = violations[0]
        prefix = self.scroll.prefix_until(lambda entry: entry.seq == first.seq)
        report = Replayer(prefix, self.factories, strict=self.strict).replay_all()
        return report, first.pid
