"""Deterministic discrete-event scheduler.

Every run of the simulator is a pure function of ``(programs, seed,
fault plan)``.  Determinism comes from three properties of this
scheduler:

1. events are ordered by ``(time, sequence number)`` where the sequence
   number is assigned at scheduling time, so ties are broken stably;
2. all randomness (delays, drops, application draws) flows through the
   seeded streams in :mod:`repro.dsim.rng`;
3. event execution never consults wall-clock time.

The Investigator relies on this: re-running a prefix of the schedule from
a checkpoint reproduces the original execution exactly, and exploring a
*different* schedule is an explicit, controlled perturbation.

Cancellation is *lazy*: cancelling an event only flips a flag and
adjusts the live-event counter; the heap is normally never rebuilt or
scanned.  Cancelled events are discarded when they surface at the heap
head (:meth:`Scheduler.peek_time` / :meth:`Scheduler.pop_next`), so
every scheduler operation is O(log n) or better.  Long runs with heavy
cancellation (crash storms, repeated rollbacks) would otherwise carry
dead events in the heap until they surface, so the scheduler *compacts*
— drops cancelled entries and re-heapifies — whenever dead entries
outnumber half the heap; the O(n) cost is amortized against the >= n/2
cancellations that triggered it, keeping the heap within a constant
factor of the live-event count:

* :meth:`Scheduler.peek_time` pops dead heads instead of sorting the
  whole queue;
* :attr:`Scheduler.pending_events` reads a counter maintained on
  push/cancel/pop instead of scanning;
* :meth:`Scheduler.cancel_for_target` walks a per-target index (crash
  and rollback handling cancels a single process's events, which used to
  scan every queued event in the system).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, Iterator, List, Optional

from repro.errors import SimulationError


class EventKind(Enum):
    """The kinds of events the scheduler understands."""

    DELIVER = "deliver"          # a message arrives at its destination
    TIMER = "timer"              # a process timer fires
    CRASH = "crash"              # fault injection: process crash
    RECOVER = "recover"          # fault injection: process recovery
    CORRUPT = "corrupt"          # fault injection: state corruption
    CONTROL = "control"          # runtime-internal control action (checkpoint, probe)


@dataclass(order=True)
class Event:
    """A scheduled event.

    Ordering is by ``(time, seq)`` only; the payload fields are excluded
    from comparison so that events carrying unorderable payloads can
    still be queued.
    """

    time: float
    seq: int
    kind: EventKind = field(compare=False)
    target: str = field(compare=False)
    payload: Any = field(compare=False, default=None)
    cancelled: bool = field(compare=False, default=False)
    #: True while the event sits in the scheduler's heap; maintained by the
    #: scheduler so cancellation bookkeeping never double-counts an event.
    in_queue: bool = field(compare=False, default=False, repr=False)


class Scheduler:
    """A priority-queue scheduler with stable tie-breaking and lazy cancellation."""

    def __init__(self) -> None:
        self._queue: List[Event] = []
        self._sequence = itertools.count()
        self._now = 0.0
        self._executed = 0
        #: number of queued events that are not cancelled (kept exact)
        self._live = 0
        #: queued events per target; pruned lazily, rebuilt when mostly dead
        self._by_target: Dict[str, List[Event]] = {}
        self._index_dead = 0
        #: cancelled events still sitting in the heap; compaction trigger
        self._heap_dead = 0

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def executed_events(self) -> int:
        """Number of events executed so far."""
        return self._executed

    @property
    def pending_events(self) -> int:
        """Number of live events still queued (cancelled events excluded)."""
        return self._live

    @property
    def heap_size(self) -> int:
        """Entries physically in the heap, live or dead (compaction bound)."""
        return len(self._queue)

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, kind: EventKind, target: str, payload: Any = None) -> Event:
        """Schedule an event ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule an event {delay} time units in the past")
        return self.schedule_at(self._now + delay, kind, target, payload)

    def schedule_at(self, time: float, kind: EventKind, target: str, payload: Any = None) -> Event:
        """Schedule an event at an absolute simulation time."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule an event at t={time} which is before now (t={self._now})"
            )
        event = Event(time=float(time), seq=next(self._sequence), kind=kind, target=target, payload=payload)
        event.in_queue = True
        heapq.heappush(self._queue, event)
        self._live += 1
        self._by_target.setdefault(target, []).append(event)
        return event

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event (it will be skipped).

        Cancelling an event that already executed, or one that was
        already cancelled, is a no-op.
        """
        if event.cancelled or not event.in_queue:
            return
        event.cancelled = True
        self._live -= 1
        self._note_heap_dead()

    def cancel_for_target(self, target: str, kind: Optional[EventKind] = None) -> int:
        """Cancel all pending events for ``target`` (optionally of one kind).

        Used when a process crashes or is rolled back: its in-flight
        timers and deliveries no longer make sense.  Walks only the
        target's own index bucket, not the whole queue.
        Returns the number of events cancelled.
        """
        bucket = self._by_target.get(target)
        if not bucket:
            return 0
        cancelled = 0
        survivors: List[Event] = []
        for event in bucket:
            if not event.in_queue or event.cancelled:
                continue  # executed or already cancelled: drop from the index
            if kind is None or event.kind is kind:
                event.cancelled = True
                self._live -= 1
                cancelled += 1
            else:
                survivors.append(event)
        if survivors:
            self._by_target[target] = survivors
        else:
            del self._by_target[target]
        if cancelled:
            self._note_heap_dead(cancelled)
        return cancelled

    def _note_heap_dead(self, count: int = 1) -> None:
        """Track freshly cancelled heap entries; compact when mostly dead."""
        self._heap_dead += count
        if self._heap_dead > 64 and self._heap_dead * 2 > len(self._queue):
            self._compact_heap()

    def _compact_heap(self) -> None:
        """Drop cancelled entries from the heap and restore the heap invariant.

        O(n) in the heap size, amortized O(1) per cancellation because it
        only runs once dead entries exceed half the heap.  Keeps very
        long cancellation-heavy runs at O(live) memory instead of
        O(everything ever cancelled-but-unsurfaced).
        """
        survivors: List[Event] = []
        dropped = 0
        for event in self._queue:
            if event.cancelled:
                event.in_queue = False
                dropped += 1
            else:
                survivors.append(event)
        self._queue = survivors
        heapq.heapify(self._queue)
        self._heap_dead = 0
        if dropped:
            self._note_dead(dropped)  # one batched index-GC check, not one per event

    def _note_dead(self, count: int = 1) -> None:
        """Track events that left the heap but may linger in the target index."""
        self._index_dead += count
        if self._index_dead > max(64, 2 * self._live):
            self._rebuild_target_index()

    def _rebuild_target_index(self) -> None:
        rebuilt: Dict[str, List[Event]] = {}
        for event in self._queue:
            if event.in_queue and not event.cancelled:
                rebuilt.setdefault(event.target, []).append(event)
        self._by_target = rebuilt
        self._index_dead = 0

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def pop_next(self) -> Optional[Event]:
        """Pop and return the next non-cancelled event, advancing time.

        Returns ``None`` when the queue is exhausted.
        """
        while self._queue:
            event = heapq.heappop(self._queue)
            event.in_queue = False
            self._note_dead()
            if event.cancelled:
                self._heap_dead -= 1
                continue
            if event.time < self._now:
                raise SimulationError("event queue produced an event from the past")
            self._live -= 1
            self._now = event.time
            self._executed += 1
            return event
        return None

    def pending(self, kind: Optional[EventKind] = None) -> List[Event]:
        """All non-cancelled queued events in execution order (optionally one kind)."""
        events = sorted(event for event in self._queue if not event.cancelled)
        if kind is not None:
            events = [event for event in events if event.kind is kind]
        return events

    def peek_time(self) -> Optional[float]:
        """Return the time of the next pending event without executing it.

        Lazily discards cancelled events that surfaced at the heap head,
        so the amortized cost is O(log n) rather than a full sort.
        """
        queue = self._queue
        while queue and queue[0].cancelled:
            event = heapq.heappop(queue)
            event.in_queue = False
            self._heap_dead -= 1
            self._note_dead()
        return queue[0].time if queue else None

    def drain(self, until: Optional[float] = None) -> Iterator[Event]:
        """Yield events in order until the queue empties or ``until`` is passed."""
        while True:
            next_time = self.peek_time()
            if next_time is None:
                return
            if until is not None and next_time > until:
                return
            event = self.pop_next()
            if event is None:
                return
            yield event

    def reset_to(self, time: float) -> None:
        """Discard all pending events and rewind the clock (used on global rollback)."""
        for event in self._queue:
            event.in_queue = False
        self._queue.clear()
        self._by_target.clear()
        self._live = 0
        self._index_dead = 0
        self._heap_dead = 0
        self._now = float(time)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Scheduler(now={self._now}, pending={self.pending_events})"
