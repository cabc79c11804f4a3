"""Event loop with a simulated clock.

The simulator is deterministic: events scheduled for the same time fire in
the order they were scheduled (FIFO tie-break via a monotonically
increasing sequence number), which keeps every experiment reproducible.

A scheduled event is one object: the heap entry *is* the handle handed
back to the caller.  It is a list ``[time, seq, callback, args, sim]``,
so the heap orders entries with the C list comparison -- ``seq`` is
unique, so nothing past it is ever compared -- and no Python-level
``__lt__`` runs on a push or a pop (DESIGN section 16).
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable

from repro.core.errors import ReproError

_INF = math.inf


class SimulationError(ReproError):
    """Raised on invalid use of the simulator (e.g. scheduling in the past)."""


class EventHandle(list):
    """A scheduled event, ``[time, seq, callback, args, sim]``; supports
    cancellation.

    ``time`` and ``seq`` are the heap's ordering key and are never
    written after the push: changing them under the heap would break its
    invariant for every other entry.  Cancelling clears the callback (and
    releases the arguments); firing clears the simulator reference, which
    makes the entry inert.
    """

    __slots__ = ()

    @property
    def time(self) -> float:
        """Simulated time at which the event fires."""
        return self[0]

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` stopped the event from firing.  An
        event that already fired was not cancelled: this reads False for
        it, before and after any later :meth:`cancel`."""
        return self[2] is None

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent, and a no-op on an
        event that already fired."""
        sim = self[4]
        if sim is None or self[2] is None:
            return
        self[2] = None
        self[3] = ()
        sim._note_cancelled()


class Simulator:
    """A discrete-event simulator.

    Example::

        sim = Simulator()
        fired = []
        sim.schedule(1.5, fired.append, "hello")
        sim.run()
        assert sim.now == 1.5 and fired == ["hello"]
    """

    # Below this many queued events compaction is not worth the rebuild.
    _COMPACT_MIN_PENDING = 64

    def __init__(self) -> None:
        self._heap: list[EventHandle] = []
        self._now = 0.0
        self._seq = 0
        self._events_processed = 0
        self._cancelled_pending = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events that have fired so far."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of events still queued (including cancelled ones)."""
        return len(self._heap)

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now."""
        if not 0 <= delay < _INF:  # also false for NaN
            if not math.isfinite(delay):
                raise SimulationError(f"non-finite delay: {delay}")
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to fire at absolute simulated ``time``."""
        if not self._now <= time < _INF:  # also false for NaN
            if not math.isfinite(time):
                raise SimulationError(f"non-finite event time: {time}")
            raise SimulationError(
                f"cannot schedule at t={time} before current time t={self._now}"
            )
        event = EventHandle((time, self._seq, callback, args, self))
        self._seq += 1
        heapq.heappush(self._heap, event)
        return event

    def _note_cancelled(self) -> None:
        """Called by :class:`EventHandle` when a queued event is cancelled."""
        self._cancelled_pending += 1
        heap = self._heap
        if (
            len(heap) >= self._COMPACT_MIN_PENDING
            and self._cancelled_pending * 2 > len(heap)
        ):
            # Drop the cancelled entries and re-heapify, bounding queue
            # memory.  In place: a running dispatch loop holds this list.
            heap[:] = [event for event in heap if event[2] is not None]
            heapq.heapify(heap)
            self._cancelled_pending = 0

    def step(self) -> bool:
        """Fire the next pending event.  Returns False when none remain."""
        before = self._events_processed
        self.run(max_events=1)
        return self._events_processed != before

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run until the event queue drains, ``until`` is reached, or
        ``max_events`` have fired.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the queue drains earlier, so periodic measurements can rely
        on the final timestamp.  If ``max_events`` exhausts the budget while
        events are still pending, the clock advances as far toward ``until``
        as possible without passing the next unfired event.
        """
        heap, pop = self._heap, heapq.heappop
        horizon = _INF if until is None else until
        budget = -1 if max_events is None else max(max_events, 0)
        while heap:
            event = heap[0]
            callback = event[2]
            if callback is None:
                pop(heap)
                self._cancelled_pending -= 1
                continue
            if budget == 0 or event[0] > horizon:
                break
            pop(heap)
            budget -= 1
            self._now = event[0]
            self._events_processed += 1
            event[4] = None  # fired: a later cancel() is a no-op
            callback(*event[3])
        if until is not None and until > self._now:
            # The head, if any, is unfired: do not pass it.
            self._now = min(until, heap[0][0]) if heap else until
