"""Event objects and the pending-event queue.

Events are ordered by ``(time, sequence)`` where ``sequence`` is a
monotonically increasing insertion counter.  Two events scheduled for the
same instant therefore fire in the order they were scheduled, which makes
whole simulations deterministic functions of their seed.

The queue supports two consumption styles: the classic one-event
:meth:`EventQueue.pop_due`, and the kernel's batched
:meth:`EventQueue.pop_due_batch`, which drains every live event sharing
the earliest due timestamp in a single heap traversal so the run loop
pays the method-call and bookkeeping overhead once per *slot* rather
than once per event.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

from repro.errors import SimulationError

# Compaction policy (same shape as asyncio's timer handling and the
# stdlib ``sched`` rebuild): rebuild the heap once cancelled residents
# outnumber live ones, but never bother below this size — tiny heaps
# drain fast enough that lazy deletion alone is fine.
_MIN_COMPACT_SIZE = 64


class Event:
    """A callback scheduled to run at a virtual time.

    Instances are created by the simulator; user code only holds them to
    :meth:`cancel` timers.  A cancelled event stays in the heap but is
    skipped when popped (lazy deletion), which keeps cancellation O(1).
    The owning queue counts cancellations and compacts itself when
    cancelled entries dominate, so mass-cancellation cannot pin
    arbitrary memory until the timestamps are reached.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "_queue")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., None],
        args: tuple[Any, ...],
        queue: "EventQueue | None" = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._queue = queue

    def cancel(self) -> None:
        """Prevent the event from firing.  Cancelling twice is an error."""
        if self.cancelled:
            raise SimulationError(f"event at t={self.time} cancelled twice")
        self.cancelled = True
        queue = self._queue
        if queue is not None:
            queue._note_cancelled()

    @property
    def active(self) -> bool:
        """True while the event is still going to fire."""
        return not self.cancelled

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "active"
        name = getattr(self.callback, "__name__", repr(self.callback))
        return f"Event(t={self.time:.6f}, seq={self.seq}, {name}, {state})"


class EventQueue:
    """Min-heap of :class:`Event` with deterministic ordering.

    The heap stores ``(time, seq, event)`` triples so that every
    comparison during sift-up/down is a C-level tuple comparison (a
    Python-level ``__lt__`` was one of the hottest functions in a
    profiled sweep, so :class:`Event` defines no ordering) while the
    public API still trades in :class:`Event` handles.  ``(time, seq)``
    is unique per event, so the ``event`` slot is never compared.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0
        self._cancelled = 0

    def __len__(self) -> int:
        return len(self._heap)

    def push(
        self, time: float, callback: Callable[..., None], args: tuple[Any, ...]
    ) -> Event:
        """Insert a callback to run at ``time`` and return its handle."""
        seq = self._seq
        event = Event(time, seq, callback, args, self)
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def requeue(self, event: Event) -> None:
        """Put a popped-but-unfired event back.

        The event keeps its original ``(time, seq)`` key, so ordering
        relative to everything else is exactly as if it had never been
        popped.  The kernel uses this when ``stop()`` or the
        ``max_events`` guard interrupts a half-consumed batch.
        """
        heapq.heappush(self._heap, (event.time, event.seq, event))

    def _note_cancelled(self) -> None:
        """Record a cancellation; compact once cancelled entries dominate."""
        self._cancelled += 1
        heap = self._heap
        if self._cancelled * 2 > len(heap) and len(heap) >= _MIN_COMPACT_SIZE:
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without cancelled entries (O(n)).

        Rebuilds *in place*: the kernel's run loop holds a direct
        reference to the heap list, so the list object's identity must
        survive compaction.
        """
        live = [entry for entry in self._heap if not entry[2].cancelled]
        heapq.heapify(live)
        self._heap[:] = live
        self._cancelled = 0

    def pop_due(self, until: float | None = None) -> Event | None:
        """Pop the earliest live event firing at or before ``until``.

        The one-event reference for :meth:`pop_due_batch`: one heap
        traversal finds, checks and removes the head.  ``pop_due()``
        pops the earliest live event whatever its time.  An event
        beyond ``until`` stays queued; cancelled events ahead of it are
        discarded either way.  Returns ``None`` when nothing is due.
        """
        heap = self._heap
        heappop = heapq.heappop
        while heap:
            first = heap[0]
            if first[2].cancelled:
                heappop(heap)
                self._cancelled -= 1
                continue
            if until is not None and first[0] > until:
                return None
            heappop(heap)
            return first[2]
        return None

    def pop_due_batch(self, until: float | None, out: list[Event]) -> float | None:
        """Drain the earliest due *slot* — all live events sharing one time.

        Appends every live event whose firing time equals the earliest
        due timestamp to ``out`` (in seq order, since equal-time heap
        entries pop in seq order) and returns that timestamp.  Returns
        ``None`` — appending nothing — when the queue is empty or the
        earliest live event lies beyond ``until``.

        Events scheduled *during* the batch's execution for the same
        instant land in the next slot with higher sequence numbers, so
        firing order is identical to the one-event loop.  Cancelled
        entries encountered along the way are discarded.
        """
        heap = self._heap
        heappop = heapq.heappop
        while heap:
            first = heap[0]
            event = first[2]
            if event.cancelled:
                heappop(heap)
                self._cancelled -= 1
                continue
            slot = first[0]
            if until is not None and slot > until:
                return None
            heappop(heap)
            out.append(event)
            while heap and heap[0][0] == slot:
                event = heappop(heap)[2]
                if event.cancelled:
                    self._cancelled -= 1
                else:
                    out.append(event)
            return slot
        return None
