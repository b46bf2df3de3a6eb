"""Heap entries and the pending-event queue.

A pending event *is* its heap entry: a list laid out as

    [time, seq, callback, args, queue]

where ``seq`` is a monotonically increasing insertion counter.  heapq
orders entries with list comparison in C, and ``(time, seq)`` is unique
per entry, so the comparison never reaches the callback slot.  Two
events scheduled for the same instant therefore fire in the order they
were scheduled, which makes whole simulations deterministic functions
of their seed.

Only a handle a caller can cancel needs to be an :class:`Event` (a
``list`` subclass with no per-instance storage of its own).  Internal
layers that never hand out a handle, the network's deliveries and CPU
completions, push plain ``[time, seq, callback, args]`` lists taken
from the same counter.  Cancelling clears the callback slot: the entry
stays in the heap and is discarded when it reaches the top (lazy
deletion), so cancellation is O(1).

:meth:`EventQueue.pop_due_batch` drains every live entry sharing the
earliest due timestamp in one heap traversal, so a consumer pays the
method-call and bookkeeping overhead once per *slot* rather than once
per event.  The kernel's run loop inlines it.
"""

from __future__ import annotations

import heapq
from operator import itemgetter
from typing import Any, Callable

from repro.errors import SimulationError

# Compaction policy (same shape as asyncio's timer handling and the
# stdlib ``sched`` rebuild): rebuild the heap once cancelled residents
# outnumber live ones, but never bother below this size — tiny heaps
# drain fast enough that lazy deletion alone is fine.
_MIN_COMPACT_SIZE = 64


class Event(list[Any]):
    """A cancellable heap entry ``[time, seq, callback, args, queue]``.

    Instances are created by the simulator, through list's own
    constructor; user code only holds them to :meth:`cancel` timers.
    The owning queue counts cancellations and compacts itself when
    cancelled entries dominate, so mass-cancellation cannot pin
    arbitrary memory until the timestamps are reached.
    """

    __slots__ = ()

    time = property(itemgetter(0), doc="Virtual time the event fires at.")

    def cancel(self) -> None:
        """Prevent the event from firing.  Cancelling twice is an error."""
        if self[2] is None:
            raise SimulationError(f"event at t={self[0]} cancelled twice")
        self[2] = None
        self[4]._note_cancelled()

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` has cleared the callback slot."""
        return self[2] is None

    @property
    def active(self) -> bool:
        """True while the event is still going to fire."""
        return self[2] is not None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        time, seq, callback = self[0], self[1], self[2]
        if callback is None:
            return f"Event(t={time:.6f}, seq={seq}, cancelled)"
        name = getattr(callback, "__name__", repr(callback))
        return f"Event(t={time:.6f}, seq={seq}, {name})"


class EventQueue:
    """Min-heap of entries with deterministic ``(time, seq)`` ordering.

    ``_heap`` and ``_seq`` are read directly by the kernel and the
    network, which push entries without a method call; every push takes
    the next ``_seq``.
    """

    def __init__(self) -> None:
        self._heap: list[list[Any]] = []
        self._seq = 0
        self._cancelled = 0

    def __len__(self) -> int:
        return len(self._heap)

    def push(
        self, time: float, callback: Callable[..., None], args: tuple[Any, ...]
    ) -> Event:
        """Insert a callback to run at ``time`` and return its handle."""
        seq = self._seq
        self._seq = seq + 1
        event = Event((time, seq, callback, args, self))
        heapq.heappush(self._heap, event)
        return event

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
        live = [entry for entry in self._heap if entry[2] is not None]
        heapq.heapify(live)
        self._heap[:] = live
        self._cancelled = 0

    def pop_due_batch(self, until: float | None, out: list[list[Any]]) -> float | None:
        """Drain the earliest due *slot* — all live entries sharing one time.

        Appends every live entry whose firing time equals the earliest
        due timestamp to ``out`` (in seq order, since equal-time heap
        entries pop in seq order) and returns that timestamp.  Returns
        ``None`` — appending nothing — when the queue is empty or the
        earliest live entry lies beyond ``until``.

        Entries pushed *during* the batch's execution for the same
        instant land in the next slot with higher sequence numbers, so
        firing order is identical to a one-event-at-a-time loop.
        Cancelled entries encountered along the way are discarded.
        """
        heap = self._heap
        heappop = heapq.heappop
        while heap:
            first = heap[0]
            if first[2] is None:
                heappop(heap)
                self._cancelled -= 1
                continue
            slot = first[0]
            if until is not None and slot > until:
                return None
            out.append(heappop(heap))
            while heap and heap[0][0] == slot:
                entry = heappop(heap)
                if entry[2] is None:
                    self._cancelled -= 1
                else:
                    out.append(entry)
            return slot
        return None
