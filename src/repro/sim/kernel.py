"""The simulator: a virtual clock driving an event queue.

All times are floats in **seconds** of virtual time.  The kernel knows
nothing about networks, CPUs or protocols; those layers schedule plain
callbacks.  Determinism rests on two properties:

* ties in firing time break by insertion order (see ``repro.sim.events``);
* all randomness flows through :class:`~repro.sim.rng.RngRegistry`
  streams derived from the simulation seed.

The queue holds bare heap entries (see ``repro.sim.events``): an event
costs one list, ordered by heapq in C, and firing it is
``entry[2](*entry[3])``.  The run loop inlines
:meth:`~repro.sim.events.EventQueue.pop_due_batch`: a slot of one
entry, the common case since link jitter makes most firing times
unique, fires straight off the heap; a slot of several is drained in
one traversal and fired back-to-back, so the clock is written once per
slot.  Entries an interrupted slot leaves unfired go back on the heap
with their original keys.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable

from repro.errors import SimulationError
from repro.sim.events import Event, EventQueue
from repro.sim.rng import RngRegistry
from repro.sim.trace import Tracer


class Simulator:
    """Discrete-event simulator with a virtual clock.

    Parameters
    ----------
    seed:
        Master seed for every random stream used in the simulation.
    trace:
        Optional :class:`Tracer`; a fresh one is created when omitted.

    Example
    -------
    >>> sim = Simulator(seed=1)
    >>> fired = []
    >>> _ = sim.schedule(2.5, fired.append, "later")
    >>> _ = sim.schedule(1.0, fired.append, "sooner")
    >>> sim.run()
    >>> fired
    ['sooner', 'later']
    >>> sim.now
    2.5
    """

    def __init__(self, seed: int = 0, trace: Tracer | None = None) -> None:
        # ``now`` is a plain attribute, not a property: it is read on
        # every schedule/send/submit in the hot path and a property
        # descriptor costs a Python call per read.  Layers treat it as
        # read-only; only run() writes it.
        self.now = 0.0
        self._queue = EventQueue()
        self._running = False
        self._stopped = False
        self.rng = RngRegistry(seed)
        self.trace = trace if trace is not None else Tracer()
        self.events_processed = 0

    @property
    def pending(self) -> int:
        """Number of entries on the heap (including cancelled ones).

        Completions waiting in a CPU's run queue behind its head and
        open-loop arrivals not yet pushed are not counted.
        """
        return len(self._queue)

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> Event:
        """Run ``callback(*args)`` after ``delay`` seconds of virtual time."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay}s in the past")
        return self._queue.push(self.now + delay, callback, args)

    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> Event:
        """Run ``callback(*args)`` at absolute virtual time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time}: clock already at t={self.now}"
            )
        return self._queue.push(time, callback, args)

    def stop(self) -> None:
        """Halt the run loop after the current event completes."""
        self._stopped = True

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Process events until the queue drains or a limit is hit.

        Parameters
        ----------
        until:
            Stop once the clock would pass this time.  The clock is left
            at ``until`` (if given) so repeated ``run(until=...)`` calls
            advance monotonically.
        max_events:
            Safety valve for tests; raise if more events than this fire.
        """
        if self._running:
            raise SimulationError("simulator run() re-entered")
        self._running = True
        self._stopped = False
        fired = 0
        # Hot loop.  This inlines EventQueue.pop_due_batch — the same
        # slot-draining discipline, minus a method call per slot; keep
        # the two in lockstep.  An entry is ``[time, seq, callback,
        # args, ...]`` and a cleared callback slot means cancelled.  The
        # ``heap`` alias stays valid across callbacks because pushes
        # mutate the list and _compact rebuilds it in place.
        # ``self._stopped`` must be re-read after every callback —
        # callbacks flip it via stop().
        queue = self._queue
        heap = queue._heap
        pop = heappop
        batch: list[list[Any]] = []
        try:
            while not self._stopped:
                # Lazy deletion: cancelled entries die at the top.
                while heap and heap[0][2] is None:
                    pop(heap)
                    queue._cancelled -= 1
                if not heap:
                    break
                entry = heap[0]
                slot = entry[0]
                if until is not None and slot > until:
                    break
                pop(heap)
                self.now = slot
                if not (heap and heap[0][0] == slot):
                    # Dominant case — a slot of one (jitter makes most
                    # firing times unique): fire without batch staging.
                    entry[2](*entry[3])
                    fired += 1
                    if max_events is not None and fired >= max_events:
                        raise SimulationError(
                            f"exceeded max_events={max_events}; runaway simulation?"
                        )
                    continue
                batch.append(entry)
                while heap and heap[0][0] == slot:
                    entry = pop(heap)
                    if entry[2] is None:
                        queue._cancelled -= 1
                    else:
                        batch.append(entry)
                i = 0
                n = len(batch)
                try:
                    while i < n:
                        entry = batch[i]
                        i += 1
                        # A callback earlier in the slot may cancel a
                        # later entry of the same slot.
                        callback = entry[2]
                        if callback is None:
                            continue
                        callback(*entry[3])
                        fired += 1
                        if max_events is not None and fired >= max_events:
                            raise SimulationError(
                                f"exceeded max_events={max_events}; runaway simulation?"
                            )
                        if self._stopped:
                            break
                finally:
                    # stop(), the max_events guard or a raising callback
                    # can interrupt a half-consumed slot; unfired
                    # entries go back with their original keys, so a
                    # later run() resumes exactly where this one left
                    # off.
                    for entry in batch[i:]:
                        heappush(heap, entry)
                    batch.clear()
            if until is not None and not self._stopped and self.now < until:
                self.now = until
        finally:
            self.events_processed += fired
            self._running = False
