"""Timeliness monitoring inside a pair (Section 2.1.1).

Two small tools:

* :class:`ExpectationMonitor` — keyed deadlines for outputs a process
  expects from its counterpart (an endorsement, a heartbeat reply);
  fulfilling a key cancels its deadline, a missed deadline reports a
  time-domain failure.
* :class:`OrderProductionWatch` — the shadow's check that the
  coordinator replica "is deciding an order for every request which it
  has forwarded": tracks the oldest request still unordered and fires
  when its age exceeds the allowed deadline.  Implemented as a periodic
  sweep so the timer count stays O(1) rather than O(requests).
"""

from __future__ import annotations

from typing import Any, Callable, Hashable

from repro.sim.events import Event
from repro.sim.process import Actor


class ExpectationMonitor:
    """Deadlines for expected counterpart outputs."""

    def __init__(self, actor: Actor, on_miss: Callable[[Hashable], None]) -> None:
        self._actor = actor
        self._on_miss = on_miss
        self._pending: dict[Hashable, Event] = {}
        self.enabled = True

    def expect(self, key: Hashable, timeout: float) -> None:
        """Expect ``fulfil(key)`` within ``timeout`` seconds."""
        if key in self._pending:
            return
        self._pending[key] = self._actor.set_timer(timeout, self._miss, key)

    def fulfil(self, key: Hashable) -> bool:
        """The expected output arrived; True if it was being awaited."""
        event = self._pending.pop(key, None)
        if event is None:
            return False
        if event.active:
            event.cancel()
        return True

    def cancel_all(self) -> None:
        """Stop monitoring (pair collaboration ended)."""
        for event in self._pending.values():
            if event.active:
                event.cancel()
        self._pending.clear()

    def _miss(self, key: Hashable) -> None:
        if self._pending.pop(key, None) is None:
            return
        if self.enabled:
            self._on_miss(key)

    @property
    def outstanding(self) -> int:
        return len(self._pending)


class OrderProductionWatch:
    """Shadow-side monitor of the coordinator's ordering duty.

    Fires when requests are owed an order *and* no ordering progress
    has happened for ``deadline`` seconds.  Progress-based (rather than
    per-request age) because under a saturating workload a full batch
    legitimately leaves the excess requests waiting for later
    batching intervals; what a correct coordinator never does is stop
    producing order decisions entirely while requests are pending.

    Requests are tracked in a dict filled by ``setdefault(key, now)``
    under a clock that never goes back, so insertion order is arrival
    order and the oldest tracked request is the dict's first entry: a
    sweep reads it in O(1), however many requests are owed an order.
    """

    def __init__(
        self,
        actor: Actor,
        deadline: float,
        on_miss: Callable[[Any], None],
        sweep_interval: float | None = None,
    ) -> None:
        self._actor = actor
        self.deadline = deadline
        self._on_miss = on_miss
        self._sweep_interval = (
            sweep_interval if sweep_interval is not None else deadline / 2
        )
        self._arrivals: dict[Hashable, float] = {}
        self._last_progress = 0.0
        self._running = False
        self._stopped = False

    def start(self) -> None:
        """Begin sweeping (called when the pair becomes coordinator)."""
        self._stopped = False
        self._last_progress = self._actor.sim.now
        if not self._running:
            self._running = True
            self._actor.set_timer(self._sweep_interval, self._sweep)

    def stop(self) -> None:
        """Stop sweeping and forget tracked requests."""
        self._stopped = True
        self._arrivals.clear()

    def note_request(self, key: Hashable) -> None:
        """A request arrived; the coordinator now owes it an order."""
        self._arrivals.setdefault(key, self._actor.sim.now)

    def note_ordered(self, key: Hashable) -> None:
        """The coordinator ordered the request: that is progress."""
        self._arrivals.pop(key, None)
        self._last_progress = self._actor.sim.now

    def _sweep(self) -> None:
        if self._stopped:
            self._running = False
            return
        now = self._actor.sim.now
        if self._arrivals:
            key = next(iter(self._arrivals))
            oldest = self._arrivals[key]
            if now - max(self._last_progress, oldest) > self.deadline:
                self._running = False
                self._on_miss(key)
                return
        self._actor.set_timer(self._sweep_interval, self._sweep)

    @property
    def tracked(self) -> int:
        return len(self._arrivals)
