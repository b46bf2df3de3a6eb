"""Equivalence guarantees of the hot-path optimisations.

The structural rework of the simulation core (slot-batched kernel,
per-link delay streams) is sold on one
promise: **identical results**.  These tests pin that promise directly,
so a future "optimisation" that drifts a draw sequence or a firing
order fails here rather than as an unexplained baseline diff.
"""

from __future__ import annotations

import heapq
import random

from repro.errors import SimulationError
from repro.net.delay import ConstantDelay, LanDelay, LinkDelayStream, SurgeableDelay
from repro.sim.events import EventQueue
from repro.sim.kernel import Simulator


# ----------------------------------------------------------------------
# 1. Slot-batched kernel vs the one-event-at-a-time oracle
# ----------------------------------------------------------------------
# The slot at t = 3.0: "canceller" cancels "victim", a later entry of
# the same slot, and the interrupt tests cut the slot short mid-way.
SLOT = ("slot-first", "canceller", "slot-mid", "victim", "slot-last")


def _scripted_run(
    simulator: Simulator, stop_at: str | None = None, max_events: int | None = None
) -> tuple[list[tuple[float, str]], int]:
    """A workload exercising ties, reschedules, and cancellation.

    With ``stop_at`` (the tag whose callback calls ``stop()``) or
    ``max_events`` the first ``run()`` is interrupted and a second one
    resumes it.  Returns the fired ``(time, tag)`` sequence and the
    simulator's ``events_processed``.
    """
    fired: list[tuple[float, str]] = []
    rng = random.Random(7)

    def note(tag: str) -> None:
        fired.append((simulator.now, tag))
        # Events scheduled mid-slot for the *same* instant must land
        # after the current slot, in seq order.
        if tag.startswith("spawn"):
            simulator.schedule_at(simulator.now, note, f"child-of-{tag}")
        if tag == "reschedule":
            simulator.schedule(0.5, note, "rescheduled")
        if tag == "canceller":
            slot[SLOT.index("victim")].cancel()
        if tag == stop_at:
            simulator.stop()

    timers = []
    for i in range(60):
        t = rng.choice([1.0, 1.0, 2.5, 2.5, 2.5, 4.0, rng.random() * 10])
        timers.append(simulator.schedule_at(t, note, f"e{i}@{t:.3f}"))
    simulator.schedule_at(2.5, note, "spawn-a")
    simulator.schedule_at(2.5, note, "spawn-b")
    simulator.schedule_at(4.0, note, "reschedule")
    slot = [simulator.schedule_at(3.0, note, tag) for tag in SLOT]
    for timer in timers[::7]:
        timer.cancel()
    if stop_at is None and max_events is None:
        simulator.run(until=11.0)
        return fired, simulator.events_processed
    try:
        simulator.run(until=11.0, max_events=max_events)
    except SimulationError:
        assert len(fired) == max_events
    else:
        assert fired[-1][1] == stop_at
    simulator.run(until=11.0)
    return fired, simulator.events_processed


def pop_due(queue: EventQueue, until: float | None = None) -> list | None:
    """Pop the earliest live entry firing at or before ``until``.

    The one-event reference for ``EventQueue.pop_due_batch`` and the
    kernel's inlined copy of it: one heap traversal finds, checks and
    removes the head.  An entry beyond ``until`` stays queued;
    cancelled entries ahead of it are discarded either way.  Returns
    ``None`` when nothing is due.
    """
    heap = queue._heap
    while heap:
        first = heap[0]
        if first[2] is None:
            heapq.heappop(heap)
            queue._cancelled -= 1
            continue
        if until is not None and first[0] > until:
            return None
        return heapq.heappop(heap)
    return None


class OracleSim(Simulator):
    """Replays a script through :func:`pop_due`, one entry at a time."""

    def run(self, until=None, max_events=None):  # noqa: ARG002
        self._running = True
        self._stopped = False
        try:
            while not self._stopped:
                entry = pop_due(self._queue, until)
                if entry is None:
                    break
                self.now = entry[0]
                self.events_processed += 1
                entry[2](*entry[3])
            if until is not None and not self._stopped and self.now < until:
                self.now = until
        finally:
            self._running = False


def test_batched_kernel_matches_per_event_oracle():
    assert _scripted_run(Simulator(seed=1)) == _scripted_run(OracleSim(seed=1))


def test_batched_kernel_deterministic_across_runs():
    assert _scripted_run(Simulator(seed=1)) == _scripted_run(Simulator(seed=1))


def test_cancelled_entry_in_its_slot_neither_fires_nor_counts():
    fired, processed = _scripted_run(Simulator(seed=1))
    assert [tag for _, tag in fired if tag in SLOT] == [
        "slot-first",
        "canceller",
        "slot-mid",
        "slot-last",
    ]
    assert processed == len(fired)


def test_stop_mid_slot_then_run_resumes_the_uninterrupted_run():
    whole = _scripted_run(Simulator(seed=1))
    assert _scripted_run(Simulator(seed=1), stop_at="slot-mid") == whole
    assert _scripted_run(OracleSim(seed=1), stop_at="slot-mid") == whole


def test_max_events_mid_slot_then_run_resumes_the_uninterrupted_run():
    whole = _scripted_run(Simulator(seed=1))
    tags = [tag for _, tag in whole[0]]
    # Trip on "canceller": the rest of its slot, the cancelled "victim"
    # included, goes back on the heap unfired.
    limit = tags.index("canceller") + 1
    assert _scripted_run(Simulator(seed=1), max_events=limit) == whole


# ----------------------------------------------------------------------
# 2. Chunk-prefetched delay streams vs per-send model.sample draws
# ----------------------------------------------------------------------
def _draw_pairs(model, n=1500, seed=42):
    """(streamed, per-send) delay sequences over one rng stream each."""
    sizes = [64, 1024, 96, 4096] * (n // 4)
    times = [i * 0.001 for i in range(len(sizes))]
    streamed = LinkDelayStream(model, random.Random(seed))
    got = [streamed.sample(s, t) for s, t in zip(sizes, times)]
    oracle_rng = random.Random(seed)
    want = [model.sample(s, oracle_rng, t) for s, t in zip(sizes, times)]
    return got, want


def test_delay_stream_bit_identical_lan():
    got, want = _draw_pairs(LanDelay())
    assert got == want  # bitwise float equality, all 1500 draws


def test_delay_stream_bit_identical_surgeable():
    model = SurgeableDelay(LanDelay(), surge_factor=10.0)
    model.add_surge(0.3, 0.9)
    model.add_surge(1.1, 1.2, factor=3.0)
    got, want = _draw_pairs(model)
    assert got == want


def test_delay_stream_slow_path_for_unknown_models():
    # Exact-type dispatch: subclasses and other models must go through
    # the model's own sample(), not the inlined LAN formula.
    class WeirdDelay(LanDelay):
        def sample(self, size_bytes, rng, now):
            return 0.125

    stream = LinkDelayStream(WeirdDelay(), random.Random(1))
    assert stream.sample(1000, 0.0) == 0.125
    got, want = _draw_pairs(ConstantDelay(0.002))
    assert got == want

