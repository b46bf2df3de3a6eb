"""Unit tests for the event queue."""

import heapq

import pytest

from repro.errors import SimulationError
from repro.sim.events import EventQueue


def _drain(q, until=None):
    """Every live entry due by ``until``, one pop_due_batch slot at a time."""
    out = []
    while q.pop_due_batch(until, out) is not None:
        pass
    return out


def test_pop_returns_events_in_time_order():
    q = EventQueue()
    fired = []
    q.push(3.0, fired.append, ("c",))
    q.push(1.0, fired.append, ("a",))
    q.push(2.0, fired.append, ("b",))
    assert [event.time for event in _drain(q)] == [1.0, 2.0, 3.0]


def test_ties_break_by_insertion_order():
    q = EventQueue()
    first = q.push(1.0, lambda: None, ())
    second = q.push(1.0, lambda: None, ())
    popped = _drain(q)
    assert len(popped) == 2
    assert popped[0] is first and popped[1] is second


def test_cancelled_events_are_skipped():
    q = EventQueue()
    keep = q.push(2.0, lambda: None, ())
    drop = q.push(1.0, lambda: None, ())
    drop.cancel()
    popped = _drain(q)
    assert len(popped) == 1 and popped[0] is keep
    assert len(q) == 0


def test_cancel_twice_raises():
    q = EventQueue()
    event = q.push(1.0, lambda: None, ())
    event.cancel()
    with pytest.raises(SimulationError):
        event.cancel()


def test_pop_due_leaves_events_beyond_until():
    q = EventQueue()
    early = q.push(1.0, lambda: None, ())
    late = q.push(2.0, lambda: None, ())
    early.cancel()
    assert _drain(q, 1.5) == []
    assert len(q) == 1
    popped = _drain(q, 2.0)
    assert len(popped) == 1 and popped[0] is late


def test_pop_due_empty_queue():
    out = []
    assert EventQueue().pop_due_batch(None, out) is None
    assert out == []


def test_len_counts_pushed_events():
    q = EventQueue()
    q.push(1.0, lambda: None, ())
    q.push(2.0, lambda: None, ())
    assert len(q) == 2


def test_active_property_flips_on_cancel():
    q = EventQueue()
    event = q.push(1.0, lambda: None, ())
    assert event.active
    event.cancel()
    assert not event.active


def test_pop_due_batch_drains_one_slot_in_seq_order():
    q = EventQueue()
    fired = []
    q.push(2.0, fired.append, ("late",))
    q.push(1.0, fired.append, ("a",))
    q.push(1.0, fired.append, ("b",))
    out = []
    slot = q.pop_due_batch(None, out)
    assert slot == 1.0
    assert [e[3][0] for e in out] == ["a", "b"]
    out.clear()
    assert q.pop_due_batch(None, out) == 2.0
    assert [e[3][0] for e in out] == ["late"]
    out.clear()
    assert q.pop_due_batch(None, out) is None
    assert out == []


def test_pop_due_batch_respects_until_and_skips_cancelled():
    q = EventQueue()
    fired = []
    doomed = q.push(1.0, fired.append, ("cancelled",))
    q.push(1.0, fired.append, ("live",))
    q.push(5.0, fired.append, ("future",))
    doomed.cancel()
    out = []
    assert q.pop_due_batch(2.0, out) == 1.0
    assert [e[3][0] for e in out] == ["live"]
    out.clear()
    assert q.pop_due_batch(2.0, out) is None  # 5.0 is beyond until
    assert len(q) == 1


def test_requeue_preserves_time_and_seq_ordering():
    q = EventQueue()
    fired = []
    q.push(1.0, fired.append, ("a",))
    q.push(1.0, fired.append, ("b",))
    q.push(1.0, fired.append, ("c",))
    out = []
    q.pop_due_batch(None, out)
    # Put the unfired entries back the way the kernel does when stop()
    # cuts a slot short: a plain heappush keeps each entry's original
    # (time, seq) key, so they drain again in their old order.
    for entry in reversed(out[1:]):
        heapq.heappush(q._heap, entry)
    out2 = []
    assert q.pop_due_batch(None, out2) == 1.0
    assert [entry[3][0] for entry in out2] == ["b", "c"]


def test_event_is_its_heap_entry():
    # The handle the queue returns is the entry heapq orders: the
    # layout is [time, seq, callback, args, queue] and cancelling
    # clears the callback slot.
    q = EventQueue()
    callback = print
    event = q.push(2.5, callback, ("x",))
    assert q._heap == [event] and q._heap[0] is event
    assert list(event) == [2.5, 0, callback, ("x",), q]
    assert event.time == 2.5 and event.active and not event.cancelled
    event.cancel()
    assert event[2] is None and event.cancelled and not event.active


def test_mass_cancellation_compacts_the_heap():
    # The stdlib-sched-style compaction policy: once cancelled
    # residents outnumber live events (above the minimum heap size),
    # the heap is rebuilt, so a burst of cancellations cannot pin
    # memory until their timestamps are reached.
    q = EventQueue()
    keep = [q.push(1_000.0 + i, (lambda: None), ()) for i in range(10)]
    doomed = [q.push(2_000.0 + i, (lambda: None), ()) for i in range(500)]
    for event in doomed:
        event.cancel()
    # len(queue) counts raw heap entries; compaction must have dropped
    # the cancelled bulk rather than retaining all 510 entries.
    assert len(q) < 2 * len(keep) + 64
    for event in keep:
        assert not event.cancelled
    # The queue still drains exactly the live events, in order.
    out = []
    times = []
    while (slot := q.pop_due_batch(None, out)) is not None:
        times.append(slot)
    assert times == [1_000.0 + i for i in range(10)]


def test_compaction_keeps_heap_list_identity():
    # kernel.run() aliases the heap list; compaction must rebuild in
    # place so the alias stays valid.
    q = EventQueue()
    heap_before = q._heap
    events = [q.push(float(i), (lambda: None), ()) for i in range(200)]
    for event in events[:150]:
        event.cancel()
    assert q._heap is heap_before
    # Invariant the policy maintains: cancelled residents never exceed
    # live ones (so raw length is at most twice the live count).
    assert len(q) <= 2 * 50
