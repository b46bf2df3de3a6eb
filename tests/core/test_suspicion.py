"""Unit tests for the timeliness monitors."""

from repro.core.suspicion import ExpectationMonitor, OrderProductionWatch
from repro.sim.kernel import Simulator
from repro.sim.process import Actor


def make_actor():
    sim = Simulator()
    return sim, Actor(sim, "p1'")


def test_expectation_miss_fires():
    sim, actor = make_actor()
    missed = []
    monitor = ExpectationMonitor(actor, missed.append)
    monitor.expect("endorse-1", timeout=0.5)
    sim.run()
    assert missed == ["endorse-1"]


def test_fulfil_cancels_miss():
    sim, actor = make_actor()
    missed = []
    monitor = ExpectationMonitor(actor, missed.append)
    monitor.expect("endorse-1", timeout=0.5)
    sim.schedule(0.1, monitor.fulfil, "endorse-1")
    sim.run()
    assert missed == []


def test_fulfil_unknown_key_is_noop():
    sim, actor = make_actor()
    monitor = ExpectationMonitor(actor, lambda key: None)
    assert monitor.fulfil("nothing") is False


def test_duplicate_expect_keeps_first_deadline():
    sim, actor = make_actor()
    missed = []
    monitor = ExpectationMonitor(actor, missed.append)
    monitor.expect("k", timeout=0.5)
    monitor.expect("k", timeout=99.0)
    sim.run()
    assert missed == ["k"]
    assert sim.now == 0.5


def test_cancel_all_stops_monitoring():
    sim, actor = make_actor()
    missed = []
    monitor = ExpectationMonitor(actor, missed.append)
    monitor.expect("a", timeout=0.5)
    monitor.expect("b", timeout=0.6)
    monitor.cancel_all()
    sim.run()
    assert missed == []
    assert monitor.outstanding == 0


def test_watch_fires_when_ordering_stalls():
    sim, actor = make_actor()
    missed = []
    watch = OrderProductionWatch(actor, deadline=0.2, on_miss=missed.append)
    watch.start()
    watch.note_request(("c1", 1))
    sim.run(until=1.0)
    assert missed == [("c1", 1)]


def test_watch_reports_the_oldest_request_still_owed_an_order():
    sim, actor = make_actor()
    missed = []
    watch = OrderProductionWatch(actor, deadline=0.2, on_miss=missed.append)
    watch.start()
    watch.note_request("a")
    watch.note_request("b")

    def later():
        watch.note_ordered("a")
        watch.note_request("c")
        watch.note_request("a")  # noted again: now the newest
        watch.note_request("b")  # already tracked: keeps its first time

    sim.schedule(0.05, later)
    sim.run(until=1.0)
    assert missed == ["b"]


def test_watch_quiet_when_orders_flow():
    sim, actor = make_actor()
    missed = []
    watch = OrderProductionWatch(actor, deadline=0.2, on_miss=missed.append)
    watch.start()

    def feed(i):
        watch.note_request(("c1", i))
        watch.note_ordered(("c1", i))
        if i < 20:
            sim.schedule(0.1, feed, i + 1)

    sim.schedule(0.0, feed, 1)
    sim.run(until=2.5)
    assert missed == []


def test_watch_tolerates_backlog_while_progress_continues():
    """Saturating load: old requests wait, but endorsements keep coming;
    the watch must not fire (the coordinator is doing its duty)."""
    sim, actor = make_actor()
    missed = []
    watch = OrderProductionWatch(actor, deadline=0.2, on_miss=missed.append)
    watch.start()
    for i in range(50):
        watch.note_request(("old", i))  # never ordered: queue backlog

    def progress(i):
        watch.note_ordered(("old", i))  # slow FIFO draining = progress
        if i < 20:
            sim.schedule(0.1, progress, i + 1)

    sim.schedule(0.05, progress, 0)
    sim.run(until=2.0)
    assert missed == []


def test_watch_stop_prevents_fire():
    sim, actor = make_actor()
    missed = []
    watch = OrderProductionWatch(actor, deadline=0.2, on_miss=missed.append)
    watch.start()
    watch.note_request(("c1", 1))
    watch.stop()
    sim.run(until=1.0)
    assert missed == []
    assert watch.tracked == 0


def test_watch_restart_after_stop():
    sim, actor = make_actor()
    missed = []
    watch = OrderProductionWatch(actor, deadline=0.2, on_miss=missed.append)
    watch.start()
    watch.stop()
    watch.start()
    watch.note_request(("c1", 1))
    sim.run(until=1.0)
    assert missed == [("c1", 1)]
