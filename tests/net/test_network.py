"""Unit tests for the network fabric."""

import pytest

from repro.errors import ConfigError
from repro.net.delay import ConstantDelay
from repro.net.network import Network
from repro.sim.kernel import Simulator
from repro.sim.process import Actor


class Recorder(Actor):
    """Test actor that records deliveries with their times."""

    def __init__(self, sim, name, service=0.0):
        super().__init__(sim, name)
        self.service = service
        self.received = []

    def receive_service(self, payload, size_bytes):
        return self.service

    def on_message(self, sender, payload):
        self.received.append((self.sim.now, sender, payload))


def make_net(service=0.0):
    sim = Simulator()
    net = Network(sim, default_link=ConstantDelay(0.001))
    a = Recorder(sim, "a", service)
    b = Recorder(sim, "b", service)
    net.attach(a)
    net.attach(b)
    return sim, net, a, b


def test_unicast_delivery_and_delay():
    sim, net, a, b = make_net()
    net.send("a", "b", "hello", size_bytes=100)
    sim.run()
    assert b.received == [(0.001, "a", "hello")]


def test_receive_service_delays_handler():
    sim, net, a, b = make_net(service=0.010)
    net.send("a", "b", "hello", size_bytes=100)
    sim.run()
    assert b.received[0][0] == pytest.approx(0.011)


def test_burst_serialises_on_receiver_cpu():
    sim, net, a, b = make_net(service=0.010)
    for _ in range(3):
        net.send("a", "b", "m", size_bytes=10)
    sim.run()
    times = [t for t, _, _ in b.received]
    assert times == pytest.approx([0.011, 0.021, 0.031])


def test_multicast_counts_each_copy():
    sim, net, a, b = make_net()
    c = Recorder(sim, "c")
    net.attach(c)
    net.multicast("a", ["b", "c"], "m", size_bytes=50)
    sim.run()
    assert net.messages_sent == 2
    assert net.bytes_sent == 100
    assert len(b.received) == 1 and len(c.received) == 1


def test_link_override_changes_delay():
    sim, net, a, b = make_net()
    net.set_link("a", "b", ConstantDelay(0.5))
    net.send("a", "b", "m", size_bytes=10)
    sim.run()
    assert b.received[0][0] == pytest.approx(0.5)
    assert net.link("b", "a") is net.default_link


def test_unknown_destination_rejected():
    sim, net, a, b = make_net()
    with pytest.raises(ConfigError):
        net.send("a", "zzz", "m", size_bytes=10)


def test_duplicate_name_rejected():
    sim, net, a, b = make_net()
    with pytest.raises(ConfigError):
        net.attach(Recorder(sim, "a"))


def test_depart_time_defers_transmission():
    sim, net, a, b = make_net()
    sim.schedule(0.0, lambda: net.send("a", "b", "m", 10, depart_time=1.0))
    sim.run()
    assert b.received[0][0] == pytest.approx(1.001)


def test_hold_and_release_preserves_reliability():
    sim, net, a, b = make_net()
    net.hold_matching(lambda env: env.payload == "held")
    net.send("a", "b", "held", size_bytes=10)
    net.send("a", "b", "free", size_bytes=10)
    sim.run()
    assert [p for _, _, p in b.received] == ["free"]
    assert net.held_count == 1
    net.release_held()
    sim.run()
    assert [p for _, _, p in b.received] == ["free", "held"]
    assert net.held_count == 0


def test_messages_by_sender_counter():
    sim, net, a, b = make_net()
    net.send("a", "b", "x", 10)
    net.send("a", "b", "y", 10)
    net.send("b", "a", "z", 10)
    assert net.messages_by_sender == {"a": 2, "b": 1}


def test_multicast_with_an_unknown_destination_sends_nothing():
    sim, net, a, b = make_net()
    c = Recorder(sim, "c")
    net.attach(c)
    with pytest.raises(ConfigError):
        net.multicast("a", ["b", "c", "zzz"], "m", size_bytes=50)
    sim.run()
    assert b.received == [] and c.received == []
    assert sim.events_processed == 0
    assert (net.messages_sent, net.bytes_sent, net.pair_messages_sent) == (0, 0, 0)
    assert net.messages_by_sender == {}
    assert net._next_msg_id == 0


class Logger(Recorder):
    """Records every delivery, with its destination, in one shared log."""

    def __init__(self, sim, name, log):
        super().__init__(sim, name, service=0.0005)
        self.log = log

    def on_message(self, sender, payload):
        self.log.append((self.sim.now, sender, self.name, payload))


def _mixed_traffic(predicate):
    """Unicasts, multicasts and a dedicated link under LAN jitter."""
    sim = Simulator(seed=3)
    net = Network(sim)
    log = []
    for name in "abcd":
        net.attach(Logger(sim, name, log))
    net.set_link("a", "b", ConstantDelay(0.0001))
    if predicate is not None:
        net.hold_matching(predicate)
    for i in range(20):
        sim.schedule(i * 0.001, net.multicast, "a", ["b", "c", "d"], f"m{i}", 100 + i)
        sim.schedule(i * 0.0015, net.send, "c", "d", f"u{i}", 64)
        sim.schedule(i * 0.0007, net.send, "b", "a", f"v{i}", 32)
    sim.run()
    return (
        log,
        sim.events_processed,
        net.messages_sent,
        net.bytes_sent,
        net.pair_messages_sent,
        net.messages_by_sender,
    )


def test_hold_predicate_that_holds_nothing_changes_nothing():
    plain = _mixed_traffic(None)
    assert len(plain[0]) == 100 and plain[4] == 20
    assert _mixed_traffic(lambda envelope: False) == plain


def test_released_envelope_delivers_at_arrival_or_now_whichever_is_later():
    sim, net, a, b = make_net()
    held = []
    net.hold_matching(lambda envelope: held.append(envelope) or True)
    net.send("a", "b", "early", size_bytes=10)
    # Released before it would have arrived: it keeps its arrival time.
    sim.schedule(0.0004, net.release_held)
    sim.run()
    (early,) = held
    assert (early.sender, early.dest, early.payload) == ("a", "b", "early")
    assert b.received == [(early.arrive_time, "a", "early")]
    assert early.arrive_time == pytest.approx(0.001)
    net.hold_matching(lambda envelope: held.append(envelope) or True)
    net.send("a", "b", "late", size_bytes=10)
    sim.run(until=0.5)
    assert net.held_count == 1 and held[1].arrive_time < 0.5
    # Released after its arrival time: it is delivered now.
    net.release_held()
    sim.run()
    assert b.received[1:] == [(0.5, "a", "late")]
