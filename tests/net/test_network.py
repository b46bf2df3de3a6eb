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
