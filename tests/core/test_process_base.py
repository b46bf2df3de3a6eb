"""Unit tests for the order-process base class (cost accounting)."""

import pytest

from repro.calibration import CalibrationProfile
from repro.core.config import ProtocolConfig
from repro.core.messages import Heartbeat, sign_message
from repro.core.process import OrderProcessBase
from repro.crypto.schemes import MD5_RSA_1024
from repro.crypto.signing import SimulatedSignatureProvider
from repro.failures.faults import CrashFault
from repro.net.delay import ConstantDelay
from repro.net.network import Network
from repro.sim.kernel import Simulator


class Probe(OrderProcessBase):
    """Minimal concrete process recording what it handles."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.handled = []

    def handle(self, sender, payload):
        self.handled.append((self.sim.now, sender, payload))


def make_pair(calibration=None):
    sim = Simulator(seed=1)
    network = Network(sim, default_link=ConstantDelay(0.001))
    cal = calibration or CalibrationProfile()
    provider = SimulatedSignatureProvider(MD5_RSA_1024, ["p1", "p2"])
    config = ProtocolConfig()
    a = Probe(sim, "p1", network, config, provider, cal, ("p1", "p2"))
    b = Probe(sim, "p2", network, config, provider, cal, ("p1", "p2"))
    return sim, network, a, b


def test_make_signed_charges_sign_cost():
    sim, net, a, b = make_pair()
    before = a.cpu.busy_until
    a.make_signed({"x": 1})
    assert a.cpu.busy_until - before >= a.cost.sign


def test_send_payload_charges_marshal_and_delays_departure():
    sim, net, a, b = make_pair()
    a.charge(0.050)  # CPU busy until 0.050
    a.send_payload("p2", Heartbeat("p1", 1))
    sim.run()
    # Departure waited for the busy CPU plus marshal time.
    assert b.handled and b.handled[0][0] > 0.051


def test_multicast_marshals_once():
    sim, net, a, b = make_pair()
    c = Probe(sim, "p3", net, a.config, a.provider, a.cal, ("p1", "p2", "p3"))
    a.multicast_payload(["p2", "p3"], Heartbeat("p1", 1))
    # Wait: provider doesn't know "p3"; multicast of unsigned payload is fine.
    sim.run()
    assert b.handled and c.handled
    # Both copies departed at the same instant (single marshalling).
    envelopes_sent = net.messages_sent
    assert envelopes_sent == 2


def test_crashed_process_neither_sends_nor_handles():
    sim, net, a, b = make_pair()
    a.fault = CrashFault(active_from=0.0)
    a.send_payload("p2", Heartbeat("p1", 1))
    sim.run()
    assert not b.handled
    net.send("p2", "p1", Heartbeat("p2", 1), 64)
    sim.run()
    assert not a.handled


def test_dumb_process_does_not_transmit_but_still_handles():
    sim, net, a, b = make_pair()
    a.dumb = True
    a.send_payload("p2", Heartbeat("p1", 1))
    sim.run()
    assert not b.handled
    net.send("p2", "p1", Heartbeat("p2", 1), 64)
    sim.run()
    assert a.handled


def test_urgent_messages_bypass_receiver_queue():
    sim, net, a, b = make_pair()

    class UrgentProbe(Probe):
        def is_urgent(self, payload):
            return isinstance(payload, Heartbeat)

    c = UrgentProbe(sim, "p3", net, a.config, a.provider, a.cal, ("p1", "p2", "p3"))
    c.charge(0.500)  # c's CPU is crunching
    net.send("p1", "p3", Heartbeat("p1", 1), 64)
    net.send("p1", "p3", "bulk-payload", 64)
    sim.run()
    kinds = [(t, type(p).__name__) for t, _, p in c.handled]
    # The heartbeat arrived at wire time; the bulk message waited for
    # the CPU crunch to finish.
    assert kinds[0][1] == "Heartbeat" and kinds[0][0] == pytest.approx(0.001)
    assert kinds[1][0] > 0.5


def test_verify_cost_zero_for_no_signatures():
    sim, net, a, b = make_pair()
    assert a.verify_cost(0, 1000) == 0.0
    assert a.verify_cost(2, 1000) > a.verify_cost(1, 1000) > 0


def test_note_request_deduplicates():
    from repro.core.requests import ClientRequest

    sim, net, a, b = make_pair()
    request = ClientRequest("c1", 1)
    assert a.note_request(request)
    assert not a.note_request(request)
    assert len(a.pending) == 1


# ----------------------------------------------------------------------
# The pipeline lives once
# ----------------------------------------------------------------------
def _protocol_classes():
    from repro.baselines.bft.replica import BftReplica
    from repro.baselines.ct import CtProcess
    from repro.core.sc import ScProcess
    from repro.core.scr import ScrProcess

    return ScProcess, ScrProcess, CtProcess, BftReplica


HOISTED = (
    "_arm_batch_timer",
    "_arm_liveness_timer",
    "_emit_queue_depth",
    "_propose_next_batch",
    "_apply_order_faults",
    "_equivocating_twin",
    "_execute_ready",
    "_send_replies",
    "_maybe_emit_checkpoint",
    "_note_checkpoint",
    "_rebuild_unordered",
)


@pytest.mark.parametrize("method", HOISTED)
def test_every_protocol_runs_the_one_shared_pipeline_method(method):
    """A fourth copy of a pipeline step cannot reappear unnoticed: all
    four protocols must resolve it to the base's function object."""
    for cls in _protocol_classes():
        assert getattr(cls, method) is getattr(OrderProcessBase, method), cls.__name__


@pytest.mark.parametrize("method", ["_process_order", "_maybe_commit"])
def test_order_log_protocols_share_the_commit_rule(method):
    from repro.core.process import OrderLogProcess

    sc, scr, ct, _bft = _protocol_classes()
    for cls in (sc, scr, ct):
        assert getattr(cls, method) is getattr(OrderLogProcess, method), cls.__name__
