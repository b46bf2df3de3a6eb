"""SC protocol: failure-free operation (Sections 3-4.1)."""

import pytest

from repro import OpenLoopWorkload, ProtocolConfig, build_cluster
from repro.core.messages import OrderBatch, PairProposal, SignedMessage
from repro.net.delay import ConstantDelay
from tests.conftest import assert_total_order, run_protocol
from tests.harness.oracle import collect_latencies, latency_stats


@pytest.fixture(scope="module")
def cluster():
    return run_protocol("sc", duration=1.5, rate=150)


def test_all_requests_committed(cluster):
    issued = sum(len(c.issued) for c in cluster.clients)
    applied = {p.machine.applied_seq for p in cluster.processes.values()}
    assert len(applied) == 1
    assert applied.pop() == issued


def test_total_order_safety(cluster):
    assert_total_order(cluster)


def test_state_digests_agree(cluster):
    assert len(set(cluster.agreement_digests().values())) == 1


def test_no_fail_signals_in_failure_free_run(cluster):
    assert cluster.sim.trace.of_kind("fail_signal_emitted") == []


def test_latency_measured_for_every_batch(cluster):
    samples = collect_latencies(cluster.sim.trace)
    formed = cluster.sim.trace.of_kind("batch_formed")
    assert len(samples) == len(formed) > 10
    stats = latency_stats(samples)
    assert 0 < stats.mean < 0.5


def test_three_phase_message_pattern(cluster):
    """Phase 1 is 1->1: order proposals travel only on the pair link;
    phase 2 is 2->n: both pair members disseminate the endorsed order."""
    trace = cluster.sim.trace
    endorsed = trace.of_kind("order_endorsed")
    assert endorsed, "shadow endorsed nothing"
    assert all(r.fields["actor"] == "p1'" for r in endorsed)


def test_orders_are_doubly_signed_by_the_pair(cluster):
    p3 = cluster.process("p3")
    for slot in p3.log.committed_slots():
        order = slot.order
        batch: OrderBatch = order.body
        if batch.rank == 1 and batch.entries[0].client != "__install__":
            assert order.signers == ("p1", "p1'")


def test_commit_evidence_meets_quorum(cluster):
    quorum = cluster.config.order_quorum
    for proc in cluster.processes.values():
        for slot in proc.log.committed_slots():
            assert len(slot.support) >= quorum


def test_sequences_are_consecutive(cluster):
    p2 = cluster.process("p2")
    seqs = [seq for seq, _ in p2.machine.history]
    assert seqs == list(range(1, len(seqs) + 1))


def test_shadow_processes_participate_in_quorum(cluster):
    """Shadows are full order processes: their acks appear as support."""
    p3 = cluster.process("p3")
    supporters = set()
    for slot in p3.log.committed_slots():
        supporters |= slot.support
    assert "p1'" in supporters
    assert "p2'" in supporters


def test_sc_message_overhead_below_bft():
    """The headline claim: SC puts fewer messages on the shared
    asynchronous network per committed batch than BFT at the same f
    (pair-link chatter rides the dedicated replica-shadow connections,
    outside the paper's message-overhead comparison)."""
    sc = run_protocol("sc", duration=1.0, rate=150, seed=3)
    bft = run_protocol("bft", duration=1.0, rate=150, seed=3)
    sc_batches = len(collect_latencies(sc.sim.trace))
    bft_batches = len(collect_latencies(bft.sim.trace))
    sc_async = sc.network.messages_sent - sc.network.pair_messages_sent
    bft_async = bft.network.messages_sent - bft.network.pair_messages_sent
    assert sc_async / sc_batches < bft_async / bft_batches


def test_proposals_queue_behind_a_deferred_one():
    """A shadow that reads a client's requests late defers the proposal
    that names them; the proposals that follow wait behind it and are
    endorsed in sequence once the requests arrive.  (They used to be
    checked against the sequence number the deferred one had not yet
    advanced, and a failure-free pair fail-signalled — every closed-loop
    run of the live cluster, where requests and proposals reach the
    shadow on different sockets.)"""
    config = ProtocolConfig(f=1, batching_interval=0.020)
    cluster = build_cluster("sc", config=config, seed=1)
    OpenLoopWorkload(cluster, rate=100, duration=0.5).install()
    for client in cluster.clients:
        # Well past two batching intervals plus the proposal's own trip.
        cluster.network.set_link(client.name, "p1'", ConstantDelay(0.100))
    cluster.start()
    cluster.run(until=2.5)
    trace = cluster.sim.trace
    shadow = cluster.process("p1'")
    assert trace.of_kind("value_domain_failure") == []
    assert trace.of_kind("fail_signal_emitted") == []
    endorsed = [r.fields["first_seq"] for r in trace.of_kind("order_endorsed")]
    assert endorsed == sorted(endorsed) and len(endorsed) > 10
    assert shadow._deferred == []
    issued = sum(len(c.issued) for c in cluster.clients)
    assert {p.machine.applied_seq for p in cluster.processes.values()} == {issued}
    assert_total_order(cluster)
