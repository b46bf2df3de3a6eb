"""End-to-end tests for client replies and checkpoint truncation."""

import pytest

from repro import ProtocolConfig, build_cluster, OpenLoopWorkload
from repro.failures.faults import WrongDigestFault
from tests.conftest import assert_executed_once, assert_total_order_among_correct


def run(protocol, config, duration=1.5, rate=120, drain=2.0, fault=None, seed=1):
    cluster = build_cluster(protocol, config=config, seed=seed)
    workload = OpenLoopWorkload(cluster, rate=rate, duration=duration)
    workload.install()
    if fault:
        cluster.injector.inject(cluster.process(fault[0]), fault[1])
    cluster.start()
    cluster.run(until=duration + drain)
    return cluster, workload


@pytest.mark.parametrize("protocol", ["sc", "ct", "bft"])
def test_every_request_gets_f_plus_1_matching_replies(protocol):
    config = ProtocolConfig(
        f=2,
        variant="sc",
        batching_interval=0.050,
        send_replies=True,
    )
    cluster, workload = run(protocol, config)
    completed = sum(c.completed_count for c in cluster.clients)
    assert completed == workload.issued
    records = cluster.sim.trace.of_kind("request_completed")
    assert len(records) == workload.issued
    # Client-observed RTT includes batching wait; must be positive and sane.
    rtts = [r.fields["rtt"] for r in records if r.fields["rtt"] is not None]
    assert rtts and all(0 < rtt < 2.0 for rtt in rtts)


def test_replies_survive_failover():
    config = ProtocolConfig(f=2, batching_interval=0.050, send_replies=True)
    cluster, workload = run(
        "sc", config, duration=2.5, drain=3.0,
        fault=("p1", WrongDigestFault(active_from=1.0)),
    )
    completed = sum(c.completed_count for c in cluster.clients)
    assert completed == workload.issued
    assert_total_order_among_correct(cluster)


def test_byzantine_replier_cannot_fool_client():
    """The faulty coordinator keeps executing (dumb) — even if it sent
    garbage replies the client's f+1 matching rule filters them.  Here
    we check the weaker end-to-end property: every completion carries
    the digest the correct majority computed."""
    config = ProtocolConfig(f=2, batching_interval=0.050, send_replies=True)
    cluster, workload = run(
        "sc", config, duration=2.0, drain=3.0,
        fault=("p1", WrongDigestFault(active_from=0.8)),
    )
    from repro.core.replies import result_digest

    p3 = cluster.process("p3")
    expected = {}
    for slot in p3.log.committed_slots():
        for entry in slot.order.body.entries:
            if entry.client != "__install__":
                expected[(entry.client, entry.req_id)] = result_digest(entry)
    for client in cluster.clients:
        for key, (seq, digest, _t) in client.replies.completed.items():
            assert expected[key] == digest


@pytest.mark.parametrize("protocol", ["sc", "ct", "bft"])
def test_checkpointing_truncates_the_log(protocol):
    config = ProtocolConfig(
        f=2,
        batching_interval=0.050,
        checkpoint_interval=32,
    )
    cluster, workload = run(protocol, config, duration=2.0, drain=2.0)
    trace = cluster.sim.trace
    stables = trace.of_kind("checkpoint_stable")
    assert stables, "no checkpoint stabilised"
    assert any(r.fields["dropped"] > 0 for r in stables)
    # The log stays bounded well below the number of committed batches.
    committed_batches = len(
        {r.fields["batch_id"] for r in trace.of_kind("order_committed")}
    )
    proc = cluster.process("p2")
    # BFT replicas track per-sequence states; the others keep an order log.
    live = len(proc.states) if hasattr(proc, "states") else len(proc.log.slots)
    assert live < committed_batches


def test_checkpointing_does_not_break_failover():
    config = ProtocolConfig(f=2, batching_interval=0.050, checkpoint_interval=32)
    cluster, workload = run(
        "sc", config, duration=2.5, drain=3.0,
        fault=("p1", WrongDigestFault(active_from=1.2)),
    )
    trace = cluster.sim.trace
    assert trace.of_kind("checkpoint_stable")
    assert trace.of_kind("coordinator_installed")
    ranks = {r.fields["rank"] for r in trace.of_kind("order_committed")}
    assert ranks == {1, 2}
    assert_total_order_among_correct(cluster)


def test_checkpoint_keeps_max_committed_proof_available():
    config = ProtocolConfig(f=2, batching_interval=0.050, checkpoint_interval=16)
    cluster, _ = run("sc", config, duration=1.5, drain=2.0)
    p2 = cluster.process("p2")
    proof = p2.log.max_committed_proof()
    assert proof is not None
    assert proof.order.body.last_seq == p2.log.highest_committed


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("protocol", ["sc", "scr", "bft", "ct"])
def test_checkpoints_keep_execution_exactly_once(protocol, seed):
    """Truncation must not reopen exactly-once: a view change re-queues
    what the pool holds minus what the log holds, so a request whose
    slot was truncated while it stayed pooled would execute again (it
    did, for scr and bft, until stable checkpoints pruned the pool).
    Settings are those of the ``checkpoint_replies`` golden cases."""
    import repro.protocols as protocols

    config = protocols.get(protocol).default_config(
        f=2, batching_interval=0.050, view_timeout=0.5,
        checkpoint_interval=16, send_replies=True,
    )
    cluster, _ = run(protocol, config, duration=0.9, rate=100, drain=1.6, seed=seed)
    assert cluster.sim.trace.of_kind("checkpoint_stable")
    assert_executed_once(cluster)
    assert_total_order_among_correct(cluster)
