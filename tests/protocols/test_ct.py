"""CT baseline: crash-tolerant ordering (Section 5)."""

import pytest

from repro import ProtocolConfig
from repro.failures.faults import CrashFault
from tests.conftest import (
    assert_total_order,
    assert_total_order_among_correct,
    run_protocol,
)
from tests.harness.oracle import collect_latencies, latency_stats


@pytest.fixture(scope="module")
def cluster():
    return run_protocol("ct", duration=1.5, rate=150)


def test_deploys_2f_plus_1_processes(cluster):
    assert len(cluster.processes) == 5


def test_all_requests_committed(cluster):
    issued = sum(len(c.issued) for c in cluster.clients)
    applied = {p.machine.applied_seq for p in cluster.processes.values()}
    assert applied == {issued}


def test_total_order(cluster):
    assert_total_order(cluster)


def test_no_crypto_on_the_wire(cluster):
    """CT runs without cryptographic techniques: empty signature chains."""
    p2 = cluster.process("p2")
    for slot in p2.log.committed_slots():
        assert slot.order.signatures == ()


def test_ct_faster_than_sc():
    """The crash-to-Byzantine price: CT's latency is well below SC's."""
    ct = run_protocol("ct", duration=1.0, rate=150, seed=4)
    sc = run_protocol("sc", duration=1.0, rate=150, seed=4)
    ct_latency = latency_stats(collect_latencies(ct.sim.trace), skip_first=3).mean
    sc_latency = latency_stats(collect_latencies(sc.sim.trace), skip_first=3).mean
    assert ct_latency < sc_latency / 2


def test_commit_quorum_is_n_minus_f(cluster):
    for slot in cluster.process("p1").log.committed_slots():
        assert len(slot.support) >= 3  # n - f = 3 for f = 2


def test_crash_failover_resumes_ordering():
    cluster = run_protocol(
        "ct", duration=3.0, rate=150, drain=5.0,
        faults=[("p1", CrashFault(active_from=1.0))],
    )
    trace = cluster.sim.trace
    installs = trace.of_kind("coordinator_installed")
    assert installs and installs[0].fields["rank"] == 2
    ranks = {r.fields["rank"] for r in trace.of_kind("order_committed")}
    assert 2 in ranks
    assert_total_order_among_correct(cluster)


def test_ct_lower_message_overhead_than_sc():
    ct = run_protocol("ct", duration=1.0, rate=150, seed=5)
    sc = run_protocol("sc", duration=1.0, rate=150, seed=5)
    ct_batches = len(collect_latencies(ct.sim.trace))
    sc_batches = len(collect_latencies(sc.sim.trace))
    assert ct.network.messages_sent / ct_batches < sc.network.messages_sent / sc_batches
