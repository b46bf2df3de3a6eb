"""SC protocol: fail-signalling and the install part (Sections 3.2, 4.2)."""

import pytest

from repro import ProtocolConfig
from repro.failures.faults import (
    CrashFault,
    EquivocationFault,
    MutateEndorsementFault,
    WithholdOrdersFault,
    WrongDigestFault,
)
from tests.conftest import assert_total_order_among_correct, run_protocol
from tests.harness.oracle import failover_latency


@pytest.fixture(scope="module")
def wrong_digest_cluster():
    return run_protocol(
        "sc", duration=2.5, rate=150, drain=3.0,
        faults=[("p1", WrongDigestFault(active_from=1.0))],
    )


def test_value_fault_detected_by_shadow(wrong_digest_cluster):
    trace = wrong_digest_cluster.sim.trace
    failures = trace.of_kind("value_domain_failure")
    assert failures and failures[0].fields["actor"] == "p1'"
    signals = trace.of_kind("fail_signal_emitted")
    assert signals[0].fields["actor"] == "p1'"
    assert signals[0].fields["domain"] == "value"


def test_install_reaches_every_process(wrong_digest_cluster):
    installs = wrong_digest_cluster.sim.trace.of_kind("coordinator_installed")
    actors = {r.fields["actor"] for r in installs}
    assert actors == set(wrong_digest_cluster.process_names)
    assert all(r.fields["rank"] == 2 for r in installs)


def test_ordering_resumes_under_new_coordinator(wrong_digest_cluster):
    trace = wrong_digest_cluster.sim.trace
    ranks = {r.fields["rank"] for r in trace.of_kind("order_committed")}
    assert ranks == {1, 2}


def test_failover_latency_measurable(wrong_digest_cluster):
    latency = failover_latency(wrong_digest_cluster.sim.trace)
    assert 0 < latency < 1.0


def test_safety_preserved_across_failover(wrong_digest_cluster):
    assert_total_order_among_correct(wrong_digest_cluster)


def test_dumb_optimization_silences_old_pair(wrong_digest_cluster):
    trace = wrong_digest_cluster.sim.trace
    dumb = {r.fields["actor"] for r in trace.of_kind("went_dumb")}
    assert dumb == {"p1", "p1'"}
    p1 = wrong_digest_cluster.process("p1")
    assert p1.dumb
    # Quorum shrank: n-2 processes, f-1 faults -> quorum drops by 1.
    p3 = wrong_digest_cluster.process("p3")
    assert p3.log.quorum == wrong_digest_cluster.config.order_quorum - 1


def test_dumb_processes_keep_executing(wrong_digest_cluster):
    """Dumb processes 'can execute the protocol but cannot transmit'."""
    p1s = wrong_digest_cluster.process("p1'")
    p3 = wrong_digest_cluster.process("p3")
    assert p1s.machine.applied_seq == p3.machine.applied_seq > 0


def test_crash_of_coordinator_replica_detected():
    cluster = run_protocol(
        "sc", duration=2.0, rate=150, drain=3.0,
        faults=[("p1", CrashFault(active_from=0.8))],
    )
    trace = cluster.sim.trace
    signals = trace.of_kind("fail_signal_emitted")
    assert signals and signals[0].fields["actor"] == "p1'"
    installs = trace.of_kind("coordinator_installed")
    assert installs
    assert_total_order_among_correct(cluster)


def test_crash_of_shadow_detected_by_replica():
    cluster = run_protocol(
        "sc", duration=2.0, rate=150, drain=3.0,
        faults=[("p1'", CrashFault(active_from=0.8))],
    )
    signals = cluster.sim.trace.of_kind("fail_signal_emitted")
    assert signals and signals[0].fields["actor"] == "p1"
    assert cluster.sim.trace.of_kind("coordinator_installed")
    assert_total_order_among_correct(cluster)


def test_withholding_orders_is_a_time_domain_failure():
    cluster = run_protocol(
        "sc", duration=2.0, rate=150, drain=3.0,
        faults=[("p1", WithholdOrdersFault(active_from=0.8))],
    )
    signals = cluster.sim.trace.of_kind("fail_signal_emitted")
    assert signals and signals[0].fields["domain"] == "time"
    assert_total_order_among_correct(cluster)


def test_equivocation_detected_by_shadow():
    cluster = run_protocol(
        "sc", duration=2.0, rate=150, drain=3.0,
        faults=[("p1", EquivocationFault(active_from=0.8))],
    )
    trace = cluster.sim.trace
    assert trace.of_kind("value_domain_failure")
    assert_total_order_among_correct(cluster)


def test_byzantine_shadow_mutating_endorsements_detected():
    cluster = run_protocol(
        "sc", duration=2.0, rate=150, drain=3.0,
        faults=[("p1'", MutateEndorsementFault(active_from=0.8))],
    )
    trace = cluster.sim.trace
    signals = trace.of_kind("fail_signal_emitted")
    assert signals and signals[0].fields["actor"] == "p1"
    assert signals[0].fields["domain"] == "value"
    assert_total_order_among_correct(cluster)


def test_two_successive_failovers_reach_unpaired_coordinator():
    """After both pairs fail-signal, the unpaired p3 coordinates (SC2:
    it must be non-faulty, so singly-signed orders are accepted)."""
    cluster = run_protocol(
        "sc", duration=3.5, rate=150, drain=3.0,
        faults=[
            ("p1", WrongDigestFault(active_from=0.8)),
            ("p2", WrongDigestFault(active_from=1.8)),
        ],
    )
    trace = cluster.sim.trace
    installs = {r.fields["rank"] for r in trace.of_kind("coordinator_installed")}
    assert installs == {2, 3}
    ranks = {r.fields["rank"] for r in trace.of_kind("order_committed")}
    assert 3 in ranks  # the unpaired coordinator ordered batches
    assert_total_order_among_correct(cluster)


def test_f1_failover_without_support_tuples():
    """With f = 1 the paper skips IN3/IN4 ('If f > 1 ...'): the
    doubly-signed Start itself carries f+1 = 2 signatures."""
    config = ProtocolConfig(f=1, batching_interval=0.050)
    cluster = run_protocol(
        "sc", config=config, duration=2.0, rate=100, drain=3.0,
        faults=[("p1", WrongDigestFault(active_from=0.8))],
    )
    trace = cluster.sim.trace
    assert trace.of_kind("coordinator_installed")
    assert trace.of_kind("failover_complete")
    assert_total_order_among_correct(cluster)


def test_non_coordinator_pair_failure_does_not_change_coordinator():
    cluster = run_protocol(
        "sc", duration=2.0, rate=150, drain=2.0,
        faults=[("p2", CrashFault(active_from=0.8))],
    )
    trace = cluster.sim.trace
    signals = trace.of_kind("fail_signal_emitted")
    assert signals and signals[0].fields["actor"] == "p2'"
    # Pair 2 is not coordinating, so no install happens...
    assert trace.of_kind("coordinator_installed") == []
    # ...and ordering continues under pair 1 throughout.
    assert_total_order_among_correct(cluster)
