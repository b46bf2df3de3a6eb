"""BFT baseline: three-phase Castro-Liskov-style agreement."""

import pytest

from repro import ProtocolConfig
from repro.failures.faults import CrashFault, EquivocationFault, WrongDigestFault
from tests.conftest import (
    assert_total_order,
    assert_total_order_among_correct,
    run_protocol,
)
from tests.harness.oracle import collect_latencies, latency_stats


@pytest.fixture(scope="module")
def cluster():
    return run_protocol("bft", duration=1.5, rate=150)


def test_deploys_3f_plus_1_replicas(cluster):
    assert len(cluster.processes) == 7


def test_all_requests_committed(cluster):
    issued = sum(len(c.issued) for c in cluster.clients)
    applied = {p.machine.applied_seq for p in cluster.processes.values()}
    assert applied == {issued}


def test_total_order(cluster):
    assert_total_order(cluster)


def test_commit_needs_2f_plus_1_commits(cluster):
    p2 = cluster.process("p2")
    for state in p2.states.values():
        if state.committed:
            assert len(state.commits) >= 5  # 2f + 1


def test_prepare_excludes_primary(cluster):
    p2 = cluster.process("p2")
    for state in p2.states.values():
        if state.committed:
            assert "p1" not in state.prepares


def test_sc_latency_beats_bft():
    """The paper's headline: SC commits faster than BFT in the
    failure-free case (fewer verifications, fewer messages)."""
    sc = run_protocol("sc", duration=1.2, rate=150, seed=6)
    bft = run_protocol("bft", duration=1.2, rate=150, seed=6)
    sc_latency = latency_stats(collect_latencies(sc.sim.trace), skip_first=3).mean
    bft_latency = latency_stats(collect_latencies(bft.sim.trace), skip_first=3).mean
    assert sc_latency < bft_latency


def test_primary_crash_triggers_view_change():
    config = ProtocolConfig(f=2, batching_interval=0.050, view_timeout=0.5)
    cluster = run_protocol(
        "bft", config=config, duration=3.0, rate=150, drain=6.0,
        faults=[("p1", CrashFault(active_from=1.0))],
    )
    trace = cluster.sim.trace
    views = trace.of_kind("view_installed")
    assert views and views[0].fields["view"] == 2
    ranks = {r.fields["rank"] for r in trace.of_kind("order_committed")}
    assert 2 in ranks  # ordering resumed in view 2
    assert_total_order_among_correct(cluster)


def test_equivocating_primary_cannot_split_commits():
    """An equivocating primary sends conflicting pre-prepares to two
    halves; prepares cannot reach 2f for both, so at most one commits
    and correct replicas never diverge."""
    cluster = run_protocol(
        "bft", duration=2.0, rate=150, drain=2.0,
        faults=[("p1", EquivocationFault(active_from=0.8))],
    )
    assert_total_order_among_correct(cluster)


def test_wrong_digest_primary_is_harmless_noise():
    """A primary signing corrupted digests: replicas agree on the
    (corrupted) digests or stall, but never diverge."""
    cluster = run_protocol(
        "bft", duration=2.0, rate=150, drain=2.0,
        faults=[("p1", WrongDigestFault(active_from=0.8))],
    )
    assert_total_order_among_correct(cluster)
