"""SCR protocol: recovery and view changes (Section 4.4)."""

import pytest

from repro import ProtocolConfig
from repro.core.scr import STATUS_DOWN, STATUS_PERMANENTLY_DOWN, STATUS_UP
from repro.errors import ProtocolError
from repro.failures.faults import CrashFault, DelaySurgeFault, WrongDigestFault
from repro.harness.cluster import build_cluster
from repro.harness.runner import SweepTask, run_task
from repro.harness.workload import OpenLoopWorkload
from tests.conftest import (
    assert_total_order,
    assert_total_order_among_correct,
    run_protocol,
)
from tests.harness.oracle import failover_latency


def test_scr_deploys_3f_plus_2_with_all_pairs():
    config = ProtocolConfig(f=2, variant="scr")
    cluster = build_cluster("scr", config=config)
    assert len(cluster.processes) == 8  # 3f + 2
    assert set(cluster.pair_links) == {1, 2, 3}  # f + 1 pairs


def test_failure_free_run_matches_sc_behaviour():
    cluster = run_protocol("scr", duration=1.5, rate=150)
    issued = sum(len(c.issued) for c in cluster.clients)
    applied = {p.machine.applied_seq for p in cluster.processes.values()}
    assert applied == {issued}
    assert cluster.sim.trace.of_kind("fail_signal_emitted") == []
    assert_total_order(cluster)


@pytest.fixture(scope="module")
def value_fault_cluster():
    return run_protocol(
        "scr", duration=2.5, rate=150, drain=3.0,
        faults=[("p1", WrongDigestFault(active_from=1.0))],
    )


def test_value_fault_triggers_view_change(value_fault_cluster):
    trace = value_fault_cluster.sim.trace
    assert trace.of_kind("value_domain_failure")
    views = {(r.fields["view"], r.fields["rank"]) for r in trace.of_kind("view_installed")}
    assert (2, 2) in views


def test_value_fault_makes_pair_permanently_down(value_fault_cluster):
    shadow = value_fault_cluster.process("p1'")
    assert shadow.status == STATUS_PERMANENTLY_DOWN


def test_ordering_resumes_in_new_view(value_fault_cluster):
    trace = value_fault_cluster.sim.trace
    ranks = {r.fields["rank"] for r in trace.of_kind("order_committed")}
    assert ranks == {1, 2}
    assert_total_order_among_correct(value_fault_cluster)


def test_scr_failover_latency_measurable(value_fault_cluster):
    assert 0 < failover_latency(value_fault_cluster.sim.trace) < 1.0


def _surge_cluster():
    config = ProtocolConfig(f=2, variant="scr")
    cluster = build_cluster("scr", config=config, seed=1)
    workload = OpenLoopWorkload(cluster, rate=150, duration=4.0)
    workload.install()
    cluster.injector.surge_link(
        cluster.pair_links[1],
        DelaySurgeFault(active_from=1.0, until=1.6, factor=40000.0),
    )
    cluster.start()
    cluster.run(until=8.0)
    return cluster


@pytest.fixture(scope="module")
def surge_cluster():
    return _surge_cluster()


def test_delay_surge_causes_false_suspicion(surge_cluster):
    """3(b)(i): before estimates become accurate, correct pair members
    may suspect each other and fail-signal."""
    trace = surge_cluster.sim.trace
    signals = trace.of_kind("fail_signal_emitted")
    assert signals
    assert {r.fields["actor"] for r in signals} <= {"p1", "p1'"}
    assert all(r.fields["domain"] == "time" for r in signals)


def test_falsely_suspected_pair_recovers(surge_cluster):
    recoveries = surge_cluster.sim.trace.of_kind("pair_recovered")
    assert {r.fields["actor"] for r in recoveries} == {"p1", "p1'"}
    p1 = surge_cluster.process("p1")
    assert p1.status == STATUS_UP
    assert p1.recoveries >= 1


def test_view_change_moves_past_suspected_pair(surge_cluster):
    views = {r.fields["rank"] for r in surge_cluster.sim.trace.of_kind("view_installed")}
    assert 2 in views


def test_safety_through_false_suspicion(surge_cluster):
    assert_total_order(surge_cluster)  # nobody is actually faulty
    issued = sum(len(c.issued) for c in surge_cluster.clients)
    views = {r.fields["view"] for r in surge_cluster.sim.trace.of_kind("view_installed")}
    applied = {p.machine.applied_seq for p in surge_cluster.processes.values()}
    # every request plus one pseudo entry per installed view
    assert applied == {issued + len(views)}


def test_unwilling_skips_down_candidate():
    """Crash both members... not allowed by 3(b)(ii); instead make the
    *next* candidate pair down via a surge while the coordinator takes
    a value fault: the view change must skip the down pair with an
    Unwilling exchange and land on pair 3."""
    config = ProtocolConfig(f=2, variant="scr")
    cluster = build_cluster("scr", config=config, seed=2)
    workload = OpenLoopWorkload(cluster, rate=150, duration=4.0)
    workload.install()
    # Pair 2's link surges so it fail-signals (down, recoverable)...
    cluster.injector.surge_link(
        cluster.pair_links[2],
        DelaySurgeFault(active_from=0.5, until=3.0, factor=40000.0),
    )
    # ...then the coordinator pair takes a value fault.
    cluster.injector.inject(cluster.process("p1"), WrongDigestFault(active_from=1.5))
    cluster.start()
    cluster.run(until=8.0)
    trace = cluster.sim.trace
    unwillings = trace.of_kind("unwilling_sent")
    assert unwillings, "down candidate should decline with Unwilling"
    views = {(r.fields["view"], r.fields["rank"]) for r in trace.of_kind("view_installed")}
    assert (3, 3) in views
    assert_total_order_among_correct(cluster)


def test_crashed_member_leaves_pair_down_for_good():
    cluster = run_protocol(
        "scr", duration=2.0, rate=150, drain=3.0,
        faults=[("p1", CrashFault(active_from=0.8))],
    )
    p1s = cluster.process("p1'")
    assert p1s.status == STATUS_DOWN
    assert not cluster.sim.trace.of_kind("pair_recovered")
    assert_total_order_among_correct(cluster)


@pytest.mark.xfail(strict=True, raises=ProtocolError)
def test_failure_free_scr_at_20ms_commits_without_conflict():
    """Known defect (ROADMAP, aim 3): a failure-free SCR run at a 20 ms
    batching interval view-changes under its own load, and the install
    part then force-commits an order that contradicts one a process
    already committed — ``conflicting commit at slot 32`` on seeds 2, 4
    and 5 (1, 3 and 6 pass).  Strict, so the fix has to flip this."""
    run_task(SweepTask(
        kind="order", protocol="scr", scheme="md5-rsa1024", f=2, seed=2,
        batching_interval=0.02, n_batches=250,
    ))
