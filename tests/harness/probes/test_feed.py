"""The live-trace feed adapter: recorded events through real probes.

A live cluster reports its trace as plain tuples after the run;
:func:`replay_records` must measure them with exactly the registered
probes' semantics.  The strongest check: feed the adapter the records
of a *simulated* run and require the same numbers the live-attached
probes produced for that run.
"""

from __future__ import annotations

import pytest

from repro.errors import MetricsError
from repro.harness.probes import (
    ProbeContext,
    merge_node_records,
    replay_records,
)
from repro.harness.probes.feed import as_records
from repro.harness.runner import SweepTask, run_task
from repro.sim.trace import TraceRecord


def test_merge_orders_across_nodes():
    per_node = {
        "p2": [(0.5, "order_committed", {"actor": "p2"})],
        "p1": [
            (0.1, "batch_formed", {"actor": "p1"}),
            (0.5, "order_committed", {"actor": "p1"}),
        ],
    }
    merged = merge_node_records(per_node)
    assert [r.time for r in merged] == [0.1, 0.5, 0.5]
    assert isinstance(merged[0], TraceRecord)
    # Equal timestamps tie-break by node name: p1 before p2.
    assert [r.fields["actor"] for r in merged] == ["p1", "p1", "p2"]


def test_replay_matches_live_attached_probes():
    report = run_task(SweepTask(
        kind="order", protocol="sc", scheme="md5-rsa1024", batching_interval=0.1,
        f=1, n_batches=8, warmup_batches=2,
    )).result
    # Re-run with a record-keeping tracer by reaching through the same
    # driver: simplest faithful source is the probe series — instead,
    # rebuild records from a fresh deterministic run.
    from repro.harness.cluster import build_cluster
    from repro.harness.workload import OpenLoopWorkload, saturating_rate
    import repro.protocols as protocols

    plugin = protocols.get("sc")
    config = plugin.configure(scheme="md5-rsa1024", f=1, batching_interval=0.1)
    cluster = build_cluster("sc", config=config, seed=1)
    rate = saturating_rate(config.batch_size_bytes, config.request_bytes, 0.1)
    duration = (2 + 8 + 4) * 0.1
    OpenLoopWorkload(cluster, rate=rate, duration=duration).install()
    cluster.start()
    cluster.run(until=duration + 6.0)
    rows = [
        (r.time, r.kind, dict(r.fields)) for r in cluster.sim.trace.records
    ]
    context = ProbeContext(
        protocol="sc", scheme="md5-rsa1024", f=1, seed=1,
        batching_interval=0.1, window_start=0.2, window_end=duration,
        warmup_batches=2, cap=8, min_samples=5,
    )
    fed = replay_records(
        as_records(rows), ("order-latency", "throughput"), context
    )
    assert fed.metrics() == pytest.approx(report.metrics())
    assert fed.events_processed > 0


def test_replay_validates_probe_names():
    with pytest.raises(Exception):
        replay_records([], ("no-such-probe",), ProbeContext())


def test_min_samples_discipline_survives_the_feed():
    context = ProbeContext(min_samples=5, label="starved point")
    with pytest.raises(MetricsError):
        replay_records([], ("order-latency",), context)
