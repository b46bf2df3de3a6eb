"""Probes vs the post-hoc oracle: exact equivalence.

The regression contract of the one-extractor design: for the same run,
the streaming probes must produce **exactly** the numbers the post-hoc
reference extractors (``tests/harness/oracle.py``) compute from a
keep-everything trace — not approximately, bit for bit, because the
committed BENCH baselines are gated on byte-identical metrics.  The
tests swap the tracer the measured-run wiring installs for a full one
(so the oracle has every record) and compare both extractions of the
*same* simulation — order points, fail-over points and scenarios.
"""

import pytest

import repro.harness.scenario as scenario
from repro.harness.runner import FAILOVER, ORDER, SweepTask, run_task
from repro.harness.scenario import BUILTIN_SCENARIOS, run_scenario
from repro.sim.trace import Tracer
from tests.harness.oracle import (
    backlog_bytes_observed,
    collect_latencies,
    failover_latency,
    latency_stats,
    throughput_per_process,
)

#: Small but real order point (sub-second): enough batches for the
#: warm-up/cap discipline to engage.
ORDER_ARGS = dict(n_batches=10, warmup_batches=3)


def run_order(protocol, scheme, interval, **fields):
    return run_task(SweepTask(kind=ORDER, protocol=protocol, scheme=scheme,
                              batching_interval=interval, **fields)).result


def run_failover(protocol, scheme, backlog):
    return run_task(SweepTask(kind=FAILOVER, protocol=protocol, scheme=scheme,
                              backlog_batches=backlog)).result


@pytest.fixture
def full_trace(monkeypatch):
    """Make the drivers run with a keep-everything tracer and hand the
    test a reference to it (the post-hoc oracle's input)."""
    captured = {}

    def keep_everything(keep_kinds):
        captured["trace"] = Tracer()
        captured["kinds"] = keep_kinds
        return captured["trace"]

    monkeypatch.setattr(scenario, "Tracer", keep_everything)
    return captured


def test_order_probes_match_post_hoc_extraction(full_trace):
    report = run_order("sc", "md5-rsa1024", 0.1, **ORDER_ARGS)
    trace = full_trace["trace"]

    samples = collect_latencies(trace)
    skip = min(ORDER_ARGS["warmup_batches"], max(0, len(samples) - 5))
    stats = latency_stats(samples, skip_first=skip, cap=ORDER_ARGS["n_batches"])
    window_start = ORDER_ARGS["warmup_batches"] * 0.1
    window_end = (ORDER_ARGS["warmup_batches"] + ORDER_ARGS["n_batches"] + 4) * 0.1
    throughput = throughput_per_process(trace, window_start, window_end)

    assert report.value("latency_mean") == stats.mean
    assert report.value("latency_p50") == stats.p50
    assert report.value("latency_p95") == stats.p95
    assert report.value("batches_measured") == float(stats.count)
    assert report.value("throughput") == throughput


def test_failover_probe_matches_post_hoc_extraction(full_trace):
    report = run_failover("sc", "md5-rsa1024", 2)
    trace = full_trace["trace"]

    episode_end = trace.of_kind("failover_complete")[0].time
    assert report.value("failover_latency") == failover_latency(trace)
    assert report.value("observed_backlog_bytes") == backlog_bytes_observed(
        trace, before=episode_end
    )


def test_order_probes_match_post_hoc_across_protocols_and_backlogs(full_trace):
    """The oracle holds across the sweep's other axes, not just one
    convenient point."""
    for protocol in ("ct", "bft"):
        report = run_order(protocol, "md5-rsa1024", 0.1, **ORDER_ARGS)
        trace = full_trace["trace"]
        samples = collect_latencies(trace)
        skip = min(ORDER_ARGS["warmup_batches"], max(0, len(samples) - 5))
        stats = latency_stats(samples, skip_first=skip,
                              cap=ORDER_ARGS["n_batches"])
        assert report.value("latency_mean") == stats.mean
        assert report.value("batches_measured") == float(stats.count)
    for backlog in (1, 3):
        report = run_failover("scr", "md5-rsa1024", backlog)
        trace = full_trace["trace"]
        assert report.value("failover_latency") == failover_latency(trace)


def test_slim_and_full_runs_report_identical_metrics(full_trace):
    """Metrics are tracer-independent end to end (the byte-identical
    baseline guarantee): the same point measured against the full
    tracer and against the derived keep-filter reports equal values,
    and the full trace really carries kinds the filter would drop."""
    full_report = run_order("sc", "md5-rsa1024", 0.1, **ORDER_ARGS)
    assert not full_trace["trace"].kinds() <= full_trace["kinds"]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scenario, "Tracer", Tracer)
        slim_report = run_order(
            "sc", "md5-rsa1024", 0.1, **ORDER_ARGS
        )
    assert slim_report == full_report


def test_derived_keep_filter_bounds_retention(monkeypatch):
    """A probed run retains only the union of the probes' kinds, and
    strictly less than a keep-everything run of the same point."""
    captured = {}

    def spy(keep_kinds):
        captured["trace"] = Tracer(keep_kinds=keep_kinds)
        captured["kinds"] = keep_kinds
        return captured["trace"]

    monkeypatch.setattr(scenario, "Tracer", spy)
    run_order("sc", "md5-rsa1024", 0.1, **ORDER_ARGS)
    slim = captured["trace"]
    assert len(slim) > 0
    assert captured["kinds"] == {"batch_formed", "order_committed"}
    assert slim.kinds() <= captured["kinds"]

    full = Tracer()
    monkeypatch.setattr(scenario, "Tracer", lambda keep_kinds: full)
    run_order("sc", "md5-rsa1024", 0.1, **ORDER_ARGS)
    # The full trace carries records the derived filter stops
    # retaining on the sweep hot path.
    assert len(full) > len(slim)


@pytest.mark.parametrize(
    "name", ["cascading-pair-failures", "delay-surge-recovery", "flash-crowd"]
)
def test_scenario_metrics_match_post_hoc_extraction(full_trace, name):
    """A scenario's built-in metrics are the paper probes run leniently
    plus four counters; the oracle over the unfiltered trace of the
    same run — fail-overs, a view change and recovery, a population
    workload — gives the same values, key for key."""
    spec = BUILTIN_SCENARIOS[name]
    result = run_scenario(spec)
    trace = full_trace["trace"]

    stats = latency_stats(collect_latencies(trace))
    committed: dict[str, int] = {}
    for record in trace.of_kind("order_committed"):
        actor = record.fields["actor"]
        committed[actor] = committed.get(actor, 0) + record.fields["n_requests"]
    completes = trace.of_kind("failover_complete")
    expected = {
        "requests_issued": float(result.requests_issued),
        "requests_committed": float(max(committed.values())),
        "batches_measured": float(stats.count),
        "latency_mean": stats.mean,
        "latency_p50": stats.p50,
        "latency_p95": stats.p95,
        "throughput": throughput_per_process(trace, 0.0, spec.duration),
        "failovers": float(len(completes)),
        "failover_latency": failover_latency(trace) if completes else 0.0,
        "view_changes": float(len(trace.of_kind("view_installed"))),
        "recoveries": float(len(trace.of_kind("pair_recovered"))),
        "safety_ok": 1.0,
    }
    metrics = result.metrics()
    builtin = {key: metrics[key] for key in list(metrics)[:len(expected)]}
    assert builtin == expected
    assert list(builtin) == list(expected)  # key order is part of the contract
