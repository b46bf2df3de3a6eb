"""Unit tests for the metric numerics and the post-hoc oracle."""

import pytest

from repro.errors import MetricsError
from repro.harness.metrics import LatencyStats, linear_fit
from tests.harness.oracle import (
    backlog_bytes_observed,
    collect_latencies,
    failover_latency,
    latency_stats,
    throughput_per_process,
)
from repro.sim.trace import Tracer


def make_trace():
    t = Tracer()
    # batch 1: formed at 0.1, first commit 0.13 (p2), later 0.15 (p3)
    t.emit(0.10, "batch_formed", actor="p1", rank=1, batch_id=1, first_seq=1, n_requests=4)
    t.emit(
        0.13, "order_committed", actor="p2", rank=1, batch_id=1, first_seq=1, n_requests=4
    )
    t.emit(
        0.15, "order_committed", actor="p3", rank=1, batch_id=1, first_seq=1, n_requests=4
    )
    # batch 2: formed 0.2, committed 0.26
    t.emit(0.20, "batch_formed", actor="p1", rank=1, batch_id=2, first_seq=5, n_requests=4)
    t.emit(
        0.26, "order_committed", actor="p2", rank=1, batch_id=2, first_seq=5, n_requests=4
    )
    return t


def test_collect_latencies_uses_first_commit():
    samples = collect_latencies(make_trace())
    assert len(samples) == 2
    assert samples[0].latency == pytest.approx(0.03)
    assert samples[1].latency == pytest.approx(0.06)


def test_unmatched_batches_excluded():
    t = make_trace()
    t.emit(0.30, "batch_formed", actor="p1", rank=1, batch_id=3, first_seq=9, n_requests=4)
    samples = collect_latencies(t)
    assert len(samples) == 2


def test_latency_stats_warmup_skip():
    samples = collect_latencies(make_trace())
    stats = latency_stats(samples, skip_first=1)
    assert stats.count == 1
    assert stats.mean == pytest.approx(0.06)


def test_latency_stats_empty_raises():
    with pytest.raises(MetricsError):
        LatencyStats.from_values([])


def test_latency_stats_percentiles():
    stats = LatencyStats.from_values([1.0, 2.0, 3.0, 4.0, 100.0])
    assert stats.p50 == 3.0
    assert stats.p95 == 100.0
    assert stats.maximum == 100.0
    assert stats.count == 5


def test_latency_stats_single_sample():
    """n = 1: every percentile clamps to the only sample."""
    stats = LatencyStats.from_values([0.25])
    assert stats.count == 1
    assert stats.mean == stats.p50 == stats.p95 == stats.maximum == 0.25


def test_latency_stats_two_samples():
    """n = 2: ceil(0.5 * 2) = 1 -> p50 is the smaller sample; p95
    lands on the larger."""
    stats = LatencyStats.from_values([2.0, 1.0])
    assert stats.p50 == 1.0
    assert stats.p95 == 2.0
    assert stats.mean == pytest.approx(1.5)
    assert stats.maximum == 2.0


def test_latency_stats_ties():
    """Duplicate values: percentiles index into the sorted list, so
    ties resolve to the tied value, never between values."""
    stats = LatencyStats.from_values([3.0, 3.0, 3.0, 3.0])
    assert stats.p50 == stats.p95 == stats.maximum == 3.0
    assert stats.mean == 3.0
    stats = LatencyStats.from_values([1.0, 2.0, 2.0, 2.0, 9.0])
    assert stats.p50 == 2.0  # ceil(0.5 * 5) = 3rd of the ties


def test_latency_stats_p95_index_clamps():
    """The p95 index stays inside the list for every small n (the
    min()/max() clamp in pct): never an IndexError, always a real
    sample, and p95 >= p50."""
    for n in range(1, 25):
        values = [float(i) for i in range(n)]
        stats = LatencyStats.from_values(values)
        assert stats.p95 in values
        assert stats.p50 <= stats.p95 <= stats.maximum
    # ceil(0.95 * 20) - 1 = 18: exactly the 19th of 20 samples.
    assert LatencyStats.from_values(
        [float(i) for i in range(20)]
    ).p95 == 18.0


def test_throughput_counts_requests_per_process():
    t = make_trace()
    # window [0, 1): p2 committed 8 requests, p3 committed 4
    rate_p2 = throughput_per_process(t, 0.0, 1.0, process="p2")
    assert rate_p2 == pytest.approx(8.0)
    averaged = throughput_per_process(t, 0.0, 1.0)
    assert averaged == pytest.approx((8.0 + 4.0) / 2)


def test_throughput_empty_window():
    assert throughput_per_process(make_trace(), 0.9, 1.0) == 0.0
    with pytest.raises(MetricsError):
        throughput_per_process(make_trace(), 1.0, 1.0)
    with pytest.raises(MetricsError):
        throughput_per_process(make_trace(), 2.0, 1.0)


def test_failover_latency_pairs_signal_with_completion():
    t = Tracer()
    t.emit(1.0, "fail_signal_emitted", actor="p1'", pair=1)
    t.emit(1.2, "failover_complete", actor="p2", target=2)
    assert failover_latency(t) == pytest.approx(0.2)


def test_failover_latency_requires_episode():
    with pytest.raises(MetricsError):
        failover_latency(make_trace())


def test_backlog_bytes_observed_mean():
    t = Tracer()
    t.emit(1.0, "backlog_sent", actor="p2", target=2, size=1000)
    t.emit(1.0, "backlog_sent", actor="p3", target=2, size=3000)
    assert backlog_bytes_observed(t) == pytest.approx(2000.0)


def test_linear_fit_recovers_line():
    xs = [1.0, 2.0, 3.0, 4.0]
    ys = [2.1, 4.1, 6.1, 8.1]
    slope, intercept, r2 = linear_fit(xs, ys)
    assert slope == pytest.approx(2.0)
    assert intercept == pytest.approx(0.1)
    assert r2 > 0.999


def test_linear_fit_validates_input():
    with pytest.raises(MetricsError):
        linear_fit([1.0], [2.0])
    with pytest.raises(MetricsError):
        linear_fit([1.0, 1.0], [2.0, 3.0])
