"""Integration tests for the figure points (small configurations).

These check the *shape* of each paper artefact on reduced sweeps; the
full-size regenerations live in benchmarks/.
"""

import pytest

from repro.harness.metrics import linear_fit
from repro.harness.runner import FAILOVER, ORDER, SweepTask, run_task


def run_order(protocol, scheme, interval, **fields):
    return run_task(SweepTask(kind=ORDER, protocol=protocol, scheme=scheme,
                              batching_interval=interval, **fields)).result


def run_failover(protocol, scheme, backlog, **fields):
    return run_task(SweepTask(kind=FAILOVER, protocol=protocol, scheme=scheme,
                              backlog_batches=backlog, **fields)).result


@pytest.fixture(scope="module")
def quick_points():
    """One moderate batching-interval point per protocol (rsa-1024)."""
    return {
        protocol: run_order(
            protocol, "md5-rsa1024", 0.100, n_batches=25, warmup_batches=5
        )
        for protocol in ("ct", "sc", "bft")
    }


def test_latency_ordering_ct_sc_bft(quick_points):
    """Figure 4's vertical ordering at a steady-state interval."""
    assert (
        quick_points["ct"].latency_mean
        < quick_points["sc"].latency_mean
        < quick_points["bft"].latency_mean
    )


def test_throughput_positive_everywhere(quick_points):
    for result in quick_points.values():
        assert result.throughput > 0


def test_result_metadata(quick_points):
    sc = quick_points["sc"]
    assert sc.protocol == "sc"
    assert sc.scheme == "md5-rsa1024"
    assert sc.batches_measured == 25
    ct = quick_points["ct"]
    assert ct.scheme == "plain"  # CT runs without crypto


def test_dsa_widens_the_sc_bft_gap():
    """Figure 4(c): switching RSA -> DSA inflates BFT more than SC
    because verification dominates BFT's n-to-n phases."""
    interval = 0.150
    gap = {}
    for scheme in ("md5-rsa1024", "sha1-dsa1024"):
        sc = run_order("sc", scheme, interval, n_batches=20, warmup_batches=5)
        bft = run_order("bft", scheme, interval, n_batches=20, warmup_batches=5)
        gap[scheme] = bft.latency_mean - sc.latency_mean
    assert gap["sha1-dsa1024"] > gap["md5-rsa1024"]


def test_smaller_interval_saturates_bft_first():
    """Figure 4's saturation: at a small batching interval BFT's
    latency inflates far beyond its steady state; SC's less so."""
    steady, tight = 0.250, 0.040
    ratios = {}
    for protocol in ("sc", "bft"):
        a = run_order(
            protocol, "md5-rsa1024", steady, n_batches=20, warmup_batches=5
        )
        b = run_order(
            protocol, "md5-rsa1024", tight, n_batches=20, warmup_batches=5
        )
        ratios[protocol] = b.latency_mean / a.latency_mean
    assert ratios["bft"] > ratios["sc"]


def test_failover_latency_grows_with_backlog():
    """Figure 6's linearity, on a 3-point sweep."""
    points = [
        run_failover("sc", "md5-rsa1024", k) for k in (1, 3, 5)
    ]
    sizes = [p.observed_backlog_bytes for p in points]
    latencies = [p.failover_latency for p in points]
    assert sizes == sorted(sizes)
    assert latencies[0] < latencies[-1]
    slope, _, r2 = linear_fit(sizes, latencies)
    assert slope > 0
    assert r2 > 0.8


def test_failover_experiment_scr_runs():
    result = run_failover("scr", "md5-rsa1024", 2)
    assert result.protocol == "scr"
    assert result.failover_latency > 0
    assert result.observed_backlog_bytes > 0
