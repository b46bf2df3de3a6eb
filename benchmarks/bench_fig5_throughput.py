"""Figure 5: throughput vs batching interval (f = 2).

Regenerates one panel per crypto scheme for CT, SC and BFT and asserts
the paper's observations:

* throughput is low at large batching intervals (a 1 KB batch per
  interval bounds the commit rate) and increases as the interval
  shrinks;
* SC and BFT hit a saturation point after which throughput *drops*;
  BFT peaks lower / drops earlier than SC;
* no drop is observed for CT in the swept range.

The sweep runs as a task grid over :mod:`repro.harness.runner`, the
same machinery ``python -m repro suite`` uses (the suite's quick/full
grids use different point counts — compare like with like).
"""

import pytest

from repro.harness.runner import execute, order_grid, order_series
from repro.harness.sweeps import (
    BENCH_INTERVALS,
    ORDER_PROTOCOLS,
    series_table,
)

INTERVALS = BENCH_INTERVALS
N_BATCHES = 35


def _sweep(scheme: str):
    tasks = order_grid(
        ORDER_PROTOCOLS, (scheme,), INTERVALS,
        n_batches=N_BATCHES, warmup_batches=8,
    )
    return order_series(execute(tasks), value="throughput")[scheme]


def _check_panel(scheme: str, series) -> None:
    thr = {p: dict(pts) for p, pts in series.items()}
    # Low throughput at large intervals, rising as the interval shrinks.
    for protocol in ("ct", "sc", "bft"):
        assert thr[protocol][0.500] < thr[protocol][0.100], (
            f"{protocol}: throughput should rise as the interval shrinks"
        )
    # CT keeps rising to the smallest interval — no drop in range.
    ct = [thr["ct"][iv] for iv in INTERVALS]
    assert ct == sorted(ct, reverse=True) or ct[0] >= max(ct[1:]), (
        "CT should show no throughput drop in the swept range"
    )
    # SC and BFT peak inside the range and drop at the tightest interval.
    for protocol in ("sc", "bft"):
        values = [thr[protocol][iv] for iv in INTERVALS]
        peak = max(values)
        assert values[0] < peak, (
            f"{protocol}: throughput should drop past the saturation point"
        )
    # BFT's post-saturation throughput falls below SC's.
    assert thr["bft"][0.040] < thr["sc"][0.040], (
        "BFT should saturate harder than SC"
    )


@pytest.mark.parametrize(
    "scheme", ["md5-rsa1024", "md5-rsa1536", "sha1-dsa1024"]
)
def test_fig5_panel(scheme):
    series = _sweep(scheme)
    print()
    print(series_table(
        f"Figure 5 — throughput (req/s/process) vs batching interval [{scheme}]",
        series, "interval (s)", "req/s",
    ))
    _check_panel(scheme, series)
