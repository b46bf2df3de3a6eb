"""Section 5's f = 3 observation (reported in text, not plotted).

"As we increase f to 3, we observe similar trends, except that the
saturation thresholds are encountered at larger batching intervals,
and the order latencies in the steady state increase.  These
observations can be attributed to the fact that as n increases, each
individual process receives more messages which need to be
authenticated and processed."

The sweep runs as a task grid over :mod:`repro.harness.runner`, the
same machinery ``python -m repro suite`` uses (the suite's quick/full
grids use different batch counts — compare like with like).
"""

from repro.harness.runner import execute, f3_grid, group_series
from repro.harness.sweeps import (
    F3_INTERVALS,
    F3_PROTOCOLS,
    STEADY_INTERVAL,
    series_table,
)

INTERVALS = F3_INTERVALS
STEADY = STEADY_INTERVAL
TIGHT = 0.060


def _sweep():
    tasks = f3_grid(
        F3_PROTOCOLS, ("md5-rsa1024",), INTERVALS,
        n_batches=30, warmup_batches=6,
    )
    return group_series(
        execute(tasks),
        key=lambda p: f"{p.task.protocol} f={p.task.f}",
        point=lambda p: (p.task.batching_interval, p.result.latency_mean),
    )


def test_f3_scaling():
    series = _sweep()
    print()
    print(series_table(
        "f = 2 vs f = 3 — order latency (s), MD5+RSA-1024",
        series, "interval (s)", "latency (s)",
    ))
    data = {k: dict(v) for k, v in series.items()}
    for protocol in ("sc", "bft"):
        # Steady-state latency increases with f (more processes, more
        # messages to authenticate per commit).
        assert data[f"{protocol} f=3"][STEADY] > data[f"{protocol} f=2"][STEADY]
        # Saturation arrives at larger intervals for f = 3: the blow-up
        # factor at the tight interval is at least as large.
        blow_2 = data[f"{protocol} f=2"][TIGHT] / data[f"{protocol} f=2"][STEADY]
        blow_3 = data[f"{protocol} f=3"][TIGHT] / data[f"{protocol} f=3"][STEADY]
        assert blow_3 > blow_2 * 0.9, (
            f"{protocol}: f=3 should saturate at least as early as f=2"
        )
    # SC keeps beating BFT at f = 3.
    for interval in INTERVALS:
        assert data["sc f=3"][interval] < data["bft f=3"][interval]
