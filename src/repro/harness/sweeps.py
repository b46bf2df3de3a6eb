"""Shared sweep vocabulary for the claim checks, CLI and the runner.

One home for the constants and small helpers the paper-claim checks
(``benchmarks/bench_*.py``), ``python -m repro suite`` and the tests
share: the swept batching intervals, the backlog sizes of Figure 6,
and the table renderer the claim checks print with.  The suite CLI's
quick/full sweep shapes live here too, so all three measure the same
grids.
"""

from __future__ import annotations

#: The batching intervals (seconds) the paper sweeps (40 ms .. 500 ms).
PAPER_INTERVALS = (0.040, 0.060, 0.080, 0.100, 0.150, 0.250, 0.500)
#: The crypto schemes of Figures 4-6, in presentation order.
PAPER_SCHEME_NAMES = ("md5-rsa1024", "md5-rsa1536", "sha1-dsa1024")

#: Reduced interval sweep the claim checks regenerate (keeps their
#: runtime reasonable while spanning the saturation knee).
BENCH_INTERVALS = (0.040, 0.060, 0.100, 0.250, 0.500)
#: Quick-mode intervals for CI smoke runs.
QUICK_INTERVALS = (0.040, 0.100, 0.500)
#: Steady-state / saturated ends of the sweep, used by assertions.
STEADY_INTERVAL = 0.500
TIGHT_INTERVAL = 0.040

#: Figure 6's BackLog sizes (held ~1 KB batches), full and quick.
BACKLOG_BATCHES = (1, 2, 3, 4, 5)
QUICK_BACKLOG_BATCHES = (1, 3, 5)

#: The f = 2 vs f = 3 comparison sweep (Section 5 text observation).
F3_INTERVALS = (0.060, 0.100, 0.250, 0.500)
QUICK_F3_INTERVALS = (0.100, 0.500)

#: Protocol line-ups per figure.
ORDER_PROTOCOLS = ("ct", "sc", "bft")
FAILOVER_PROTOCOLS = ("sc", "scr")
F3_PROTOCOLS = ("sc", "bft")

#: Population-scaling figure (f3pop): client counts swept at a fixed
#: aggregate rate — the point is that cost stays O(events) while the
#: population grows four orders of magnitude.
F3POP_CLIENTS = (100, 10_000, 1_000_000)
QUICK_F3POP_CLIENTS = (100, 100_000)
#: Fixed aggregate rate (req/s) and durations for the f3pop sweep.
F3POP_RATE = 400.0
F3POP_DURATION = 3.0
QUICK_F3POP_DURATION = 1.5


def series_table(title: str, series: dict[str, list[tuple[float, float]]],
                 xlabel: str, ylabel: str) -> str:
    """Render several (x, y) series as one fixed-width table."""
    from repro.harness.report import render_series

    return render_series(title, xlabel, ylabel, series)
