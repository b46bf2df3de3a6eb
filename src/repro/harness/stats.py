"""Statistics for multi-seed experiment repetition.

The paper averages each plotted point over 100 experimental runs.  One
simulated run already aggregates ~100 batches, but run-to-run variance
(different seeds → different jitter and arrival patterns) is the honest
error bar.  This module provides mean/stdev/95% confidence intervals
(Student's t for the small sample counts experiments actually use) and
a repeat-runner that sweeps seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.harness.experiments import run_order_experiment

# Two-sided 95% Student-t critical values for df = 1..30.
_T95 = (
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
    2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
    2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
)


def t95(df: int) -> float:
    """Two-sided 95% t critical value (1.96 beyond the table)."""
    if df < 1:
        raise ConfigError("need at least two samples for a CI")
    if df <= len(_T95):
        return _T95[df - 1]
    return 1.96


@dataclass(frozen=True)
class Summary:
    """Mean with a 95% confidence half-width."""

    n: int
    mean: float
    stdev: float
    ci95: float

    @property
    def low(self) -> float:
        return self.mean - self.ci95

    @property
    def high(self) -> float:
        return self.mean + self.ci95

    def overlaps(self, other: "Summary") -> bool:
        """Whether the two 95% intervals intersect."""
        return self.low <= other.high and other.low <= self.high

    def __str__(self) -> str:  # pragma: no cover - formatting aid
        return f"{self.mean:.6g} ± {self.ci95:.2g} (n={self.n})"


def summarize(values: list[float]) -> Summary:
    """Mean, stdev and 95% CI half-width of a sample."""
    if not values:
        raise ConfigError("cannot summarize an empty sample")
    n = len(values)
    mean = sum(values) / n
    if n == 1:
        return Summary(n=1, mean=mean, stdev=0.0, ci95=0.0)
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    stdev = math.sqrt(var)
    ci95 = t95(n - 1) * stdev / math.sqrt(n)
    return Summary(n=n, mean=mean, stdev=stdev, ci95=ci95)


def repeat_order_experiment(
    protocol: str,
    scheme_name: str,
    batching_interval: float,
    seeds: tuple[int, ...] = (1, 2, 3),
    **kwargs,
) -> tuple[Summary, Summary]:
    """Run the order experiment once per seed.

    Returns ``(latency_summary, throughput_summary)`` across seeds.
    """
    if not seeds:
        raise ConfigError("need at least one seed")
    latencies: list[float] = []
    throughputs: list[float] = []
    for seed in seeds:
        result = run_order_experiment(
            protocol, scheme_name, batching_interval, seed=seed, **kwargs
        )
        latencies.append(result.latency_mean)
        throughputs.append(result.throughput)
    return summarize(latencies), summarize(throughputs)
