"""Measurement value types and numerics.

The measured quantities follow the paper's definitions (Section 5):

* **Latency** — "the time interval between the instance the request is
  batched by the coordinator and the instance the first process
  commits a sequence number for that request" (waiting-to-be-batched
  time excluded) → per batch: ``batch_formed`` to the earliest
  ``order_committed`` with the same (rank, batch id);
* **Throughput** — "the number of messages committed by an order
  process per second" → committed requests per process per second over
  the measurement window;
* **Fail-over latency** — "the time interval between the moment the
  current coordinator issues fail-signal and the instance the new
  coordinator issues a Start message with (f+1) identifier-signature
  tuples" → ``fail_signal_emitted`` to ``failover_complete``.

The streaming probes of :mod:`repro.harness.probes` implement these
definitions, live on a simulated run or over recorded events
(:func:`repro.harness.probes.replay_records`); this module holds what
they share: one latency sample, the aggregate statistics with the
percentile rule the committed baselines were produced with, and the
least-squares fit Figure 6 reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import MetricsError


@dataclass(frozen=True)
class LatencySample:
    """One batch's measured order latency."""

    rank: int
    batch_id: int
    formed_at: float
    first_commit_at: float

    @property
    def latency(self) -> float:
        return self.first_commit_at - self.formed_at


@dataclass(frozen=True)
class LatencyStats:
    """Aggregate latency statistics over a measurement window."""

    count: int
    mean: float
    p50: float
    p95: float
    maximum: float

    @classmethod
    def from_values(cls, values: list[float]) -> "LatencyStats":
        if not values:
            raise MetricsError("no latency samples to aggregate")
        ordered = sorted(values)

        def pct(p: float) -> float:
            idx = min(len(ordered) - 1, max(0, math.ceil(p * len(ordered)) - 1))
            return ordered[idx]

        return cls(
            count=len(ordered),
            mean=sum(ordered) / len(ordered),
            p50=pct(0.50),
            p95=pct(0.95),
            maximum=ordered[-1],
        )


def linear_fit(xs: list[float], ys: list[float]) -> tuple[float, float, float]:
    """Least-squares line fit; returns ``(slope, intercept, r²)``.

    Used to check the paper's claim that fail-over latency grows
    linearly with BackLog size.
    """
    if len(xs) != len(ys) or len(xs) < 2:
        raise MetricsError("need at least two points for a fit")
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    syy = sum((y - mean_y) ** 2 for y in ys)
    if sxx == 0:
        raise MetricsError("degenerate fit: all x equal")
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    r2 = 1.0 if syy == 0 else (sxy * sxy) / (sxx * syy)
    return slope, intercept, r2
