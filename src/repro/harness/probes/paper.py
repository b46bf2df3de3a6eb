"""The paper's three measurements as streaming probes (Section 5).

Each probe implements one of the paper's definitions
(:mod:`repro.harness.metrics` quotes them) over incremental state — a
handful of dicts of floats instead of a retained trace — and is
regression-tested byte-identical against the post-hoc reference kept
with the tests (``tests/harness/oracle.py``, compared in
``tests/harness/probes/test_equivalence``): iteration orders,
aggregation order and the shared
:class:`~repro.harness.metrics.LatencyStats` numerics match exactly,
so a sweep measured by probes reproduces the committed baselines bit
for bit.
"""

from __future__ import annotations

from repro.harness.metrics import LatencySample, LatencyStats
from repro.harness.probes.base import Probe, ProbeContext
from repro.harness.probes.registry import PROBES
from repro.sim.trace import TraceRecord


@PROBES.register
class OrderLatencyProbe(Probe):
    """Order latency per batch: ``batch_formed`` to the earliest
    ``order_committed`` with the same (rank, batch id), aggregated
    with the paper's warm-up discard and batch cap."""

    name = "order-latency"
    kinds = frozenset({"batch_formed", "order_committed"})
    description = (
        "per-batch order latency (batch formed -> first commit), "
        "mean/p50/p95 over the measured window"
    )
    provides = ("latency_mean", "latency_p50", "latency_p95",
                "batches_measured")
    directions = {
        "latency_mean": "lower",
        "latency_p50": "lower",
        "latency_p95": "lower",
    }

    def __init__(self, context: ProbeContext) -> None:
        super().__init__(context)
        self._formed: dict[tuple[int, int], float] = {}
        self._first_commit: dict[tuple[int, int], float] = {}

    def consume(self, record: TraceRecord) -> None:
        key = (record.fields["rank"], record.fields["batch_id"])
        if record.kind == "batch_formed":
            self._formed.setdefault(key, record.time)
        else:
            prior = self._first_commit.get(key)
            if prior is None or record.time < prior:
                self._first_commit[key] = record.time

    def samples(self) -> list[LatencySample]:
        """Matched samples in formation order, built from streamed
        state."""
        first_commit = self._first_commit
        samples = [
            LatencySample(rank=key[0], batch_id=key[1], formed_at=t0,
                          first_commit_at=first_commit[key])
            for key, t0 in self._formed.items()
            if key in first_commit
        ]
        samples.sort(key=lambda s: s.formed_at)
        return samples

    def _window(self) -> list[LatencySample]:
        ctx = self.context
        samples = self.samples()
        if len(samples) < ctx.min_samples:
            raise self._fail(f"too few batches measured ({len(samples)})")
        # Deeply saturated points commit only a fraction of their
        # batches within the run; keep at least ``min_samples``.
        skip = min(ctx.warmup_batches, max(0, len(samples) - ctx.min_samples))
        window = samples[skip:]
        if ctx.cap is not None:
            window = window[:ctx.cap]
        return window

    def finalize(self) -> dict[str, float]:
        window = self._window()
        if not window:  # min_samples == 0: report zeros, don't raise
            return {"latency_mean": 0.0, "latency_p50": 0.0,
                    "latency_p95": 0.0, "batches_measured": 0.0}
        stats = LatencyStats.from_values([s.latency for s in window])
        return {
            "latency_mean": stats.mean,
            "latency_p50": stats.p50,
            "latency_p95": stats.p95,
            "batches_measured": float(stats.count),
        }


@PROBES.register
class ThroughputProbe(Probe):
    """Committed requests per second per process, averaged across
    processes, inside the context's measurement window."""

    name = "throughput"
    kinds = frozenset({"order_committed"})
    description = (
        "committed requests/s per process (averaged) over the "
        "measurement window"
    )
    provides = ("throughput",)
    directions = {"throughput": "higher"}

    def __init__(self, context: ProbeContext) -> None:
        super().__init__(context)
        self._per_actor: dict[str, int] = {}

    def consume(self, record: TraceRecord) -> None:
        if not self.context.window_start <= record.time < self.context.window_end:
            return
        actor = record.fields.get("actor", "?")
        self._per_actor[actor] = (
            self._per_actor.get(actor, 0) + record.fields["n_requests"]
        )

    def finalize(self) -> dict[str, float]:
        ctx = self.context
        if ctx.window_end <= ctx.window_start:
            raise self._fail("empty throughput window")
        if not self._per_actor:
            return {"throughput": 0.0}
        duration = ctx.window_end - ctx.window_start
        rates = [count / duration for count in self._per_actor.values()]
        return {"throughput": sum(rates) / len(rates)}


@PROBES.register
class FailoverProbe(Probe):
    """Fail-over latency (first fail-signal to the first completion at
    or after it) and the mean BackLog/ViewChange wire size inside the
    measured episode."""

    name = "failover"
    kinds = frozenset({
        "fail_signal_emitted", "failover_complete",
        "backlog_sent", "view_change_sent",
    })
    description = (
        "fail-over latency (fail-signal -> new-coordinator Start) and "
        "observed BackLog bytes"
    )
    provides = ("failover_latency", "observed_backlog_bytes")
    directions = {"failover_latency": "lower"}

    def __init__(self, context: ProbeContext) -> None:
        super().__init__(context)
        self._signals: list[float] = []
        self._completes: list[float] = []
        # Sizes kept per kind so the finalize-time mean sums in the
        # post-hoc order (backlog records first, then view changes).
        self._backlog: list[tuple[float, float]] = []
        self._view_change: list[tuple[float, float]] = []

    def consume(self, record: TraceRecord) -> None:
        if record.kind == "fail_signal_emitted":
            self._signals.append(record.time)
        elif record.kind == "failover_complete":
            self._completes.append(record.time)
        elif "size" in record.fields:
            pairs = (
                self._backlog if record.kind == "backlog_sent"
                else self._view_change
            )
            pairs.append((record.time, record.fields["size"]))

    def finalize(self) -> dict[str, float]:
        strict = self.context.min_samples >= 1
        if not self._signals or not self._completes:
            if strict:
                raise self._fail("trace contains no complete fail-over episode")
            return {"failover_latency": 0.0, "observed_backlog_bytes": 0.0}
        t0 = min(self._signals)
        after = [t for t in self._completes if t >= t0]
        if not after:
            if strict:
                raise self._fail("no fail-over completion after the first signal")
            return {"failover_latency": 0.0, "observed_backlog_bytes": 0.0}
        # The size average is restricted to the measured episode:
        # recovery messages sent after the first completion (later view
        # changes) would dilute the size axis of Figure 6.
        episode_end = self._completes[0]
        sizes = [
            size
            for pairs in (self._backlog, self._view_change)
            for time, size in pairs
            if time <= episode_end
        ]
        observed = sum(sizes) / len(sizes) if sizes else 0.0
        return {
            "failover_latency": min(after) - t0,
            "observed_backlog_bytes": observed,
        }
