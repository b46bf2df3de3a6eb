"""Post-hoc reference extractors: the probes' oracle.

The paper's three measurements (Section 5), computed the obvious way
from a *retained* trace — every record in hand, no streaming state.
Nothing in ``src/`` uses these; they exist so the streaming probes of
:mod:`repro.harness.probes` (the one extractor the harness measures
with) can be checked against an independent implementation, bit for
bit (``tests/harness/probes/test_equivalence.py``), and as a terse way
for protocol tests holding a full trace to ask for a latency.
"""

from __future__ import annotations

from repro.errors import MetricsError
from repro.harness.metrics import LatencySample, LatencyStats
from repro.sim.trace import Tracer


def collect_latencies(trace: Tracer) -> list[LatencySample]:
    """Pair each ``batch_formed`` with its earliest commit anywhere."""
    formed: dict[tuple[int, int], float] = {}
    for record in trace.of_kind("batch_formed"):
        key = (record.fields["rank"], record.fields["batch_id"])
        formed.setdefault(key, record.time)
    first_commit: dict[tuple[int, int], float] = {}
    for record in trace.of_kind("order_committed"):
        key = (record.fields["rank"], record.fields["batch_id"])
        if key not in first_commit or record.time < first_commit[key]:
            first_commit[key] = record.time
    samples = [
        LatencySample(rank=key[0], batch_id=key[1], formed_at=t0,
                      first_commit_at=first_commit[key])
        for key, t0 in formed.items()
        if key in first_commit
    ]
    samples.sort(key=lambda s: s.formed_at)
    return samples


def latency_stats(
    samples: list[LatencySample], skip_first: int = 0, cap: int | None = None
) -> LatencyStats:
    """Aggregate, optionally discarding warm-up batches."""
    window = samples[skip_first:]
    if cap is not None:
        window = window[:cap]
    return LatencyStats.from_values([s.latency for s in window])


def throughput_per_process(
    trace: Tracer, window_start: float, window_end: float, process: str | None = None
) -> float:
    """Committed requests per second at one process (or averaged).

    ``order_committed`` records carry the committing actor's name and
    the batch's request count; the paper's throughput is the per-
    process commit rate, so we count one process's commits (or average
    the per-process rates when ``process`` is None).
    """
    if window_end <= window_start:
        raise MetricsError("empty throughput window")
    per_actor: dict[str, int] = {}
    for record in trace.of_kind("order_committed"):
        if not window_start <= record.time < window_end:
            continue
        actor = record.fields.get("actor", "?")
        per_actor[actor] = per_actor.get(actor, 0) + record.fields["n_requests"]
    if not per_actor:
        return 0.0
    duration = window_end - window_start
    if process is not None:
        return per_actor.get(process, 0) / duration
    rates = [count / duration for count in per_actor.values()]
    return sum(rates) / len(rates)


def failover_latency(trace: Tracer) -> float:
    """Fail-signal emission to new-coordinator completion (Section 5)."""
    signals = trace.of_kind("fail_signal_emitted")
    completes = trace.of_kind("failover_complete")
    if not signals or not completes:
        raise MetricsError("trace contains no complete fail-over episode")
    t0 = min(record.time for record in signals)
    t1 = min(record.time for record in completes if record.time >= t0)
    return t1 - t0


def backlog_bytes_observed(trace: Tracer, before: float | None = None) -> float:
    """Mean BackLog (or ViewChange) wire size seen during fail-over.

    ``before`` restricts the average to one fail-over episode —
    recovery messages sent after the measured installation (e.g. later
    view changes) would otherwise dilute the size axis of Figure 6.
    """
    records = trace.of_kind("backlog_sent") + trace.of_kind("view_change_sent")
    sizes = [
        r.fields["size"]
        for r in records
        if "size" in r.fields and (before is None or r.time <= before)
    ]
    if not sizes:
        return 0.0
    return sum(sizes) / len(sizes)
