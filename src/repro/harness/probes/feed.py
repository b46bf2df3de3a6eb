"""Feed recorded trace events through probes after the fact.

The simulation drivers attach probes *live*, streaming records as the
kernel emits them.  A real cluster cannot: each ``repro serve`` node
retains its own records (as plain ``(time, kind, fields)`` tuples in
its report frame) and the controller only sees them after the run.
:func:`replay_records` closes the gap — it rebuilds
:class:`~repro.sim.trace.TraceRecord` objects, streams them through a
freshly instantiated probe selection in time order, and finalizes to
the same :class:`~repro.harness.probes.base.ProbeReport` the simulated
drivers produce.  Live artifacts are therefore measured by *exactly*
the code that measures simulated ones, which is what makes
``repro compare --live`` a like-for-like comparison.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.harness.probes.base import ProbeContext, ProbeReport
from repro.harness.probes.registry import create_all, validate_names
from repro.sim.trace import TraceRecord

#: One recorded event as reports carry it: ``(time, kind, fields)``.
RecordTuple = tuple[float, str, dict]


def as_records(rows: Iterable[RecordTuple]) -> list[TraceRecord]:
    """Rebuild :class:`TraceRecord` objects from report tuples."""
    return [
        TraceRecord(time=float(time), kind=str(kind), fields=dict(fields))
        for time, kind, fields in rows
    ]


def merge_node_records(
    per_node: dict[str, Iterable[RecordTuple]]
) -> list[TraceRecord]:
    """Merge several nodes' recordings into one time-ordered stream.

    Live nodes trace against a shared epoch, so a straight sort by
    timestamp reconstructs the cluster-wide event order (up to clock
    skew, which on one host is scheduler noise).  Ties break by node
    name for determinism.
    """
    merged: list[tuple[float, str, TraceRecord]] = []
    for node in sorted(per_node):
        for record in as_records(per_node[node]):
            merged.append((record.time, node, record))
    merged.sort(key=lambda item: (item[0], item[1]))
    return [record for _, _, record in merged]


def replay_records(
    records: Sequence[TraceRecord],
    probes: Sequence[str],
    context: ProbeContext,
) -> ProbeReport:
    """Stream ``records`` through the named probes; finalize a report.

    Records whose kind no selected probe declared are skipped, matching
    the keep-filter discipline of a live tracer.
    """
    instances = create_all(validate_names(probes), context)
    consumers: dict[str, list] = {}
    for probe in instances:
        for kind in probe.kinds:
            consumers.setdefault(kind, []).append(probe.consume)
    processed = 0
    for record in records:
        callbacks = consumers.get(record.kind)
        if not callbacks:
            continue
        processed += 1
        for callback in callbacks:
            callback(record)
    return ProbeReport.of(instances, context, context.scheme, processed)
