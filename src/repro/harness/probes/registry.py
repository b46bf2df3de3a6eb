"""The measurement-probe registry.

:data:`PROBES` maps probe names to :class:`~repro.harness.probes.base.
Probe` *classes* (instances are per-run).  The paper's probes register
on package import; a new probe registers with
:func:`repro.harness.probes.register` and is immediately selectable
from ``SweepTask(probes=...)``, scenario specs, every CLI ``--probes``
flag and ``python -m repro probes``.  The rest of this module is what
only probes need: selection checks, instantiation, the derived trace
keep-filter and metric gate directions.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable, Sequence

from repro.errors import ConfigError
from repro.harness.probes.base import Probe, ProbeContext
from repro.registry import Registry

PROBES: Registry[type[Probe]] = Registry(
    "probe", attrgetter("name"), ConfigError
)


def validate_names(selected: Iterable[str]) -> tuple[str, ...]:
    """Check every name resolves and none repeats; returns the tuple.

    Duplicates would only surface after a full simulation, as a
    self-collision in the merged metric map — reject them here, at
    selection time.
    """
    selected = tuple(selected)
    duplicates = sorted({name for name in selected if selected.count(name) > 1})
    if duplicates:
        raise ConfigError(f"probe selection repeats {duplicates}")
    for name in selected:
        PROBES.get(name)
    return selected


def create_all(
    selected: Sequence[str], context: ProbeContext
) -> tuple[Probe, ...]:
    """Instantiate the named probes against one run's context."""
    return tuple(PROBES.get(name)(context) for name in selected)


def kinds_union(selected: Iterable[str]) -> frozenset[str]:
    """Union of the named probes' declared trace kinds — the derived
    keep-filter for a run measured by exactly those probes."""
    kinds: set[str] = set()
    for name in selected:
        kinds |= PROBES.get(name).kinds
    return frozenset(kinds)


def metric_direction(metric: str) -> str | None:
    """Gate direction for a metric name, consulting probe declarations.

    Accepts both bare names (``latency_mean`` — scanned across every
    registered probe) and probe-qualified names (``order-latency.
    latency_mean`` — the namespaced form scenario probe metrics use).
    Returns ``None`` when no registered probe claims the metric.
    """
    probe_part, _, bare = metric.rpartition(".")
    if probe_part and probe_part in PROBES.table:
        return dict(PROBES.table[probe_part].directions).get(bare)
    for probe in PROBES.table.values():
        direction = dict(probe.directions).get(metric)
        if direction is not None:
            return direction
    return None
