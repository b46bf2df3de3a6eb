"""The measurement-probe registry.

Maps probe names to :class:`~repro.harness.probes.base.Probe`
*classes* (instances are per-run), mirroring the protocol and executor
registries.  The paper's three probes register on package import; a
new probe registers with :func:`register` and is immediately
selectable from ``SweepTask(probes=...)``, scenario specs, every CLI
``--probes`` flag and ``python -m repro probes``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.errors import ConfigError
from repro.harness.probes.base import Probe, ProbeContext

_REGISTRY: dict[str, type[Probe]] = {}


def register(probe: type[Probe], *, replace: bool = False) -> type[Probe]:
    """Add a probe class under its ``name``; returns it, so it can be
    used as a decorator.  Duplicate names are an error unless
    ``replace=True`` (shadowing a builtin in tests)."""
    if not probe.name:
        raise ConfigError(f"probe class {probe!r} has no name")
    if probe.name in _REGISTRY and not replace:
        raise ConfigError(
            f"probe {probe.name!r} is already registered; "
            f"pass replace=True to override"
        )
    _REGISTRY[probe.name] = probe
    return probe


def unregister(name: str) -> None:
    """Remove a probe (primarily for test teardown)."""
    _REGISTRY.pop(name, None)


def get(name: str) -> type[Probe]:
    """Look up a probe class by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown probe {name!r}; known: {names()}"
        ) from None


def names() -> tuple[str, ...]:
    """Registered probe names, in registration order."""
    return tuple(_REGISTRY)


def all_probes() -> tuple[type[Probe], ...]:
    """Every registered probe class, in registration order."""
    return tuple(_REGISTRY.values())


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
        get(name)
    return selected


def create_all(
    selected: Sequence[str], context: ProbeContext
) -> tuple[Probe, ...]:
    """Instantiate the named probes against one run's context."""
    return tuple(get(name)(context) for name in selected)


def kinds_union(selected: Iterable[str]) -> frozenset[str]:
    """Union of the named probes' declared trace kinds — the derived
    keep-filter for a run measured by exactly those probes."""
    kinds: set[str] = set()
    for name in selected:
        kinds |= get(name).kinds
    return frozenset(kinds)


def metric_direction(metric: str) -> str | None:
    """Gate direction for a metric name, consulting probe declarations.

    Accepts both bare names (``latency_mean`` — scanned across every
    registered probe) and probe-qualified names (``order-latency.
    latency_mean`` — the namespaced form scenario probe metrics use).
    Returns ``None`` when no registered probe claims the metric.
    """
    probe_part, _, bare = metric.rpartition(".")
    if probe_part and probe_part in _REGISTRY:
        return dict(_REGISTRY[probe_part].directions).get(bare)
    for probe in _REGISTRY.values():
        direction = dict(probe.directions).get(metric)
        if direction is not None:
            return direction
    return None
