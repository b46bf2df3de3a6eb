"""The :class:`Probe` protocol and the measurement value types.

A probe is one *measurement strategy* over a simulation run.  It
declares the trace kinds it needs (:attr:`Probe.kinds`), consumes
matching :class:`~repro.sim.trace.TraceRecord` objects **incrementally**
as the simulator emits them (attached through
:meth:`repro.sim.trace.Tracer.subscribe` with its kind set, so records
it never asked for cost it nothing), and finalizes to a named map of
scalar metrics plus optional :class:`MetricSeries`.

Every simulated point — order, fail-over, scenario — is wired by
:func:`repro.harness.experiments.wire_run`, which applies one
retention rule: the tracer keeps exactly the union of the attached
probes' declared kinds.  Nothing reads those records back to measure
(probes stream); they stay available to a caller holding the cluster,
who can replay them through other probes
(:func:`~repro.harness.probes.feed.replay_records`).

Probes are classes registered by name (:mod:`~repro.harness.probes.
registry`), mirroring the protocol registry; instances are per-run,
constructed against a :class:`ProbeContext` carrying the experiment
parameters the paper's definitions need (measurement window, warm-up
discard, sample caps).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Mapping

from repro.errors import MetricsError
from repro.sim.trace import TraceRecord, Tracer


@dataclass(frozen=True)
class MetricSeries:
    """A named per-run series of ``(x, value)`` points (e.g. one
    latency sample per measured batch), for probes whose finalized
    scalars summarise something worth keeping in full."""

    name: str
    points: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class ProbeContext:
    """Run parameters a probe may finalize against.

    The drivers fill in what their experiment defines: the order
    experiment sets the throughput window to the arrival phase and the
    warm-up/cap discipline of the paper's 100-batch averages; the
    fail-over experiment needs none of that.  ``min_samples`` is the
    driver's validity floor — a probe that cannot reach it raises
    :class:`~repro.errors.MetricsError` naming ``label``.
    """

    protocol: str = ""
    scheme: str = ""
    f: int = 2
    seed: int = 1
    batching_interval: float = 0.0
    #: Measurement window for rate metrics, ``[window_start, window_end)``.
    window_start: float = 0.0
    window_end: float = 0.0
    #: Leading samples to discard (paper warm-up) and cap after discard.
    warmup_batches: int = 0
    cap: int | None = None
    #: Fewest samples for a valid measurement (0 = report zeros instead).
    min_samples: int = 0
    #: Human-readable point name for error messages.
    label: str = ""


class Probe(ABC):
    """One streaming measurement over a simulation run.

    Subclasses set :attr:`name` (registry key), :attr:`kinds` (trace
    kinds consumed — also what the wired run's tracer retains),
    :attr:`description`, and :attr:`directions` mapping each emitted
    metric to ``"lower"``/``"higher"`` when the baseline gate should
    regress it (metrics absent from the map are informational).
    """

    #: Registry key; subclasses must override.
    name: str = ""
    #: Trace kinds this probe consumes.
    kinds: frozenset[str] = frozenset()
    #: One-line description for ``python -m repro probes``.
    description: str = ""
    #: Metric names :meth:`finalize` emits (listings and docs).
    provides: tuple[str, ...] = ()
    #: Gate direction per emitted metric: ``"lower"``/``"higher"``
    #: (metrics absent here are informational, never gated).
    directions: Mapping[str, str] = {}
    #: True when the probe is a scale-only measurement whose kinds are
    #: emitted on per-event hot paths (per request, per batch tick, per
    #: crypto op).  Emitters of such kinds must guard with
    #: :meth:`~repro.sim.trace.Tracer.wants` before building field
    #: values, so unmeasured runs pay one method call per event, not a
    #: record construction — the static pass (``repro lint``, RPR003)
    #: reads this marker and enforces the guard tree-wide.
    scale_only: bool = False

    def __init__(self, context: ProbeContext) -> None:
        self.context = context

    def attach(self, tracer: Tracer) -> None:
        """Subscribe to the kinds this probe declared."""
        tracer.subscribe(self.consume, kinds=self.kinds)

    @abstractmethod
    def consume(self, record: TraceRecord) -> None:
        """Ingest one record (called only for declared kinds)."""

    @abstractmethod
    def finalize(self) -> dict[str, float]:
        """The named scalar metrics, once the run is over."""

    def series(self) -> tuple[MetricSeries, ...]:
        """Optional named series alongside the scalars (default none)."""
        return ()

    def _fail(self, reason: str) -> MetricsError:
        label = self.context.label or "this run"
        return MetricsError(f"probe {self.name!r}: {reason} for {label}")


@dataclass(frozen=True)
class ProbeReport:
    """The generic result of one probe-measured experiment run.

    ``values`` is the merged ``(metric, value)`` map the selected
    probes emitted, in probe order — the per-point metric map of
    artifact schema v3.  Metric names are also readable as attributes
    (``report.latency_mean``), so series assembly and existing callers
    keep working against any probe selection.  Frozen and built from
    tuples: reports hash, compare and pickle like every other result
    value in the harness.
    """

    protocol: str
    scheme: str
    f: int
    probes: tuple[str, ...]
    values: tuple[tuple[str, float], ...]
    series: tuple[MetricSeries, ...] = ()
    events_processed: int = 0

    @classmethod
    def of(
        cls, probes: tuple[Probe, ...], context: ProbeContext,
        scheme: str, events_processed: int,
    ) -> "ProbeReport":
        """Finalize ``probes`` (all built against ``context``) into one
        merged report."""
        return cls(
            protocol=context.protocol,
            scheme=scheme,
            f=context.f,
            probes=tuple(probe.name for probe in probes),
            values=merged_values(probes),
            series=tuple(s for probe in probes for s in probe.series()),
            events_processed=events_processed,
        )

    def metrics(self) -> dict[str, float]:
        """The measured quantities, flattened for artifacts."""
        return dict(self.values)

    def value(self, name: str) -> float:
        """One metric by name; :class:`MetricsError` if absent."""
        for key, value in self.values:
            if key == name:
                return value
        raise MetricsError(
            f"no metric {name!r} in this report (probes {self.probes}; "
            f"metrics {tuple(key for key, _ in self.values)})"
        )

    def __getattr__(self, name: str):
        # Attribute sugar for metric names (report.latency_mean).  Only
        # reached for names that are not real attributes; anything
        # underscored is left to the normal protocol so pickling and
        # dataclass internals never detour through the metric map.
        if name.startswith("_"):
            raise AttributeError(name)
        try:
            values = object.__getattribute__(self, "values")
        except AttributeError:
            raise AttributeError(name) from None
        for key, value in values:
            if key == name:
                return value
        raise AttributeError(
            f"{type(self).__name__} has no attribute or metric {name!r}"
        )


def merged_values(
    probes: tuple[Probe, ...]
) -> tuple[tuple[str, float], ...]:
    """Finalize every probe and merge the named metrics, rejecting
    collisions (two probes must not claim the same metric name)."""
    values: list[tuple[str, float]] = []
    seen: dict[str, str] = {}
    for probe in probes:
        for key, value in probe.finalize().items():
            if key in seen:
                raise MetricsError(
                    f"probes {seen[key]!r} and {probe.name!r} both emit "
                    f"metric {key!r}"
                )
            seen[key] = probe.name
            values.append((key, float(value)))
    return tuple(values)
