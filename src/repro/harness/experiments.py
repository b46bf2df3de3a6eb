"""The measured run, and the paper's two point experiments over it.

*How a simulated run is wired for measurement* is decided once, in
:func:`wire_run`: build the cluster, create the probes against their
:class:`~repro.harness.probes.ProbeContext`, install a tracer that
retains exactly the kinds they declared, and attach them.  Every
simulated point is a thin describer of that wiring — it supplies the
context, arms its own workload and faults, and says how long to run:

* :func:`run_order_experiment` — order latency and throughput at one
  batching interval (Figures 4 and 5, and the f = 3 discussion);
* :func:`run_failover_experiment` — fail-over latency against a
  controlled BackLog size (Figure 6);
* :func:`repro.harness.scenario.run_scenario` — a declarative
  :class:`~repro.harness.scenario.ScenarioSpec`.

Figure sweeps are grids of these points (:mod:`repro.harness.runner`),
tabulated in :mod:`repro.harness.figures` and driven from the command
line by :mod:`repro.harness.cli`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import repro.harness.probes as probe_registry
import repro.protocols as protocols
from repro.calibration import CalibrationProfile
from repro.core.config import ProtocolConfig
from repro.core.messages import Ack, SignedMessage
from repro.errors import ConfigError
from repro.failures.faults import WrongDigestFault
from repro.harness.cluster import Cluster, build_cluster
from repro.harness.probes import Probe, ProbeContext, ProbeReport
from repro.harness.workload import OpenLoopWorkload, saturating_rate
from repro.net.message import Envelope
from repro.sim.trace import Tracer

#: Probes an order experiment wires when none are selected: the
#: paper's Figure 4/5 measurements.
DEFAULT_ORDER_PROBES = ("order-latency", "throughput")
#: Probes a fail-over experiment wires by default (Figure 6).
DEFAULT_FAILOVER_PROBES = ("failover",)
#: Fewest measured batches for a valid order point.
MIN_ORDER_SAMPLES = 5


@dataclass(frozen=True)
class WiredRun:
    """A cluster with its measurement attached, not yet started."""

    cluster: Cluster
    probes: tuple[Probe, ...]
    context: ProbeContext

    def run(self, until: float) -> None:
        """Start every process and advance the simulation to ``until``."""
        self.cluster.start()
        self.cluster.run(until=until)

    def report(self) -> ProbeReport:
        """Finalize the probes into one merged report."""
        return ProbeReport.of(
            self.probes,
            self.context,
            self.cluster.plugin.reported_scheme(self.context.scheme),
            self.cluster.sim.events_processed,
        )


def wire_run(
    config: ProtocolConfig,
    context: ProbeContext,
    probes: Sequence[str],
    calibration: CalibrationProfile | None = None,
    n_clients: int = 2,
) -> WiredRun:
    """Build ``context.protocol``'s cluster and attach the named probes.

    The one retention rule: the tracer keeps the union of the attached
    probes' declared kinds and nothing else, so a run's memory is
    bounded by what it measures.  The tracer is replaced before
    anything starts (actors emit via ``sim.trace``), so the filter and
    the subscriptions cover everything the run produces; the caller
    arms workloads and faults on ``.cluster`` and then calls ``.run``.
    """
    cluster = build_cluster(
        context.protocol, config=config, calibration=calibration,
        seed=context.seed, n_clients=n_clients,
    )
    active = probe_registry.create_all(probes, context)
    cluster.sim.trace = Tracer(keep_kinds=probe_registry.kinds_union(probes))
    for probe in active:
        probe.attach(cluster.sim.trace)
    return WiredRun(cluster, active, context)


def run_order_experiment(
    protocol: str,
    scheme_name: str,
    batching_interval: float,
    f: int = 2,
    seed: int = 1,
    n_batches: int = 100,
    warmup_batches: int = 15,
    calibration: CalibrationProfile | None = None,
    probes: tuple[str, ...] | None = None,
) -> ProbeReport:
    """Measure one order sweep point through the selected probes.

    The workload saturates batches (the paper's throughput rises as the
    interval shrinks because each interval's 1 KB batch is always
    full), and each point aggregates ``n_batches`` measured batches
    after warm-up — the paper averages 100 experimental results.
    ``probes`` names registered probes (default: the paper's
    latency and throughput measurements).
    """
    plugin = protocols.get(protocol)
    selected = probe_registry.validate_names(
        DEFAULT_ORDER_PROBES if probes is None else probes
    )
    config = plugin.configure(
        scheme=scheme_name, f=f, batching_interval=batching_interval
    )
    rate = saturating_rate(
        config.batch_size_bytes, config.request_bytes, batching_interval
    )
    duration = (warmup_batches + n_batches + 4) * batching_interval
    # Throughput counts commits inside the arrival window (the paper's
    # per-second commit rate); the drain period only settles latency
    # measurements and would dilute the rate.
    context = ProbeContext(
        protocol=protocol,
        scheme=scheme_name,
        f=f,
        seed=seed,
        batching_interval=batching_interval,
        window_start=warmup_batches * batching_interval,
        window_end=duration,
        warmup_batches=warmup_batches,
        cap=n_batches,
        min_samples=MIN_ORDER_SAMPLES,
        label=f"{protocol}/{scheme_name}@{batching_interval}",
    )
    wired = wire_run(config, context, selected, calibration)
    OpenLoopWorkload(wired.cluster, rate=rate, duration=duration).install()
    # Allow commits of late batches to drain: saturated runs (the
    # figures' blow-up regions) lag far behind the arrival window.
    wired.run(until=duration + max(2.0, 60 * batching_interval))
    return wired.report()


def _is_ack(envelope: Envelope) -> bool:
    return isinstance(envelope.payload, SignedMessage) and isinstance(
        envelope.payload.body, Ack
    )


def run_failover_experiment(
    protocol: str,
    scheme_name: str,
    backlog_batches: int,
    f: int = 2,
    seed: int = 1,
    batching_interval: float = 0.250,
    calibration: CalibrationProfile | None = None,
    probes: tuple[str, ...] | None = None,
) -> ProbeReport:
    """Measure fail-over latency with a controlled BackLog size.

    Acks are held (a transient asynchronous-network delay, which the
    system model permits) so that ``backlog_batches`` ~1 KB batches
    accumulate acked-but-uncommitted; a value-domain fault is then
    injected at the coordinator replica, whose shadow detects it and
    fail-signals.  BackLogs therefore carry ``backlog_batches`` KB of
    uncommitted orders — the paper's 1..5 KB x-axis.
    """
    plugin = protocols.get(protocol)
    if not plugin.supports_failover:
        capable = "/".join(
            p.name for p in protocols.all_protocols() if p.supports_failover
        )
        raise ConfigError(f"fail-over experiment applies to {capable} only")
    selected = probe_registry.validate_names(
        DEFAULT_FAILOVER_PROBES if probes is None else probes
    )
    config = plugin.configure(
        scheme=scheme_name, f=f, batching_interval=batching_interval
    )
    rate = saturating_rate(
        config.batch_size_bytes, config.request_bytes, batching_interval
    )
    warm = 6 * batching_interval
    hold_at = warm + batching_interval * 0.5
    fault_at = hold_at + (backlog_batches + 0.5) * batching_interval
    duration = fault_at + 4.0
    context = ProbeContext(
        protocol=protocol,
        scheme=scheme_name,
        f=f,
        seed=seed,
        batching_interval=batching_interval,
        window_start=0.0,
        window_end=duration,
        # An incomplete fail-over episode is an experiment failure
        # here (scenarios run the same probe leniently with 0).
        min_samples=1,
        label=f"{protocol}/{scheme_name} backlog={backlog_batches}",
    )
    wired = wire_run(config, context, selected, calibration)
    cluster = wired.cluster
    OpenLoopWorkload(cluster, rate=rate, duration=duration).install()
    cluster.sim.schedule_at(hold_at, cluster.network.hold_matching, _is_ack)
    # Release the held acks once the fail-over measurement endpoint
    # has passed (releasing at the fail-signal instead would let the
    # ack burst race the BackLog exchange, committing the very
    # orders whose recovery fig. 6 measures).  The network stays
    # reliable: every held ack is still delivered, merely late.  A
    # kind-scoped subscription fires whether or not any probe
    # retains the record.
    cluster.sim.trace.subscribe(
        lambda record: cluster.network.release_held(),
        kinds=("failover_complete",),
    )
    coordinator = cluster.process(plugin.initial_coordinator(config))
    cluster.injector.inject(coordinator, WrongDigestFault(active_from=fault_at))
    wired.run(until=duration + 4.0)
    return wired.report()
