"""Pluggable measurement probes.

The observation half of the harness, split out behind
:data:`~repro.harness.probes.registry.PROBES` (a
:class:`repro.registry.Registry`, like :mod:`repro.protocols`): a
:class:`~repro.harness.probes.base.Probe` declares the trace kinds it
needs, consumes records incrementally as the simulator emits them, and
finalizes to named scalar metrics (the per-point metric map of
artifact schema v3).

The paper's three measurements register on import:

* ``order-latency`` — per-batch order latency (Figure 4);
* ``throughput`` — committed requests/s per process (Figure 5);
* ``failover`` — fail-over latency and BackLog bytes (Figure 6).

A measured run's tracer keeps the union of its attached probes' kinds
(:func:`repro.harness.scenario.wire_spec`), so it retains nothing no
probe wants.
Select probes per sweep point (``SweepTask(probes=...)``), per
scenario (``probes = [...]`` in a spec file), or from the CLI
(``--probes``); ``python -m repro probes`` lists what is registered.
"""

from repro.harness.probes.base import (
    Probe,
    ProbeContext,
    ProbeReport,
    merged_values,
)
from repro.harness.probes.feed import (
    as_records,
    merge_node_records,
    replay_records,
)
from repro.harness.probes.registry import (
    PROBES,
    create_all,
    kinds_union,
    metric_direction,
    validate_names,
)

register = PROBES.register
get = PROBES.get
names = PROBES.names
all_probes = PROBES.all

# Importing the modules registers the paper's probes, the live
# recovery-timeline probe, and the population-scale probes.
from repro.harness.probes.paper import (
    FailoverProbe,
    OrderLatencyProbe,
    ThroughputProbe,
)
from repro.harness.probes.recovery import RecoveryTimelineProbe
from repro.harness.probes.scale import (
    ClientFairnessProbe,
    CryptoCostProbe,
    QueueDepthProbe,
)

__all__ = [
    "ClientFairnessProbe",
    "CryptoCostProbe",
    "FailoverProbe",
    "OrderLatencyProbe",
    "PROBES",
    "Probe",
    "ProbeContext",
    "ProbeReport",
    "QueueDepthProbe",
    "RecoveryTimelineProbe",
    "ThroughputProbe",
    "all_probes",
    "as_records",
    "create_all",
    "merge_node_records",
    "replay_records",
    "get",
    "kinds_union",
    "merged_values",
    "metric_direction",
    "names",
    "register",
    "validate_names",
]
