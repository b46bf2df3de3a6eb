"""Experiment harness: clusters, workloads, metrics and the paper's
figures.

* :mod:`~repro.harness.cluster` — builds a complete simulated
  deployment of any protocol plugin registered in
  :mod:`repro.protocols` (``sc``, ``scr``, ``bft``, ``ct``, ...);
* :mod:`~repro.harness.scenario` — declarative ``ScenarioSpec``:
  protocol + workload + faults + network + duration/seed as one
  frozen value, runnable one-off, as runner grids, or via
  ``python -m repro scenario``; its ``wire_spec`` is the one
  measured-run wiring every simulated point goes through;
* :mod:`~repro.harness.workload` — open-loop clients;
* :mod:`~repro.harness.probes` — registry-backed measurement probes
  streaming over the trace (``order-latency``, ``throughput``,
  ``failover``, and anything registered);
* :mod:`~repro.harness.metrics` — the latency statistics and the
  linear fit the probes and figures share;
* :mod:`~repro.harness.runner` — pure sweep tasks (the paper's order
  and fail-over points, each described as a ``ScenarioSpec``),
  executed in-process or across a local worker-process pool
  (``--jobs N``);
* :mod:`~repro.harness.figures` — the figure table (grid, required
  metrics and renderer per figure);
* :mod:`~repro.harness.cli` — the command line:
  ``python -m repro fig4`` / ``python -m repro suite``;
* :mod:`~repro.harness.artifact` — machine-readable ``BENCH_*.json``
  sweep artifacts;
* :mod:`~repro.harness.baseline` — simulated-metric regression
  comparator over artifacts;
* :mod:`~repro.harness.sweeps` — shared sweep constants and helpers;
* :mod:`~repro.harness.report` — plain-text rendering of the series.
"""

from repro.harness.cluster import Cluster, build_cluster
from repro.harness.scenario import (
    BUILTIN_SCENARIOS,
    ScenarioResult,
    ScenarioSpec,
    build_scenario,
    load_spec,
    run_scenario,
)
from repro.harness.metrics import LatencyStats, linear_fit
from repro.harness.probes import (
    Probe,
    ProbeContext,
    ProbeReport,
)
from repro.harness.runner import scenario_grid
from repro.harness.workload import OpenLoopWorkload, saturating_rate

__all__ = [
    "BUILTIN_SCENARIOS",
    "Cluster",
    "LatencyStats",
    "Probe",
    "ProbeContext",
    "ProbeReport",
    "OpenLoopWorkload",
    "ScenarioResult",
    "ScenarioSpec",
    "build_cluster",
    "build_scenario",
    "load_spec",
    "run_scenario",
    "scenario_grid",
    "linear_fit",
    "saturating_rate",
]
