"""The figures, as a table.

One :class:`Figure` entry per artefact — Figure 4 (order latency vs
batching interval), Figure 5 (throughput), Figure 6 (fail-over latency
vs BackLog size), the Section 5 f = 3 observation and the
population-scaling sweep ``f3pop`` — naming how its task grid is built,
which metrics its rendering reads, how its results print, and whether
the suite runs it by default.  The CLI (:mod:`repro.harness.cli`) only
looks figures up in :data:`FIGURES`; adding one is adding an entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import repro.harness.probes as probe_registry
from repro.errors import ConfigError
from repro.harness.metrics import linear_fit
from repro.harness.plots import ascii_plot
from repro.harness.population import PopulationSpec
from repro.harness.report import render_series, render_table
from repro.harness.runner import (
    PointResult,
    SweepTask,
    f3_grid,
    failover_grid,
    failover_series,
    group_series,
    order_grid,
    order_series,
    scenario_task,
)
from repro.harness.scenario import ScenarioSpec, WorkloadSpec
from repro.harness.sweeps import (
    BACKLOG_BATCHES,
    F3_INTERVALS,
    F3_PROTOCOLS,
    F3POP_CLIENTS,
    F3POP_DURATION,
    F3POP_RATE,
    FAILOVER_PROTOCOLS,
    ORDER_PROTOCOLS,
    PAPER_INTERVALS,
    PAPER_SCHEME_NAMES,
    QUICK_BACKLOG_BATCHES,
    QUICK_F3_INTERVALS,
    QUICK_F3POP_CLIENTS,
    QUICK_F3POP_DURATION,
    QUICK_INTERVALS,
)

#: Probes fixed on every f3pop point's ScenarioSpec.
F3POP_PROBES = ("client-fairness", "queue-depth", "crypto-cost")


# ----------------------------------------------------------------------
# Grid builders: (quick, seed, probes) -> tasks
# ----------------------------------------------------------------------
def _order_tasks(quick, seed, probes) -> list[SweepTask]:
    return order_grid(
        ORDER_PROTOCOLS,
        ("md5-rsa1024",) if quick else PAPER_SCHEME_NAMES,
        QUICK_INTERVALS if quick else PAPER_INTERVALS,
        seed=seed,
        n_batches=30 if quick else 100,
        probes=probes,
    )


def _failover_tasks(quick, seed, probes) -> list[SweepTask]:
    return failover_grid(
        FAILOVER_PROTOCOLS,
        ("md5-rsa1024",) if quick else PAPER_SCHEME_NAMES,
        QUICK_BACKLOG_BATCHES if quick else BACKLOG_BATCHES,
        seed=seed,
        probes=probes,
    )


def _f3_tasks(quick, seed, probes) -> list[SweepTask]:
    return f3_grid(
        F3_PROTOCOLS,
        ("md5-rsa1024",),
        QUICK_F3_INTERVALS if quick else F3_INTERVALS,
        seed=seed,
        n_batches=20 if quick else 60,
        probes=probes,
    )


def f3pop_spec(clients: int, seed: int = 1, quick: bool = False) -> ScenarioSpec:
    """One population-scaling point: fixed aggregate rate, Zipf ids."""
    return ScenarioSpec(
        name=f"f3pop-c{clients}",
        protocol="sc",
        seed=seed,
        duration=QUICK_F3POP_DURATION if quick else F3POP_DURATION,
        drain=2.0,
        workload=WorkloadSpec(rate=F3POP_RATE),
        population=PopulationSpec(clients=clients, id_distribution="zipf"),
        probes=F3POP_PROBES,
        description=(
            f"population scaling at {F3POP_RATE:g} req/s aggregate over "
            f"{clients:,} Zipf-sampled clients"
        ),
    )


def f3pop_grid(clients_list, seed: int = 1, quick: bool = False) -> list[SweepTask]:
    """The f3pop sweep: one scenario task per population size.

    Every point offers the *same* fixed aggregate rate; only
    ``population.clients`` varies — so identical event counts across
    the sweep are themselves the O(events) claim, and wall-time parity
    is the measured proof.
    """
    return [
        scenario_task(f3pop_spec(clients, seed=seed, quick=quick))
        for clients in clients_list
    ]


def _f3pop_tasks(quick, seed, probes) -> list[SweepTask]:
    # f3pop points are scenarios: probe selection lives on the
    # ScenarioSpec, not the task.
    if probes is not None:
        raise ConfigError(
            "f3pop points are scenarios with a fixed probe set "
            f"({', '.join(F3POP_PROBES)}); --probes does not apply"
        )
    return f3pop_grid(
        QUICK_F3POP_CLIENTS if quick else F3POP_CLIENTS, seed=seed, quick=quick
    )


# ----------------------------------------------------------------------
# Renderers: executed results -> printed tables (and plot)
# ----------------------------------------------------------------------
def _in_ms(per_protocol: dict) -> dict:
    return {p: [(x, y * 1e3) for x, y in s] for p, s in per_protocol.items()}


def _render_fig4(results: list[PointResult]) -> None:
    for scheme, per_protocol in order_series(results, "latency_mean").items():
        ms_series = _in_ms(per_protocol)
        print(render_series(
            f"Figure 4 — order latency vs batching interval [{scheme}]",
            "interval (s)", "latency (ms)",
            ms_series,
        ))
        print()
        print(ascii_plot(
            f"Figure 4 [{scheme}] (log y, as in the paper)",
            ms_series, log_y=True,
            xlabel="batching interval (s)", ylabel="latency (ms)",
        ))


def _render_fig5(results: list[PointResult]) -> None:
    for scheme, per_protocol in order_series(results, "throughput").items():
        print(render_series(
            f"Figure 5 — throughput vs batching interval [{scheme}]",
            "interval (s)", "committed req/s/process",
            per_protocol,
        ))


def _render_fig6(results: list[PointResult]) -> None:
    for scheme, per_protocol in failover_series(results).items():
        print(render_series(
            f"Figure 6 — fail-over latency vs BackLog size [{scheme}]",
            "backlog (KB)", "fail-over latency (ms)",
            _in_ms(per_protocol),
        ))
        for protocol, series in per_protocol.items():
            xs = [x for x, _ in series]
            ys = [y for _, y in series]
            slope, intercept, r2 = linear_fit(xs, ys)
            print(f"  {protocol}: latency ≈ {slope*1e3:.2f} ms/KB × size "
                  f"+ {intercept*1e3:.2f} ms  (r² = {r2:.3f})")


def _render_f3(results: list[PointResult]) -> None:
    grouped = group_series(
        results,
        key=lambda p: (p.task.f, p.task.protocol),
        point=lambda p: (p.task.batching_interval, p.result.latency_mean),
    )
    rows = [
        (f_val, protocol, f"{interval*1e3:.0f}", f"{latency*1e3:.1f}")
        for (f_val, protocol), series in grouped.items()
        for interval, latency in series
    ]
    print(render_table(
        "f = 2 vs f = 3 — steady-state latency (ms)",
        ("f", "protocol", "interval (ms)", "latency (ms)"),
        rows,
    ))


def _render_f3pop(results: list[PointResult]) -> None:
    rows = []
    for p in sorted(results, key=lambda p: p.task.x):
        m = p.result.metrics()
        rows.append((
            f"{int(p.task.x):,}",
            str(p.result.requests_issued),
            str(p.result.requests_committed),
            f"{p.result.latency_mean * 1e3:.1f}",
            f"{m.get('client-fairness.fairness_jain', 0.0):.3f}",
            f"{m.get('queue-depth.queue_depth_p95', 0.0):.0f}",
            f"{p.result.events_processed:,}",
            f"{p.wall_time:.2f}",
        ))
    print(render_table(
        "f3pop — population scaling at fixed aggregate rate "
        "(cost is O(events): the events column must not grow with "
        "clients)",
        ("clients", "issued", "committed", "latency (ms)",
         "fairness", "queue p95", "events", "wall (s)"),
        rows,
    ))


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Figure:
    """How one figure is regenerated."""

    #: ``(quick, seed, probes) -> tasks``; ``probes=None``
    #: keeps each experiment's paper defaults.
    grid: Callable[..., list[SweepTask]]
    #: Metrics the renderer reads.  A ``--probes`` selection must
    #: measure them, or the sweep would fail only at render time.
    metrics: tuple[str, ...]
    #: Prints the figure's tables (and plot) from executed results.
    render: Callable[[list[PointResult]], None]
    #: Whether ``repro suite`` runs (and gates) it by default.  ``f3pop``
    #: is opt-in: population scenarios with their own probe set, gated
    #: by a dedicated CI step, not the committed paper baselines.
    in_suite: bool = True


FIGURES: dict[str, Figure] = {
    "fig4": Figure(_order_tasks, ("latency_mean",), _render_fig4),
    "fig5": Figure(_order_tasks, ("throughput",), _render_fig5),
    "fig6": Figure(
        _failover_tasks, ("failover_latency", "observed_backlog_bytes"),
        _render_fig6,
    ),
    "f3": Figure(_f3_tasks, ("latency_mean",), _render_f3),
    "f3pop": Figure(_f3pop_tasks, (), _render_f3pop, in_suite=False),
}


def figure_tasks(figure: str, quick: bool, seed: int,
                 probes=None) -> list[SweepTask]:
    """The task grid one figure regenerates (quick or full shape).

    ``probes`` overrides every point's probe selection (``None`` keeps
    each experiment's paper defaults) and must measure what the figure
    renders."""
    entry = FIGURES[figure]
    if probes is not None:
        provided = {
            metric
            for name in probes
            for metric in probe_registry.get(name).provides
        }
        missing = sorted(set(entry.metrics) - provided)
        if missing:
            raise ConfigError(
                f"--probes {','.join(probes)} does not measure {missing}, "
                f"which {figure} renders; `repro probes` shows what each "
                f"probe provides"
            )
    return entry.grid(quick, seed, probes)
