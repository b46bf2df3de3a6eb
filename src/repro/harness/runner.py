"""Sweep tasks, the ``execute()`` facade and series assembly.

The figure sweeps of :mod:`repro.harness.figures` are grids of
independent simulation runs: each (protocol, scheme, interval) point
builds a fresh cluster from an explicit seed and returns plain data.
This module turns every such point into a :class:`SweepTask` value;
*executing* a grid is the job of :mod:`repro.harness.exec` (in-process
``serial`` or a local process ``pool``), reached through the
:func:`execute` facade below.

Determinism: a task carries everything that influences its outcome
(protocol, scheme, interval, ``f``, seed, batch counts, calibration
profile name), and :func:`run_task` is a pure function of the task —
the same grid therefore produces byte-identical results serially or
across any number of workers, in any completion order.

Calibration profiles are referenced *by name* so tasks stay small and
picklable; each worker process resolves a name to a profile once and
reuses it for every task it runs (:func:`~repro.calibration.
resolve_calibration` is memoised per process).

Typical use::

    tasks = order_grid(protocols=("ct", "sc", "bft"),
                       schemes=("md5-rsa1024",),
                       intervals=(0.040, 0.100, 0.500))
    results = execute(tasks, jobs=4, progress=print_progress)
    series = order_series(results, value="latency_mean")

Resuming an interrupted sweep::

    execute(tasks, jobs=4, checkpoint="sweep.ckpt")  # journal + resume
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, replace
from functools import cached_property, partial
from typing import Callable, Iterable, Sequence, cast

import repro.harness.probes as probe_registry
import repro.protocols as protocols
from repro.calibration import CALIBRATION_PROFILES
# Re-exported: the perf ledger's set-up script imports it from here.
from repro.calibration import resolve_calibration as resolve_calibration
from repro.errors import ConfigError, SweepError
from repro.harness.probes import ProbeReport
from repro.harness.scenario import (
    FaultSpec,
    NetSpec,
    ScenarioSpec,
    probe_context,
    run_scenario,
    spec_to_dict,
    wire_spec,
)
from repro.harness.telemetry import Stopwatch

#: Task kinds understood by :func:`run_task`.
ORDER = "order"
FAILOVER = "failover"
SCENARIO = "scenario"

#: Probes an order point wires when none are selected: the paper's
#: Figure 4/5 measurements.
DEFAULT_ORDER_PROBES = ("order-latency", "throughput")
#: Probes a fail-over point wires by default (Figure 6).
DEFAULT_FAILOVER_PROBES = ("failover",)
#: Fewest measured batches for a valid order point.
MIN_ORDER_SAMPLES = 5
#: A fail-over point's batching interval when the task sets none.
FAILOVER_INTERVAL = 0.250


@dataclass(frozen=True)
class SweepTask:
    """One sweep point: a pure, picklable description of a single
    experiment run.

    ``kind`` selects the experiment: :data:`ORDER` measures order
    latency/throughput at ``batching_interval``; :data:`FAILOVER`
    measures fail-over latency with ``backlog_batches`` of held orders;
    :data:`SCENARIO` runs a declarative
    :class:`~repro.harness.scenario.ScenarioSpec` (carried in
    ``scenario``, itself frozen and picklable).  Every kind runs as a
    spec (:meth:`spec`) wired by
    :func:`~repro.harness.scenario.wire_spec`.
    """

    kind: str
    protocol: str
    scheme: str
    f: int = 2
    seed: int = 1
    batching_interval: float | None = None
    backlog_batches: int | None = None
    n_batches: int = 100
    warmup_batches: int = 15
    calibration: str = "paper"
    scenario: object | None = None
    #: Probe selection for the experiment (``None`` = the experiment's
    #: paper defaults).  Scenario tasks select probes on their spec.
    probes: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in (ORDER, FAILOVER, SCENARIO):
            raise ConfigError(f"unknown task kind {self.kind!r}")
        if self.kind == ORDER and self.batching_interval is None:
            raise ConfigError("order tasks need a batching_interval")
        if self.kind == FAILOVER and self.backlog_batches is None:
            raise ConfigError("failover tasks need backlog_batches")
        if self.kind == SCENARIO and self.scenario is None:
            raise ConfigError("scenario tasks need a ScenarioSpec")
        if self.calibration not in CALIBRATION_PROFILES:
            raise ConfigError(f"unknown calibration profile {self.calibration!r}")
        if self.probes is not None:
            if self.kind == SCENARIO:
                raise ConfigError(
                    "scenario tasks select probes on the ScenarioSpec "
                    "(spec field 'probes'), not on the task"
                )
            object.__setattr__(
                self, "probes", probe_registry.validate_names(self.probes)
            )

    @property
    def x(self) -> float:
        """The task's sweep-axis value (interval, backlog, or seed —
        population scenarios sweep the client count)."""
        if self.kind == ORDER:
            return self.batching_interval
        if self.kind == SCENARIO:
            population = getattr(self.scenario, "population", None)
            if population is not None:
                return float(population.clients)
            return float(self.seed)
        return float(self.backlog_batches)

    def spec(self) -> ScenarioSpec:
        """The run this task describes, as a scenario spec.

        An order point saturates batches over ``warmup + n + 4``
        intervals (the paper's throughput rises as the interval shrinks
        because each interval's 1 KB batch is always full), then drains
        so that late commits of saturated runs still land.  A fail-over
        point holds acks from ``hold_at`` so that ``backlog_batches``
        ~1 KB batches pile up acked-but-uncommitted, then corrupts the
        coordinator's digests: its BackLogs carry ``backlog_batches`` KB
        of uncommitted orders, the paper's 1..5 KB x-axis.
        """
        if self.kind == SCENARIO:
            return cast(ScenarioSpec, self.scenario)
        interval = self.batching_interval
        if interval is None:  # only fail-over points may leave it unset
            interval = FAILOVER_INTERVAL
        if self.kind == ORDER:
            name = f"{self.protocol}/{self.scheme}@{interval}"
            duration = (self.warmup_batches + self.n_batches + 4) * interval
            drain = max(2.0, 60 * interval)
            faults: tuple[FaultSpec, ...] = ()
        else:
            if not protocols.get(self.protocol).supports_failover:
                raise ConfigError(f"{self.protocol!r} has no fail-over to measure")
            hold_at = 6 * interval + interval * 0.5  # after six warm-up batches
            fault_at = hold_at + (self.backlog_batches + 0.5) * interval
            name = f"{self.protocol}/{self.scheme} backlog={self.backlog_batches}"
            duration, drain = fault_at + 4.0, 4.0
            faults = (
                FaultSpec(kind="hold_acks", at=hold_at),
                FaultSpec(kind="wrong_digest", target="coordinator", at=fault_at),
            )
        return ScenarioSpec(
            name=name, protocol=self.protocol, f=self.f, scheme=self.scheme,
            batching_interval=interval, duration=duration, drain=drain,
            seed=self.seed, faults=faults, net=NetSpec(calibration=self.calibration),
        )

    @cached_property
    def point_id(self) -> str:
        """Stable identifier used to match points across artifacts.

        Every field that influences the measurement participates, so
        sweeps of different shapes (batch counts, calibration, a
        failover run's batching interval) can never silently compare
        as the same point in the baseline gate.

        Memoised per instance (tasks are frozen values): the scenario
        branch digests the whole spec, and progress reporting reads the
        id once per completed point — recomputing it each time would
        make the cheapest grids pay a sha256 per progress line.
        """
        if self.kind == SCENARIO:
            # The spec digest covers every field (faults, workload,
            # duration, config overrides), so two different scenarios
            # sharing a name can never compare as the same point.
            payload = json.dumps(
                spec_to_dict(self.scenario), sort_keys=True, default=str
            )
            digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:10]
            return "/".join((
                self.kind, self.scenario.name, self.protocol, self.scheme,
                f"f{self.f}", f"s{self.seed}", self.calibration, digest,
            ))
        if self.kind == ORDER:
            axis = f"i{self.batching_interval:g}"
            shape = f"n{self.n_batches}w{self.warmup_batches}"
        else:
            interval = (
                FAILOVER_INTERVAL if self.batching_interval is None
                else self.batching_interval
            )
            axis = f"b{self.backlog_batches}i{interval:g}"
            shape = None
        parts = [
            self.kind, self.protocol, self.scheme, f"f{self.f}", axis,
            f"s{self.seed}",
        ]
        if shape is not None:
            parts.append(shape)
        parts.append(self.calibration)
        # A non-default probe selection measures different quantities,
        # so it is a different point; the default (None) adds nothing,
        # keeping every historical id — and the committed baselines —
        # stable.
        if self.probes is not None:
            parts.append("p:" + "+".join(self.probes))
        return "/".join(parts)


@dataclass(frozen=True)
class PointResult:
    """The outcome of one executed task.

    ``result`` is the experiment's value object — a
    :class:`~repro.harness.probes.ProbeReport` for order/failover
    points, a :class:`~repro.harness.scenario.ScenarioResult` for
    scenarios — fully deterministic for a given task.  ``wall_time``
    is the worker-side execution time and is the only
    non-deterministic field.
    """

    task: SweepTask
    result: object
    wall_time: float

    @property
    def events_processed(self) -> int:
        """Simulator events the point processed (0 when the experiment
        predates the telemetry).  Deterministic — only the pairing with
        ``wall_time`` (events/second) varies between machines."""
        return int(getattr(self.result, "events_processed", 0))

    @property
    def probes(self) -> tuple[str, ...]:
        """Names of the probes that emitted this point's metrics
        (empty for results measured without probes)."""
        return tuple(getattr(self.result, "probes", ()) or ())

    def metrics(self) -> dict[str, float]:
        """The measured quantities, flattened for artifacts — the
        result object owns its metric map, whatever probes built it."""
        return dict(self.result.metrics())


def run_figure_point(task: SweepTask) -> ProbeReport:
    """Measure an order or fail-over point: its spec wired with the
    figures' strict probe context.  An order point discards
    ``warmup_batches``, averages at most ``n_batches`` (the paper
    averages 100) and counts throughput over the arrival window only;
    an incomplete fail-over episode is a failure (scenarios run the
    same probes leniently)."""
    spec = task.spec()
    order = task.kind == ORDER
    context = replace(
        probe_context(spec, spec.name),
        window_start=task.warmup_batches * spec.batching_interval if order else 0.0,
        warmup_batches=task.warmup_batches if order else 0,
        cap=task.n_batches if order else None,
        min_samples=MIN_ORDER_SAMPLES if order else 1,
    )
    default = DEFAULT_ORDER_PROBES if order else DEFAULT_FAILOVER_PROBES
    selected = default if task.probes is None else task.probes
    cluster, probes, _ = wire_spec(spec, context, selected)
    cluster.start()
    cluster.run(until=spec.duration + spec.drain)
    return ProbeReport.of(
        probes, context, cluster.plugin.reported_scheme(spec.scheme),
        cluster.sim.events_processed,
    )


def run_task(task: SweepTask) -> PointResult:
    """Execute one sweep point; pure in everything but wall time."""
    watch = Stopwatch()
    result = run_scenario(task.spec()) if task.kind == SCENARIO else run_figure_point(task)
    return PointResult(task=task, result=result, wall_time=watch.elapsed)


# ----------------------------------------------------------------------
# Progress reporting (shared by both execution modes)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Progress:
    """A progress snapshot delivered after each completed task."""

    done: int
    total: int
    elapsed: float
    last: PointResult

    @property
    def eta(self) -> float:
        """Estimated seconds remaining, from the mean rate so far."""
        if self.done == 0:
            return float("inf")
        return self.elapsed / self.done * (self.total - self.done)


#: Per-completion callback type (``None`` disables reporting).
ProgressCallback = Callable[[Progress], None]


def progress_reporter(
    progress: ProgressCallback | None, total: int
) -> Callable[[PointResult], None]:
    """The per-completion hook both execution modes call: counts and
    times finished points and hands ``progress`` a snapshot.

    A failing callback (a full disk under ``--resume``) aborts the
    sweep as a :class:`~repro.errors.SweepError` with the cause
    chained, never as a bare ``OSError`` from deep inside a mode.
    """
    watch = Stopwatch()
    done = 0

    def report(point: PointResult) -> None:
        nonlocal done
        done += 1
        if progress is None:
            return
        try:
            progress(Progress(done=done, total=total,
                              elapsed=watch.elapsed, last=point))
        except Exception as exc:
            raise SweepError(
                f"progress callback failed after {point.task.point_id}: {exc}"
            ) from exc

    return report


def print_progress(progress: Progress, stream=None) -> None:
    """Default progress reporter: one stderr line per finished point."""
    stream = stream if stream is not None else sys.stderr
    print(
        f"  [{progress.done}/{progress.total}] {progress.last.task.point_id} "
        f"({progress.last.wall_time:.1f}s) "
        f"elapsed {progress.elapsed:.1f}s eta {progress.eta:.1f}s",
        file=stream,
        flush=True,
    )


def default_executor(jobs: int, n_tasks: int) -> str:
    """The execution mode for a grid: ``"pool"`` when there is both
    more than one job and more than one task, else ``"serial"``.  The
    one selection rule, shared with callers (the CLI) that record
    which mode ran."""
    return "pool" if jobs > 1 and n_tasks > 1 else "serial"


def execute(
    tasks: Iterable[SweepTask],
    jobs: int = 1,
    progress: ProgressCallback | bool | None = None,
    checkpoint: str | None = None,
    cost_hints: dict[str, float] | None = None,
) -> list[PointResult]:
    """Run every task and return results in task order.

    ``jobs <= 1`` (or a single task) runs serially in-process — no
    pool, no pickling; larger values fan the grid out over a local
    worker-process pool (:func:`default_executor`).  Both modes
    produce identical results for the same tasks.

    * ``checkpoint`` names a journal file: each finished point is
      appended as it completes, and a re-run against the same path
      skips points the journal already holds — an interrupted sweep
      resumes instead of starting over.
    * ``cost_hints`` maps ``point_id`` to a relative cost (typically
      ``events`` telemetry from a prior artifact); the pool dispatches
      predicted-expensive tasks first so the slowest point never
      straggles at the tail.  Result order is unaffected.

    ``progress`` is a per-completion callback; any falsy value
    (``None``, ``False``) disables reporting, so callers can write
    ``progress=False`` without tripping over the callable protocol.
    ``True`` selects the default stderr reporter.
    """
    from repro.harness.exec import run_pool, run_serial, run_with_checkpoint

    if not progress:
        progress = None
    elif progress is True:  # symmetric shorthand for the default reporter
        progress = print_progress
    tasks = list(tasks)
    run: Callable[..., list[PointResult]] = run_serial
    if default_executor(jobs, len(tasks)) == "pool":
        run = partial(run_pool, jobs=jobs, cost_hints=cost_hints)
    if checkpoint is not None:
        return run_with_checkpoint(run, tasks, checkpoint, progress=progress)
    return run(tasks, progress=progress)


# ----------------------------------------------------------------------
# Grid builders
# ----------------------------------------------------------------------
def order_grid(
    protocols: Sequence[str],
    schemes: Sequence[str],
    intervals: Sequence[float],
    f: int = 2,
    seed: int = 1,
    n_batches: int = 100,
    warmup_batches: int = 15,
    calibration: str = "paper",
    probes: tuple[str, ...] | None = None,
) -> list[SweepTask]:
    """The (scheme × protocol × interval) grid of Figures 4/5."""
    return [
        SweepTask(
            kind=ORDER,
            protocol=protocol,
            scheme=scheme,
            f=f,
            seed=seed,
            batching_interval=interval,
            n_batches=n_batches,
            warmup_batches=warmup_batches,
            calibration=calibration,
            probes=probes,
        )
        for scheme in schemes
        for protocol in protocols
        for interval in intervals
    ]


def f3_grid(
    protocols: Sequence[str],
    schemes: Sequence[str],
    intervals: Sequence[float],
    fs: Sequence[int] = (2, 3),
    seed: int = 1,
    n_batches: int = 60,
    warmup_batches: int = 15,
    calibration: str = "paper",
    probes: tuple[str, ...] | None = None,
) -> list[SweepTask]:
    """The (f × scheme × protocol × interval) grid of the Section 5
    f = 3 comparison: :func:`order_grid` repeated per ``f``."""
    return [
        task
        for f in fs
        for task in order_grid(
            protocols, schemes, intervals,
            f=f, seed=seed, n_batches=n_batches,
            warmup_batches=warmup_batches, calibration=calibration,
            probes=probes,
        )
    ]


def failover_grid(
    protocols: Sequence[str],
    schemes: Sequence[str],
    backlogs: Sequence[int],
    f: int = 2,
    seed: int = 1,
    batching_interval: float = FAILOVER_INTERVAL,
    calibration: str = "paper",
    probes: tuple[str, ...] | None = None,
) -> list[SweepTask]:
    """The (scheme × protocol × backlog) grid of Figure 6."""
    return [
        SweepTask(
            kind=FAILOVER,
            protocol=protocol,
            scheme=scheme,
            f=f,
            seed=seed,
            batching_interval=batching_interval,
            backlog_batches=backlog,
            calibration=calibration,
            probes=probes,
        )
        for scheme in schemes
        for protocol in protocols
        for backlog in backlogs
    ]


def scenario_task(spec: ScenarioSpec) -> SweepTask:
    """The sweep point that runs ``spec`` (at the spec's own seed)."""
    return SweepTask(
        kind=SCENARIO,
        protocol=spec.protocol,
        scheme=spec.scheme,
        f=spec.f,
        seed=spec.seed,
        calibration=spec.net.calibration,
        scenario=spec,
    )


def scenario_grid(spec: ScenarioSpec, seeds=(1,)) -> list[SweepTask]:
    """One scenario task per seed — the grid form of a declarative
    :class:`~repro.harness.scenario.ScenarioSpec`."""
    return [scenario_task(spec.with_(seed=seed)) for seed in seeds]


# ----------------------------------------------------------------------
# Series assembly
# ----------------------------------------------------------------------
def group_series(
    results: Iterable[PointResult],
    key: Callable[[PointResult], object],
    point: Callable[[PointResult], tuple[float, float]],
) -> dict[object, list[tuple[float, float]]]:
    """Group results into ``{key: [(x, y), ...]}``, sorted by x."""
    out: dict[object, list[tuple[float, float]]] = {}
    for result in results:
        out.setdefault(key(result), []).append(point(result))
    for series in out.values():
        series.sort(key=lambda xy: xy[0])
    return out


def _by_scheme(
    results: Iterable[PointResult],
    point: Callable[[PointResult], tuple[float, float]],
) -> dict[str, dict[str, list[tuple[float, float]]]]:
    out: dict[str, dict[str, list[tuple[float, float]]]] = {}
    grouped = group_series(
        results, key=lambda p: (p.task.scheme, p.task.protocol), point=point
    )
    for (scheme, protocol), series in grouped.items():
        out.setdefault(scheme, {})[protocol] = series
    return out


def order_series(
    results: Iterable[PointResult], value: str = "latency_mean"
) -> dict[str, dict[str, list[tuple[float, float]]]]:
    """``{scheme: {protocol: [(interval, value), ...]}}`` — the shape
    the figure-level sweeps return.  ``value`` names a metric from the
    point's :class:`~repro.harness.probes.ProbeReport` (metric names
    read as attributes).

    Schemes group by the *requested* name (CT reports ``"plain"``
    because it runs without crypto, but belongs to the panel it was
    swept for).
    """
    return _by_scheme(
        results, lambda p: (p.task.batching_interval, getattr(p.result, value))
    )


def failover_series(
    results: Iterable[PointResult],
) -> dict[str, dict[str, list[tuple[float, float]]]]:
    """``{scheme: {protocol: [(backlog_kb, latency_s), ...]}}``."""
    return _by_scheme(
        results,
        lambda p: (p.result.observed_backlog_bytes / 1024.0, p.result.failover_latency),
    )
