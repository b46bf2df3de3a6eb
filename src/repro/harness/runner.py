"""Sweep tasks, the ``execute()`` facade and series assembly.

The figure sweeps of :mod:`repro.harness.figures` are grids of
independent simulation runs: each (protocol, scheme, interval) point
builds a fresh cluster from an explicit seed and returns plain data.
This module turns every such point into a :class:`SweepTask` value;
*executing* a grid is the job of the pluggable backends registered in
:mod:`repro.harness.exec` (``serial``, ``pool``, ``sockets``), reached
through the stable :func:`execute` facade below.

Determinism: a task carries everything that influences its outcome
(protocol, scheme, interval, ``f``, seed, batch counts, calibration
profile name), and :func:`run_task` is a pure function of the task —
the same grid therefore produces byte-identical results whichever
backend runs it, across any number of workers, in any completion
order.

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

Scaling out, resuming::

    execute(tasks, jobs=8, executor="sockets")       # worker subprocesses over TCP
    execute(tasks, jobs=4, checkpoint="sweep.ckpt")  # journal + resume
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

import repro.harness.probes as probe_registry
from repro.calibration import CALIBRATION_PROFILES, resolve_calibration
from repro.errors import ConfigError
from repro.harness import experiments
from repro.harness.scenario import ScenarioSpec, run_scenario, spec_to_dict
from repro.harness.telemetry import Stopwatch

#: Task kinds understood by :func:`run_task`.
ORDER = "order"
FAILOVER = "failover"
SCENARIO = "scenario"


@dataclass(frozen=True)
class SweepTask:
    """One sweep point: a pure, picklable description of a single
    experiment run.

    ``kind`` selects the experiment: :data:`ORDER` measures order
    latency/throughput at ``batching_interval``; :data:`FAILOVER`
    measures fail-over latency with ``backlog_batches`` of held orders;
    :data:`SCENARIO` runs a declarative
    :class:`~repro.harness.scenario.ScenarioSpec` (carried in
    ``scenario``, itself frozen and picklable).
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
            interval = 0.250 if self.batching_interval is None else self.batching_interval
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


def run_task(task: SweepTask) -> PointResult:
    """Execute one sweep point; pure in everything but wall time."""
    watch = Stopwatch()
    if task.kind == SCENARIO:
        result = run_scenario(task.scenario)
    elif task.kind == ORDER:
        result = experiments.run_order_experiment(
            task.protocol,
            task.scheme,
            task.batching_interval,
            f=task.f,
            seed=task.seed,
            n_batches=task.n_batches,
            warmup_batches=task.warmup_batches,
            calibration=resolve_calibration(task.calibration),
            probes=task.probes,
        )
    else:
        result = experiments.run_failover_experiment(
            task.protocol,
            task.scheme,
            task.backlog_batches,
            f=task.f,
            seed=task.seed,
            batching_interval=(
                0.250 if task.batching_interval is None else task.batching_interval
            ),
            calibration=resolve_calibration(task.calibration),
            probes=task.probes,
        )
    return PointResult(task=task, result=result, wall_time=watch.elapsed)


# ----------------------------------------------------------------------
# Progress reporting (shared by every execution backend)
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
    """The backend :func:`execute` picks when none is named — the
    single source of truth, shared with callers (the CLI) that record
    which backend ran."""
    return "pool" if jobs > 1 and n_tasks > 1 else "serial"


def execute(
    tasks: Iterable[SweepTask],
    jobs: int = 1,
    progress: Callable[[Progress], None] | bool | None = None,
    executor: str | None = None,
    checkpoint: str | None = None,
    cost_hints: dict[str, float] | None = None,
    executor_options: dict | None = None,
) -> list[PointResult]:
    """Run every task and return results in task order.

    The stable facade over the execution backends registered in
    :mod:`repro.harness.exec`:

    * ``executor`` names a backend (``"serial"``, ``"pool"``,
      ``"sockets"``, or anything registered).  ``None`` keeps the
      historical behaviour — ``jobs <= 1`` runs serially in-process
      (no pool, no pickling), larger values fan the grid out over a
      worker-process pool.  Every backend produces identical results
      for the same tasks.
    * ``checkpoint`` names a journal file: each finished point is
      appended as it completes, and a re-run against the same path
      skips points the journal already holds — an interrupted sweep
      resumes instead of starting over.
    * ``cost_hints`` maps ``point_id`` to a relative cost (typically
      ``events`` telemetry from a prior artifact); parallel backends
      dispatch predicted-expensive tasks first so the slowest point
      never straggles at the tail.  Result order is unaffected.
    * ``executor_options`` are extra constructor keywords for the
      chosen backend (e.g. ``bind``/``port``/``spawn`` on
      ``sockets`` — what the CLI's ``--bind``/``--spawn`` pass); they
      must be options that backend accepts.

    ``progress`` is a per-completion callback; any falsy value
    (``None``, ``False``) disables reporting, so callers can write
    ``progress=False`` without tripping over the callable protocol.
    ``True`` selects the default stderr reporter.
    """
    from repro.harness import exec as exec_backends

    if not progress:
        progress = None
    elif progress is True:  # symmetric shorthand for the default reporter
        progress = print_progress
    tasks = list(tasks)
    if executor is None:
        executor = default_executor(jobs, len(tasks))
    backend = exec_backends.create(
        executor, jobs=jobs, cost_hints=cost_hints, **(executor_options or {})
    )
    if checkpoint is not None:
        return exec_backends.run_with_checkpoint(
            backend, tasks, checkpoint, progress=progress
        )
    return backend.run(tasks, progress=progress)


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
    batching_interval: float = 0.250,
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
