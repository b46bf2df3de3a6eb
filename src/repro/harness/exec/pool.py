"""The process-pool mode (``--jobs N``).

Tasks are submitted most-expensive-first (see
:mod:`repro.harness.exec.schedule`) so the straggler starts early, and
results are reassembled by submission index — parallelism never
reorders a sweep.

At most ``jobs`` tasks are in flight: the next one is submitted only
when a running one finishes.  Shutting a pool down waits for every
task already submitted, and ``cancel_futures`` cannot reach the ones
it has moved into its call queue, so submitting the whole grid up
front would run most of it after a failure.  Failure semantics:

* a task that raises inside a worker aborts the sweep with a
  :class:`~repro.errors.SweepError` naming the owning ``point_id``
  (tasks are deterministic, so retrying a task *exception* would just
  fail again), after only the tasks already running have finished;
* a worker killed without a result — the OOM killer breaks the whole
  pool — also surfaces as a :class:`SweepError` naming the affected
  point, never as a hole in the result list;
* a failing progress or journal callback aborts the same way
  (:func:`~repro.harness.runner.progress_reporter`).
"""

from __future__ import annotations

from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from typing import Sequence

from repro.errors import SweepError
from repro.harness.exec.schedule import dispatch_order
from repro.harness.runner import (
    PointResult,
    ProgressCallback,
    SweepTask,
    progress_reporter,
    run_task,
)


def run_pool(
    tasks: Sequence[SweepTask],
    jobs: int,
    cost_hints: dict[str, float] | None = None,
    progress: ProgressCallback | None = None,
) -> list[PointResult]:
    """Fan the grid out over ``jobs`` local worker processes; results
    in submission order."""
    report = progress_reporter(progress, len(tasks))
    results: dict[int, PointResult] = {}
    queue = iter(dispatch_order(tasks, cost_hints))
    running: dict[Future[PointResult], int] = {}
    workers = max(1, min(jobs, len(tasks)))

    def fill(pool: ProcessPoolExecutor) -> None:
        for i in queue:
            try:
                running[pool.submit(run_task, tasks[i])] = i
            except Exception as exc:  # the pool broke between completions
                raise SweepError(
                    f"sweep task {tasks[i].point_id} could not be "
                    f"dispatched: {exc}"
                ) from exc
            if len(running) == workers:
                return

    # Leaving the block waits for the tasks still running, so an
    # abort never orphans a worker.
    with ProcessPoolExecutor(max_workers=workers) as pool:
        fill(pool)
        while running:
            finished, _ = wait(running, return_when=FIRST_COMPLETED)
            for future in finished:
                i = running.pop(future)
                try:
                    results[i] = future.result()
                except Exception as exc:
                    # BrokenProcessPool, pickling failures and task
                    # exceptions alike: name the point, keep the cause.
                    raise SweepError(
                        f"sweep task {tasks[i].point_id} failed in a pool "
                        f"worker: {exc}"
                    ) from exc
                report(results[i])
            fill(pool)
    return [results[i] for i in range(len(tasks))]
