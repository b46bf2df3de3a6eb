"""The in-process mode: no pool, no pickling, no subprocesses.

The reference implementation of the execution contract — the pool is
regression-tested byte-identical against it — and the mode for single
points, ``--jobs 1`` and debugging (a task failure surfaces with the
full in-process traceback as its cause).
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import SweepError
from repro.harness.runner import (
    PointResult,
    ProgressCallback,
    SweepTask,
    progress_reporter,
    run_task,
)


def run_serial(
    tasks: Sequence[SweepTask], progress: ProgressCallback | None = None
) -> list[PointResult]:
    """Run tasks one after another in the calling process."""
    report = progress_reporter(progress, len(tasks))
    results: list[PointResult] = []
    for task in tasks:
        try:
            point = run_task(task)
        except Exception as exc:
            # Same failure contract as the pool: a failing task is a
            # SweepError naming its point (the original traceback
            # rides along as the cause).
            raise SweepError(
                f"sweep task {task.point_id} failed: {exc}"
            ) from exc
        results.append(point)
        report(point)
    return results
