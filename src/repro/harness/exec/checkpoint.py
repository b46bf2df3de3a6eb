"""Checkpoint/resume: journal finished points, skip them on re-run.

A sweep interrupted at point 37 of 60 — a preempted CI runner, a
laptop lid, a killed process — should resume at point 38, not
point 1.  Tasks are pure and ``point_id`` encodes every field that
influences a measurement, so a journal keyed on point ids is safe to
reuse across processes, execution modes and even *changed grids*: only
points whose full identity matches are skipped.

The journal is a file of back-to-back pickle records, one
``(point_id, git_sha, PointResult)`` per finished point, appended and
flushed as each completion arrives (the ``progress`` stream drives
it, so checkpointing composes with the serial and the pool mode
alike).  A record torn by a crash mid-append is detected
and ignored on load — the interrupted point simply re-runs.  The git
SHA guards code identity: a ``point_id`` encodes every task
*parameter* but nothing about the simulator itself, so records
journaled by a different commit are skipped (with a warning) rather
than silently mixing two code versions' metrics into one artifact.
"""

from __future__ import annotations

import pickle
import warnings
from pathlib import Path
from typing import Callable, Sequence

from repro.harness.artifact import current_git_sha
from repro.harness.runner import PointResult, Progress, ProgressCallback, SweepTask


class Checkpoint:
    """An append-only journal of finished sweep points."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._git_sha = current_git_sha()

    def load(self) -> dict[str, PointResult]:
        """Every intact journal record from this code version, keyed
        by ``point_id``.

        Missing file means a fresh sweep; a truncated or torn final
        record (crash mid-append) ends the scan silently — everything
        before it is still trusted.  Records stamped by a *different*
        commit are skipped (those points re-run) with a warning;
        ``"unknown"`` on either side (running outside a checkout)
        disables the check rather than discarding work.
        """
        results: dict[str, PointResult] = {}
        stale = 0
        try:
            stream = self.path.open("rb")
        except FileNotFoundError:
            return results
        with stream:
            while True:
                try:
                    point_id, git_sha, point = pickle.load(stream)
                except EOFError:
                    break
                except (pickle.UnpicklingError, AttributeError, ValueError,
                        IndexError, TypeError):
                    break  # torn tail record: re-run that point
                if (git_sha != self._git_sha
                        and "unknown" not in (git_sha, self._git_sha)):
                    stale += 1
                    continue
                results[point_id] = point
        if stale:
            warnings.warn(
                f"checkpoint {self.path}: skipped {stale} record(s) "
                f"journaled by a different commit (those points re-run)",
                stacklevel=2,
            )
        return results

    def append(self, point: PointResult) -> None:
        """Journal one finished point durably enough to survive the
        *next* crash (flushed per record)."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("ab") as stream:
            pickle.dump((point.task.point_id, self._git_sha, point), stream,
                        protocol=pickle.HIGHEST_PROTOCOL)
            stream.flush()


def run_with_checkpoint(
    run: Callable[..., list[PointResult]],
    tasks: Sequence[SweepTask],
    path: str | Path,
    progress: ProgressCallback | None = None,
) -> list[PointResult]:
    """Execute ``tasks`` with ``run`` (``run(tasks, progress=...)``:
    :func:`~repro.harness.exec.run_serial` or a bound
    :func:`~repro.harness.exec.run_pool`), journaling to ``path`` and
    skipping points the journal already holds.

    Results come back in task order, journaled and fresh interleaved —
    indistinguishable from an uninterrupted run.  Progress totals
    count the whole grid; already-journaled points are reported
    up-front (with their recorded wall times) so a resumed sweep's
    progress stream starts at "done so far", not zero.
    """
    journal = Checkpoint(path)
    done = journal.load()
    remaining = [task for task in tasks if task.point_id not in done]
    completed = 0
    if progress is not None:
        for task in tasks:
            if task.point_id in done:
                completed += 1
                progress(Progress(done=completed, total=len(tasks),
                                  elapsed=0.0, last=done[task.point_id]))

    def journal_and_report(snapshot: Progress) -> None:
        nonlocal completed
        journal.append(snapshot.last)
        completed += 1
        if progress is not None:
            progress(Progress(done=completed, total=len(tasks),
                              elapsed=snapshot.elapsed, last=snapshot.last))

    fresh = run(remaining, progress=journal_and_report) if remaining else []
    by_id = {point.task.point_id: point for point in fresh}
    return [
        done[task.point_id] if task.point_id in done else by_id[task.point_id]
        for task in tasks
    ]
