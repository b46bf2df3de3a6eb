"""Cost-aware dispatch: predicted-expensive tasks first.

A sweep's wall time under the process pool is bounded by whichever
task finishes *last* — dispatch a grid in naive order and the one
saturated point that takes 10x the others can land on a worker at the
very end, leaving the rest of the fleet idle while it straggles
(longest-processing-time-first is the classic makespan heuristic, and
the do-all framing of the ROADMAP makes every task placement a
scheduling decision, not an accident).

Costs come from two sources, best first:

* **prior-artifact telemetry** — ``BENCH_*.json`` documents
  record deterministic per-point ``events`` counts; a previous run of
  the same grid is therefore a perfect cost oracle
  (:func:`load_cost_hints` harvests a directory of artifacts);
* **task shape** — absent hints, :func:`predicted_cost` estimates
  relative cost from the task's spec (:meth:`SweepTask.spec`), one
  formula for every kind.  Measured against real runs, an order
  point's event count is ~420 events per batch slot plus ~150
  background events per simulated second; in slot units that is
  ``slots + 0.35 * simulated_seconds``, which reproduces the measured
  cost ratios across the paper's interval range to within a few
  percent and ranks the profiled 10 ms / 60 batch reference point as
  the most expensive quick-suite task.

Only the *dispatch* order is affected; both modes still return
results in submission order, so scheduling can never change a result.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

from repro.errors import ConfigError
from repro.harness.runner import SweepTask


def predicted_cost(task: SweepTask, hints: dict[str, float] | None = None) -> float:
    """A relative cost key for one task (bigger = dispatch earlier).

    With a hint available the deterministic prior ``events`` count is
    used verbatim; otherwise the estimate counts batching-interval
    slots the simulation must grind through (arbitrary units — only
    the ordering matters, and hint-backed and estimated costs are
    never meaningfully mixed because a prior artifact covers either
    the whole grid or none of it).
    """
    if hints:
        hinted = hints.get(task.point_id)
        if hinted is not None and hinted > 0:
            # Hints are raw event counts; scale into slot units so
            # hinted and estimated tasks sort on one axis (~420
            # events/slot, the measured order-point density).
            return float(hinted) / 420.0
    spec = task.spec()
    slots = spec.duration / spec.batching_interval
    return slots + 0.35 * (spec.duration + spec.drain)


def dispatch_order(
    tasks: Sequence[SweepTask], hints: dict[str, float] | None = None
) -> list[int]:
    """Submission indices reordered most-expensive-first.

    Ties keep submission order (the sort is stable), so grids with no
    cost signal dispatch exactly as submitted.
    """
    return sorted(
        range(len(tasks)),
        key=lambda i: -predicted_cost(tasks[i], hints),
    )


def load_cost_hints(json_dir: str | Path | None) -> dict[str, float]:
    """Harvest ``{point_id: events}`` from every readable
    ``BENCH_*.json`` under ``json_dir``.

    Unreadable files (documents of an older schema included) are
    skipped: hints are an optimisation, never a requirement.  Returns
    ``{}`` for ``None`` / missing directories.
    """
    from repro.harness.artifact import events_by_point, load_artifact

    if json_dir is None:
        return {}
    hints: dict[str, float] = {}
    for path in sorted(Path(json_dir).glob("BENCH_*.json")):
        try:
            hints.update(events_by_point(load_artifact(path)))
        except (ConfigError, OSError):
            continue  # unreadable for any reason: run without hints
    return hints
