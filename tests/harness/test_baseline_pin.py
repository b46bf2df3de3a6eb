"""The committed figure baselines, pinned exactly.

``benchmarks/baselines/BENCH_<fig>.json`` holds the quick-mode points
every change is compared with.  CI's bench smoke compares at a 10 %
tolerance, so a refactor that moves a point by less would pass it; the
simulation is deterministic, so here every quick ``fig4``, ``fig6``
and ``f3`` point must reproduce its baseline's ``events`` and
``metrics`` exactly, matched by point id.
"""

import json
from pathlib import Path

import pytest

from repro.harness.figures import figure_tasks
from repro.harness.runner import run_task

BASELINE_DIR = Path(__file__).resolve().parents[2] / "benchmarks" / "baselines"


@pytest.mark.parametrize("figure", ["fig4", "fig6", "f3"])
def test_quick_points_reproduce_the_committed_baseline(figure):
    artifact = json.loads((BASELINE_DIR / f"BENCH_{figure}.json").read_text())
    committed = {point["id"]: point for point in artifact["points"]}
    tasks = figure_tasks(figure, True, 1)
    assert {task.point_id for task in tasks} == set(committed)
    for task in tasks:
        point = run_task(task)
        expected = committed[task.point_id]
        assert point.events_processed == expected["events"], task.point_id
        assert point.metrics() == expected["metrics"], task.point_id
