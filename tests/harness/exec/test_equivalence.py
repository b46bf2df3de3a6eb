"""Mode equivalence: serial and pool are byte-identical.

The acceptance contract of the execution layer — for a fixed grid,
both modes return the same deterministic results in the same
submission order, whatever the pool's parallelism or scheduling does
underneath.
"""

from functools import partial

import pytest

from repro.harness.exec import run_pool, run_serial
from repro.harness.exec.schedule import dispatch_order, predicted_cost
from repro.harness.runner import Progress, SweepTask, execute


def _assert_matches_reference(results, grid, serial_reference):
    assert [p.task for p in results] == grid
    assert [p.result for p in results] == [p.result for p in serial_reference]
    assert [p.metrics() for p in results] == [
        p.metrics() for p in serial_reference
    ]


def test_pool_matches_serial(grid, serial_reference):
    _assert_matches_reference(run_pool(grid, jobs=2), grid, serial_reference)


def test_cost_hints_change_dispatch_not_results(grid, serial_reference):
    """Scheduling is invisible in the output: a hint set that inverts
    the dispatch order must still produce identical results."""
    backwards = {
        task.point_id: float(i + 1) * 1e6 for i, task in enumerate(grid)
    }
    order = dispatch_order(grid, backwards)
    assert order[0] == len(grid) - 1  # the hints really did invert it
    _assert_matches_reference(
        run_pool(grid, jobs=2, cost_hints=backwards),
        grid, serial_reference,
    )


def test_progress_stream_counts_every_backend(grid):
    for run in (run_serial, partial(run_pool, jobs=2)):
        seen: list[Progress] = []
        run(grid, progress=seen.append)
        assert [s.done for s in seen] == list(range(1, len(grid) + 1))
        assert all(s.total == len(grid) for s in seen)
        # Completion order may differ from submission order, but every
        # point reports exactly once.
        assert {s.last.task for s in seen} == set(grid)


def test_facade_executor_selector(grid, serial_reference):
    """execute() picks the mode from --jobs; either gives the serial
    reference."""
    for jobs in (1, 2):
        results = execute(grid, jobs=jobs)
        assert [p.result for p in results] == [
            p.result for p in serial_reference
        ]


def test_facade_defaults_preserve_historical_selection(grid):
    """jobs<=1 serial, jobs>1 pool — unchanged from the monolith."""
    assert execute([], jobs=4) == []
    single = execute(grid[:1], jobs=4)  # 1 task: serial path, no pool
    assert len(single) == 1


# ----------------------------------------------------------------------
# Scheduling heuristics (pure, no execution)
# ----------------------------------------------------------------------
def test_predicted_cost_ranks_the_known_expensive_shapes():
    """The profiled reference point (10 ms, 60 batches) must outrank
    every quick-suite shape; failover cost grows with backlog."""
    cheap = SweepTask(kind="order", protocol="sc", scheme="md5-rsa1024",
                      batching_interval=0.5, n_batches=20)
    dear = SweepTask(kind="order", protocol="sc", scheme="md5-rsa1024",
                     batching_interval=0.01, n_batches=60)
    assert predicted_cost(dear) > predicted_cost(cheap)
    small = SweepTask(kind="failover", protocol="sc", scheme="md5-rsa1024",
                      backlog_batches=1)
    large = SweepTask(kind="failover", protocol="sc", scheme="md5-rsa1024",
                      backlog_batches=5)
    assert predicted_cost(large) > predicted_cost(small)


def test_hints_override_the_shape_heuristic():
    task = SweepTask(kind="order", protocol="sc", scheme="md5-rsa1024",
                     batching_interval=0.1, n_batches=30)
    hinted = predicted_cost(task, {task.point_id: 123456.0})
    assert hinted == pytest.approx(123456.0 / 420.0)  # slot units
    assert predicted_cost(task, {"someone/else": 1.0}) == predicted_cost(task)
    # Zero/absent hints fall back rather than zeroing the cost out.
    assert predicted_cost(task, {task.point_id: 0.0}) == predicted_cost(task)


def test_dispatch_order_is_stable_and_complete(grid):
    order = dispatch_order(grid)
    assert sorted(order) == list(range(len(grid)))
    uniform = {task.point_id: 1.0 for task in grid}
    assert dispatch_order(grid, uniform) == list(range(len(grid)))


def test_dispatch_order_puts_expensive_tasks_first():
    tasks = [
        SweepTask(kind="order", protocol="sc", scheme="md5-rsa1024",
                  batching_interval=0.1, n_batches=n)
        for n in (30, 100, 60)
    ]
    assert dispatch_order(tasks) == [1, 2, 0]


@pytest.mark.parametrize("run", [
    pytest.param(partial(run_pool, jobs=2), id="pool"),
    pytest.param(run_serial, id="serial"),
])
def test_empty_grid(run):
    assert run([]) == []


def test_load_cost_hints_harvests_v2_artifacts(grid, serial_reference,
                                               tmp_path):
    """A prior run's artifact is the cost oracle for the next one."""
    from repro.harness.artifact import from_results, write_artifact
    from repro.harness.exec import load_cost_hints

    write_artifact(from_results("fig4", serial_reference), tmp_path)
    hints = load_cost_hints(tmp_path)
    assert set(hints) == {task.point_id for task in grid}
    assert all(events > 0 for events in hints.values())
    # Hints are optional everywhere: no directory, no hints, no error.
    assert load_cost_hints(None) == {}
    assert load_cost_hints(tmp_path / "does-not-exist") == {}
