"""Failure semantics: task errors, lost workers, failing callbacks.

Both modes keep one contract — an unrunnable task, a worker that dies
without an answer and a failing progress callback are each a clean
:class:`SweepError` naming the point, never a hole in the results —
and the pool stops dispatching as soon as it sees a failure.
"""

import os
import uuid
from pathlib import Path

import pytest

from repro.errors import SweepError
from repro.harness.exec import run_pool, run_serial
from repro.harness.runner import SweepTask, execute

#: Runs fine serially, but its protocol lookup fails inside run_task —
#: construction-time validation cannot catch it (registries are
#: process-local), making it the canonical "task raises in a worker".
UNRUNNABLE = SweepTask(kind="order", protocol="not-a-protocol",
                       scheme="md5-rsa1024", batching_interval=0.1)


def _disk_full(snapshot):
    raise OSError("No space left on device")


# ----------------------------------------------------------------------
# pool: lost futures, task exceptions, prompt abort
# ----------------------------------------------------------------------
def test_pool_task_exception_names_the_point(grid):
    with pytest.raises(SweepError) as err:
        run_pool(grid[:1] + [UNRUNNABLE], jobs=2)
    assert UNRUNNABLE.point_id in str(err.value)


def _die_hard(task):
    """Emulate the OOM killer: the worker vanishes — no exception, no
    result, a broken pool (module-level so the pool can pickle it)."""
    os._exit(11)


def test_pool_broken_worker_is_an_error_not_a_none_hole(monkeypatch):
    """A worker dying without an answer breaks the pool; the caller
    must see a SweepError naming a point, never a None in the list."""
    import repro.harness.exec.pool as pool_mod

    task = SweepTask(kind="order", protocol="sc", scheme="md5-rsa1024",
                     batching_interval=0.1, n_batches=6, warmup_batches=2)
    monkeypatch.setattr(pool_mod, "run_task", _die_hard)
    with pytest.raises(SweepError) as err:
        run_pool([task], jobs=2)
    assert task.point_id in str(err.value)


def test_pool_callback_failure_aborts_cleanly(grid):
    """A failing progress/checkpoint callback (e.g. full disk) aborts
    the sweep as a SweepError with the real cause, not a bare OSError."""
    with pytest.raises(SweepError, match="callback failed") as err:
        run_pool(grid[:2], jobs=2, progress=_disk_full)
    assert isinstance(err.value.__cause__, OSError)


#: Directory the recording ``run_task`` below writes one file per
#: started task into (inherited by the forked pool workers).
STARTS_ENV = "REPRO_TEST_POOL_STARTS"


def _recording_run_task(task):
    """Record the start in the directory named by $STARTS_ENV, then run
    the task for real (module-level so the pool can pickle it)."""
    from repro.harness.runner import run_task

    (Path(os.environ[STARTS_ENV]) / uuid.uuid4().hex).touch()
    return run_task(task)


def test_pool_stops_dispatching_after_a_failure(monkeypatch, tmp_path):
    """Only the tasks already running when a failure arrives finish:
    a failing first-dispatched task must not drag the rest of a
    12-task grid through the pool before the SweepError surfaces."""
    import repro.harness.exec.pool as pool_mod

    jobs = 2
    tasks = [UNRUNNABLE] + [
        SweepTask(kind="order", protocol="sc", scheme="md5-rsa1024",
                  batching_interval=0.1, n_batches=6 + i, warmup_batches=2)
        for i in range(11)
    ]
    monkeypatch.setenv(STARTS_ENV, str(tmp_path))
    monkeypatch.setattr(pool_mod, "run_task", _recording_run_task)
    with pytest.raises(SweepError) as err:
        run_pool(tasks, jobs=jobs, cost_hints={UNRUNNABLE.point_id: 1e12})
    assert UNRUNNABLE.point_id in str(err.value)
    started = len(list(tmp_path.iterdir()))
    assert 1 <= started <= 2 * jobs, f"{started} of {len(tasks)} tasks started"


# ----------------------------------------------------------------------
# serial: same error contract, full traceback as the cause
# ----------------------------------------------------------------------
def test_serial_wraps_any_exception_not_just_repro_errors(monkeypatch):
    """Uniform failure contract: a plain bug inside a task run still
    surfaces as a SweepError naming the point, as under the pool."""
    import repro.harness.exec.serial as serial_mod

    task = SweepTask(kind="order", protocol="sc", scheme="md5-rsa1024",
                     batching_interval=0.1, n_batches=6, warmup_batches=2)

    def buggy_run_task(task):
        raise ValueError("plain bug")

    monkeypatch.setattr(serial_mod, "run_task", buggy_run_task)
    with pytest.raises(SweepError, match="plain bug") as err:
        run_serial([task])
    assert task.point_id in str(err.value)


def test_serial_task_exception_names_the_point():
    with pytest.raises(SweepError) as err:
        run_serial([UNRUNNABLE])
    assert UNRUNNABLE.point_id in str(err.value)
    assert err.value.__cause__ is not None


def test_serial_callback_failure_aborts_cleanly(grid):
    with pytest.raises(SweepError, match="callback failed") as err:
        run_serial(grid[:1], progress=_disk_full)
    assert isinstance(err.value.__cause__, OSError)


def test_facade_propagates_backend_errors():
    with pytest.raises(SweepError):
        execute([UNRUNNABLE], jobs=1)
