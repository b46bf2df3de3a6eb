"""Checkpoint/resume: interrupted sweeps pick up where they stopped."""

import pickle

import pytest

from repro.harness.exec import Checkpoint, run_serial, run_with_checkpoint
from repro.harness.runner import Progress, execute


def test_load_missing_journal_is_a_fresh_sweep(tmp_path):
    assert Checkpoint(tmp_path / "none.ckpt").load() == {}


def test_append_load_roundtrip(grid, serial_reference, tmp_path):
    journal = Checkpoint(tmp_path / "sweep.ckpt")
    for point in serial_reference[:2]:
        journal.append(point)
    loaded = journal.load()
    assert set(loaded) == {task.point_id for task in grid[:2]}
    assert [loaded[t.point_id].result for t in grid[:2]] == [
        p.result for p in serial_reference[:2]
    ]


def test_torn_tail_record_is_ignored(grid, serial_reference, tmp_path):
    """A crash mid-append leaves a truncated pickle; everything before
    it stays trusted, the torn point simply re-runs."""
    journal = Checkpoint(tmp_path / "sweep.ckpt")
    journal.append(serial_reference[0])
    intact = journal.path.read_bytes()
    record = pickle.dumps(
        (grid[1].point_id, serial_reference[1]), protocol=pickle.HIGHEST_PROTOCOL
    )
    journal.path.write_bytes(intact + record[: len(record) // 2])
    loaded = journal.load()
    assert set(loaded) == {grid[0].point_id}


def test_journal_from_another_commit_is_skipped(grid, serial_reference,
                                                tmp_path, monkeypatch):
    """point_id encodes task parameters, not code identity: records
    stamped by a different commit must re-run, not silently mix two
    code versions' metrics into one artifact."""
    import repro.harness.exec.checkpoint as ckpt_mod

    path = tmp_path / "sweep.ckpt"
    monkeypatch.setattr(ckpt_mod, "current_git_sha", lambda cwd=None: "aaa111")
    ckpt_mod.Checkpoint(path).append(serial_reference[0])
    monkeypatch.setattr(ckpt_mod, "current_git_sha", lambda cwd=None: "bbb222")
    with pytest.warns(UserWarning, match="different commit"):
        assert ckpt_mod.Checkpoint(path).load() == {}
    # "unknown" on either side (no checkout) disables the check
    # instead of discarding finished work.
    monkeypatch.setattr(ckpt_mod, "current_git_sha", lambda cwd=None: "unknown")
    assert set(ckpt_mod.Checkpoint(path).load()) == {grid[0].point_id}


def test_resume_skips_completed_points(grid, serial_reference, tmp_path,
                                       monkeypatch):
    """The acceptance criterion: an interrupted sweep resumes without
    re-executing finished points."""
    path = tmp_path / "sweep.ckpt"
    # "Interrupted" run: only the first two points got done.
    first = execute(grid[:2], checkpoint=path)
    assert [p.result for p in first] == [p.result for p in serial_reference[:2]]

    import repro.harness.exec.serial as serial_mod

    executed = []
    real_run_task = serial_mod.run_task

    def counting_run_task(task):
        executed.append(task.point_id)
        return real_run_task(task)

    monkeypatch.setattr(serial_mod, "run_task", counting_run_task)
    resumed = execute(grid, checkpoint=path)
    # Only the three missing points ran; results are indistinguishable
    # from an uninterrupted sweep.
    assert executed == [task.point_id for task in grid[2:]]
    assert [p.result for p in resumed] == [p.result for p in serial_reference]
    # A third run re-executes nothing at all.
    executed.clear()
    again = execute(grid, checkpoint=path)
    assert executed == []
    assert [p.result for p in again] == [p.result for p in serial_reference]


def test_resume_progress_counts_the_whole_grid(grid, serial_reference,
                                               tmp_path):
    path = tmp_path / "sweep.ckpt"
    execute(grid[:2], checkpoint=path)
    seen: list[Progress] = []
    run_with_checkpoint(run_serial, grid, path, progress=seen.append)
    assert [s.done for s in seen] == list(range(1, len(grid) + 1))
    assert all(s.total == len(grid) for s in seen)
    # Journaled points replay first, with their recorded wall times.
    assert [s.last.task for s in seen[:2]] == grid[:2]


def test_checkpoint_composes_with_parallel_backends(grid, serial_reference,
                                                    tmp_path):
    """The journal is driven by the completion stream, so it works
    under either mode; a pool run resumes what a serial run started."""
    path = tmp_path / "sweep.ckpt"
    execute(grid[:1], checkpoint=path)
    resumed = execute(grid, jobs=2, checkpoint=path)
    assert [p.result for p in resumed] == [p.result for p in serial_reference]
    assert len(Checkpoint(path).load()) == len(grid)
