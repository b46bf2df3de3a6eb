"""Shared fixtures for the executor-backend tests.

One small but real grid — two protocols, two intervals, plus a
scenario point — executed serially once per session; every backend is
then judged against those reference results.
"""

import pytest

from repro.harness.exec.serial import SerialExecutor
from repro.harness.runner import SweepTask, order_grid, scenario_grid
from repro.harness.scenario import BUILTIN_SCENARIOS


def _small_grid() -> list[SweepTask]:
    grid = order_grid(
        ("ct", "sc"), ("md5-rsa1024",), (0.100, 0.250),
        n_batches=6, warmup_batches=2,
    )
    spec = BUILTIN_SCENARIOS["smr-closed-loop"].with_(duration=1.0, drain=1.0)
    return grid + scenario_grid(spec, seeds=(1,))


@pytest.fixture(scope="package")
def grid() -> list[SweepTask]:
    return _small_grid()


@pytest.fixture(scope="package")
def serial_reference(grid):
    """The reference results every backend must reproduce exactly."""
    return SerialExecutor().run(grid)
