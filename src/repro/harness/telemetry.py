"""The harness's one wall-clock boundary.

Everything the harness *computes* is deterministic — simulated metrics
must be byte-identical across executors, hosts and repeat runs.  The
only legitimate uses of the host clock are telemetry (how long did the
sweep take, events per wall-second) and artifact timestamps, and they
all go through this module so the determinism checker (``repro lint``,
RPR001) can verify by inspection that no wall-clock read sits anywhere
near measured results.  Nothing here may influence a simulated value.
"""

from __future__ import annotations

import time


def wall_clock() -> float:
    """A monotonic high-resolution timestamp for elapsed-time telemetry.

    Only differences are meaningful; never store the absolute value in
    an artifact.
    """
    return time.perf_counter()


class Stopwatch:
    """Elapsed wall time since construction.

    The one idiom the harness needs: start before the work, read
    ``elapsed`` after it, report the difference as telemetry.
    """

    __slots__ = ("_started",)

    def __init__(self) -> None:
        self._started = wall_clock()

    @property
    def elapsed(self) -> float:
        return wall_clock() - self._started
