"""Sweep execution: a grid of pure tasks in, results in task order out.

The execution half of the sweep runner.  Two local modes map a grid
of :class:`~repro.harness.runner.SweepTask` values to
:class:`~repro.harness.runner.PointResult` lists **in submission
order**, and :func:`~repro.harness.runner.default_executor` picks
between them from ``jobs`` and the grid size —

* :func:`run_serial` — in-process loop, the reference implementation;
* :func:`run_pool` — a local ``ProcessPoolExecutor`` fan-out with at
  most ``jobs`` tasks in flight.

Both are regression-tested byte-identical for the same grid and share
one failure contract: a :class:`~repro.errors.SweepError` naming the
point, with the cause chained, never a ``None`` hole in the results.
Two layers compose with either mode:

* :mod:`~repro.harness.exec.schedule` — cost-aware dispatch
  (expensive tasks first; prior-artifact ``events`` telemetry as the
  cost oracle when available);
* :mod:`~repro.harness.exec.checkpoint` — journal finished points and
  resume interrupted sweeps.

Most callers go through :func:`repro.harness.runner.execute`.
"""

from repro.harness.exec.checkpoint import Checkpoint, run_with_checkpoint
from repro.harness.exec.pool import run_pool
from repro.harness.exec.schedule import (
    dispatch_order,
    load_cost_hints,
    predicted_cost,
)
from repro.harness.exec.serial import run_serial

__all__ = [
    "Checkpoint",
    "dispatch_order",
    "load_cost_hints",
    "predicted_cost",
    "run_pool",
    "run_serial",
    "run_with_checkpoint",
]
