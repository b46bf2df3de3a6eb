"""What both kinds of workload share: where the repo is, the exception
a missed check raises, the host-speed probe and the in-memory span log.

A span is ``(name, trace_id, start, end, parent)``: the layer boundary
it wraps, the identifier its request (or sweep point) shares across
spans, monotonic start/end seconds and the name of the span that caused
it.  Spans stay in memory while a workload runs and are written out
once, after measuring, so recording costs two clock reads and one list
append.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
#: Spans written per trace file; the aggregates cover every span.
MAX_SPANS_WRITTEN = 50_000


def program_env() -> dict[str, str]:
    """The environment child processes run the program under."""
    return dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))


#: Iterations of the reference loop, and the CPU seconds they take on
#: the sizing box while its host is quiet.
PROBE_ITERATIONS = 15_000
REFERENCE_PROBE_S = 1.05e-3


class HostSpeed:
    """How slowly the host runs bytecode during a stretch of a run.

    The sizing box's host changes speed for 10-25 s at a time: the same
    pure-Python loop takes 1.0 or 1.4 units of CPU time, and every
    CPU-bound reading moves with it.  ``sample`` times a fixed loop of
    small-integer arithmetic on this thread's CPU clock, so time spent
    descheduled does not count; ``slowdown`` is the mean reading over
    the reference: 1.0 on the quiet sizing box, above it on a slower
    host.  CPU-bound metrics are divided (rates multiplied) by it, which
    states them at the reference speed.
    """

    def __init__(self) -> None:
        self.readings: list[float] = []

    def sample(self, loops: int = 1) -> float:
        """Run the reference loop ``loops`` times; CPU seconds per loop."""
        start = time.thread_time()
        for _ in range(loops):
            x = 0
            for i in range(PROBE_ITERATIONS):
                x = (x * 3 + i) % 1021
        reading = (time.thread_time() - start) / loops
        self.readings.append(reading)
        return reading

    @property
    def slowdown(self) -> float:
        return sum(self.readings) / len(self.readings) / REFERENCE_PROBE_S


class InvalidRun(Exception):
    """A correctness or validity check missed; the run reports nothing."""


class SpanLog:
    """Span sink for one traced workload run.

    ``enabled`` gates recording, so traced seconds of a run can be
    compared with untraced seconds on the same cluster.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[tuple[str, object, float, float, str | None]] = []

    def record(
        self, name: str, trace_id: object, start: float, parent: str | None = None
    ) -> None:
        """Close a span opened at ``start`` (a ``time.monotonic`` read)."""
        self.spans.append((name, trace_id, start, time.monotonic(), parent))

    def mean_us(self, name: str) -> float:
        """Mean duration of the spans called ``name``, in microseconds."""
        durations = [end - start for n, _, start, end, _ in self.spans if n == name]
        return sum(durations) / len(durations) * 1e6 if durations else 0.0

    def write(self, path: Path) -> None:
        rows = [
            {"name": n, "id": i, "start": s, "end": e, "parent": p}
            for n, i, s, e, p in self.spans[:MAX_SPANS_WRITTEN]
        ]
        doc = {"spans_recorded": len(self.spans), "spans": rows}
        path.write_text(json.dumps(doc) + "\n")
