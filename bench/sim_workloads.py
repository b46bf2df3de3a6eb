"""The two simulator workloads, driven through the public harness API.

``sim-order`` runs failure-free order points through
``repro.harness.runner.run_task``; ``sim-scenarios`` runs the six
builtin scenarios through ``repro.harness.scenario.run_scenario`` with
the scale-only probes attached.  Every point does identical work on
every repeat, so the fastest repeat is the one with the least
interference and is the time kept; repeats are whole sweeps, not one
point N times, so a slow phase of the host cannot hit every repeat of
one point.  Each point's times are divided by the host's slowdown read
just before and just after it (``common.HostSpeed``).
"""

from __future__ import annotations

import dataclasses
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from repro.harness.runner import SweepTask, run_task
from repro.harness.scenario import BUILTIN_SCENARIOS, build_scenario, run_scenario
from common import REFERENCE_PROBE_S, HostSpeed, InvalidRun, SpanLog, program_env

EXPECTED = Path(__file__).resolve().parent / "expected.json"
#: The seed whose event counts and metrics are committed in expected.json.
DEFAULT_SEED = 1
#: Cold set-ups timed per run; the median is reported.
SETUP_REPEATS = 15
#: Every point runs at least twice, so that repeats can be compared;
#: ``--seconds`` buys further sweeps while half of one still fits.
MIN_SWEEPS = 2
#: Reference loops timed between points (~50 ms).
PROBE_LOOPS = 50

#: (protocol, batching interval, measured batches): 10 ms where the
#: order-latency probe still measures its five batches on every seed
#: (BFT needs 20 ms, SCR 50 ms).  SC and CT are 1.6 s points of
#: 180-240k events; BFT and SCR are halved so that three sweeps fit.
ORDER_POINTS = (
    ("sc", 0.01, 1000),
    ("bft", 0.02, 250),
    ("ct", 0.01, 1000),
    ("scr", 0.05, 250),
)
#: Builtin scenario durations are multiplied by this.
SCENARIO_SCALE = 2.0
SCALE_PROBES = ("client-fairness", "queue-depth", "crypto-cost")

_SETUP_CODE = """
import repro.protocols as protocols
from repro.harness.cluster import build_cluster
from repro.harness.runner import resolve_calibration
import repro.harness.scenario
config = protocols.get("sc").configure(scheme="md5-rsa1024", f=2, batching_interval=0.02)
build_cluster("sc", config=config, calibration=resolve_calibration("paper"), seed=1)
"""



def _order_point(task: SweepTask) -> tuple:
    result = run_task(task)
    return result.events_processed, result.metrics(), task.protocol


def _scenario_point(spec) -> tuple:
    result = run_scenario(spec)
    if not result.safety_ok:
        raise InvalidRun(f"{spec.name}: committed histories disagree")
    return result.events_processed, result.metrics(), spec.protocol


def points_of(name: str, seed: int) -> tuple[dict, object]:
    """The workload's sweep points and the function that runs one,
    returning ``(events, metrics, protocol)``."""
    if name == "sim-order":
        tasks = {
            f"{protocol}@{interval:g}": SweepTask(
                kind="order", protocol=protocol, scheme="md5-rsa1024", f=2, seed=seed,
                batching_interval=interval, n_batches=batches,
            )  # fmt: skip
            for protocol, interval, batches in ORDER_POINTS
        }
        return tasks, _order_point
    specs = {
        spec_name: dataclasses.replace(
            spec, duration=spec.duration * SCENARIO_SCALE, probes=SCALE_PROBES, seed=seed
        )
        for spec_name, spec in BUILTIN_SCENARIOS.items()
    }
    return specs, _scenario_point


def setup_seconds() -> float:
    """Median wall time of a cold set-up: interpreter start, imports,
    calibration and one cluster build, in a fresh process each time."""
    env = program_env()
    walls = []
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        # No timeout: with one, subprocess polls in steps of up to 50 ms.
        subprocess.run([sys.executable, "-c", _SETUP_CODE], env=env, check=True)
        walls.append(time.monotonic() - start)
    return statistics.median(walls)


def run(name: str, seed: int, seconds: float, spans: SpanLog, traced: bool) -> dict:
    """Run one simulator workload; returns counts plus every metric it
    can measure (end-to-end and per-layer alike, keyed by metric name)."""
    points, execute = points_of(name, seed)
    spans.enabled = traced
    outcome: dict[str, tuple] = {}
    walls: dict[str, list[float]] = {point: [] for point in points}
    cpus: dict[str, list[float]] = {point: [] for point in points}
    speed = HostSpeed()
    before = speed.sample(PROBE_LOOPS)
    sweeps, began = 0, time.monotonic()

    def another_fits() -> bool:
        return (time.monotonic() - began) * (sweeps + 0.5) <= seconds * sweeps

    while sweeps < MIN_SWEEPS or another_fits():
        for point, subject in points.items():
            # The previous point's garbage is not this point's work.
            gc.collect()
            cpu_start, start = time.process_time(), time.monotonic()
            result = execute(subject)
            wall, cpu = time.monotonic() - start, time.process_time() - cpu_start
            if spans.enabled:
                spans.record(f"{name}.point", point, start)
            after = speed.sample(PROBE_LOOPS)
            slowdown = (before + after) / 2 / REFERENCE_PROBE_S
            walls[point].append(wall / slowdown)
            cpus[point].append(cpu / slowdown)
            before = after
            if outcome.setdefault(point, result) != result:
                raise InvalidRun(f"{point}: repeats differ in event count or metrics")
        sweeps += 1
    _check_expected(name, seed, outcome)

    events = sum(result[0] for result in outcome.values())
    best = [min(samples) for samples in walls.values()]
    attempted = sweeps * len(points)
    metrics = {
        "setup_s": setup_seconds(),
        "throughput_per_s": events / sum(best),
        "cpu_s_per_kunit": sum(min(samples) for samples in cpus.values()) / events * 1000.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "latency_p50_ms": statistics.mean(best) * 1e3,
        # Every point that ran passed its checks, or the run is invalid.
        "within_limit_share": 1.0,
        "host.slowdown": speed.slowdown,
    }
    for count, _, protocol in outcome.values():
        key = f"sim.events.{protocol}"
        metrics[key] = metrics.get(key, 0) + count
    if traced and name == "sim-scenarios":
        metrics["sim.records_kept"] = sum(_records_kept(spec) for spec in points.values())
    return {"attempted": attempted, "failed": 0, "n": attempted, "metrics": metrics}


def _records_kept(spec) -> int:
    """Trace records the scenario's keep-filter retains over one run."""
    cluster, _ = build_scenario(spec)
    cluster.start()
    cluster.run(until=spec.duration + spec.drain)
    return len(cluster.sim.trace.records)


def _check_expected(name: str, seed: int, outcome: dict[str, tuple]) -> None:
    """At the default seed the simulator's outputs are committed."""
    if seed != DEFAULT_SEED:
        return
    expected = json.loads(EXPECTED.read_text())[name]
    got = _as_expected(outcome)
    if got != expected:
        wrong = sorted(p for p in got | expected if got.get(p) != expected.get(p))
        raise InvalidRun(f"{name}: differs from expected.json at seed {seed} on {wrong}")


def _as_expected(outcome: dict[str, tuple]) -> dict:
    return {point: {"events": r[0], "metrics": r[1]} for point, r in outcome.items()}


def expected_document() -> dict:
    """What ``expected.json`` holds: every point's outputs at the default seed."""
    doc = {}
    for name in ("sim-order", "sim-scenarios"):
        points, execute = points_of(name, DEFAULT_SEED)
        doc[name] = _as_expected({point: execute(s) for point, s in points.items()})
    return doc
