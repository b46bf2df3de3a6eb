"""Cross-validate live runs against the simulator.

Two halves:

* :func:`write_live_artifact` — called by the ``repro serve``
  controller after a run: merges every node's trace records (shared
  epoch, so a timestamp sort reconstructs cluster order), streams them
  through the *same* registered probes the simulated drivers use
  (:func:`repro.harness.probes.replay_records`), and writes the result
  as a schema-v3 ``BENCH_live_<protocol>.json`` whose points sit next
  to simulated ones in any comparator.

* :func:`compare_live` — the ``repro compare --live`` body: pair each
  live point with its simulated counterpart (matched on protocol, f
  and x = batching interval; taken from a baseline artifact, or
  simulated on the fly when no baseline is given) and render the
  side-by-side latency/throughput curves with live/sim ratios.

The comparison is deliberately **informational**, not gated: live
numbers carry real-kernel scheduling noise and real crypto timings;
what the cross-check establishes is that the protocol logic driven by
a wall clock and TCP produces the same *shape* — curves that track the
simulated ones — not bit-identical scalars.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.harness import artifact as artifact_mod
from repro.harness.probes import ProbeContext, merge_node_records, replay_records
from repro.harness.runner import ORDER, SweepTask, run_task

#: Probes every live artifact point is measured by.  The recovery
#: timeline is always included: a clean run reports zeros, a chaos or
#: restart run reports detection/rejoin/outage figures, and either way
#: the artifact schema stays identical across run styles.
LIVE_POINT_PROBES = ("order-latency", "throughput", "recovery-timeline")
#: Probes added when the run injected faults.
LIVE_FAILOVER_PROBES = ("failover",)
#: On-the-fly sim counterparts keep the batch budget small: the point
#: is curve shape, not publication-grade averages.
ONTHEFLY_BATCHES = 40
ONTHEFLY_WARMUP = 5

#: Metrics rendered side by side, with their units.
_COMPARED_METRICS = (
    ("latency_mean", "s"),
    ("latency_p95", "s"),
    ("throughput", "req/s"),
)


def live_point_id(protocol: str, scheme: str, f: int,
                  batching_interval: float, seed: int) -> str:
    return f"live-order/{protocol}/{scheme}/f{f}/i{batching_interval:g}/s{seed}"


def build_live_point(
    reports: dict[str, dict],
    protocol: str,
    scheme: str,
    f: int,
    seed: int,
    batching_interval: float,
    duration: float | None,
    warmup: float,
    with_failover: bool = False,
) -> dict:
    """One schema-v3 point from a cluster's node reports."""
    records = merge_node_records(
        {name: report.get("records", ()) for name, report in reports.items()}
    )
    end = duration if duration is not None else (
        max((r.time for r in records), default=warmup)
    )
    probes = LIVE_POINT_PROBES + (LIVE_FAILOVER_PROBES if with_failover else ())
    context = ProbeContext(
        protocol=protocol,
        scheme=scheme,
        f=f,
        seed=seed,
        batching_interval=batching_interval,
        window_start=warmup,
        window_end=end,
        warmup_batches=0,
        min_samples=0,
        label=f"live {protocol} f={f}",
    )
    report = replay_records(records, probes, context)
    return {
        "id": live_point_id(protocol, scheme, f, batching_interval, seed),
        "kind": "live-order",
        "protocol": protocol,
        "scheme": scheme,
        "f": f,
        "x": batching_interval,
        "probes": list(report.probes),
        "metrics": report.metrics(),
        "wall_time_s": float(end),
        "events": report.events_processed,
        "events_per_second": (
            report.events_processed / end if end > 0 else 0.0
        ),
    }


def write_live_artifact(
    reports: dict[str, dict],
    protocol: str,
    scheme: str,
    f: int,
    seed: int,
    batching_interval: float,
    duration: float | None,
    warmup: float,
    json_dir: str | Path,
    with_failover: bool | None = None,
) -> Path:
    """Measure one live run and write ``BENCH_live_<protocol>.json``."""
    if with_failover is None:
        # A killed node never reports (it hard-exits), so also accept
        # the survivors' word that someone crashed.
        with_failover = any(report.get("crashed") for report in reports.values())
    point = build_live_point(
        reports, protocol, scheme, f, seed, batching_interval,
        duration, warmup, with_failover=with_failover,
    )
    doc = artifact_mod.from_points(
        figure=f"live_{protocol}",
        points=[point],
        params={
            "runtime": "live",
            "protocol": protocol,
            "scheme": scheme,
            "f": f,
            "seed": seed,
            "batching_interval": batching_interval,
            "duration": duration,
            "replicas": sorted(reports),
        },
        wall_time_s=float(duration or point["wall_time_s"]),
    )
    return artifact_mod.write_artifact(doc, json_dir)


def _sim_counterpart(point: dict, baseline) -> dict | None:
    """The simulated point matching a live one, from a baseline
    artifact: same protocol, f, and x (the batching interval)."""
    for candidate in baseline.points:
        if (
            candidate.get("kind") in ("order", "live-order")
            and candidate.get("protocol") == point["protocol"]
            and candidate.get("f") == point["f"]
            and abs(float(candidate.get("x", -1)) - float(point["x"])) < 1e-9
        ):
            return candidate
    return None


def _simulate_counterpart(point: dict) -> dict:
    """No baseline given: run the simulated point on the fly."""
    report = run_task(SweepTask(
        kind=ORDER,
        protocol=point["protocol"],
        scheme=point["scheme"],
        batching_interval=float(point["x"]),
        f=int(point["f"]),
        n_batches=ONTHEFLY_BATCHES,
        warmup_batches=ONTHEFLY_WARMUP,
    )).result
    return {
        "id": f"sim-onthefly/{point['protocol']}/f{point['f']}/i{point['x']:g}",
        "kind": "order",
        "protocol": report.protocol,
        "scheme": report.scheme,
        "f": report.f,
        "x": point["x"],
        "probes": list(report.probes),
        "metrics": report.metrics(),
    }


def compare_live(
    live_path: str | Path,
    baseline_path: str | Path | None = None,
    out=None,
) -> int:
    """Render live-vs-simulated curves for every live point.

    Returns 0 when every live point found (or produced) a simulated
    counterpart, 1 otherwise.
    """
    if out is None:
        out = sys.stdout
    live = artifact_mod.load_artifact(live_path)
    baseline = (
        artifact_mod.load_artifact(baseline_path)
        if baseline_path is not None else None
    )
    missing = 0
    print(f"live artifact:     {live_path} (figure {live.figure})", file=out)
    print(
        f"sim counterpart:   "
        f"{baseline_path if baseline_path is not None else 'simulated on the fly'}",
        file=out,
    )
    for point in live.points:
        if baseline is not None:
            sim = _sim_counterpart(point, baseline)
        else:
            sim = _simulate_counterpart(point)
        header = (
            f"\n{point['protocol']} f={point['f']} "
            f"x={point['x']:g} ({point['id']})"
        )
        print(header, file=out)
        if sim is None:
            missing += 1
            print("  no simulated counterpart in the baseline", file=out)
            continue
        print(f"  {'metric':<16} {'live':>12} {'sim':>12} {'live/sim':>9}", file=out)
        for metric, unit in _COMPARED_METRICS:
            live_value = point["metrics"].get(metric)
            sim_value = sim["metrics"].get(metric)
            if live_value is None or sim_value is None:
                continue
            ratio = (live_value / sim_value) if sim_value else float("inf")
            print(
                f"  {metric:<16} {live_value:>10.5f} {unit:<2}"
                f" {sim_value:>9.5f} {unit:<2} {ratio:>8.2f}x",
                file=out,
            )
    if missing:
        print(f"\n{missing} live point(s) had no simulated counterpart", file=out)
        return 1
    return 0
