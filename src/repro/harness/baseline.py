"""Perf-regression gate: diff a benchmark artifact against a baseline.

:func:`compare` joins two ``BENCH_<figure>.json`` documents on their
stable point ids and flags any metric that got *worse* by more than a
tolerance: latency-like metrics regress upward, throughput regresses
downward.  Everything else in ``metrics`` (sample counts, observed
sizes) is carried for context but not gated.

The sweep metrics are deterministic simulation outputs, so on
unchanged code the diff is exactly zero; the tolerance absorbs
intentional small recalibrations without letting a real slowdown
through.  CI runs::

    python -m repro compare out/BENCH_fig4.json \\
        benchmarks/baselines/BENCH_fig4.json --tolerance 10

which exits non-zero when a regression is found.  The same entry point
is available as ``python -m repro.harness.baseline``.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.harness.artifact import BenchArtifact, load_artifact
from repro.harness.report import render_table

#: Default regression tolerance, percent.
DEFAULT_TOLERANCE_PCT = 10.0


def metric_direction(name: str) -> str | None:
    """``"lower"`` / ``"higher"`` is better, or ``None`` (not gated).

    Probes own their metrics' gate directions: the registry is
    consulted first (both bare names and the ``<probe>.<metric>``
    namespaced form scenario probe metrics use), so registering a new
    probe automatically gates what it declares.  The name heuristics
    remain as a fallback for metrics no probe claims (the scenario
    built-ins).
    """
    from repro.harness import probes as probe_registry

    direction = probe_registry.metric_direction(name)
    if direction is not None:
        return direction
    if name.startswith("latency") or name == "failover_latency":
        return "lower"
    if name.startswith("throughput"):
        return "higher"
    return None


@dataclass(frozen=True)
class MetricDelta:
    """One (point, metric) comparison."""

    point_id: str
    metric: str
    baseline: float
    current: float
    direction: str

    @property
    def delta_pct(self) -> float:
        if self.baseline == 0:
            return 0.0 if self.current == 0 else float("inf")
        return (self.current - self.baseline) / abs(self.baseline) * 100.0

    def regressed(self, tolerance_pct: float) -> bool:
        if self.direction == "lower":
            return self.delta_pct > tolerance_pct
        return self.delta_pct < -tolerance_pct


@dataclass
class BaselineReport:
    """The outcome of one artifact-vs-baseline comparison."""

    figure: str
    tolerance_pct: float
    deltas: list[MetricDelta] = field(default_factory=list)
    missing_points: list[str] = field(default_factory=list)
    new_points: list[str] = field(default_factory=list)
    missing_metrics: list[str] = field(default_factory=list)
    #: Informational wall-time telemetry (never gated): per shared
    #: point, ``(point_id, baseline_wall_s, current_wall_s)`` where a
    #: side without telemetry reports 0.0.
    wall_times: list[tuple[str, float, float]] = field(default_factory=list)
    #: Suite-level ``(baseline, current)`` telemetry, 0.0 when absent.
    suite_wall_s: tuple[float, float] = (0.0, 0.0)
    suite_events_per_s: tuple[float, float] = (0.0, 0.0)

    @property
    def regressions(self) -> list[MetricDelta]:
        return [d for d in self.deltas if d.regressed(self.tolerance_pct)]

    @property
    def ok(self) -> bool:
        """Pass unless a gated metric regressed, a baseline point
        vanished, or a gated metric vanished from a surviving point —
        silently dropped coverage is also a regression."""
        return (
            not self.regressions
            and not self.missing_points
            and not self.missing_metrics
        )

    def render(self) -> str:
        rows = [
            (
                d.point_id,
                d.metric,
                f"{d.baseline:.6g}",
                f"{d.current:.6g}",
                f"{d.delta_pct:+.1f}%",
                "REGRESSED" if d.regressed(self.tolerance_pct) else "ok",
            )
            for d in sorted(
                self.deltas,
                key=lambda d: (not d.regressed(self.tolerance_pct), d.point_id),
            )
        ]
        table = render_table(
            f"Baseline comparison — {self.figure} "
            f"(tolerance ±{self.tolerance_pct:g}%)",
            ("point", "metric", "baseline", "current", "delta", "verdict"),
            rows,
        )
        lines = [table]
        lines.extend(self._telemetry_lines())
        if self.missing_points:
            lines.append(f"missing vs baseline: {', '.join(self.missing_points)}")
        if self.new_points:
            lines.append(f"new (not in baseline): {', '.join(self.new_points)}")
        if self.missing_metrics:
            lines.append(
                f"gated metrics gone: {', '.join(self.missing_metrics)}"
            )
        lines.append(
            "PASS" if self.ok
            else f"FAIL: {len(self.regressions)} regression(s), "
                 f"{len(self.missing_points)} missing point(s), "
                 f"{len(self.missing_metrics)} vanished metric(s)"
        )
        return "\n".join(lines)

    def _telemetry_lines(self) -> list[str]:
        """Wall-time columns — informational only, never part of the
        verdict (wall time is machine-dependent).  A side without a
        usable measurement renders as '-'."""
        rows = []
        for point_id, base_wall, cur_wall in self.wall_times:
            if base_wall <= 0.0 and cur_wall <= 0.0:
                continue
            delta = (
                f"{(cur_wall - base_wall) / base_wall * 100.0:+.0f}%"
                if base_wall > 0.0 and cur_wall > 0.0 else "-"
            )
            rows.append((
                point_id,
                f"{base_wall:.2f}" if base_wall > 0.0 else "-",
                f"{cur_wall:.2f}" if cur_wall > 0.0 else "-",
                delta,
            ))
        if not rows:
            return []
        lines = ["", render_table(
            f"Wall-time telemetry — {self.figure} (informational, not gated)",
            ("point", "baseline (s)", "current (s)", "delta"),
            rows,
        )]
        base_eps, cur_eps = self.suite_events_per_s
        base_wall, cur_wall = self.suite_wall_s
        summary = [f"suite wall: {cur_wall:.1f}s"]
        if base_wall > 0.0:
            summary.append(f"(baseline {base_wall:.1f}s)")
        if cur_eps > 0.0:
            summary.append(f"— {cur_eps:,.0f} events/s")
            if base_eps > 0.0:
                summary.append(f"(baseline {base_eps:,.0f})")
        lines.append(" ".join(summary))
        return lines


def compare(
    current: BenchArtifact,
    baseline: BenchArtifact,
    tolerance_pct: float = DEFAULT_TOLERANCE_PCT,
) -> BaselineReport:
    """Diff ``current`` against ``baseline`` point-by-point."""
    if current.figure != baseline.figure:
        raise ConfigError(
            f"artifact figures differ: {current.figure!r} vs {baseline.figure!r}"
        )
    current_points = current.point_by_id()
    baseline_points = baseline.point_by_id()
    report = BaselineReport(figure=current.figure, tolerance_pct=tolerance_pct)
    report.missing_points = sorted(set(baseline_points) - set(current_points))
    report.new_points = sorted(set(current_points) - set(baseline_points))
    report.suite_wall_s = (baseline.wall_time_s, current.wall_time_s)
    report.suite_events_per_s = (
        baseline.events_per_second, current.events_per_second
    )
    for point_id in sorted(set(current_points) & set(baseline_points)):
        report.wall_times.append((
            point_id,
            float(baseline_points[point_id].get("wall_time_s") or 0.0),
            float(current_points[point_id].get("wall_time_s") or 0.0),
        ))
        base_metrics = baseline_points[point_id]["metrics"]
        cur_metrics = current_points[point_id]["metrics"]
        for metric in sorted(base_metrics):
            direction = metric_direction(metric)
            if direction is None:
                continue
            # A gated metric the baseline measured but the current run
            # no longer reports is lost coverage, not a pass.
            if metric not in cur_metrics:
                report.missing_metrics.append(f"{point_id}:{metric}")
                continue
            report.deltas.append(
                MetricDelta(
                    point_id=point_id,
                    metric=metric,
                    baseline=base_metrics[metric],
                    current=cur_metrics[metric],
                    direction=direction,
                )
            )
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Diff a BENCH_*.json artifact against a committed baseline"
    )
    parser.add_argument("current", help="artifact from the run under test")
    parser.add_argument("baseline", help="committed baseline artifact")
    parser.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE_PCT,
        help="allowed worsening, percent (default %(default)s)",
    )
    args = parser.parse_args(argv)
    try:
        report = compare(
            load_artifact(args.current),
            load_artifact(args.baseline),
            tolerance_pct=args.tolerance,
        )
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.render())
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
