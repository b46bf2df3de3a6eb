#!/usr/bin/env python3
"""Compare two result sets under the benchmark's bounds.

    python bench/compare.py A.json B.json

A and B are the ``results.json`` files of two ``--out`` directories
that ``bench/run.py`` wrote a set of runs into (ten seeds a side).  For
each (workload, metric) prints both medians, how much worse B's is as a
share of A's, the wider run-to-run spread of the two sides (quartile
distance over median), the bound and a verdict:

* ``pass``        the spread is within the metric's bound and B's median
                  is no worse than A's by more than the bound, or every
                  B run reads better than every A run;
* ``regress``     the spread is within the bound and B's median is worse
                  by more than it, or every B run reads worse than every
                  A run and the medians differ by more than the bound;
* ``unresolved``  the spread is wider than the bound and the runs
                  overlap: these runs cannot say;
* ``info``        the driver's contract makes every workload report
                  every metric; on this workload the metric restates
                  another or cannot move, so it is shown, not judged.

Exits 1 on any ``regress``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SIM = ("sim-order", "sim-scenarios")
OPEN = ("live-sc-steady", "live-sc-failover")
CLOSED = ("live-sc-closed", "live-bft-closed")
#: The issue's table: the workloads each metric is judged on and the
#: worsening that counts as a regression there.  ``BENCHMARK.json`` can
#: hold one bound per metric, relative, for a metric that every workload
#: reports and that is never 0; the noisiest workload sets that bound,
#: and where this one is tighter, this one applies.  Elsewhere a metric
#: restates another or cannot move: an open loop commits what it is
#: offered, a closed loop's latency is its window over its rate, a
#: simulator point has no latency limit and its CPU time is its wall time.
JUDGED = {
    "setup_s": (SIM + OPEN + CLOSED, 0.25),
    "throughput_per_s": (SIM + CLOSED, 0.10),
    "cpu_s_per_kunit": (OPEN + CLOSED, 0.10),
    "peak_rss_mb": (SIM + OPEN + CLOSED, 0.10),
    "latency_p50_ms": (OPEN, 0.10),
    "within_limit_share": (OPEN, 0.01),
    "live.commit_p90_ms": (("live-sc-steady",), 0.15),
    "live.failed_share": (OPEN + CLOSED, 0.001),
}
#: Judged on the difference, not on its share of the median (which is 0).
ABSOLUTE = ("live.failed_share",)


def load(path: str) -> dict[tuple[str, str], list[float]]:
    """``{(workload, metric): [value per run]}`` from a results file."""
    values: dict[tuple[str, str], list[float]] = {}
    for record in json.loads(Path(path).read_text()):
        if record["traced"]:
            continue  # end-to-end metrics are measured with tracing off
        for metric, value in record["measured"].items():
            values.setdefault((record["workload"], metric), []).append(value)
    return values


def spread(values: list[float], scale: float) -> float:
    """Distance between the quartiles, in units of ``scale``."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / scale


def verdict(
    a: list[float], b: list[float], better: str, bound: float, absolute: bool
) -> tuple[float, float, str]:
    """``(worsening, spread, verdict)`` for one (workload, metric).

    Worsening and spread are shares of the side's median, or plain
    differences when the bound is ``absolute``.
    """
    sign = 1.0 if better == "lower" else -1.0
    a_median, b_median = statistics.median(a), statistics.median(b)
    if absolute:
        scale_a = scale_b = 1.0
    elif a_median == 0 or b_median == 0:
        return 0.0, 0.0, "pass" if a_median == b_median else "unresolved"
    else:
        scale_a, scale_b = abs(a_median), abs(b_median)
    worse = sign * (b_median - a_median) / scale_a
    widest = max(spread(a, scale_a), spread(b, scale_b))
    if widest <= bound:
        return worse, widest, "pass" if worse <= bound else "regress"
    if max(sign * v for v in b) < min(sign * v for v in a):
        return worse, widest, "pass"
    if min(sign * v for v in b) > max(sign * v for v in a) and worse > bound:
        return worse, widest, "regress"
    return worse, widest, "unresolved"


def rows(benchmark: dict) -> list[tuple[str, str, str, float, bool]]:
    """``(workload, metric, better, bound, judged)`` for every row shown."""
    listed = {m["name"]: m for m in benchmark["per_layer"] + benchmark["end_to_end"]}
    out = []
    for workload in (w["name"] for w in benchmark["workloads"]):
        for name, (workloads, bound) in JUDGED.items():
            metric = listed[name]
            judged = workload in workloads
            if judged or "bound" in metric:  # every workload reports the end-to-end ones
                bound = min(bound, metric.get("bound", bound))
                out.append((workload, name, metric["better"], bound, judged))
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    a_values, b_values = load(argv[0]), load(argv[1])
    print(
        f"{'workload':<18}{'metric':<20}{'A':>12}{'B':>12}"
        f"{'worse':>9}{'spread':>9}{'bound':>8}  verdict"
    )
    regressed = False
    for workload, name, better, bound, judged in rows(benchmark):
        key = (workload, name)
        if key not in a_values or key not in b_values:
            print(f"{workload:<18}{name:<20} not measured on both sides")
            continue
        a, b = a_values[key], b_values[key]
        worse, widest, result = verdict(a, b, better, bound, name in ABSOLUTE)
        if not judged:
            result = "info"
        regressed |= result == "regress"
        share = ".4f" if name in ABSOLUTE else ".1%"
        print(
            f"{workload:<18}{name:<20}{statistics.median(a):>12.5g}"
            f"{statistics.median(b):>12.5g}{worse:>+9{share}}{widest:>9{share}}"
            f"{bound:>8{share}}  {result}"
        )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
