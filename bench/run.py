#!/usr/bin/env python3
"""The perf ledger's one command.

    python bench/run.py [--workload NAME ...] [--seed N] [--seconds S]
                        [--trace 0|1] [--out DIR]

Runs the named workloads (default: all six in ``BENCHMARK.json``), each
in a process of its own, checks every output, prints each metric by
name with its unit, and ends each run with one JSON line ``{"correct",
"attempted", "failed", "metrics"}``: the end-to-end metrics, or with
``--trace 1`` the per-layer ones.  Every run is also added to
``results.json`` in ``--out``, so the runs written to one directory are
one set for ``compare.py``.  Exits 1 when a correctness check misses, 2
on a usage error.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"bench/run.py: nothing to measure: {ROOT / 'src' / 'repro'} is missing")
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import live_workloads  # noqa: E402
import sim_workloads  # noqa: E402
from common import InvalidRun, SpanLog  # noqa: E402

#: Hard wall-clock limit for one workload run.
WORKLOAD_TIMEOUT_S = 170


def _on_alarm(signo, frame):
    raise TimeoutError(f"workload exceeded its {WORKLOAD_TIMEOUT_S} s limit")


def _on_terminate(signo, frame):
    # Unwind through every ``finally`` and the cluster's context manager,
    # so that no child outlives us.
    sys.exit(128 + signo)


def run_workload(name: str, seed: int, seconds: float, traced: bool, out_dir: Path) -> dict:
    """One run of one workload: counts plus every metric measured."""
    spans = SpanLog()
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(WORKLOAD_TIMEOUT_S)
    try:
        if name in live_workloads.WORKLOADS:
            result = live_workloads.run(
                live_workloads.WORKLOADS[name], seed, seconds, out_dir, spans, traced
            )
        else:
            result = sim_workloads.run(name, seed, seconds, spans, traced)
        if traced:
            result["metrics"].update(layers.measure())
    finally:
        signal.alarm(0)
    if traced:
        spans.write(out_dir / f"trace_{name}.json")
    return result


def report(name: str, result: dict, benchmark: dict, traced: bool) -> dict:
    """Print the run's metrics; return the run's last-line JSON object."""
    measured = result["metrics"]
    missing = [m["name"] for m in benchmark["end_to_end"] if m["name"] not in measured]
    if missing:
        raise InvalidRun(f"{name}: did not measure {missing}")
    print(
        f"{name}: n={result['n']} attempted={result['attempted']} "
        f"committed={result['attempted'] - result['failed']} failed={result['failed']} "
        f"host.slowdown={measured['host.slowdown']:.3f}"
    )
    # The traced run prints both groups and reports the per-layer one.
    groups = ("end_to_end", "per_layer") if traced else ("end_to_end",)
    for group in groups:
        reported = {
            # A layer the workload does not exercise did no work: 0.
            m["name"]: {"value": float(measured.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in benchmark[group]
        }
        for metric, reading in reported.items():
            print(f"  {metric:<40} {reading['value']:>16.6g} {reading['unit']}")
    return {
        "correct": True,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": reported,
    }


def parse_args(argv: list[str] | None, benchmark: dict) -> argparse.Namespace:
    known = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload",
        action="append",
        choices=known,
        metavar="NAME",
        help=f"workload to run, repeatable (default: all of {', '.join(known)})",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=sim_workloads.DEFAULT_SEED,
        help="seed of the generated inputs (default %(default)s)",
    )
    parser.add_argument(
        "--seconds",
        type=float,
        default=float(benchmark["run_seconds"]),
        help="seconds each run measures (default %(default)s; 2 is the smoke test)",
    )
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        default=0,
        help="1 = the traced run that yields the per-layer metrics",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=ROOT / "bench" / "out",
        help="directory results.json is added to and spans and process logs go to",
    )
    parser.add_argument(
        "--write-expected",
        action="store_true",
        help="rewrite bench/expected.json from the current tree and exit",
    )
    args = parser.parse_args(argv)
    args.workload = args.workload or known
    return args


def main(argv: list[str] | None = None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, benchmark)
    if args.write_expected:
        document = json.dumps(sim_workloads.expected_document(), indent=1, sort_keys=True)
        sim_workloads.EXPECTED.write_text(document + "\n")
        return 0

    signal.signal(signal.SIGTERM, _on_terminate)
    if len(args.workload) > 1:
        return run_each(args)
    (name,) = args.workload
    traced = bool(args.trace)
    args.out.mkdir(parents=True, exist_ok=True)
    try:
        result = run_workload(name, args.seed, args.seconds, traced, args.out)
        record = report(name, result, benchmark, traced)
    except (InvalidRun, TimeoutError) as exc:
        print(f"bench/run.py: INVALID RUN: {exc}", file=sys.stderr)
        return 1
    results = args.out / "results.json"
    records = json.loads(results.read_text()) if results.exists() else []
    run_id = {"workload": name, "seed": args.seed, "seconds": args.seconds}
    # compare.py also judges metrics the result line does not carry.
    records.append({**run_id, "traced": traced, **record, "measured": result["metrics"]})
    results.write_text(json.dumps(records, indent=1) + "\n")
    print(json.dumps(record), flush=True)
    return 0


def run_each(args: argparse.Namespace) -> int:
    """One process per workload, as the driver runs them: set-up time
    and peak memory are a process's, and a child's ``ru_maxrss`` starts
    at its parent's resident size."""
    for name in args.workload:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed)]
        argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.Popen([*argv, "--out", str(args.out)])
        try:
            code = child.wait()
        finally:
            if child.poll() is None:
                child.terminate()  # it reaps its own cluster
                child.wait()
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
