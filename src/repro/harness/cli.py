"""The ``python -m repro`` command line.

One argparse tree over the figure table (:mod:`repro.harness.figures`),
the sweep runner, declarative scenarios and the registries::

    python -m repro fig4 --quick
    python -m repro suite --figures fig4,fig5 --jobs 4 --json-dir out/
    python -m repro compare out/BENCH_fig4.json baselines/BENCH_fig4.json
    python -m repro scenario bursty-load --seeds 1,2,3 --jobs 4

The live-cluster and lint subcommands import their
implementation only while the parser is built, so importing this
module pulls in neither asyncio and the live stack nor the analyser.
"""

from __future__ import annotations

import argparse
import sys

import repro.harness.probes as probe_registry
import repro.protocols as protocols
from repro.core.config import ProtocolConfig
from repro.errors import ConfigError, ReproError
from repro.harness.artifact import (
    artifact_path,
    from_results,
    load_artifact,
    write_artifact,
)
from repro.harness.baseline import DEFAULT_TOLERANCE_PCT, compare
from repro.harness.baseline import main as baseline_main
from repro.harness.exec import load_cost_hints
from repro.harness.figures import FIGURES, figure_tasks
from repro.harness.report import render_table
from repro.harness.runner import (
    default_executor,
    execute,
    print_progress,
    scenario_grid,
)
from repro.harness.scenario import (
    dump_spec,
    render_builtins,
    render_results,
    resolve_spec,
    run_scenario,
)
from repro.harness.telemetry import Stopwatch


def _parse_probes(arg: str | None) -> tuple[str, ...] | None:
    """``--probes a,b`` to validated names (``None`` = defaults)."""
    if arg is None:
        return None
    selected = tuple(name.strip() for name in arg.split(",") if name.strip())
    if not selected:
        raise ConfigError("--probes names no probes")
    return probe_registry.validate_names(selected)


def _execute(args, tasks: list, progress, cost_hints=None) -> tuple[list, str]:
    """Run ``tasks`` as ``--jobs``/``--resume`` say; returns the
    results and the mode that ran them (artifacts record it)."""
    results = execute(
        tasks, jobs=args.jobs,
        progress=progress,
        checkpoint=args.resume,
        cost_hints=cost_hints,
    )
    return results, default_executor(args.jobs, len(tasks))


def _sweep_params(args, figure: str, executor: str) -> dict:
    params = {
        "figure": figure,
        "quick": bool(args.quick),
        "seed": args.seed,
        "jobs": args.jobs,
        "executor": executor,
    }
    if args.probes:
        params["probes"] = list(_parse_probes(args.probes))
    return params


def _cmd_figure(args) -> int:
    figure = args.command
    tasks = figure_tasks(figure, args.quick, args.seed,
                         probes=_parse_probes(args.probes))
    watch = Stopwatch()
    results, executor = _execute(
        args, tasks, print_progress if args.progress else None
    )
    wall = watch.elapsed
    if args.json_dir:
        params = _sweep_params(args, figure, executor)
        # Population points record their seeded arrival-stream
        # fingerprint: a loopback `repro load --population` run with
        # the same seed must reproduce these digests bit for bit.
        digests = {
            p.task.point_id: p.result.stream_digest
            for p in results
            if getattr(p.result, "stream_digest", "")
        }
        if digests:
            params["stream_digests"] = digests
        artifact = from_results(figure, results, params=params, wall_time_s=wall)
        path = write_artifact(artifact, args.json_dir)
        print(f"wrote {path}", file=sys.stderr)
    FIGURES[figure].render(results)
    return 0


def _cmd_suite(args) -> int:
    figures = [name.strip() for name in args.figures.split(",") if name.strip()]
    unknown = [name for name in figures if name not in FIGURES]
    if unknown:
        raise ConfigError(f"unknown figures {unknown}; known: {tuple(FIGURES)}")

    probes = _parse_probes(args.probes)
    grids = {
        figure: figure_tasks(figure, args.quick, args.seed, probes=probes)
        for figure in figures
    }
    # Figures sharing identical sweep points (fig4/fig5 measure the
    # same runs) execute each unique task once; tasks are values, so
    # deduplication is plain hashing.
    unique = list(dict.fromkeys(
        task for figure in figures for task in grids[figure]
    ))
    requested = sum(len(grid) for grid in grids.values())
    print(
        f"suite: {', '.join(figures)} — {requested} points requested, "
        f"{len(unique)} unique, jobs={args.jobs}",
        file=sys.stderr,
    )
    watch = Stopwatch()
    # A prior run's artifacts are a perfect cost oracle (deterministic
    # per-point event counts): dispatch the expensive points first so
    # the slowest task never straggles at the tail of the sweep.
    results, executor = _execute(
        args, unique, None if args.no_progress else print_progress,
        cost_hints=load_cost_hints(args.baseline_dir),
    )
    wall = watch.elapsed
    by_task = dict(zip(unique, results))

    rows = []
    artifacts = {}
    for figure in figures:
        figure_results = [by_task[task] for task in grids[figure]]
        artifact = from_results(
            figure, figure_results, params=_sweep_params(args, figure, executor)
        )
        path = write_artifact(artifact, args.json_dir)
        artifacts[figure] = artifact
        rows.append((figure, len(figure_results),
                     f"{artifact.wall_time_s:.1f}",
                     f"{artifact.events_per_second:,.0f}", str(path)))
    # Unique runs only: figures sharing points (fig4/fig5) would
    # double-count their events in the suite-level rate.
    total_events = sum(r.events_processed for r in results)
    print(render_table(
        f"Benchmark suite — {len(unique)} runs in {wall:.1f}s wall "
        f"({total_events / wall:,.0f} events/s)",
        ("figure", "points", "cpu time (s)", "events/s", "artifact"),
        rows,
    ))

    exit_code = 0
    if args.baseline_dir:
        for figure in figures:
            report = compare(
                artifacts[figure],
                load_artifact(artifact_path(args.baseline_dir, figure)),
                tolerance_pct=args.tolerance,
            )
            print()
            print(report.render())
            if not report.ok:
                exit_code = 1
    return exit_code


def _cmd_compare(args) -> int:
    if args.live:
        from repro.live.validate import compare_live

        return compare_live(args.current, args.baseline)
    if args.baseline is None:
        raise ConfigError(
            "compare needs a baseline artifact (only --live may omit it, "
            "by simulating the counterpart on the fly)"
        )
    return baseline_main(
        [args.current, args.baseline, "--tolerance", str(args.tolerance)]
    )


def _cmd_scenario(args) -> int:
    if args.list or args.target is None:
        print(render_builtins())
        return 0

    spec = resolve_spec(args.target)
    if args.seed is not None:
        spec = spec.with_(seed=args.seed)
    if args.probes is not None:
        spec = spec.with_(probes=_parse_probes(args.probes))
    if args.dump:
        print(dump_spec(spec))
        return 0

    if args.seeds:
        try:
            seeds = tuple(int(s) for s in args.seeds.split(",") if s.strip())
        except ValueError:
            raise ConfigError(
                f"--seeds wants comma-separated integers, got {args.seeds!r}"
            ) from None
        if not seeds:
            raise ConfigError("--seeds names no seeds")
        points, _ = _execute(
            args, scenario_grid(spec, seeds=seeds), print_progress
        )
        results = [p.result for p in points]
    else:
        results = [run_scenario(spec)]

    print(f"scenario {spec.name!r}: protocol={spec.protocol} f={spec.f} "
          f"scheme={spec.scheme} duration={spec.duration:g}s", file=sys.stderr)
    print(render_results(spec, results))
    return 0 if all(r.safety_ok for r in results) else 1


def _cmd_probes(args) -> int:
    """List registered probes, or describe one in detail."""
    if args.name:
        cls = probe_registry.get(args.name)
        directions = dict(cls.directions)
        print(f"{cls.name} — {cls.description}")
        print(f"  consumes : {', '.join(sorted(cls.kinds))}")
        print("  metrics  :")
        for metric in cls.provides:
            gate = directions.get(metric)
            note = f"gated ({gate} is better)" if gate else "informational"
            print(f"    {metric:<24} {note}")
        return 0
    rows = [
        (
            cls.name,
            ", ".join(cls.provides),
            ", ".join(sorted(cls.kinds)),
            cls.description,
        )
        for cls in probe_registry.all_probes()
    ]
    print(render_table(
        "Registered measurement probes (repro.harness.probes)",
        ("name", "metrics", "trace kinds", "description"),
        rows,
    ))
    return 0


def _cmd_protocols(args) -> int:
    ProtocolConfig(f=args.f)  # refuses f < 1, as every run does
    rows = [
        (
            plugin.name,
            f"{plugin.n(args.f)} (f={args.f})",
            "yes" if plugin.uses_pairs else "no",
            "yes" if plugin.supports_failover else "no",
            plugin.description,
        )
        for plugin in protocols.all_protocols()
    ]
    print(render_table(
        "Registered protocol plugins (repro.protocols)",
        ("name", "n(f)", "pairs", "failover", "description"),
        rows,
    ))
    return 0


def _add_sweep_options(parser, json_dir_default=None) -> None:
    parser.add_argument("--quick", action="store_true", help="fewer points/batches")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (1 = serial, in-process)")
    parser.add_argument("--resume", default=None, metavar="JOURNAL",
                        help="checkpoint journal: finished points are "
                             "appended here as they complete, and points "
                             "already journaled are not re-run")
    parser.add_argument("--probes", default=None, metavar="P1,P2",
                        help="probe selection for every point (default: "
                             "each experiment's paper probes; see "
                             "`repro probes`)")
    parser.add_argument("--json-dir", default=json_dir_default,
                        help="write BENCH_<figure>.json artifacts here")


def _add_scenario_arguments(parser) -> None:
    parser.add_argument(
        "target", nargs="?", default=None,
        help="builtin scenario name or a .json/.toml spec file",
    )
    parser.add_argument(
        "--list", action="store_true", help="list built-in scenarios"
    )
    parser.add_argument(
        "--dump", action="store_true",
        help="print the resolved spec as JSON and exit (spec-file template)",
    )
    parser.add_argument("--seed", type=int, default=None,
                        help="override the spec's seed")
    parser.add_argument("--probes", default=None, metavar="P1,P2",
                        help="attach these measurement probes (overrides "
                             "the spec's own selection; see `repro probes`)")
    parser.add_argument("--seeds", default=None,
                        help="comma-separated seeds: run a grid via the runner")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for --seeds grids")
    parser.add_argument("--resume", default=None, metavar="JOURNAL",
                        help="checkpoint journal for --seeds grids: "
                             "completed seeds are skipped on re-run")


def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree; every subparser carries its ``handler``."""
    from repro.analysis.cli import add_lint_arguments, cmd_lint
    from repro.live.client import add_load_arguments, cmd_load
    from repro.live.cluster import add_serve_arguments, cmd_serve

    parser = argparse.ArgumentParser(
        prog="repro", description="Reproduce the paper's figures"
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def command(name: str, handler, **kwargs) -> argparse.ArgumentParser:
        subparser = sub.add_parser(name, **kwargs)
        subparser.set_defaults(handler=handler)
        return subparser

    for figure in FIGURES:
        figure_parser = command(figure, _cmd_figure, help=f"regenerate {figure}")
        _add_sweep_options(figure_parser)
        figure_parser.add_argument("--progress", action="store_true",
                                   help="per-point progress on stderr")

    suite = command(
        "suite", _cmd_suite,
        help="run figure sweeps and emit BENCH_*.json artifacts",
    )
    _add_sweep_options(suite, json_dir_default="out")
    suite_default = ",".join(name for name, fig in FIGURES.items() if fig.in_suite)
    suite.add_argument("--figures", default=suite_default,
                       help="comma-separated subset (default: "
                            f"{suite_default}; f3pop is opt-in)")
    suite.add_argument("--no-progress", action="store_true",
                       help="suppress per-point progress lines")
    suite.add_argument("--baseline-dir", default=None,
                       help="compare artifacts against BENCH_*.json here; "
                            "exit 1 on regression")
    suite.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE_PCT,
                       help="regression tolerance, percent (default %(default)s)")

    compare_parser = command(
        "compare", _cmd_compare,
        help="diff a BENCH_*.json artifact against a baseline",
    )
    compare_parser.add_argument("current")
    compare_parser.add_argument("baseline", nargs="?", default=None)
    compare_parser.add_argument("--tolerance", type=float,
                                default=DEFAULT_TOLERANCE_PCT,
                                help="allowed worsening, percent")
    compare_parser.add_argument("--live", action="store_true",
                                help="current is a BENCH_live_*.json from "
                                     "`repro serve`: render live-vs-simulated "
                                     "curves (baseline optional — omitted, the "
                                     "simulated counterpart runs on the fly)")

    _add_scenario_arguments(command(
        "scenario", _cmd_scenario,
        help="run a declarative scenario (builtin or spec file)",
    ))

    command(
        "protocols", _cmd_protocols, help="list registered protocol plugins"
    ).add_argument("--f", type=int, default=2,
                   help="fault tolerance shown in the n(f) column")

    command(
        "probes", _cmd_probes, help="list registered measurement probes"
    ).add_argument("name", nargs="?", default=None,
                   help="describe one probe in detail")

    add_serve_arguments(command(
        "serve", cmd_serve,
        help="run (or join) a live replica cluster over TCP/asyncio",
    ))
    add_load_arguments(command(
        "load", cmd_load,
        help="drive a live cluster with an open-loop request stream",
    ))
    add_lint_arguments(command(
        "lint", cmd_lint,
        help="statically check the determinism/safety invariants "
             "(RPR001-RPR005)",
    ))
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ReproError, ConnectionError) as exc:  # PeerLost, AuthenticationError
        print(f"error: {exc}", file=sys.stderr)
        return 2

