"""CLI tests (fast: the figure-point runner is monkeypatched)."""

import json
import socket
from pathlib import Path

import pytest

import repro.harness.runner as runner
from repro.__main__ import main as repro_main
from repro.harness.artifact import SCHEMA_VERSION, load_artifact
from repro.harness.cli import main
from repro.harness.probes import ProbeReport
from repro.harness.runner import (
    DEFAULT_FAILOVER_PROBES,
    DEFAULT_ORDER_PROBES,
    ORDER,
)
from repro.net import framing

#: ``--help`` of ``python -m repro`` and of every subcommand, captured
#: with ``COLUMNS=80`` before the CLI moved out of ``experiments.py``.
HELP_SNAPSHOT = Path(__file__).parent / "data" / "cli_help.txt"


@pytest.fixture
def fast_runners(monkeypatch):
    def fake_order(task):
        base = {"ct": 0.010, "sc": 0.040, "bft": 0.050}[task.protocol]
        interval = task.batching_interval
        return ProbeReport(
            protocol=task.protocol, scheme=task.scheme, f=task.f,
            probes=DEFAULT_ORDER_PROBES if task.probes is None else task.probes,
            values=(
                ("latency_mean", base / interval * 0.05),
                ("latency_p50", base),
                ("latency_p95", base),
                ("throughput", 16 / interval),
                ("batches_measured", float(task.n_batches)),
            ),
        )

    def fake_failover(task):
        backlog_batches = task.backlog_batches
        return ProbeReport(
            protocol=task.protocol, scheme=task.scheme, f=task.f,
            probes=DEFAULT_FAILOVER_PROBES if task.probes is None else task.probes,
            values=(
                ("failover_latency", 0.1 + 0.03 * backlog_batches),
                ("observed_backlog_bytes", 1024.0 * (2 + backlog_batches)),
            ),
        )

    def fake_point(task):
        return (fake_order if task.kind == ORDER else fake_failover)(task)

    monkeypatch.setattr(runner, "run_figure_point", fake_point)


def test_cli_fig4_quick(fast_runners, capsys):
    assert main(["fig4", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "Figure 4" in out
    assert "md5-rsa1024" in out
    assert "sc" in out and "bft" in out and "ct" in out


def test_cli_fig5_quick(fast_runners, capsys):
    assert main(["fig5", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "Figure 5" in out
    assert "committed req/s" in out


def test_cli_fig6_quick(fast_runners, capsys):
    assert main(["fig6", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "Figure 6" in out
    assert "ms/KB" in out  # the linear fit line


def test_cli_f3(fast_runners, capsys):
    assert main(["f3"]) == 0
    out = capsys.readouterr().out
    assert "f = 2 vs f = 3" in out


def test_cli_rejects_unknown_figure(fast_runners):
    with pytest.raises(SystemExit):
        main(["fig7"])


def test_cli_figure_writes_artifact(fast_runners, tmp_path, capsys):
    assert main(["fig4", "--quick", "--json-dir", str(tmp_path)]) == 0
    artifact = load_artifact(tmp_path / "BENCH_fig4.json")
    assert artifact.figure == "fig4"
    assert artifact.schema_version == SCHEMA_VERSION
    assert len(artifact.points) == 9  # 3 protocols x 3 quick intervals


def test_cli_suite_writes_all_artifacts(fast_runners, tmp_path, capsys):
    assert main([
        "suite", "--quick", "--no-progress", "--json-dir", str(tmp_path),
        "--figures", "fig4,fig5,fig6,f3",
    ]) == 0
    out = capsys.readouterr().out
    assert "Benchmark suite" in out
    for figure, n_points in (("fig4", 9), ("fig5", 9), ("fig6", 6), ("f3", 8)):
        artifact = load_artifact(tmp_path / f"BENCH_{figure}.json")
        assert artifact.figure == figure
        assert len(artifact.points) == n_points
        assert artifact.params["quick"] is True


def test_cli_suite_dedupes_shared_points(fast_runners, tmp_path, capsys):
    """fig4 and fig5 measure the same runs: the suite executes each
    unique task once and reuses the result for both artifacts."""
    assert main([
        "suite", "--quick", "--no-progress", "--json-dir", str(tmp_path),
        "--figures", "fig4,fig5",
    ]) == 0
    err = capsys.readouterr().err
    assert "18 points requested, 9 unique" in err
    fig4 = load_artifact(tmp_path / "BENCH_fig4.json")
    fig5 = load_artifact(tmp_path / "BENCH_fig5.json")
    assert [p["id"] for p in fig4.points] == [p["id"] for p in fig5.points]
    assert [p["metrics"] for p in fig4.points] == [p["metrics"] for p in fig5.points]


def test_cli_suite_rejects_unknown_figures(fast_runners, tmp_path, capsys):
    assert main([
        "suite", "--quick", "--json-dir", str(tmp_path), "--figures", "fig9",
    ]) == 2
    assert "unknown figures" in capsys.readouterr().err


def test_cli_suite_baseline_gate(fast_runners, tmp_path, capsys):
    """--baseline-dir turns the suite into a regression gate."""
    baseline_dir = tmp_path / "baseline"
    out_dir = tmp_path / "out"
    assert main([
        "suite", "--quick", "--no-progress", "--figures", "fig4",
        "--json-dir", str(baseline_dir),
    ]) == 0
    # Same sweep vs itself: identical metrics, gate passes.
    assert main([
        "suite", "--quick", "--no-progress", "--figures", "fig4",
        "--json-dir", str(out_dir), "--baseline-dir", str(baseline_dir),
    ]) == 0
    assert "PASS" in capsys.readouterr().out


def test_cli_compare_pass_and_fail(fast_runners, tmp_path, capsys):
    assert main([
        "suite", "--quick", "--no-progress", "--figures", "fig4",
        "--json-dir", str(tmp_path),
    ]) == 0
    path = tmp_path / "BENCH_fig4.json"
    assert main(["compare", str(path), str(path)]) == 0
    assert "PASS" in capsys.readouterr().out

    # Inject a 50% latency regression into a copy and expect failure.
    data = json.loads(path.read_text())
    data["points"][0]["metrics"]["latency_mean"] *= 1.5
    worse = tmp_path / "BENCH_fig4_worse.json"
    worse.write_text(json.dumps(data))
    assert main(["compare", str(worse), str(path)]) == 1
    assert "REGRESSED" in capsys.readouterr().out


def test_cli_compare_missing_file(fast_runners, tmp_path, capsys):
    assert main([
        "compare", str(tmp_path / "nope.json"), str(tmp_path / "nope.json"),
    ]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_executor_selector(fast_runners, tmp_path, capsys):
    """--jobs selects the execution mode and the artifact records it
    (the fakes reach the forked pool workers with the module)."""
    for jobs, mode in (("1", "serial"), ("2", "pool")):
        assert main(["fig4", "--quick", "--jobs", jobs,
                     "--json-dir", str(tmp_path)]) == 0
        artifact = load_artifact(tmp_path / "BENCH_fig4.json")
        assert artifact.params["executor"] == mode


def test_cli_resume_skips_finished_points(fast_runners, tmp_path, capsys):
    """A second run against the same journal re-executes nothing and
    still writes a complete artifact."""
    journal = tmp_path / "sweep.ckpt"
    assert main(["fig4", "--quick", "--resume", str(journal),
                 "--json-dir", str(tmp_path)]) == 0
    assert journal.exists()
    first = load_artifact(tmp_path / "BENCH_fig4.json")

    def exploding_point(*args, **kwargs):  # resume must not call this
        raise AssertionError("a journaled point was re-executed")

    runner.run_figure_point = exploding_point
    assert main(["fig4", "--quick", "--resume", str(journal),
                 "--json-dir", str(tmp_path)]) == 0
    again = load_artifact(tmp_path / "BENCH_fig4.json")
    assert [p["metrics"] for p in again.points] == [
        p["metrics"] for p in first.points
    ]


def test_cli_probes_lists_registry(capsys):
    assert main(["probes"]) == 0
    out = capsys.readouterr().out
    assert "order-latency" in out
    assert "throughput" in out
    assert "failover" in out
    assert "batch_formed" in out  # trace kinds column


def test_cli_probes_describe_one(capsys):
    assert main(["probes", "failover"]) == 0
    out = capsys.readouterr().out
    assert "failover_latency" in out
    assert "lower is better" in out
    assert "observed_backlog_bytes" in out
    assert "informational" in out
    assert main(["probes", "geiger"]) == 2
    assert "unknown probe" in capsys.readouterr().err


def test_cli_probes_flag_selects_subset(fast_runners, tmp_path, capsys):
    """--probes reaches the task grid: the fakes see the selection and
    artifacts record it per point and in params."""
    assert main(["fig5", "--quick", "--probes", "throughput",
                 "--json-dir", str(tmp_path)]) == 0
    artifact = load_artifact(tmp_path / "BENCH_fig5.json")
    assert artifact.params["probes"] == ["throughput"]
    assert all(p["probes"] == ["throughput"] for p in artifact.points)
    assert all("p:throughput" in p["id"] for p in artifact.points)
    assert main(["fig4", "--quick", "--probes", "geiger"]) == 2


def test_cli_probes_flag_must_cover_the_figure(fast_runners, capsys):
    """A selection that cannot feed the figure's tables fails before
    the sweep runs, not with a render-time crash after it."""
    assert main(["fig4", "--quick", "--probes", "throughput"]) == 2
    assert "latency_mean" in capsys.readouterr().err
    assert main(["fig6", "--quick", "--probes", "order-latency"]) == 2
    assert "failover_latency" in capsys.readouterr().err
    assert main(["fig5", "--quick", "--probes",
                 "throughput,throughput"]) == 2
    assert "repeats" in capsys.readouterr().err


def test_cli_scenario_probes_flag(capsys):
    """scenario --probes overrides the spec's selection (visible in
    --dump, which resolves without running anything)."""
    assert main(["scenario", "bursty-load", "--probes", "throughput",
                 "--dump"]) == 0
    dumped = json.loads(capsys.readouterr().out)
    assert dumped["probes"] == ["throughput"]
    assert main(["scenario", "bursty-load", "--probes", "geiger",
                 "--dump"]) == 2
    assert "unknown probe" in capsys.readouterr().err


def test_cli_protocols_rejects_f_below_one(capsys):
    """The n(f) column takes the same f every ProtocolConfig does."""
    for bad in ("0", "-1"):
        assert main(["protocols", "--f", bad]) == 2
        assert "f must be >= 1" in capsys.readouterr().err


def test_cli_help_is_unchanged(monkeypatch, capsys):
    """The CLI surface is frozen: every subcommand, flag, default and
    help string matches the committed snapshot byte for byte."""
    monkeypatch.setenv("COLUMNS", "80")
    sections = HELP_SNAPSHOT.read_text().split("### repro ")[1:]
    assert len(sections) == 14
    for section in sections:
        header, _, expected = section.partition("\n")
        argv = header.removesuffix("--help").split() + ["--help"]
        with pytest.raises(SystemExit) as exit_info:
            repro_main(argv)
        assert exit_info.value.code == 0
        assert capsys.readouterr().out == expected, f"repro {header}"


@pytest.mark.parametrize(
    "argv",
    [["load", "--control"], ["serve", "--replica-id", "p1", "--join"]],
    ids=["load", "serve-join"],
)
def test_unreachable_controller_is_one_error_line(monkeypatch, capsys, argv):
    """A dial that exhausts its retry budget raises ``PeerLost`` (a
    ``ConnectionError``); the CLI turns it into an ``error:`` line and
    exit 2, not a traceback."""
    monkeypatch.setattr(
        framing, "STARTUP", framing.BackoffPolicy(first=0.01, cap=0.02, budget=0.05)
    )
    with socket.socket() as probe:  # a port nothing listens on
        probe.bind(("127.0.0.1", 0))
        closed = f"127.0.0.1:{probe.getsockname()[1]}"
    assert repro_main([*argv, closed]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: could not connect to"), err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1, err
