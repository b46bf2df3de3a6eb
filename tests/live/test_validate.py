"""`repro compare --live`: artifact plumbing and point matching."""

from __future__ import annotations

import io
import json

import pytest

from repro.errors import ConfigError
from repro.harness import artifact as artifact_mod
from repro.live.validate import (
    build_live_point,
    compare_live,
    live_point_id,
    write_live_artifact,
)


def _fake_reports() -> dict[str, dict]:
    """Minimal node reports: two replicas tracing one ordered batch."""
    records = [
        (0.60, "batch_formed", {"actor": "p1", "batch_id": 1, "rank": 1,
                                "first_seq": 1, "n_requests": 4}),
        (0.65, "order_committed", {"actor": "p1", "batch_id": 1, "rank": 1,
                                   "first_seq": 1, "n_requests": 4}),
    ]
    return {
        "p1": {"records": records, "history": [(1, "ab")], "crashed": False},
        "p2": {"records": [records[1]], "history": [(1, "ab")], "crashed": False},
    }


def test_write_live_artifact_is_schema_valid(tmp_path):
    path = write_live_artifact(
        reports=_fake_reports(), protocol="sc", scheme="md5-rsa1024",
        f=1, seed=1, batching_interval=0.1, duration=2.0, warmup=0.5,
        json_dir=tmp_path,
    )
    assert path.name == "BENCH_live_sc.json"
    loaded = artifact_mod.load_artifact(path)  # validates the schema
    [point] = loaded.points
    assert point["id"] == live_point_id("sc", "md5-rsa1024", 1, 0.1, 1)
    assert point["kind"] == "live-order"
    assert point["metrics"]["latency_mean"] == pytest.approx(0.05)
    assert loaded.params["runtime"] == "live"


def test_compare_live_matches_baseline_points(tmp_path):
    live_path = write_live_artifact(
        reports=_fake_reports(), protocol="sc", scheme="md5-rsa1024",
        f=1, seed=1, batching_interval=0.1, duration=2.0, warmup=0.5,
        json_dir=tmp_path,
    )
    point = build_live_point(
        _fake_reports(), "sc", "md5-rsa1024", 1, 1, 0.1, 2.0, 0.5
    )
    sim_point = dict(point)
    sim_point["id"] = "order/sc/md5-rsa1024/f1/i0.1/s1"
    sim_point["kind"] = "order"
    sim_point["metrics"] = {"latency_mean": 0.10, "latency_p95": 0.10,
                            "throughput": 10.0}
    baseline = artifact_mod.from_points("fig4", [sim_point])
    baseline_path = artifact_mod.write_artifact(baseline, tmp_path)

    out = io.StringIO()
    code = compare_live(live_path, baseline_path, out=out)
    rendered = out.getvalue()
    assert code == 0
    assert "live/sim" in rendered
    assert "latency_mean" in rendered
    # live 0.05s vs sim 0.10s: the ratio column must say 0.50x.
    assert "0.50x" in rendered


def test_compare_live_flags_missing_counterpart(tmp_path):
    live_path = write_live_artifact(
        reports=_fake_reports(), protocol="sc", scheme="md5-rsa1024",
        f=1, seed=1, batching_interval=0.1, duration=2.0, warmup=0.5,
        json_dir=tmp_path,
    )
    other = build_live_point(
        _fake_reports(), "sc", "md5-rsa1024", 1, 1, 0.1, 2.0, 0.5
    )
    other.update({"id": "order/bft/x", "kind": "order", "protocol": "bft"})
    baseline_path = artifact_mod.write_artifact(
        artifact_mod.from_points("fig4", [other]), tmp_path
    )
    out = io.StringIO()
    assert compare_live(live_path, baseline_path, out=out) == 1
    assert "no simulated counterpart" in out.getvalue()


def test_from_points_rejects_malformed(tmp_path):
    with pytest.raises(ConfigError):
        artifact_mod.from_points("live_sc", [{"id": "x", "metrics": {}}])


def test_cli_exposes_live_flag(tmp_path, capsys):
    from repro.harness.cli import main as repro_main

    live_path = write_live_artifact(
        reports=_fake_reports(), protocol="sc", scheme="md5-rsa1024",
        f=1, seed=1, batching_interval=0.1, duration=2.0, warmup=0.5,
        json_dir=tmp_path,
    )
    sim_point = build_live_point(
        _fake_reports(), "sc", "md5-rsa1024", 1, 1, 0.1, 2.0, 0.5
    )
    sim_point["id"] = "order/sc"
    sim_point["kind"] = "order"
    baseline_path = artifact_mod.write_artifact(
        artifact_mod.from_points("fig4", [sim_point]), tmp_path
    )
    code = repro_main(["compare", "--live", str(live_path), str(baseline_path)])
    assert code == 0
    assert "live/sim" in capsys.readouterr().out
    # Without --live, a missing baseline is a usage error, not a crash.
    assert repro_main(["compare", str(live_path)]) == 2
