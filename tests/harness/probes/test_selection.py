"""Declarative probe selection: tasks, grids, artifacts, scenarios."""

import json

import pytest

from repro.errors import ConfigError
from repro.harness.artifact import from_results
from repro.harness.runner import SweepTask, order_grid, run_task
from repro.harness.scenario import (
    BUILTIN_SCENARIOS,
    ScenarioSpec,
    dump_spec,
    run_scenario,
    spec_from_dict,
    spec_to_dict,
)

QUICK = dict(batching_interval=0.1, n_batches=8, warmup_batches=2)


def test_driver_runs_probe_subset():
    report = run_task(SweepTask(
        kind="order", protocol="sc", scheme="md5-rsa1024",
        probes=("throughput",), **QUICK,
    )).result
    assert report.probes == ("throughput",)
    assert set(report.metrics()) == {"throughput"}
    assert report.throughput > 0


def test_driver_rejects_unknown_probe():
    with pytest.raises(ConfigError, match="unknown probe"):
        run_task(SweepTask(kind="order", protocol="sc", scheme="md5-rsa1024",
                           batching_interval=0.1, probes=("geiger",)))


def test_task_probes_flow_into_point_id_and_run():
    default = SweepTask(kind="order", protocol="sc", scheme="md5-rsa1024",
                        **QUICK)
    subset = SweepTask(kind="order", protocol="sc", scheme="md5-rsa1024",
                       probes=("throughput",), **QUICK)
    # Default selection keeps every historical id (baseline stability);
    # a non-default selection is a different point.
    assert "p:" not in default.point_id
    assert subset.point_id == default.point_id + "/p:throughput"

    point = run_task(subset)
    assert set(point.metrics()) == {"throughput"}
    assert point.probes == ("throughput",)


def test_task_probes_validated_eagerly():
    with pytest.raises(ConfigError, match="unknown probe"):
        SweepTask(kind="order", protocol="sc", scheme="md5-rsa1024",
                  probes=("geiger",), **QUICK)
    spec = BUILTIN_SCENARIOS["bursty-load"]
    with pytest.raises(ConfigError, match="on the ScenarioSpec"):
        SweepTask(kind="scenario", protocol="sc", scheme="md5-rsa1024",
                  scenario=spec, probes=("throughput",))


def test_grid_builders_take_probes():
    grid = order_grid(("sc",), ("md5-rsa1024",), (0.1, 0.25),
                      probes=("order-latency",))
    assert all(task.probes == ("order-latency",) for task in grid)


def test_artifact_v3_records_probes_per_point():
    tasks = order_grid(("sc",), ("md5-rsa1024",), (0.1,),
                       n_batches=8, warmup_batches=2)
    artifact = from_results("fig4", [run_task(tasks[0])])
    point = artifact.points[0]
    assert artifact.schema_version == 3
    assert point["probes"] == ["order-latency", "throughput"]
    assert set(point["metrics"]) == {
        "latency_mean", "latency_p50", "latency_p95",
        "throughput", "batches_measured",
    }


def test_scenario_spec_probes_round_trip():
    spec = BUILTIN_SCENARIOS["bursty-load"].with_(
        probes=("order-latency", "throughput")
    )
    assert spec_from_dict(spec_to_dict(spec)) == spec
    assert spec_from_dict(json.loads(dump_spec(spec))) == spec
    # The default (no probes) dumps without the key at all.
    assert "probes" not in spec_to_dict(BUILTIN_SCENARIOS["bursty-load"])


def test_scenario_spec_rejects_bad_probes():
    with pytest.raises(ConfigError, match="unknown probe"):
        ScenarioSpec(name="x", probes=("geiger",))
    with pytest.raises(ConfigError, match="array of names"):
        spec_from_dict({"name": "x", "probes": "throughput"})


def test_scenario_run_merges_namespaced_probe_metrics():
    spec = ScenarioSpec(
        name="probed", protocol="sc", duration=1.5, drain=1.0,
        probes=("throughput", "failover"),
    )
    result = run_scenario(spec)
    metrics = result.metrics()
    assert result.probes == ("throughput", "failover")
    # Namespaced: built-in scenario metrics and probe metrics coexist.
    assert "throughput" in metrics
    assert "throughput.throughput" in metrics
    assert metrics["throughput.throughput"] == metrics["throughput"]
    # No fail-over happens; the lenient scenario context reports zeros
    # instead of failing the run.
    assert metrics["failover.failover_latency"] == 0.0
    assert metrics["failover.observed_backlog_bytes"] == 0.0


def test_scenario_probe_latency_matches_builtin_measurement():
    """The scenario context (no warm-up, no cap, no floor) makes the
    order-latency probe agree exactly with the scenario's built-in
    latency measurement — same definition, probe-shaped."""
    spec = BUILTIN_SCENARIOS["bursty-load"].with_(probes=("order-latency",))
    result = run_scenario(spec)
    metrics = result.metrics()
    assert metrics["order-latency.latency_mean"] == metrics["latency_mean"]
    assert metrics["order-latency.latency_p95"] == metrics["latency_p95"]
    assert metrics["order-latency.batches_measured"] == metrics["batches_measured"]
