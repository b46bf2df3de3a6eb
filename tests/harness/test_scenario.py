"""Declarative scenarios: spec round-trips, execution, runner, CLI."""

import json

import pytest

from repro.errors import ConfigError
from repro.failures.injector import fault_kinds
from repro.harness.cli import main
from repro.harness.runner import SCENARIO, execute, scenario_grid
from repro.harness.scenario import (
    BUILTIN_SCENARIOS,
    BurstSpec,
    FaultSpec,
    ScenarioSpec,
    WorkloadSpec,
    build_scenario,
    dump_spec,
    load_spec,
    resolve_spec,
    run_scenario,
    spec_from_dict,
    spec_to_dict,
)

TINY = ScenarioSpec(
    name="tiny",
    protocol="sc",
    f=1,
    duration=1.0,
    drain=1.0,
    workload=WorkloadSpec(rate=80.0),
)


# ----------------------------------------------------------------------
# Spec round-trips
# ----------------------------------------------------------------------
FULL = ScenarioSpec(
    name="full",
    protocol="scr",
    f=2,
    scheme="sha1-dsa1024",
    batching_interval=0.05,
    duration=2.5,
    drain=1.5,
    seed=9,
    n_clients=3,
    workload=WorkloadSpec(
        rate=110.0,
        spacing="uniform",
        bursts=(BurstSpec(at=0.5, duration=0.2, rate=300.0),),
    ),
    faults=(
        FaultSpec(kind="delay_surge", target="pair:1", at=1.0, until=1.4, factor=50.0),
        FaultSpec(kind="crash", target="p2", at=2.0),
    ),
    config=(("checkpoint_interval", 4), ("send_replies", True)),
    description="everything at once",
)


def test_spec_dict_round_trip():
    assert spec_from_dict(spec_to_dict(FULL)) == FULL


def test_config_overrides_normalised():
    """Override order never matters: specs normalise on construction,
    so hand-built and round-tripped specs compare equal."""
    unsorted = FULL.with_(
        config=(("send_replies", True), ("checkpoint_interval", 4))
    )
    assert unsorted == FULL
    assert spec_from_dict(spec_to_dict(unsorted)) == FULL


def test_spec_json_round_trip():
    assert spec_from_dict(json.loads(dump_spec(FULL))) == FULL


def test_spec_json_file_round_trip(tmp_path):
    path = tmp_path / "full.json"
    path.write_text(dump_spec(FULL))
    assert load_spec(path) == FULL


def test_spec_toml_file_load(tmp_path):
    path = tmp_path / "spec.toml"
    path.write_text(
        """
        name = "toml-spec"
        protocol = "scr"
        f = 2
        duration = 2.0

        [workload]
        rate = 90.0

        [[workload.bursts]]
        at = 0.5
        duration = 0.2
        rate = 250.0

        [[faults]]
        kind = "delay_surge"
        target = "pair:1"
        at = 1.0
        until = 1.3
        factor = 20.0

        [net]
        calibration = "paper"

        [config]
        send_replies = true
        """
    )
    spec = load_spec(path)
    assert spec == ScenarioSpec(
        name="toml-spec",
        protocol="scr",
        f=2,
        duration=2.0,
        workload=WorkloadSpec(
            rate=90.0, bursts=(BurstSpec(at=0.5, duration=0.2, rate=250.0),)
        ),
        faults=(
            FaultSpec(kind="delay_surge", target="pair:1", at=1.0, until=1.3,
                      factor=20.0),
        ),
        config=(("send_replies", True),),
    )


def test_unknown_spec_fields_rejected():
    with pytest.raises(ConfigError, match="unknown scenario field"):
        spec_from_dict({"name": "x", "protcol": "sc"})
    with pytest.raises(ConfigError, match="unknown workload field"):
        spec_from_dict({"name": "x", "workload": {"rte": 5}})
    with pytest.raises(ConfigError, match="unknown fault field"):
        spec_from_dict({"name": "x", "faults": [{"kind": "crash", "when": 1.0}]})


def test_spec_validation():
    with pytest.raises(ConfigError):
        ScenarioSpec(name="")
    with pytest.raises(ConfigError):
        ScenarioSpec(name="x", duration=0.0)
    with pytest.raises(ConfigError):
        WorkloadSpec(spacing="exponential")
    with pytest.raises(ConfigError):
        BurstSpec(at=0.5, duration=0.0, rate=10.0)


@pytest.mark.parametrize("kind", fault_kinds())
def test_fault_spec_rejects_a_negative_time(kind):
    with pytest.raises(ConfigError, match="fault 'at' must be >= 0"):
        FaultSpec(kind=kind, at=-1.0)


@pytest.mark.parametrize("n_clients", [0, -1])
def test_spec_rejects_fewer_than_one_client(n_clients):
    with pytest.raises(ConfigError, match="n_clients"):
        ScenarioSpec(name="x", n_clients=n_clients)


def test_resolve_spec_builtin_and_errors(tmp_path):
    assert resolve_spec("bursty-load") is BUILTIN_SCENARIOS["bursty-load"]
    with pytest.raises(ConfigError, match="unknown scenario"):
        resolve_spec("no-such-scenario")
    with pytest.raises(ConfigError, match="not found"):
        load_spec(tmp_path / "missing.json")
    bad = tmp_path / "spec.yaml"
    bad.write_text("a: 1")
    with pytest.raises(ConfigError, match="unknown scenario file type"):
        load_spec(bad)


# ----------------------------------------------------------------------
# Built-ins
# ----------------------------------------------------------------------
def test_builtins_are_non_paper_scenarios():
    assert len(BUILTIN_SCENARIOS) >= 3
    for name, spec in BUILTIN_SCENARIOS.items():
        assert spec.name == name
        assert spec.description
        # Every builtin survives a dict/JSON round-trip.
        assert spec_from_dict(json.loads(dump_spec(spec))) == spec


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def test_run_scenario_tiny_end_to_end():
    result = run_scenario(TINY)
    assert result.name == "tiny"
    assert result.requests_issued > 0
    assert result.requests_committed == result.requests_issued
    assert result.latency_mean > 0
    assert result.throughput > 0
    assert result.failovers == 0
    assert result.safety_ok


def test_run_scenario_is_deterministic():
    assert run_scenario(TINY) == run_scenario(TINY)


def test_scenario_fault_targets_coordinator_via_plugin():
    spec = TINY.with_(
        name="tiny-failover",
        duration=2.0,
        drain=2.0,
        faults=(FaultSpec(kind="wrong_digest", target="coordinator", at=0.8),),
    )
    cluster, _ = build_scenario(spec)
    assert cluster.injector.injected
    assert cluster.injector.injected[0][0] == cluster.coordinator_name == "p1"
    result = run_scenario(spec)
    assert result.failovers > 0
    assert result.failover_latency > 0
    assert result.safety_ok


def test_scenario_bursts_add_load():
    burst = TINY.with_(
        name="tiny-burst",
        workload=WorkloadSpec(
            rate=80.0, bursts=(BurstSpec(at=0.3, duration=0.4, rate=240.0),)
        ),
    )
    calm = run_scenario(TINY)
    spiky = run_scenario(burst)
    assert spiky.requests_issued > calm.requests_issued


_FAULT_BASE = ScenarioSpec(name="fault-kind", protocol="sc", f=2, duration=2.0, seed=1)


def _fault_spec(kind: str) -> FaultSpec:
    if kind == "mutate_endorsement":
        return FaultSpec(kind=kind, target="p1'", at=1.0)
    if kind == "delay_surge":
        return FaultSpec(kind=kind, target="pair:1", at=1.0, until=1.5, factor=10.0)
    return FaultSpec(kind=kind, target="coordinator", at=1.0)


@pytest.mark.parametrize("kind", fault_kinds())
def test_every_fault_kind_changes_the_run(kind):
    """A fault kind a scenario can name must do something: a kind no
    step logic reads would silently measure the fault-free run.  A
    delay surge moves the metrics but not the event count, so the two
    are compared together."""
    clean = run_scenario(_FAULT_BASE)
    faulty = run_scenario(_FAULT_BASE.with_(faults=(_fault_spec(kind),)))
    assert (faulty.events_processed, faulty.metrics()) != (
        clean.events_processed, clean.metrics()
    )


def test_scenario_bad_fault_target():
    spec = TINY.with_(faults=(FaultSpec(kind="crash", target="p99", at=0.5),))
    with pytest.raises(ConfigError, match="names no process"):
        build_scenario(spec)
    surge = TINY.with_(
        faults=(FaultSpec(kind="delay_surge", target="pair:9", at=0.5, until=0.7),)
    )
    with pytest.raises(ConfigError, match="no pair link"):
        build_scenario(surge)
    unknown = TINY.with_(faults=(FaultSpec(kind="meteor", target="p1"),))
    with pytest.raises(ConfigError, match="unknown fault kind"):
        build_scenario(unknown)


# ----------------------------------------------------------------------
# Runner integration (multiprocessing)
# ----------------------------------------------------------------------
def test_scenario_grid_tasks_are_pure_and_picklable():
    tasks = scenario_grid(TINY, seeds=(1, 2))
    assert [t.kind for t in tasks] == [SCENARIO, SCENARIO]
    assert [t.scenario.seed for t in tasks] == [1, 2]
    assert tasks[0].point_id.startswith("scenario/tiny/sc/md5-rsa1024/f1/s1/paper/")
    # The id digests the whole spec: a changed fault schedule under the
    # same name/seed can never collide with this point in a baseline.
    changed = scenario_grid(
        TINY.with_(faults=(FaultSpec(kind="crash", target="p2", at=0.5),)),
        seeds=(1,),
    )
    assert changed[0].point_id != tasks[0].point_id
    import pickle

    # repro: allow[RPR004] round-trip of an in-process value, no untrusted bytes
    assert pickle.loads(pickle.dumps(tasks[0])) == tasks[0]


def test_scenario_runner_parallel_matches_serial():
    tasks = scenario_grid(TINY, seeds=(1, 2))
    serial = execute(tasks, jobs=1)
    parallel = execute(tasks, jobs=2)
    assert [p.result for p in serial] == [p.result for p in parallel]
    assert serial[0].metrics()["safety_ok"] == 1.0
    # Different seeds genuinely vary the workload.
    assert serial[0].result != serial[1].result


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_scenario_list(capsys):
    assert main(["scenario", "--list"]) == 0
    out = capsys.readouterr().out
    for name in BUILTIN_SCENARIOS:
        assert name in out


def test_cli_scenario_dump_round_trips(capsys):
    assert main(["scenario", "bursty-load", "--dump", "--seed", "3"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert spec_from_dict(data) == BUILTIN_SCENARIOS["bursty-load"].with_(seed=3)


def test_cli_scenario_runs_spec_file(tmp_path, capsys):
    path = tmp_path / "tiny.json"
    path.write_text(dump_spec(TINY))
    assert main(["scenario", str(path)]) == 0
    out = capsys.readouterr().out
    assert "Scenario 'tiny'" in out
    assert "ok" in out


def test_cli_scenario_unknown_name(capsys):
    assert main(["scenario", "nope"]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_cli_scenario_rejects_zero_clients(tmp_path, capsys):
    """A spec file with no clients is a usage error like any other bad
    field, not a traceback from the workload."""
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"name": "empty", "n_clients": 0}))
    assert main(["scenario", str(path)]) == 2
    assert "error: scenario n_clients must be >= 1" in capsys.readouterr().err


def test_cli_scenario_rejects_a_fault_before_time_zero(tmp_path, capsys):
    """A negative fault time is a usage error, not a simulator internal
    (``hold_acks``) or a silent run as if ``at`` were 0 (the others)."""
    path = tmp_path / "early.json"
    fault = {"kind": "hold_acks", "at": -1}
    path.write_text(json.dumps({"name": "early", "faults": [fault]}))
    assert main(["scenario", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error: fault 'at' must be >= 0"]
    assert captured.out == ""


def test_cli_protocols_lists_registry(capsys):
    assert main(["protocols"]) == 0
    out = capsys.readouterr().out
    for name in ("sc", "scr", "bft", "ct"):
        assert name in out
