"""End-to-end: ``repro load --population`` against a real loopback
cluster, cross-checked against the simulator's seeded stream.

The acceptance property of the population engine: the live driver and
the simulator construct their arrival streams from the same named RNG
registry, so a shared seed yields **bit-identical** ``(time, class,
client)`` events — proven here by comparing the live run's stream
digest (from a real TCP replay) with a digest computed directly from
:func:`population_stream`, and with a full simulated scenario run.
"""

import json
import subprocess
import sys
from pathlib import Path

from repro.harness.population import (
    PopulationSpec,
    population_stream,
    stream_digest,
)
from repro.harness.scenario import ScenarioSpec, WorkloadSpec, run_scenario
from repro.sim.rng import RngRegistry
from tests.live.cluster_utils import _env, finish_serve, start_serve

RATE = 40.0
DURATION = 3.0
SEED = 7
POPULATION = {"clients": 10_000, "id_distribution": "zipf", "zipf_s": 1.1}


def _run_population_load(control: str, population_file: Path,
                         bench_dir: Path, json_out: Path) -> dict:
    out = subprocess.run(
        [sys.executable, "-m", "repro", "load", "--control", control,
         "--rate", str(RATE), "--duration", str(DURATION),
         "--seed", str(SEED), "--client-id", "driver",
         "--population", str(population_file),
         "--bench-dir", str(bench_dir), "--json", str(json_out)],
        env=_env(),
        capture_output=True,
        text=True,
        timeout=DURATION + 60,
    )
    assert out.returncode == 0, f"load failed:\n{out.stdout}\n{out.stderr}"
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_population_load_over_loopback_matches_sim_stream(tmp_path):
    population_file = tmp_path / "population.json"
    population_file.write_text(json.dumps(POPULATION))
    bench_dir = tmp_path / "bench"
    json_out = tmp_path / "load.json"

    proc, control = start_serve(
        "--protocol", "sc", "--f", "1", "--duration", str(DURATION + 5)
    )
    try:
        load = _run_population_load(
            control, population_file, bench_dir, json_out
        )
    finally:
        summary = finish_serve(proc, timeout=DURATION + 60)

    # The cluster stayed safe and served the virtual population.
    assert summary["histories_agree"] is True
    assert load["issued"] > 0
    assert load["committed"] >= 0.9 * load["issued"]
    assert load["clients"] == POPULATION["clients"]

    # Stream identity #1: the live digest equals one computed straight
    # from the population engine with a fresh registry.
    population = PopulationSpec(
        clients=POPULATION["clients"],
        id_distribution="zipf",
        zipf_s=POPULATION["zipf_s"],
    )
    events = list(
        population_stream(population, RATE, DURATION, RngRegistry(SEED))
    )
    assert load["stream_digest"] == stream_digest(events)
    assert load["issued"] == len(events)

    # Stream identity #2: a full simulated scenario run with the same
    # seed schedules the exact same arrivals.
    sim = run_scenario(
        ScenarioSpec(
            name="live-xcheck",
            protocol="sc",
            f=1,
            duration=DURATION,
            seed=SEED,
            workload=WorkloadSpec(rate=RATE),
            population=population,
        )
    )
    assert sim.stream_digest == load["stream_digest"]
    assert sim.requests_issued == load["issued"]

    # The live BENCH_f3pop.json is a valid schema-v3 artifact carrying
    # the digest for offline comparison.
    artifact = json.loads((bench_dir / "BENCH_f3pop.json").read_text())
    assert artifact["schema_version"] == 3
    assert artifact["params"]["stream_digest"] == load["stream_digest"]
    [point] = artifact["points"]
    assert point["kind"] == "live-population"
    assert point["x"] == float(POPULATION["clients"])
    assert point["metrics"]["committed"] > 0

    # --json writes the full summary, per-request samples included,
    # alongside the population fields.
    written = json.loads(json_out.read_text())
    assert len(written["samples"]) == load["committed"]
    assert written["clients"] == POPULATION["clients"]
    assert written["stream_digest"] == load["stream_digest"]
