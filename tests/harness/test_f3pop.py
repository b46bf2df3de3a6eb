"""The population-scaling figure (``python -m repro f3pop``)."""

import json

from repro.harness.cli import main
from repro.harness.figures import (
    F3POP_PROBES,
    FIGURES,
    f3pop_grid,
    f3pop_spec,
)
from repro.harness.sweeps import QUICK_F3POP_CLIENTS


def test_f3pop_is_a_figure_but_not_in_the_suite_default():
    assert not FIGURES["f3pop"].in_suite
    assert [name for name, figure in FIGURES.items() if figure.in_suite] == [
        "fig4", "fig5", "fig6", "f3",
    ]


def test_f3pop_spec_shape():
    spec = f3pop_spec(clients=12_345, quick=True)
    assert spec.population is not None
    assert spec.population.clients == 12_345
    assert spec.population.id_distribution == "zipf"
    assert spec.probes == F3POP_PROBES


def test_f3pop_grid_tasks_use_population_as_x():
    tasks = f3pop_grid(QUICK_F3POP_CLIENTS, seed=1, quick=True)
    assert [t.x for t in tasks] == [float(c) for c in QUICK_F3POP_CLIENTS]
    assert len({t.point_id for t in tasks}) == len(tasks)


def test_f3pop_rejects_probe_and_fast_crypto_overrides(capsys):
    assert main(["f3pop", "--quick", "--probes", "order-latency"]) != 0
    assert "fixed probe set" in capsys.readouterr().err


def test_f3pop_quick_artifact_events_flat_across_populations(tmp_path, capsys):
    assert main(["f3pop", "--quick", "--json-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "clients" in out
    doc = json.loads((tmp_path / "BENCH_f3pop.json").read_text())
    assert doc["schema_version"] == 3
    points = sorted(doc["points"], key=lambda p: p["x"])
    assert [p["x"] for p in points] == [float(c) for c in QUICK_F3POP_CLIENTS]
    # The O(events) acceptance bound: same aggregate rate, identical
    # event counts no matter the population size.
    assert len({p["events"] for p in points}) == 1
    for point in points:
        assert set(point["probes"]) == set(F3POP_PROBES)
        assert point["metrics"]["requests_committed"] > 0
    digests = doc["params"]["stream_digests"]
    assert set(digests) == {p["id"] for p in points}
    assert all(len(d) == 16 for d in digests.values())
