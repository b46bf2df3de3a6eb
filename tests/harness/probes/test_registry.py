"""The probe table: builtins, its error type, selection, kinds and
directions.  The registration rule itself is tested once, in
``tests/test_registry.py``."""

import pytest

import repro.harness.probes as probes
from repro.errors import ConfigError, MetricsError
from repro.harness.probes import (
    Probe,
    ProbeContext,
    ProbeReport,
)


class CommitCounter(Probe):
    name = "commit-counter"
    kinds = frozenset({"order_committed"})
    description = "counts commit records"
    provides = ("commits",)
    directions = {"commits": "higher"}

    def __init__(self, context):
        super().__init__(context)
        self.count = 0

    def consume(self, record):
        self.count += 1

    def finalize(self):
        return {"commits": float(self.count)}


@pytest.fixture
def counter_registered(monkeypatch):
    monkeypatch.setitem(probes.PROBES.table, "commit-counter", CommitCounter)


def test_builtin_probes_registered():
    assert probes.names() == (
        "order-latency", "throughput", "failover", "recovery-timeline",
        "client-fairness", "queue-depth", "crypto-cost",
    )


def test_register_requires_name_and_rejects_duplicates(counter_registered):
    with pytest.raises(ConfigError, match="already registered"):
        probes.register(CommitCounter)

    class Nameless(CommitCounter):
        name = ""

    with pytest.raises(ConfigError, match="no name"):
        probes.register(Nameless)


def test_get_unknown_probe_names_known():
    with pytest.raises(ConfigError, match=r"unknown probe 'voltmeter'; known: \("):
        probes.get("voltmeter")


def test_validate_names(counter_registered):
    assert probes.validate_names(["commit-counter", "throughput"]) == (
        "commit-counter", "throughput",
    )
    with pytest.raises(ConfigError):
        probes.validate_names(["commit-counter", "nope"])
    with pytest.raises(ConfigError, match="repeats"):
        probes.validate_names(["throughput", "throughput"])


def test_kinds_union_is_the_derived_keep_filter():
    union = probes.kinds_union(("order-latency", "failover"))
    assert union == (
        probes.OrderLatencyProbe.kinds | probes.FailoverProbe.kinds
    )
    assert probes.kinds_union(()) == frozenset()


def test_create_all_instantiates_against_context(counter_registered):
    context = ProbeContext(label="test point")
    (probe,) = probes.create_all(("commit-counter",), context)
    assert isinstance(probe, CommitCounter)
    assert probe.context is context


def test_metric_direction_consults_declarations(counter_registered):
    assert probes.metric_direction("latency_mean") == "lower"
    assert probes.metric_direction("throughput") == "higher"
    assert probes.metric_direction("failover_latency") == "lower"
    assert probes.metric_direction("commits") == "higher"
    # Namespaced form (scenario probe metrics).
    assert probes.metric_direction("commit-counter.commits") == "higher"
    assert probes.metric_direction("order-latency.latency_p95") == "lower"
    # Unclaimed names are not gated by the registry.
    assert probes.metric_direction("observed_backlog_bytes") is None
    assert probes.metric_direction("batches_measured") is None
    assert probes.metric_direction("no-such.commits") is None


def test_probe_report_attribute_and_value_access():
    report = ProbeReport(
        protocol="sc", scheme="md5-rsa1024", f=2,
        probes=("order-latency",),
        values=(("latency_mean", 0.25), ("batches_measured", 30.0)),
    )
    assert report.metrics() == {"latency_mean": 0.25, "batches_measured": 30.0}
    assert report.latency_mean == 0.25
    assert report.value("batches_measured") == 30.0
    with pytest.raises(AttributeError):
        report.throughput
    with pytest.raises(MetricsError):
        report.value("throughput")


def test_probe_report_pickles_and_compares():
    import pickle

    report = ProbeReport(
        protocol="sc", scheme="md5-rsa1024", f=2,
        probes=("order-latency",),
        values=(("latency_mean", 0.25),),
    )
    # repro: allow[RPR004] round-trip of an in-process value, no untrusted bytes
    clone = pickle.loads(pickle.dumps(report))
    assert clone == report
    assert clone.latency_mean == 0.25


def test_merged_values_rejects_metric_collisions(counter_registered):
    context = ProbeContext()
    a = CommitCounter(context)
    b = CommitCounter(context)
    with pytest.raises(MetricsError, match="both emit"):
        probes.merged_values((a, b))
