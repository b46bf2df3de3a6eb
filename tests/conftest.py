"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro import ProtocolConfig, build_cluster, OpenLoopWorkload
from repro.calibration import ideal_testbed, paper_testbed


@pytest.fixture
def sc_config() -> ProtocolConfig:
    """A small, fast SC deployment (f = 2, brisk batching)."""
    return ProtocolConfig(f=2, batching_interval=0.050)


@pytest.fixture
def scr_config() -> ProtocolConfig:
    """A small, fast SCR deployment."""
    return ProtocolConfig(f=2, variant="scr", batching_interval=0.050)


def run_protocol(
    protocol: str,
    config: ProtocolConfig | None = None,
    duration: float = 1.5,
    rate: float = 150.0,
    drain: float = 2.0,
    seed: int = 1,
    faults: list[tuple[str, object]] | None = None,
    calibration=None,
):
    """Build, load and run a cluster; returns it after the drain period.

    ``faults`` is a list of (process_name, FaultPlan) to inject before
    the run starts.
    """
    if config is None:
        import repro.protocols as protocols

        config = protocols.get(protocol).default_config(
            f=2, batching_interval=0.050
        )
    cluster = build_cluster(protocol, config=config, seed=seed, calibration=calibration)
    workload = OpenLoopWorkload(cluster, rate=rate, duration=duration)
    workload.install()
    for name, plan in faults or []:
        cluster.injector.inject(cluster.process(name), plan)
    cluster.start()
    cluster.run(until=duration + drain)
    return cluster


def assert_total_order(cluster) -> None:
    """Safety: every process's execution history is a prefix of the
    longest one (no two correct processes order requests differently)."""
    histories = list(cluster.committed_histories().values())
    longest = max(histories, key=len)
    for history in histories:
        assert history == longest[: len(history)], "divergent execution histories"


def assert_executed_once(cluster) -> None:
    """Exactly-once: no process's history holds a request digest twice."""
    for name, process in cluster.processes.items():
        digests = [digest for _seq, digest in process.machine.history]
        assert len(set(digests)) == len(digests), f"{name} executed a request twice"


def faulty_names(cluster) -> set[str]:
    """Processes with an activated fault plan (excluded from safety
    checks where their local state is allowed to be arbitrary)."""
    out = set()
    for name, proc in cluster.processes.items():
        plan = getattr(proc, "fault", None)
        if plan is not None and plan.active_from != float("inf"):
            out.add(name)
    return out


def assert_total_order_among_correct(cluster) -> None:
    """Safety restricted to processes without injected faults."""
    bad = faulty_names(cluster)
    histories = [
        history
        for name, history in cluster.committed_histories().items()
        if name not in bad
    ]
    longest = max(histories, key=len)
    for history in histories:
        assert history == longest[: len(history)], "divergent correct histories"


__all__ = [
    "assert_total_order",
    "assert_total_order_among_correct",
    "faulty_names",
    "ideal_testbed",
    "paper_testbed",
    "run_protocol",
]
