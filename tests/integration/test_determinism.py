"""Cross-run determinism: whole simulations — including fail-overs and
recoveries — are pure functions of (protocol, config, seed)."""

import pytest

from repro import ProtocolConfig, build_cluster, OpenLoopWorkload
from repro.failures.faults import DelaySurgeFault, WrongDigestFault


def run_failover(seed: int) -> tuple[str, int, dict]:
    config = ProtocolConfig(f=2, batching_interval=0.050)
    cluster = build_cluster("sc", config=config, seed=seed)
    workload = OpenLoopWorkload(cluster, rate=120, duration=2.0)
    workload.install()
    cluster.injector.inject(cluster.process("p1"), WrongDigestFault(active_from=0.9))
    cluster.start()
    cluster.run(until=5.0)
    digests = {n: d.hex() for n, d in cluster.agreement_digests().items()}
    return cluster.sim.trace.to_jsonl(), cluster.network.messages_sent, digests


def run_scr_surge(seed: int) -> tuple[str, int]:
    config = ProtocolConfig(f=2, variant="scr", batching_interval=0.050)
    cluster = build_cluster("scr", config=config, seed=seed)
    workload = OpenLoopWorkload(cluster, rate=120, duration=2.0)
    workload.install()
    cluster.injector.surge_link(
        cluster.pair_links[1], DelaySurgeFault(active_from=0.8, until=1.2, factor=40000.0)
    )
    cluster.start()
    cluster.run(until=5.0)
    return cluster.sim.trace.to_jsonl(), cluster.network.messages_sent


def test_failover_run_is_deterministic():
    a = run_failover(seed=17)
    b = run_failover(seed=17)
    assert a == b


def test_scr_surge_run_is_deterministic():
    a = run_scr_surge(seed=23)
    b = run_scr_surge(seed=23)
    assert a == b


def test_different_seeds_diverge():
    a = run_failover(seed=17)
    b = run_failover(seed=18)
    assert a[0] != b[0]


def test_experiment_points_are_reproducible():
    from repro.harness.runner import SweepTask, run_task

    task = SweepTask(kind="order", protocol="sc", scheme="md5-rsa1024",
                     batching_interval=0.100, n_batches=15, warmup_batches=4, seed=3)
    first = run_task(task).result
    second = run_task(task).result
    assert first == second


def test_failover_experiment_reproducible():
    from repro.harness.runner import SweepTask, run_task

    task = SweepTask(kind="failover", protocol="sc", scheme="md5-rsa1024",
                     backlog_batches=2, seed=3)
    first = run_task(task).result
    second = run_task(task).result
    assert first == second
