"""A stable checkpoint releases executed requests from the pool; the
exactly-once record it leaves behind must still refuse them.

Plain simulated SC cluster (f = 1: ``p1``/``p1'`` coordinate, ``p2`` is
the unpaired stand-by that takes over after a crash).
"""

from __future__ import annotations

import pytest

from repro import OpenLoopWorkload, ProtocolConfig, build_cluster
from repro.core.requests import ClientRequest
from repro.failures.faults import CrashFault
from repro.protocols.runtime import install_prefix, replay_history
from tests.conftest import assert_executed_once

INTERVAL = 16


def _cluster(duration: float = 0.0, interval: int = INTERVAL):
    config = ProtocolConfig(
        f=1, batching_interval=0.050, checkpoint_interval=interval,
        send_replies=True,
    )
    cluster = build_cluster("sc", config=config, seed=1)
    if duration:
        OpenLoopWorkload(cluster, rate=100, duration=duration).install()
    return cluster


def _times_ordered(cluster, key) -> int:
    return sum(
        record.fields["keys"].count(key)
        for record in cluster.sim.trace.of_kind("batch_requests")
    )


def _assert_executed_once(cluster, request: ClientRequest) -> None:
    assert_executed_once(cluster)
    for name, process in cluster.processes.items():
        assert process.has_executed(*request.key), name


def test_late_copy_of_a_pruned_request_is_refused_by_the_coordinator():
    cluster = _cluster(duration=1.0)
    cluster.start()
    cluster.run(until=1.5)
    p1 = cluster.process("p1")
    assert p1.checkpoints.stable_seq >= 2 * INTERVAL
    old = cluster.clients[0].issued[0]
    assert old.key not in p1.pending  # executed below the stable point: released
    assert p1.note_request(old) is False
    p1.on_message(old.client, old)
    assert old not in p1.unordered and old.key not in p1.pending
    cluster.run(until=2.0)
    assert _times_ordered(cluster, old.key) == 1
    _assert_executed_once(cluster, old)


def test_late_copy_is_refused_by_the_coordinator_a_crash_installs():
    cluster = _cluster(duration=2.0)
    cluster.injector.inject(cluster.process("p1"), CrashFault(active_from=1.0))
    cluster.start()
    cluster.run(until=2.5)
    p2 = cluster.process("p2")
    assert p2.is_ordering and p2.c == 2
    old = cluster.clients[0].issued[0]
    assert p2.checkpoints.stable_seq >= 2 * INTERVAL and old.key not in p2.pending
    # The take-over re-queued only what never executed ...
    committed_after = [
        r for r in cluster.sim.trace.of_kind("order_committed") if r.fields["rank"] == 2
    ]
    assert committed_after
    # ... and a copy that arrives now is neither pooled nor ordered again.
    assert p2.note_request(old) is False
    p2.on_message(old.client, old)
    assert old not in p2.unordered
    cluster.run(until=3.0)
    assert _times_ordered(cluster, old.key) == 1
    _assert_executed_once(cluster, old)
    issued = sum(len(client.issued) for client in cluster.clients)
    assert sum(client.completed_count for client in cluster.clients) == issued


@pytest.mark.xfail(
    strict=True,
    reason="state transfer replays (seq, digest) rows only: the rejoined "
    "process's executed-id record stays empty, so it pools a late copy "
    "of a request executed below the snapshot",
)
def test_late_copy_is_refused_by_a_replica_rejoined_from_a_snapshot():
    cluster = _cluster(duration=1.0)
    cluster.start()
    cluster.run(until=1.5)
    peer = cluster.process("p2")
    assert peer.checkpoints.stable_seq >= 2 * INTERVAL
    old = cluster.clients[0].issued[0]
    assert peer.note_request(old) is False  # the peer's record refuses it
    # Rejoin as a live node does: a fresh process adopts the peer's
    # committed prefix, replayed from its (seq, req_digest) rows.
    fresh = _cluster().process("p2")
    snapshot = replay_history("p2", list(peer.machine.history))
    assert install_prefix(fresh, snapshot) == peer.machine.applied_seq
    assert fresh.note_request(old) is False


def test_ids_below_an_executed_one_are_still_accepted():
    """Out-of-order execution inside one client's window: ids 5-8
    execute (and are released at a stable checkpoint) before ids 1-4
    arrive; the record's floor must not have swallowed 1-4."""
    cluster = _cluster(interval=4)
    client = cluster.clients[0]
    cluster.start()
    client._next_id = 5
    late = [client.issue() for _ in range(4)]
    cluster.run(until=0.5)
    p2 = cluster.process("p2")
    assert p2.checkpoints.stable_seq == 4 and not p2.pending
    assert all(p2.has_executed(*r.key) for r in late)
    assert not any(p2.has_executed(client.name, i) for i in (1, 2, 3, 4, 9))
    client._next_id = 1
    early = [client.issue() for _ in range(4)]
    cluster.run(until=1.0)
    for process in cluster.processes.values():
        assert len(process.machine.history) == 8
        assert all(process.has_executed(*r.key) for r in early + late)
        # Contiguous again: the record is one floor, no sparse ids.
        assert process.retained_state()["executed_record"] == 1
    assert client.completed_count == 8
