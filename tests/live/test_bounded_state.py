"""What a live replica retains is bounded by the checkpoint window.

In-process (simulated clock, no sockets) but built the way a live node
builds itself: the protocol config comes from ``config_from_spec`` on
the spec the controller broadcasts, so checkpoints are on at
``LIVE_CHECKPOINT_INTERVAL``.  One client keeps a 256-request window
full for forty-odd intervals; every count of the node report's
``state`` block is checked at every stable checkpoint of every
process, not just at the end.

The same run pins what truncation must not do: a late ack (SC) or
commit (BFT) for a slot already executed and dropped used to bring the
slot back, to be acked and committed a second time — under this load
the re-ack storms cut simulated SC throughput sixfold.
"""

from __future__ import annotations

import pytest

from repro import build_cluster
from repro.live.cluster import LIVE_CHECKPOINT_INTERVAL
from repro.live.node import config_from_spec

WINDOW = 256
INTERVALS = 40
BOUND = 2 * (LIVE_CHECKPOINT_INTERVAL + WINDOW)


@pytest.mark.parametrize("protocol", ["sc", "bft"])
def test_retained_state_stays_inside_the_checkpoint_window(protocol):
    spec = {
        "protocol": protocol, "scheme": "md5-rsa1024", "f": 1,
        "batching_interval": 0.050, "heartbeat_interval": 0.1,
        "view_timeout": 2.0, "checkpoint_interval": LIVE_CHECKPOINT_INTERVAL,
    }
    config = config_from_spec(spec)
    assert config.checkpoint_interval == LIVE_CHECKPOINT_INTERVAL > 0
    cluster = build_cluster(protocol, config=config, seed=1, n_clients=1)
    [client] = cluster.clients
    total = (INTERVALS + 1) * LIVE_CHECKPOINT_INTERVAL
    trace = cluster.sim.trace

    def refill(_record) -> None:  # closed loop: one out, one in
        if len(client.issued) < total:
            client.issue()

    readings: list[dict] = []

    def read_state(record) -> None:
        state = cluster.process(record.fields["actor"]).retained_state()
        assert state["stable_seq"] == record.fields["seq"]
        readings.append(state)

    trace.subscribe(refill, kinds=("request_completed",))
    trace.subscribe(read_state, kinds=("checkpoint_stable",))
    cluster.start()
    for _ in range(WINDOW):
        client.issue()
    cluster.run(until=120.0)

    assert client.completed_count == total
    assert len(readings) >= INTERVALS * len(cluster.processes)
    for state in readings:
        for name, count in state.items():
            if name != "stable_seq":
                assert count <= BOUND, (name, state)
    commits = [
        (r.fields["actor"], r.fields["first_seq"])
        for r in trace.of_kind("order_committed")
    ]
    assert len(set(commits)) == len(commits), "a truncated slot committed again"
    for process in cluster.processes.values():
        assert len(process.machine.history) == total
        if hasattr(process, "states"):  # BFT: no empty states left behind
            assert len(process.states) <= BOUND
        assert process.retained_state()["stable_seq"] >= INTERVALS * LIVE_CHECKPOINT_INTERVAL
