#!/usr/bin/env python3
"""Message-overhead study: SC vs BFT on the shared network.

The paper claims SC wins "also with a smaller message overhead in
failure-free scenarios".  This script counts, per committed batch, the
messages each protocol puts on the shared asynchronous network (pair
links are dedicated point-to-point wires and excluded, as in the
paper's architecture), plus the closing of the SMR loop with client
replies (f+1 matching rule).

Run:  python examples/message_overhead.py
"""

from repro import ProtocolConfig, build_cluster, OpenLoopWorkload
from repro.harness.probes import ProbeContext, replay_records
from repro.harness.report import render_table


def measure(protocol: str) -> dict:
    config = ProtocolConfig(f=2, batching_interval=0.100, send_replies=True)
    cluster = build_cluster(protocol, config=config, seed=13)
    workload = OpenLoopWorkload(cluster, rate=120, duration=2.0)
    workload.install()
    cluster.start()
    cluster.run(until=4.0)
    batches = int(replay_records(
        cluster.sim.trace.records, ("order-latency",), ProbeContext()
    ).batches_measured)
    shared = cluster.network.messages_sent - cluster.network.pair_messages_sent
    completed = sum(c.completed_count for c in cluster.clients)
    return {
        "batches": batches,
        "shared_msgs": shared,
        "shared_per_batch": shared / batches,
        "bytes": cluster.network.bytes_sent,
        "completed": completed,
        "issued": workload.issued,
    }


def main() -> None:
    rows = []
    results = {}
    for protocol in ("ct", "sc", "bft"):
        result = measure(protocol)
        results[protocol] = result
        rows.append((
            protocol,
            result["batches"],
            f"{result['shared_per_batch']:.1f}",
            f"{result['bytes'] / 1024:.0f}",
            f"{result['completed']}/{result['issued']}",
        ))
    print(render_table(
        "Message overhead per committed batch (f = 2, incl. client replies)",
        ("protocol", "batches", "shared msgs/batch", "total KB", "replies done"),
        rows,
    ))
    sc = results["sc"]["shared_per_batch"]
    bft = results["bft"]["shared_per_batch"]
    print(f"\nSC places {sc:.1f} messages per batch on the shared network "
          f"vs BFT's {bft:.1f} ({bft / sc:.2f}x) — the paper's 'smaller "
          f"message overhead' claim.")
    for protocol, result in results.items():
        assert result["completed"] == result["issued"], protocol
    print("every request reached f+1 matching client replies in all three ✓")


if __name__ == "__main__":
    main()
