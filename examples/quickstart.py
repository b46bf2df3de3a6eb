#!/usr/bin/env python3
"""Quickstart: order requests with the SC protocol and watch replicas agree.

Builds the paper's deployment for f = 2 — five replicas ``p1..p5`` of
which ``p1``/``p2`` are paired with shadows ``p1'``/``p2'`` — drives it
with two clients for two seconds of virtual time, and prints the
latency statistics plus proof that every order process executed the
same sequence.

Run:  python examples/quickstart.py
"""

from repro import ProtocolConfig, build_cluster, OpenLoopWorkload
from repro.harness.probes import ProbeContext, replay_records


def main() -> None:
    config = ProtocolConfig(f=2, batching_interval=0.100)
    cluster = build_cluster("sc", config=config, seed=42)
    print(f"deployed {len(cluster.processes)} order processes "
          f"(n = 3f+1 = {config.n}): {', '.join(cluster.process_names)}")

    workload = OpenLoopWorkload(cluster, rate=120, duration=2.0)
    workload.install()
    cluster.start()
    cluster.run(until=3.0)

    # The run kept its whole trace (the default tracer), so measure it
    # after the fact with the same probe the figure sweeps stream into.
    stats = replay_records(
        cluster.sim.trace.records, ("order-latency",),
        ProbeContext(warmup_batches=3),
    )
    print(f"\nordered {workload.issued} requests; measured "
          f"{stats.batches_measured:.0f} batches after a 3-batch warm-up")
    print(f"order latency: mean {stats.latency_mean * 1e3:.1f} ms, "
          f"p50 {stats.latency_p50 * 1e3:.1f} ms, "
          f"p95 {stats.latency_p95 * 1e3:.1f} ms")

    digests = cluster.agreement_digests()
    unique = {d.hex()[:16] for d in digests.values()}
    print(f"\nreplica state digests ({len(unique)} distinct):")
    for name, digest in sorted(digests.items()):
        print(f"  {name:4s} {digest.hex()[:16]}…")
    assert len(unique) == 1, "replicas diverged!"
    print("\nall order processes executed the identical sequence ✓")

    async_msgs = cluster.network.messages_sent - cluster.network.pair_messages_sent
    print(f"messages: {async_msgs} on the shared network, "
          f"{cluster.network.pair_messages_sent} on pair links")


if __name__ == "__main__":
    main()
