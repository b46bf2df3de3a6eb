#!/usr/bin/env python3
"""Fail-over demo: a Byzantine coordinator is caught by its shadow.

The whole experiment is one declarative :class:`repro.ScenarioSpec`:
the coordinator replica (``target="coordinator"`` — resolved through
the protocol plugin, here ``p1``) starts signing order batches whose
request digests are corrupted — a value-domain failure.  Its shadow
``p1'`` detects the mismatch while checking the proposal, emits the
doubly-signed fail-signal, and the install part (BackLog → Start →
support tuples) moves coordination to the pair {p2, p2'}.  The deposed
pair goes *dumb* (Section 4.3) and ordering resumes.

``build_scenario`` materialises the spec but leaves the simulation in
our hands, so the demo can subscribe a timeline printer to the tracer
before starting it (a scenario's tracer retains only what its probes
measure, so milestones are watched as they happen, not read back);
``run_scenario(spec)`` would instead return the aggregate
:class:`ScenarioResult` directly.

Run:  python examples/failover_demo.py
"""

from repro import ScenarioSpec
from repro.harness.probes import ProbeContext, replay_records
from repro.harness.scenario import FaultSpec, WorkloadSpec, build_scenario

#: One line per fail-over milestone, keyed by trace kind.
TIMELINE = {
    "value_domain_failure": lambda f: f"detected: {f['reason']}",
    "fail_signal_emitted": lambda f: "emitted the doubly-signed fail-signal "
                                     f"({f['domain']} domain)",
    "failover_complete": lambda f: "issued Start with f+1 signatures — new "
                                   "coordinator installed",
    "went_dumb": lambda f: "went dumb",
}


def print_milestone(record) -> None:
    fields = record.fields
    print(f"t={record.time:.3f}s  {fields['actor']} "
          f"{TIMELINE[record.kind](fields)}")


def main() -> None:
    spec = ScenarioSpec(
        name="failover-demo",
        protocol="sc",
        f=2,
        batching_interval=0.100,
        duration=3.0,
        drain=2.0,
        seed=7,
        workload=WorkloadSpec(rate=120.0),
        faults=(FaultSpec(kind="wrong_digest", target="coordinator", at=1.0),),
        description="shadow catches a value-domain fault at the coordinator",
    )
    cluster, _ = build_scenario(spec)
    print(f"injected: {cluster.coordinator_name} will sign corrupted digests "
          f"from t = 1.0 s\n")

    trace = cluster.sim.trace
    trace.subscribe(print_milestone, kinds=TIMELINE)
    cluster.start()
    cluster.run(until=spec.duration + spec.drain)

    # The fail-over probe's kinds are among those the scenario retains.
    measured = replay_records(
        trace.records, ("failover",), ProbeContext(min_samples=1)
    )
    print(f"\nfail-over latency: {measured.failover_latency * 1e3:.1f} ms "
          f"(fail-signal → Start with f+1 signatures)")

    ranks = {}
    for record in trace.of_kind("order_committed"):
        if record.fields["actor"] != "p3":  # count each batch once
            continue
        ranks.setdefault(record.fields["rank"], 0)
        ranks[record.fields["rank"]] += record.fields["n_requests"]
    for rank, count in sorted(ranks.items()):
        who = "pair {p1, p1'}" if rank == 1 else "pair {p2, p2'}"
        print(f"requests committed under coordinator {rank} ({who}): {count}")

    digests = set(cluster.agreement_digests().values())
    assert len(digests) == 1, "replicas diverged!"
    print("\nsafety held across the fail-over: all replicas agree ✓")


if __name__ == "__main__":
    main()
