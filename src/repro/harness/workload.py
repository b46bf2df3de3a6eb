"""Client workloads.

The paper's clients "direct their requests to all nodes"; latency is
measured from *batch formation*, so the workload's job is simply to
keep the coordinator's batches populated at the desired pressure.
:class:`OpenLoopWorkload` issues requests at a fixed aggregate rate
with exponential (Poisson) or uniform spacing, split round-robin over
the cluster's clients; :class:`AggregatedWorkload` replaces the
per-client model with one merged population stream
(:mod:`repro.harness.population`) so offered load costs O(events),
not O(clients).
"""

from __future__ import annotations

import random
from typing import Iterator

from repro.core.requests import ClientRequest
from repro.errors import ConfigError
from repro.harness.cluster import Cluster
from repro.sim.process import Actor

#: Name of the single network sender standing in for every virtual
#: client — one entry in the network's per-link delay-stream cache no
#: matter how large the population.
POOL_NAME = "population"


def arrival_times(
    rate: float,
    duration: float,
    spacing: str = "poisson",
    rng: random.Random | None = None,
    start: float = 0.0,
) -> Iterator[float]:
    """Yield the absolute arrival instants of one open-loop stream.

    Arrivals lie in the half-open window ``[start, start + duration)``,
    measured relative to ``start`` (``0 <= t - start < duration``, which
    in floating point is not the same test as ``t < start + duration``):
    ``start`` offsets the whole stream, so a late-starting stream still
    emits for its full ``duration``.  ``spacing="poisson"`` requires a seeded ``rng``;
    ``spacing="uniform"`` is deterministic and *rejects* one (silently
    accepting an unused rng hid seeding bugs).

    The single source of request-arrival schedules: the simulated
    :class:`OpenLoopWorkload` schedules these on the kernel, the live
    ``repro load`` driver sleeps until each on a wall clock — same
    spacing law, so live and simulated runs see statistically identical
    offered load (identical, for a shared seeded ``rng``).
    """
    if rate <= 0 or duration <= 0:
        raise ConfigError("rate and duration must be positive")
    if start < 0:
        raise ConfigError(f"start offset must be >= 0, got {start}")
    if spacing not in ("poisson", "uniform"):
        raise ConfigError(f"unknown spacing {spacing!r}")
    if spacing == "poisson" and rng is None:
        raise ConfigError("poisson spacing needs an rng")
    if spacing == "uniform" and rng is not None:
        raise ConfigError("uniform spacing is deterministic; it takes no rng")
    t = start
    mean_gap = 1.0 / rate
    while True:
        t += rng.expovariate(rate) if spacing == "poisson" else mean_gap
        if t - start >= duration:
            return
        yield t


def saturating_rate(batch_size_bytes: int, request_bytes: int, batching_interval: float,
                    headroom: float = 1.3) -> float:
    """Aggregate request rate that keeps every batch full.

    A batch carries at most ``batch_size_bytes / request_bytes``
    requests and one batch forms per ``batching_interval``; the
    headroom factor keeps the unordered queue non-empty despite
    arrival jitter.

    This models a **single coordinator batch stream** — the four seed
    protocols all drain one ordered queue — so the rate is aggregate,
    not per-class.
    """
    per_batch = max(1, batch_size_bytes // request_bytes)
    return headroom * per_batch / batching_interval


class OpenLoopWorkload:
    """Issues requests at ``rate`` per second for ``duration`` seconds."""

    def __init__(
        self,
        cluster: Cluster,
        rate: float,
        duration: float,
        start: float = 0.0,
        spacing: str = "poisson",
        stream: str = "workload",
    ) -> None:
        if rate <= 0 or duration <= 0:
            raise ConfigError("rate and duration must be positive")
        if spacing not in ("poisson", "uniform"):
            raise ConfigError(f"unknown spacing {spacing!r}")
        self.cluster = cluster
        self.rate = rate
        self.duration = duration
        self.start = start
        self.spacing = spacing
        self.stream = stream
        self.issued = 0

    def install(self) -> None:
        """Schedule every arrival up front (deterministic given seed).

        Each workload draws from its own named RNG stream, so several
        (e.g. a base load plus bursts) compose without correlating or
        perturbing one another's arrival sequences.
        """
        sim = self.cluster.sim
        rng = sim.rng.stream(self.stream) if self.spacing == "poisson" else None
        clients = self.cluster.clients
        times = arrival_times(
            self.rate, self.duration, self.spacing, rng, self.start
        )
        for i, t in enumerate(times):
            sim.schedule_at(t, self._issue, clients[i % len(clients)])

    def _issue(self, client) -> None:
        client.issue()
        self.issued += 1


class VirtualClientPool(Actor):
    """One network sender standing in for an entire client population.

    Requests carry the sampled virtual identity in
    ``ClientRequest.client`` (``"c<id>"``) while the wire sender is
    always :data:`POOL_NAME` — the network's per-link delay-stream
    cache and actor table stay O(1) in population size.  Request ids
    come from a single pool-wide counter, so ``(client, req_id)`` keys
    stay unique even when Zipf sampling repeats a client id.
    """

    def __init__(
        self,
        cluster: Cluster,
        request_bytes: int = 64,
        marshal_cost: float = 20e-6,
    ) -> None:
        super().__init__(cluster.sim, POOL_NAME)
        self.network = cluster.network
        self.targets = cluster.process_names
        self.request_bytes = request_bytes
        self.marshal_cost = marshal_cost
        self.issued = 0
        self._next_id = 1

    def issue(self, client_id: int, class_name: str) -> None:
        request = ClientRequest(
            client=f"c{client_id}",
            req_id=self._next_id,
            size_bytes=self.request_bytes,
        )
        self._next_id += 1
        depart = self.charge(self.marshal_cost)
        self.network.multicast(
            self.name, self.targets, request, request.size_bytes, depart_time=depart
        )
        # Scale-only kind: guard so unmeasured runs skip the record.
        if self.sim.trace.wants("request_issued"):
            self.trace("request_issued", req=request.key, cls=class_name)
        self.issued += 1

    def on_message(self, sender: str, payload) -> None:  # pragma: no cover
        # Replies are disabled under population workloads (the virtual
        # ids are not addressable); nothing routes here.
        pass


class AggregatedWorkload:
    """Population-model open-loop load: O(events) regardless of clients.

    Schedules the merged :func:`~repro.harness.population.
    population_stream` **lazily** — only the next arrival lives on the
    kernel heap at any instant, and the issuing client id is sampled
    at delivery time — so install cost, heap residency, and memory are
    all independent of the population size.  The seeded stream digest
    is exposed for sim-vs-live identity checks.
    """

    def __init__(
        self,
        cluster: Cluster,
        population,
        rate: float,
        duration: float,
        start: float = 0.0,
    ) -> None:
        if rate <= 0 or duration <= 0:
            raise ConfigError("rate and duration must be positive")
        self.cluster = cluster
        self.population = population
        self.rate = rate
        self.duration = duration
        self.start = start
        self.pool: VirtualClientPool | None = None
        self._events = None
        self._digest = None

    @property
    def issued(self) -> int:
        return self.pool.issued if self.pool is not None else 0

    def stream_digest(self) -> str:
        """Digest of every arrival scheduled so far (complete after a run)."""
        return self._digest.hexdigest() if self._digest is not None else ""

    def install(self) -> None:
        from repro.harness.population import StreamDigest, population_stream

        sim = self.cluster.sim
        self.pool = VirtualClientPool(
            self.cluster, request_bytes=self.cluster.config.request_bytes
        )
        self._digest = StreamDigest()
        self._events = population_stream(
            self.population, self.rate, self.duration, sim.rng, self.start
        )
        self._schedule_next()

    def _schedule_next(self) -> None:
        event = next(self._events, None)
        if event is None:
            return
        t, class_name, client_id = event
        self._digest.update(t, class_name, client_id)
        self.cluster.sim.schedule_at(t, self._fire, class_name, client_id)

    def _fire(self, class_name: str, client_id: int) -> None:
        self.pool.issue(client_id, class_name)
        self._schedule_next()
