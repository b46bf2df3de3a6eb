"""The heap holds only what can fire next, and nothing fires differently.

Two simulator mechanisms keep backlog off the kernel heap: a delivery
behind a busy CPU waits in that CPU's run queue (``repro.sim.cpu``),
and ``OpenLoopWorkload.install`` pushes one arrival at a time.  Both
are sold on one promise: every event fires with the ``(time, seq)`` key
it had when each completion and each arrival went straight onto the
heap.  The oracle here is that older mechanism, kept under ``tests/``:
a ``_deliver`` that always pushes, and an eager install.  Fired events
are read off the real kernel by recording what its run loop pops.  A
queued completion is also five plain fields in its run queue, so a
saturated backlog leaves the garbage collector nothing to walk.
"""

from __future__ import annotations

import gc
from collections import Counter
from types import MethodType
from typing import Any

import pytest

import repro.harness.workload as workload_module
import repro.protocols as protocols
import repro.sim.kernel as kernel
from repro import OpenLoopWorkload, build_cluster
from repro.errors import ConfigError
from repro.harness.workload import saturating_rate
from repro.net.delay import ConstantDelay
from repro.net.network import Network
from repro.sim.cpu import Cpu
from repro.sim.kernel import Simulator
from repro.sim.process import Actor

#: A binary-exact batching interval and arrival gap (2**-7, 2**-9): the
#: batch timer and every fourth arrival land on the same instants.
TICK = 2.0**-7
GAP = 2.0**-9


# ----------------------------------------------------------------------
# The oracle: the mechanisms the run queue and lazy arrivals replaced
# ----------------------------------------------------------------------
class DirectNetwork(Network):
    """``Network`` whose ``_deliver`` pushes every completion onto the heap."""

    def _deliver(self, dest: str, sender: str, payload: Any, size_bytes: int) -> None:
        actor = self._actors.get(dest)
        if actor is None:
            return
        service = actor.receive_service(payload, size_bytes)
        if service <= 0.0:
            actor.on_message(sender, payload)
            return
        cpu = actor.cpu
        now = self.sim.now
        busy = cpu.busy_until
        if busy > now:
            completion = busy + service * (1.0 + cpu.overload_gamma * (busy - now))
        else:
            completion = now + service
        cpu.busy_until = completion
        self.sim.schedule_at(completion, actor.on_message, sender, payload)


class EagerWorkload(OpenLoopWorkload):
    """``OpenLoopWorkload`` scheduling every arrival up front."""

    def install(self) -> None:
        sim = self.cluster.sim
        rng = sim.rng.stream(self.stream) if self.spacing == "poisson" else None
        clients = self.cluster.clients
        times = workload_module.arrival_times(
            self.rate, self.duration, self.spacing, rng, self.start
        )
        for i, t in enumerate(times):
            sim.schedule_at(t, self._arrive, clients[i % len(clients)])

    def _arrive(self, client) -> None:
        client.issue()
        self.issued += 1


# ----------------------------------------------------------------------
# Recording what the kernel fires
# ----------------------------------------------------------------------
def _label(entry: list[Any]) -> str:
    """What a popped entry runs: ``actor.method`` for an actor's method,
    else the bare name.  A run-queue head is labelled by its actor's
    ``on_message``, read off its CPU's queue, so call this at pop time."""
    callback = entry[2]
    if getattr(callback, "__func__", None) is Cpu._release:
        callback = callback.__self__.run_queue[2].on_message
    name = callback.__name__
    actor = getattr(getattr(callback, "__self__", None), "name", None)
    return name if actor is None else f"{actor}.{name}"


def _run_recorded(monkeypatch, cluster, until: float) -> list[tuple[float, int, str]]:
    """Run ``cluster`` to ``until``; return every fired (time, seq, label)."""
    fired: list[tuple[float, int, str]] = []
    pop = kernel.heappop

    def recording_pop(heap):
        entry = pop(heap)
        # Nothing here cancels a popped entry, so a cleared callback
        # slot means the entry was discarded at the top of the heap.
        if entry[2] is not None:
            fired.append((entry[0], entry[1], _label(entry)))
        return entry

    with monkeypatch.context() as patch:
        patch.setattr(kernel, "heappop", recording_pop)
        cluster.start()
        cluster.run(until=until)
    assert len(fired) == cluster.sim.events_processed
    return fired


def _cluster(protocol: str, oracle: bool, batching_interval: float, **workload: Any):
    config = protocols.get(protocol).configure(
        scheme="md5-rsa1024", f=1, batching_interval=batching_interval
    )
    cluster = build_cluster(protocol, config=config, seed=3)
    load = (EagerWorkload if oracle else OpenLoopWorkload)(cluster, **workload)
    if oracle:
        cluster.network.__class__ = DirectNetwork
    load.install()
    return cluster, load


def _run_queues(cluster) -> tuple[int, int]:
    """(completions waiting in run queues, queues with a head on the heap)."""
    cpus = {id(a.cpu): a.cpu for a in [*cluster.processes.values(), *cluster.clients]}
    queues = [cpu.run_queue for cpu in cpus.values()]
    return sum(len(queue) // 5 for queue in queues), sum(1 for queue in queues if queue)


def _saturating(protocol: str):
    def build(oracle: bool):
        rate = 1.5 * saturating_rate(1024, 64, 0.01)
        return _cluster(protocol, oracle, 0.01, rate=rate, duration=0.6)

    return build


_saturated = _saturating("sc")


def _tied(oracle: bool):
    return _cluster("sc", oracle, TICK, rate=1 / GAP, duration=0.3, spacing="uniform")


@pytest.mark.parametrize(
    "build",
    [_saturated, _saturating("ct"), _saturating("bft"), _tied],
    ids=["saturated", "saturated-ct", "saturated-bft", "tied-ticks"],
)
def test_run_queue_and_lazy_arrivals_fire_as_the_direct_push_oracle(monkeypatch, build):
    product, product_load = build(oracle=False)
    oracle, oracle_load = build(oracle=True)
    fired = _run_recorded(monkeypatch, product, until=0.6)
    assert fired == _run_recorded(monkeypatch, oracle, until=0.6)
    assert product.sim.events_processed == oracle.sim.events_processed
    assert product.agreement_digests() == oracle.agreement_digests()
    assert product_load.issued == oracle_load.issued > 0
    # Keys strictly increase: every slot fired in (time, seq) order.
    assert all(a[:2] < b[:2] for a, b in zip(fired, fired[1:]))
    # The heaps differ by what waits off the product's: queued
    # completions behind their heads, and arrivals not yet pushed.
    queued, heads = _run_queues(product)
    unpushed = len(product_load._times) - product_load._pushed
    assert oracle.sim.pending == product.sim.pending + queued - heads + unpushed


def test_saturated_run_queues_keep_the_heap_shallow():
    cluster, _ = _saturated(oracle=False)
    cluster.start()
    cluster.run(until=0.6)
    queued, _ = _run_queues(cluster)
    assert queued > 2000  # the point is saturated: CPUs have backlogs
    assert cluster.sim.pending < 0.05 * queued


def _tracked_containers() -> int:
    """GC-tracked lists, tuples and bound methods alive right now."""
    gc.collect()
    counts = Counter(type(obj) for obj in gc.get_objects())
    return counts[list] + counts[tuple] + counts[MethodType]


def test_queued_completions_are_not_garbage_collector_objects():
    # A queued completion is its fields in the run queue: no list,
    # bound method or tuple of its own for the cyclic collector to walk
    # on every full collection of a saturated run.
    cluster, _ = _saturated(oracle=False)
    before = _tracked_containers()
    cluster.start()
    cluster.run(until=0.6)
    grown = _tracked_containers() - before
    queued, _ = _run_queues(cluster)
    assert queued > 2000
    assert grown < 0.1 * queued


def test_tied_arrivals_land_on_batch_timer_instants(monkeypatch):
    cluster, _ = _tied(oracle=False)
    fired = _run_recorded(monkeypatch, cluster, until=0.3)
    arrivals = {t for t, _, label in fired if label == "_arrive"}
    ticks = {t for t, _, label in fired if label.endswith("._batch_tick")}
    assert len(arrivals & ticks) > 10


def test_install_puts_exactly_one_arrival_on_the_heap():
    config = protocols.get("sc").configure(scheme="md5-rsa1024", f=1)
    cluster = build_cluster("sc", config=config, seed=1)
    before = cluster.sim.pending
    load = OpenLoopWorkload(cluster, rate=500, duration=1.0)
    load.install()
    assert len(load._times) > 400
    assert cluster.sim.pending == before + 1


def test_arrivals_sharing_an_instant_fire_as_eagerly_installed(monkeypatch):
    # Ties among arrivals need float absorption (or a zero exponential
    # gap) in practice; a scripted schedule makes them certain.  The
    # timer at the tied instant is scheduled after install, so its seq
    # is above all three arrivals' and it must fire after them.
    tied = [0.05, 0.1, 0.1, 0.1, 0.2]
    monkeypatch.setattr(workload_module, "arrival_times", lambda *args: iter(tied))
    runs = []
    for oracle in (False, True):
        cluster = build_cluster("sc", seed=1)
        load = (EagerWorkload if oracle else OpenLoopWorkload)(
            cluster, rate=100, duration=1.0
        )
        before = cluster.sim.pending
        load.install()
        if not oracle:
            assert cluster.sim.pending == before + 1
        cluster.sim.schedule_at(0.1, lambda: None)
        runs.append(_run_recorded(monkeypatch, cluster, until=0.3))
    assert runs[0] == runs[1]
    at_tie = [label for t, _, label in runs[0] if t == 0.1]
    assert [x for x in at_tie if x in ("_arrive", "<lambda>")] == (
        ["_arrive"] * 3 + ["<lambda>"]
    )


def test_second_install_is_refused():
    cluster = build_cluster("sc", seed=1)
    load = OpenLoopWorkload(cluster, rate=100, duration=0.5)
    load.install()
    pending = cluster.sim.pending
    with pytest.raises(ConfigError, match="twice"):
        load.install()
    assert cluster.sim.pending == pending


class _Receiver(Actor):
    """Receives ``(tag, service)`` payloads and records their tags."""

    def __init__(self, sim: Simulator, log: list[str]) -> None:
        super().__init__(sim, "rx")
        self.log = log

    def receive_service(self, payload: Any, size_bytes: int) -> float:
        return payload[1]

    def on_message(self, sender: str, payload: Any) -> None:
        self.log.append(payload[0])


def test_a_completion_tying_the_queue_tail_keeps_its_slot():
    # m3's service is absorbed by the clock (1001.0 + 1e-14 == 1001.0),
    # so it completes at the same instant as m2, the run queue's tail.
    # Released only when m2 fires it would miss that slot and run after
    # the timer (scheduled later, so with a higher seq) at 1001.0.
    sim = Simulator(seed=1)
    network = Network(sim, default_link=ConstantDelay(0.0))
    log: list[str] = []
    network.attach(_Receiver(sim, log))
    services = [("m1", 1000.0), ("m2", 1.0), ("m3", 1e-14), ("m4", 1.0)]
    for payload in services:
        network.send("tx", "rx", payload, 64)
    sim.schedule_at(0.5, sim.schedule_at, 1001.0, log.append, "timer")
    sim.run()
    assert log == ["m1", "m2", "m3", "timer", "m4"]
