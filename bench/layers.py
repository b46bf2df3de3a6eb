"""Stage costs per layer, taken from outside the program.

Each number times a public function on a representative message, or
counts through a public counter or probe on a short simulated run.
They do not depend on the workload, so every traced run reports them;
the README says which end-to-end metric each one should move.
"""

from __future__ import annotations

import copy
import random
import time

import repro.harness.probes as probe_registry
import repro.protocols as protocols
from repro.calibration import paper_testbed
from repro.core.replies import Reply
from repro.core.requests import ClientRequest
from repro.crypto.canon import encode_canonical, strip_memo
from repro.crypto.digests import digest
from repro.crypto.schemes import MD5_RSA_1024
from repro.crypto.signed import sign_message, signing_bytes, verify_signed
from repro.crypto.signing import SimulatedSignatureProvider
from repro.harness.cluster import build_cluster
from repro.harness.perf import sample_hotpath_message
from repro.harness.population import PopulationSpec, population_stream
from repro.harness.probes import ProbeContext
from repro.harness.workload import OpenLoopWorkload, arrival_times
from repro.net import codec, framing
from repro.net.delay import LinkDelayStream
from repro.protocols.runtime import record_dispatches, replay_process
from repro.sim.events import EventQueue
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceRecord, Tracer

#: Seconds each timing round runs; the best of ROUNDS rounds is kept.
ROUND_S = 0.03
ROUNDS = 3
#: The short simulated run behind the per-commit counts and the replay.
STEP_RATE, STEP_LOAD_S, STEP_END_S = 150.0, 1.0, 3.0


def _seconds_per_call(fn) -> float:
    best = float("inf")
    for _ in range(ROUNDS):
        calls = 0
        start = time.perf_counter()
        elapsed = 0.0
        while elapsed < ROUND_S:
            fn()
            calls += 1
            elapsed = time.perf_counter() - start
        best = min(best, elapsed / calls)
    return best


def _us(fn) -> float:
    return _seconds_per_call(fn) * 1e6


def _ns(fn) -> float:
    return _seconds_per_call(fn) * 1e9


class _Sink:
    """Stands in for a stream writer: keeps the last frame written."""

    def write(self, data: bytes) -> None:
        self.data = data


class _Source:
    """Stands in for a socket: serves one frame's bytes to ``recv``."""

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.at = 0

    def recv(self, n: int) -> bytes:
        chunk = self.data[self.at : self.at + n]
        self.at += len(chunk)
        return chunk


def _sim_costs() -> dict[str, float]:
    rng = random.Random(7)
    times = [rng.random() for _ in range(100_000)]

    def queue_round() -> float:
        queue, out = EventQueue(), []
        start = time.perf_counter()
        for at in times:
            queue.push(at, print, ())
        while queue.pop_due_batch(None, out) is not None:
            out.clear()
        return (time.perf_counter() - start) / len(times)

    tracer = Tracer(keep_kinds={"kept"})

    def emit() -> None:
        tracer.emit(0.5, "kept", rank=1, batch_id=3)
        tracer.records.clear()

    link = LinkDelayStream(paper_testbed().lan_link(), random.Random(7))
    return {
        "sim.queue_push_pop_ns": min(queue_round() for _ in range(ROUNDS)) * 1e9,
        "sim.trace_emit_ns": _ns(emit),
        "sim.trace_skip_ns": _ns(lambda: tracer.emit(0.5, "other", rank=1)),
        "net.delay_draw_ns": _ns(lambda: link.sample(1024, 0.0)),
    }


def _crypto_costs() -> dict[str, float]:
    message = sample_hotpath_message()
    cold = copy.deepcopy(message)

    def encode_cold() -> None:
        strip_memo(cold)
        encode_canonical(cold)

    provider = SimulatedSignatureProvider(MD5_RSA_1024, ["p1", "p1'"])
    kilobyte = bytes(range(256)) * 4
    return {
        "crypto.canon_cold_us": _us(encode_cold),
        "crypto.canon_warm_us": _us(lambda: encode_canonical(message)),
        "crypto.signing_bytes_us": _us(
            lambda: signing_bytes(message.body, message.signatures)
        ),
        "crypto.digest_md5_1k_us": _us(lambda: digest("md5", kilobyte)),
        "crypto.sign_us": _us(lambda: sign_message(provider, "p1", message.body)),
        "crypto.verify_us": _us(lambda: verify_signed(provider, message)),
    }


def _wire_costs() -> dict[str, float]:
    """The pickle frame path in use and the JSON codec that is not, on
    the three payload shapes a live commit moves."""
    shapes = {
        "request": ClientRequest(client="c1", req_id=1, payload=bytes(8)),
        "order": sample_hotpath_message(n_entries=16),
        "reply": Reply(replier="p1", client="c1", req_id=1, seq=1, result_digest=bytes(16)),
    }
    out = {}
    for shape, payload in shapes.items():
        frame = ("msg", "p1", "p2", payload)
        sink = _Sink()
        framing.write_frame(sink, frame)
        framed = sink.data
        encoded = codec.encode(payload)
        out[f"net.frame_bytes.{shape}"] = len(framed)
        out[f"net.codec_bytes.{shape}"] = len(encoded)
        out[f"net.frame_encode_us.{shape}"] = _us(lambda: framing.write_frame(sink, frame))
        out[f"net.frame_decode_us.{shape}"] = _us(lambda: framing.recv_msg(_Source(framed)))
        out[f"net.codec_encode_us.{shape}"] = _us(lambda: codec.encode(payload))
        out[f"net.codec_decode_us.{shape}"] = _us(lambda: codec.decode(encoded))
    return out


def _harness_costs() -> dict[str, float]:
    population = PopulationSpec(clients=1_000_000, id_distribution="zipf", zipf_s=1.1)

    def rate(events) -> float:
        start = time.perf_counter()
        count = sum(1 for _ in events)
        return count / (time.perf_counter() - start)

    context = ProbeContext(window_end=1.0)
    (latency_probe,) = probe_registry.create_all(("order-latency",), context)
    (cost_probe,) = probe_registry.create_all(("crypto-cost",), context)
    commit = TraceRecord(
        0.5, "order_committed", {"rank": 1, "batch_id": 3, "actor": "p2", "n_requests": 25}
    )
    crypto_op = TraceRecord(
        0.5, "crypto_op", {"op": "sign", "cost": 0.001, "msg": "OrderBatch"}
    )
    return {
        "harness.population_events_per_s": max(
            rate(population_stream(population, 20_000.0, 1.0, RngRegistry(7)))
            for _ in range(ROUNDS)
        ),
        "harness.arrival_events_per_s": max(
            rate(arrival_times(20_000.0, 1.0, "poisson", random.Random(7)))
            for _ in range(ROUNDS)
        ),
        "harness.probe_consume_ns": _ns(lambda: latency_probe.consume(commit)),
        "harness.scale_probe_consume_ns": _ns(lambda: cost_probe.consume(crypto_op)),
    }


def _step_costs(protocol: str) -> dict[str, float]:
    """Per-commit counts from a short simulated run of ``protocol`` (the
    live clusters' f=1), then the same dispatches replayed through the
    step logic alone: no kernel, no socket."""
    seed = 7
    plugin = protocols.get(protocol)
    config = plugin.configure(scheme="md5-rsa1024", f=1, batching_interval=0.05)
    cluster = build_cluster(protocol, config=config, seed=seed)
    context = ProbeContext(protocol=protocol)
    (cost_probe,) = probe_registry.create_all(("crypto-cost",), context)
    cluster.sim.trace = Tracer(keep_kinds=())
    cost_probe.attach(cluster.sim.trace)
    log = record_dispatches(cluster)
    OpenLoopWorkload(cluster, rate=STEP_RATE, duration=STEP_LOAD_S).install()
    cluster.start()
    cluster.run(until=STEP_END_S)
    commits = max(len(process.machine.history) for process in cluster.processes.values())
    dispatches = sum(len(rows) for rows in log.dispatches.values())

    def replay_seconds(rows_of) -> float:
        start = time.perf_counter()
        for name in cluster.processes:
            replay_process(protocol, config, seed, name, rows_of(name), STEP_END_S)
        return time.perf_counter() - start

    # Building the deployments is not step logic: time it with no
    # dispatches and take it off.
    replay = min(replay_seconds(log.for_process) for _ in range(ROUNDS))
    build = min(replay_seconds(lambda name: []) for _ in range(ROUNDS))
    ops = cost_probe.finalize()
    crypto_ops = ops["sign_ops"] + ops["verify_ops"]
    return {
        f"step.us_per_dispatch.{protocol}": max(0.0, replay - build) / dispatches * 1e6,
        f"step.dispatches_per_commit.{protocol}": dispatches / commits,
        f"net.sim_msgs_per_commit.{protocol}": cluster.network.messages_sent / commits,
        f"net.sim_bytes_per_commit.{protocol}": cluster.network.bytes_sent / commits,
        f"crypto.ops_per_commit.{protocol}": crypto_ops / commits,
    }


def measure() -> dict[str, float]:
    """Every workload-independent per-layer metric."""
    out = {**_sim_costs(), **_crypto_costs(), **_wire_costs(), **_harness_costs()}
    for protocol in protocols.names():
        out.update(_step_costs(protocol))
    return out
