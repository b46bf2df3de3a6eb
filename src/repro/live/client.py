"""``python -m repro load``: open-loop client driver for a live cluster.

Fetches the running cluster's spec from the ``repro serve`` control
port, dials every replica's data listener, and issues
:class:`~repro.core.requests.ClientRequest` frames on the same
open-loop arrival stream the simulator uses
(:func:`repro.harness.workload.arrival_times` on a seeded RNG — the
spacing law, not just the mean rate, matches the simulated workload).
A request counts as committed once ``f + 1`` distinct replicas return
matching :class:`~repro.core.replies.Reply` frames (the cluster runs
with ``send_replies``), and its commit latency is the wall-clock span
from issue to the ``f+1``-th matching reply.

Prints per-run latency/throughput statistics as a JSON line, and with
``--json`` appends the raw per-request samples for ``repro compare
--live``.

With ``--population FILE`` the driver replays an *aggregated*
population stream instead: the same
:func:`repro.harness.population.population_stream` the simulator
schedules from, seeded identically (``RngRegistry(seed)`` with the
same stream names), so the arrival stream — times, classes and
sampled client ids — is bit-identical to the simulated one for a
shared seed (both sides publish a
:class:`~repro.harness.population.StreamDigest`).  Requests carry the
sampled virtual client id; the replicas learn a return route for each
id from the connection it arrived on, and the driver's transport
catches every reply regardless of which virtual id it addresses.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import random
import sys
import time
from pathlib import Path

from repro.core.replies import Reply, ReplyTracker
from repro.core.requests import ClientRequest
from repro.errors import ReproError
from repro.harness.population import (
    StreamDigest,
    population_from_dict,
    population_stream,
)
from repro.harness.scenario import read_spec_file
from repro.harness.workload import arrival_times
from repro.live.transport import LiveTransport
from repro.net import framing
from repro.sim.rng import RngRegistry

#: How long after the last arrival the driver keeps collecting replies.
DRAIN_GRACE = 2.0


class LoadClient:
    """The actor a :class:`LiveTransport` dispatches replies into.

    One connection may carry many client ids (a population run samples
    one per request), so pending requests are keyed by ``req_id`` —
    drawn from one pool-wide counter — and complete by the f+1
    matching-reply rule; a matched request's issue time is dropped."""

    def __init__(self, name: str, f: int) -> None:
        self.name = name
        self.f = f
        self.replies = ReplyTracker(f)
        self.issue_times: dict[int, float] = {}
        self.latencies: list[float] = []
        self.commit_times: list[float] = []

    def on_message(self, sender: str, payload) -> None:
        if isinstance(payload, Reply) and payload.req_id in self.issue_times:
            now = time.monotonic()
            if self.replies.note_reply(payload, now):
                self.latencies.append(now - self.issue_times.pop(payload.req_id))
                self.commit_times.append(now)


async def fetch_spec(control: str, auth_key: bytes | None) -> dict:
    """Ask the controller for the running cluster's start spec.

    The dial retries on the shared jittered-backoff policy
    (:data:`repro.net.framing.STARTUP`): load drivers routinely race
    the controller's bind (the CI smoke jobs launch both at once), so
    a not-yet-listening cluster is a reason to wait, not to fail.  A
    controller that never appears surfaces as a clean
    :class:`~repro.net.framing.PeerLost` once the budget is spent.
    """
    host, _, port = control.rpartition(":")
    reader, writer = await framing.open_connection_with_retry(
        host, int(port), framing.STARTUP
    )
    try:
        if auth_key is not None:
            await framing.answer_challenge_async(reader, writer, auth_key)
        framing.write_frame(writer, ("spec?",))
        await writer.drain()
        frame = await framing.read_frame(reader)
    finally:
        writer.close()
    if not (isinstance(frame, tuple) and frame[0] == "spec"):
        raise ReproError(f"controller sent {frame!r} instead of a spec")
    return frame[1]


def _write_summary_file(path: str, summary: dict) -> None:
    """Synchronous summary dump, always invoked off the event loop."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    idx = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[idx]


def load_population(path: str | Path):
    """A :class:`~repro.harness.population.PopulationSpec` from a JSON
    or TOML file — either a bare population block or a document with a
    ``population`` key (a scenario spec file works verbatim)."""
    data = read_spec_file(path, "population")
    if isinstance(data.get("population"), dict):
        data = data["population"]
    return population_from_dict(data)


def _population_arrivals(population, args, digest: StreamDigest):
    """``(at, client_name)`` per event of the seeded stream the
    simulator's ``AggregatedWorkload`` schedules from, each folded into
    ``digest`` as it is drawn."""
    for at, class_name, client_id in population_stream(
        population, args.rate, args.duration, RngRegistry(args.seed)
    ):
        digest.update(at, class_name, client_id)
        yield at, f"c{client_id}"


async def _offer(args, spec: dict, auth_key: bytes | None, arrivals):
    """Send one request per ``(at, client_name)`` arrival on schedule
    from one wire sender (``--client-id``), then collect replies for
    :data:`DRAIN_GRACE`.  Returns ``(client, issued, start,
    frames_in)``, the last being the reply messages the transport
    handed to the client."""
    replicas = sorted(spec["addresses"])
    request_bytes = int(spec.get("request_bytes", 64))
    client = LoadClient(args.client_id, spec["f"])
    transport = LiveTransport(
        args.client_id,
        addresses={name: tuple(addr) for name, addr in spec["addresses"].items()},
        auth_key=auth_key,
    )
    transport.attach(client)
    transport.host(args.client_id)
    # Replies address the id their request carried; a population's
    # virtual ids ("c42") are not hosted here, so the catch-all hands
    # every one of them to the tracker.
    transport.catch_all = client

    start = time.monotonic()
    issued = 0
    for at, name in arrivals:
        delay = (start + at) - time.monotonic()
        if delay > 0:
            await asyncio.sleep(delay)
        issued += 1
        request = ClientRequest(client=name, req_id=issued, size_bytes=request_bytes)
        client.issue_times[issued] = time.monotonic()
        transport.multicast(
            args.client_id, replicas, request, request.size_bytes
        )
    await asyncio.sleep(DRAIN_GRACE)
    await transport.close()
    return client, issued, start, transport.frames_delivered


async def run_load(args) -> int:
    """Drive the cluster; the single-client stream and the
    ``--population`` replay differ only in how arrivals are drawn."""
    auth_key = framing.resolve_auth_key(args.auth_key)
    spec = await fetch_spec(args.control, auth_key)
    if args.population is None:
        population = digest = None
        rng = random.Random(args.seed) if args.spacing == "poisson" else None
        arrivals = (
            (at, args.client_id)
            for at in arrival_times(args.rate, args.duration, args.spacing, rng)
        )
    else:
        population = load_population(args.population)
        digest = StreamDigest()
        arrivals = _population_arrivals(population, args, digest)
    client, issued, start, frames_in = await _offer(args, spec, auth_key, arrivals)

    latencies = client.latencies
    committed = len(latencies)
    elapsed = (
        (client.commit_times[-1] - start) if client.commit_times else args.duration
    )
    summary = {
        "protocol": spec["protocol"],
        "f": spec["f"],
        "rate": args.rate,
        "duration": args.duration,
        "issued": issued,
        "committed": committed,
        "latency_mean_s": sum(latencies) / committed if committed else None,
        "latency_p50_s": percentile(latencies, 0.50) if committed else None,
        "latency_p95_s": percentile(latencies, 0.95) if committed else None,
        "throughput_rps": committed / elapsed if elapsed > 0 else 0.0,
        # Replies read per committed request (n when every replica's
        # reply arrives; f+1 are needed).
        "frames_in_per_commit": frames_in / committed if committed else None,
    }
    if population is not None:
        summary["clients"] = population.clients
        summary["stream_digest"] = digest.hexdigest()
        if args.bench_dir:
            path = write_population_artifact(
                summary, spec, args, population, digest, elapsed
            )
            summary["artifact"] = str(path)
    if args.json:
        summary["samples"] = [round(v, 6) for v in latencies]
        # The measurement window is over (transport closed), but other
        # tasks may still be draining on this loop — keep the disk
        # write off it.
        await asyncio.to_thread(_write_summary_file, args.json, summary)
        summary.pop("samples")
    print(json.dumps(summary, sort_keys=True), flush=True)
    if committed == 0 and issued > 0:
        print("load: no request ever committed", file=sys.stderr)
        return 1
    return 0


def write_population_artifact(
    summary: dict, spec: dict, args, population, digest: StreamDigest,
    elapsed: float,
):
    """One schema-v3 ``BENCH_f3pop.json`` point for a live run, shaped
    like the simulated figure's points (x = population size) so the
    comparator and the CI gate read both the same way."""
    from repro.harness import artifact as artifact_mod

    metrics = {
        "issued": float(summary["issued"]),
        "committed": float(summary["committed"]),
        "throughput": float(summary["throughput_rps"]),
    }
    for key, name in (
        ("latency_mean_s", "latency_mean"),
        ("latency_p50_s", "latency_p50"),
        ("latency_p95_s", "latency_p95"),
    ):
        if summary[key] is not None:
            metrics[name] = float(summary[key])
    point = {
        "id": f"live-population/{spec['protocol']}/"
              f"c{population.clients}/s{args.seed}",
        "kind": "live-population",
        "protocol": spec["protocol"],
        "scheme": spec["scheme"],
        "f": spec["f"],
        "x": float(population.clients),
        "probes": [],
        "metrics": metrics,
        "wall_time_s": float(elapsed),
        "events": int(summary["issued"]),
        "events_per_second": (
            summary["issued"] / elapsed if elapsed > 0 else 0.0
        ),
    }
    doc = artifact_mod.from_points(
        figure="f3pop",
        points=[point],
        params={
            "runtime": "live",
            "protocol": spec["protocol"],
            "scheme": spec["scheme"],
            "f": spec["f"],
            "seed": args.seed,
            "rate": args.rate,
            "duration": args.duration,
            "clients": population.clients,
            "stream_digest": digest.hexdigest(),
        },
        wall_time_s=float(elapsed),
    )
    return artifact_mod.write_artifact(doc, args.bench_dir)


def add_load_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--control", default="127.0.0.1:7600",
                        metavar="HOST:PORT",
                        help="repro serve control address")
    parser.add_argument("--rate", type=float, default=50.0,
                        help="aggregate requests per second (default 50)")
    parser.add_argument("--duration", type=float, default=5.0,
                        help="seconds of offered load (default 5)")
    parser.add_argument("--spacing", choices=("poisson", "uniform"),
                        default="poisson")
    parser.add_argument("--seed", type=int, default=1,
                        help="arrival-stream RNG seed")
    parser.add_argument("--client-id", default="c1",
                        help="client name replicas see (default c1)")
    parser.add_argument("--auth-key", default=None,
                        help=f"pre-shared handshake key (or ${framing.AUTH_KEY_ENV})")
    parser.add_argument("--json", default=None, metavar="FILE",
                        help="also write summary + raw samples to FILE")
    parser.add_argument("--population", default=None, metavar="FILE",
                        help="replay an aggregated population stream from a "
                             "JSON/TOML population block (or a scenario spec "
                             "file with one) instead of a single-client stream")
    parser.add_argument("--bench-dir", default=None, metavar="DIR",
                        help="with --population: write a schema-v3 "
                             "BENCH_f3pop.json point into DIR")


def cmd_load(args) -> int:
    return asyncio.run(run_load(args))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro load",
        description="drive a live cluster with an open-loop request stream",
    )
    add_load_arguments(parser)
    args = parser.parse_args(argv)
    try:
        return cmd_load(args)
    except (ReproError, ConnectionError) as exc:  # PeerLost, AuthenticationError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
