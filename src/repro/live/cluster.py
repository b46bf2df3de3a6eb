"""``python -m repro serve``: run a live replica cluster.

The controller binds a control port, spawns (or waits for) one
``serve --join`` node process per order-process name of the chosen
protocol, hands every node the same start spec (addresses, seed,
declarative fault schedule, a shared start epoch), lets the cluster
run, then broadcasts a stop, collects per-node reports (trace records
+ committed history), verifies that all surviving replicas committed
identical prefixes, and — with ``--json-dir`` — feeds the merged
records through the standard measurement probes into a
schema-compatible ``BENCH_live_<protocol>.json`` artifact.

Fault injection is declarative and cluster-wide: ``--kill-after
p1:2.0`` makes *every* node arm a crash plan on its ``p1``
(mirror or hosted), so pair suspicion oracles confirm against the
schedule, and the node hosting ``p1`` goes silent at t=2 and exits
shortly after.  ``--pause-after p2:1.0:0.5`` is the windowed variant.
``--restart-after p1:4.0`` brings a killed replica back: the fresh
process joins the same control port, the controller marks its spec
``rejoin: True`` and broadcasts the new data address, and the node
fetches the committed prefix from a live peer before resuming (see
:mod:`repro.live.recovery`).  Network chaos rides in the same spec:
``--partition`` / ``--drop`` / ``--delay-jitter`` windows
(:mod:`repro.live.chaos`) gate every node's send path.

Topology::

    controller (this process)                node subprocess x n
    --------------------------------         ---------------------------
    listen on control host:port   <--------  python -m repro serve \\
    collect ("join", id, host, port)             --join host:port \\
    broadcast ("start", spec)    -------->       --replica-id pK
    ... cluster runs for --duration ...      protocol over TCP (data plane)
    broadcast ("stop",)          -------->   ("report", trace + history)
    verify prefix agreement, write artifact, reap children

``repro load`` connects to the same control port with ``("spec?",)``
to learn the replica addresses.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from typing import NamedTuple

import repro.protocols as protocols
from repro.errors import ConfigError, ReproError
from repro.live import chaos as chaos_mod
from repro.live import heartbeat as heartbeat_mod
from repro.net import framing

#: How long the controller waits for all replicas to join.
JOIN_TIMEOUT = 30.0
#: Grace between the start broadcast and the agreed epoch.
START_GRACE = 0.4
#: How long the controller waits for each node's report after stop.
REPORT_TIMEOUT = 5.0
#: Sequence numbers between a live replica's checkpoints (always on:
#: a stable checkpoint is what lets a replica drop log slots, pooled
#: requests and signed-message graphs).  256 is 16 full 1 KB batches:
#: one signed Checkpoint multicast per 256 commits, a shallow heap.
LIVE_CHECKPOINT_INTERVAL = 256


def parse_fault_args(kills: list[str], pauses: list[str]) -> list[tuple]:
    """``--kill-after p1:2.0`` / ``--pause-after p2:1.0:0.5`` into the
    spec's ``(target, kind, after, duration)`` rows."""
    faults: list[tuple] = []
    for item in kills or ():
        target, _, after = item.partition(":")
        if not target or not after:
            raise ConfigError(f"--kill-after wants NAME:SECONDS, got {item!r}")
        faults.append((target, "kill", float(after), 0.0))
    for item in pauses or ():
        parts = item.split(":")
        if len(parts) not in (2, 3):
            raise ConfigError(
                f"--pause-after wants NAME:SECONDS[:DURATION], got {item!r}"
            )
        duration = float(parts[2]) if len(parts) == 3 else 1.0
        faults.append((parts[0], "pause", float(parts[1]), duration))
    return faults


def parse_restart_args(restarts: list[str]) -> list[tuple[str, float]]:
    """``--restart-after p1:4.0`` into ``(target, at)`` rows."""
    parsed: list[tuple[str, float]] = []
    for item in restarts or ():
        target, _, after = item.partition(":")
        if not target or not after:
            raise ConfigError(f"--restart-after wants NAME:SECONDS, got {item!r}")
        parsed.append((target, float(after)))
    return parsed


class PrefixAgreement(NamedTuple):
    """The verdict of the all-pairs history check.

    ``divergence`` is ``None`` when ``ok``; otherwise ``(slot,
    replica_a, replica_b)`` naming the first committed slot on which
    two replicas disagree — the number an operator needs to go digging
    in the traces, instead of a bare boolean.
    """

    prefix: int
    ok: bool
    divergence: tuple[int, str, str] | None = None


def check_prefix_agreement(
    histories: dict[str, list[tuple[int, str]]]
) -> PrefixAgreement:
    """All-pairs overlap agreement across the reported histories — the
    live total-order safety check.

    ``prefix`` is the shortest history's length (the prefix everyone
    committed); disagreement pinpoints the first divergent slot and
    the two replicas holding it.
    """
    if not histories:
        return PrefixAgreement(0, True)
    prefix = min(len(h) for h in histories.values())
    # Genuinely pairwise: comparing everything against one arbitrary
    # reference misses two longer histories that agree with a short
    # reference on its overlap but diverge past it (n is small).
    items = list(histories.items())
    for i, (left_name, left) in enumerate(items):
        for right_name, right in items[i + 1:]:
            overlap = min(len(left), len(right))
            if left[:overlap] != right[:overlap]:
                slot = next(
                    left[k][0]
                    for k in range(overlap)
                    if left[k] != right[k]
                )
                return PrefixAgreement(
                    prefix, False, (slot, left_name, right_name)
                )
    return PrefixAgreement(prefix, True)


class _Controller:
    def __init__(self, args) -> None:
        self.args = args
        self.auth_key = framing.resolve_auth_key(args.auth_key)
        plugin = protocols.get(args.protocol)
        self.config = plugin.configure(
            scheme=args.scheme,
            f=args.f,
            batching_interval=args.batching_interval,
            heartbeat_interval=args.heartbeat_interval,
            view_timeout=args.view_timeout,
            send_replies=True,
            checkpoint_interval=LIVE_CHECKPOINT_INTERVAL,
        )
        self.names = plugin.process_names(self.config)
        self.faults = parse_fault_args(args.kill_after, args.pause_after)
        for target, _, _, _ in self.faults:
            if target not in self.names:
                raise ConfigError(
                    f"fault target {target!r} is not deployed; processes: "
                    f"{self.names}"
                )
        self.restarts = parse_restart_args(args.restart_after)
        for target, _ in self.restarts:
            if target not in self.names:
                raise ConfigError(
                    f"restart target {target!r} is not deployed; processes: "
                    f"{self.names}"
                )
        self.chaos_rules = chaos_mod.parse_chaos_args(
            args.partition, args.drop, args.delay_jitter
        )
        chaos_mod.validate_targets(self.chaos_rules, self.names)
        self.joined: dict[str, tuple[str, int]] = {}
        self.node_streams: dict[str, tuple] = {}
        self.reports: dict[str, dict] = {}
        self.restarted: set[str] = set()
        self.spec: dict | None = None
        self.started = asyncio.Event()
        self.all_joined = asyncio.Event()
        self.stopping = asyncio.Event()
        self.procs: list[subprocess.Popen] = []

    # -- node process management ---------------------------------------
    def spawn_node(self, name: str, control_addr: str) -> subprocess.Popen:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
        if self.auth_key is not None:
            env[framing.AUTH_KEY_ENV] = self.auth_key.decode("utf-8")
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--join", control_addr, "--replica-id", name,
             "--bind", self.args.node_bind],
            env=env,
            stdout=subprocess.DEVNULL,
        )

    def reap(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in self.procs:
            try:
                proc.wait(timeout=2.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=2.0)

    # -- control-plane connections ---------------------------------------
    async def serve_connection(self, reader, writer) -> None:
        try:
            if self.auth_key is not None:
                await framing.deliver_challenge_async(reader, writer, self.auth_key)
            frame = await framing.read_frame(reader)
        except (framing.PeerLost, framing.AuthenticationError, OSError):
            writer.close()
            return
        if isinstance(frame, tuple) and frame[0] == "join":
            await self._serve_node(frame, reader, writer)
        elif isinstance(frame, tuple) and frame[0] == "spec?":
            await self.started.wait()
            framing.write_frame(writer, ("spec", self.spec))
            try:
                await writer.drain()
            except (OSError, ConnectionError):
                pass
            writer.close()
        else:
            writer.close()

    async def _serve_node(self, join: tuple, reader, writer) -> None:
        _, name, host, port, _pid = join
        if name not in self.names:
            writer.close()
            return
        rejoining = name in self.joined and self.started.is_set()
        if name in self.joined and not rejoining:
            writer.close()  # duplicate join of a running pre-start name
            return
        self.joined[name] = (host, port)
        self.node_streams[name] = (reader, writer)
        if rejoining:
            self.restarted.add(name)
            print(
                f"serve: {name} rejoining from {host}:{port}",
                file=sys.stderr, flush=True,
            )
            await self._broadcast_addr(name, host, port)
            spec = self._rejoin_spec(name)
        else:
            print(
                f"serve: {name} joined from {host}:{port} "
                f"({len(self.joined)}/{len(self.names)})",
                file=sys.stderr, flush=True,
            )
            if len(self.joined) == len(self.names):
                self.all_joined.set()
            await self.started.wait()
            spec = self.spec
        framing.write_frame(writer, ("start", spec))
        try:
            await writer.drain()
        except (OSError, ConnectionError):
            return
        # Wait for the report (sent after our stop broadcast, or never
        # if the node is killed mid-run).
        try:
            frame = await framing.read_frame(reader)
        except framing.PeerLost:
            return
        if isinstance(frame, tuple) and frame[0] == "report":
            self.reports[name] = frame[1]

    def _rejoin_spec(self, name: str) -> dict:
        """The start spec a restarted replica receives: current
        addresses, the rejoin marker, and — crucially — its own kill
        faults stripped, so the reborn node neither re-arms its own
        death nor reports itself crashed."""
        return dict(
            self.spec,
            addresses=dict(self.joined),
            rejoin=True,
            faults=[
                f for f in self.spec["faults"]
                if not (f[0] == name and f[1] == "kill")
            ],
        )

    async def _broadcast_addr(self, name: str, host: str, port: int) -> None:
        """Tell every other live node where the restarted replica now
        listens (a rebind picks a fresh ephemeral port)."""
        for peer, (_reader, peer_writer) in self.node_streams.items():
            if peer == name:
                continue
            try:
                framing.write_frame(peer_writer, ("addr", name, host, port))
                await peer_writer.drain()
            except (OSError, ConnectionError):
                pass

    async def run(self) -> int:
        args = self.args
        host, _, port = args.bind.rpartition(":")
        framing.require_auth_for_bind(host, self.auth_key)
        server = await asyncio.start_server(self.serve_connection, host, int(port))
        bound = server.sockets[0].getsockname()
        control_addr = f"{bound[0]}:{bound[1]}"
        print(
            f"serve: control listening on {control_addr} — protocol "
            f"{args.protocol} (f={args.f}, {len(self.names)} processes); "
            f"join externals with: python -m repro serve --join "
            f"{control_addr} --replica-id <name>",
            file=sys.stderr, flush=True,
        )

        loop = asyncio.get_running_loop()
        for signo in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signo, self.stopping.set)

        if args.spawn != 0:
            for name in self.names:
                self.procs.append(self.spawn_node(name, f"127.0.0.1:{bound[1]}"))
        try:
            try:
                await asyncio.wait_for(self.all_joined.wait(), JOIN_TIMEOUT)
            except asyncio.TimeoutError:
                missing = [n for n in self.names if n not in self.joined]
                raise ConfigError(
                    f"replicas never joined: {missing} (waited {JOIN_TIMEOUT}s)"
                ) from None

            self.spec = {
                "protocol": args.protocol,
                "f": args.f,
                "scheme": args.scheme,
                "batching_interval": args.batching_interval,
                "heartbeat_interval": args.heartbeat_interval,
                "view_timeout": args.view_timeout,
                "checkpoint_interval": self.config.checkpoint_interval,
                "seed": args.seed,
                "addresses": dict(self.joined),
                "faults": self.faults,
                "chaos": [rule.to_row() for rule in self.chaos_rules],
                "hb_interval": args.hb_interval,
                "hb_timeout": args.hb_timeout,
                "epoch": time.time() + START_GRACE,
                "duration": args.duration,
                "request_bytes": self.config.request_bytes,
            }
            self.started.set()
            print("serve: cluster started", file=sys.stderr, flush=True)

            restart_tasks = [
                loop.create_task(self._restart_replica(
                    name, self.spec["epoch"] + after, f"127.0.0.1:{bound[1]}"
                ))
                for name, after in self.restarts
            ]

            if args.duration is not None:
                until = self.spec["epoch"] + args.duration - time.time()
                stop_wait = loop.create_task(self.stopping.wait())
                done, _ = await asyncio.wait({stop_wait}, timeout=max(0.0, until))
                if not done:
                    stop_wait.cancel()
            else:
                await self.stopping.wait()

            for task in restart_tasks:
                task.cancel()
            await self._broadcast_stop()
            await self._collect_reports()
            return self._finish(bound)
        finally:
            server.close()
            self.reap()

    async def _restart_replica(
        self, name: str, at_unix: float, control_addr: str
    ) -> None:
        """``--restart-after``: bring a replica back at cluster time T.

        In spawned mode the controller launches a fresh node process —
        the same command line as the original; the rejoin semantics
        ride in on the spec it receives when it joins.  With external
        joiners (``--spawn 0``) the operator restarts the process; we
        just say when.
        """
        await asyncio.sleep(max(0.0, at_unix - time.time()))
        if self.stopping.is_set():
            return
        if self.args.spawn != 0:
            print(f"serve: restarting {name}", file=sys.stderr, flush=True)
            self.procs.append(self.spawn_node(name, control_addr))
        else:
            print(
                f"serve: restart window for {name} — rejoin it with: "
                f"python -m repro serve --join {control_addr} "
                f"--replica-id {name}",
                file=sys.stderr, flush=True,
            )

    async def _broadcast_stop(self) -> None:
        for name, (_reader, writer) in self.node_streams.items():
            try:
                framing.write_frame(writer, ("stop",))
                await writer.drain()
            except (OSError, ConnectionError):
                pass

    async def _collect_reports(self) -> None:
        deadline = time.time() + REPORT_TIMEOUT
        while time.time() < deadline:
            live = [p for p in self.procs if p.poll() is None]
            expected = len(self.node_streams)
            if len(self.reports) >= expected or (self.procs and not live):
                break
            await asyncio.sleep(0.05)

    def _finish(self, bound) -> int:
        args = self.args
        killed = {t for t, kind, _, _ in self.faults if kind == "kill"}
        # A killed replica that restarted and reported is a survivor
        # again — its post-rejoin history *must* pass the agreement
        # check, which is the whole acceptance test of a state transfer.
        survivors = {
            name: report for name, report in self.reports.items()
            if (name not in killed or name in self.restarted)
            and not report.get("crashed")
            # A node stopped mid state-transfer never became a replica
            # again; its (discarded) empty history is not a vote.
            and not (report.get("rejoin") or {}).get("aborted")
        }
        histories = {name: r["history"] for name, r in survivors.items()}
        agreement = check_prefix_agreement(histories)
        prefix, ok = agreement.prefix, agreement.ok
        rejoined = sorted(
            name for name, report in self.reports.items()
            if report.get("rejoin") and not report["rejoin"].get("aborted")
        )
        summary = {
            "protocol": args.protocol,
            "f": args.f,
            "replicas": list(self.names),
            "reported": sorted(self.reports),
            "survivors": sorted(survivors),
            "killed": sorted(killed),
            "restarted": sorted(self.restarted),
            "rejoined": rejoined,
            "recovery": {
                name: report["rejoin"]
                for name, report in self.reports.items()
                if report.get("rejoin")
            },
            "committed_prefix": prefix,
            "histories_agree": ok,
            "divergence": (
                list(agreement.divergence) if agreement.divergence else None
            ),
            # LiveTransport.counters() and OrderProcessBase.retained_state()
            # of every node that reported.
            "wire": {
                name: report["wire"] for name, report in self.reports.items()
            },
            "state": {
                name: report["state"] for name, report in self.reports.items()
            },
        }
        artifact_file = None
        if args.json_dir and self.reports:
            from repro.live.validate import write_live_artifact

            artifact_file = str(write_live_artifact(
                reports=self.reports,
                protocol=args.protocol,
                scheme=args.scheme,
                f=args.f,
                seed=args.seed,
                batching_interval=args.batching_interval,
                duration=args.duration,
                warmup=args.warmup,
                json_dir=args.json_dir,
                with_failover=bool(self.faults),
            ))
            summary["artifact"] = artifact_file
        print(json.dumps(summary, sort_keys=True), flush=True)
        if not ok:
            slot, left, right = agreement.divergence
            print(
                f"serve: SAFETY VIOLATION — {left} and {right} diverge "
                f"at committed slot {slot}",
                file=sys.stderr,
            )
            return 1
        print(
            f"serve: {len(survivors)} survivors agree on a committed prefix "
            f"of {prefix} batch(es)"
            + (f"; artifact {artifact_file}" if artifact_file else ""),
            file=sys.stderr, flush=True,
        )
        return 0


def add_serve_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--protocol", default="sc", choices=protocols.names(),
                        help="protocol plugin to deploy (default sc)")
    parser.add_argument("--f", type=int, default=1,
                        help="fault-tolerance parameter (default 1)")
    parser.add_argument("--scheme", default="md5-rsa1024",
                        help="crypto scheme name (default md5-rsa1024)")
    parser.add_argument("--batching-interval", type=float, default=0.100)
    parser.add_argument("--heartbeat-interval", type=float, default=0.100)
    parser.add_argument("--view-timeout", type=float, default=2.0)
    parser.add_argument("--seed", type=int, default=1,
                        help="dealer seed: all nodes derive identical keys")
    parser.add_argument("--bind", default="127.0.0.1:0", metavar="HOST:PORT",
                        help="control interface (controller mode)")
    parser.add_argument("--join", default=None, metavar="HOST:PORT",
                        help="join an existing controller as one replica")
    parser.add_argument("--replica-id", default=None,
                        help="which order process this node hosts (with --join)")
    parser.add_argument("--node-bind", default="127.0.0.1",
                        help="data interface spawned/joining nodes bind")
    parser.add_argument("--spawn", type=int, default=None, metavar="N",
                        help="0 = spawn nothing, wait for external joiners "
                             "(default: spawn every replica locally)")
    parser.add_argument("--duration", type=float, default=None,
                        help="stop the cluster this many seconds after start "
                             "(default: run until SIGINT)")
    parser.add_argument("--warmup", type=float, default=0.5,
                        help="seconds excluded from artifact rate windows")
    parser.add_argument("--kill-after", action="append", default=[],
                        metavar="NAME:SECONDS",
                        help="crash a replica at t=SECONDS (repeatable)")
    parser.add_argument("--pause-after", action="append", default=[],
                        metavar="NAME:SECONDS[:DUR]",
                        help="pause a replica for DUR seconds (repeatable)")
    parser.add_argument("--restart-after", action="append", default=[],
                        metavar="NAME:SECONDS",
                        help="restart a (killed) replica at t=SECONDS; it "
                             "rejoins via committed-prefix state transfer "
                             "(repeatable)")
    parser.add_argument("--partition", action="append", default=[],
                        metavar="A,B|C,D:T[:D]",
                        help="drop frames crossing the group boundary during "
                             "[T, T+D) (repeatable)")
    parser.add_argument("--drop", action="append", default=[],
                        metavar="NAME:RATE:T[:D]",
                        help="drop frames to/from NAME with probability RATE "
                             "during [T, T+D); NAME may be * (repeatable)")
    parser.add_argument("--delay-jitter", action="append", default=[],
                        metavar="NAME:JITTER:T[:D]",
                        help="hold frames to/from NAME up to JITTER seconds "
                             "during [T, T+D) (repeatable)")
    parser.add_argument("--hb-interval", type=float,
                        default=heartbeat_mod.DEFAULT_INTERVAL,
                        help="liveness beacon interval in seconds "
                             f"(default {heartbeat_mod.DEFAULT_INTERVAL})")
    parser.add_argument("--hb-timeout", type=float,
                        default=heartbeat_mod.DEFAULT_TIMEOUT,
                        help="silence after which a peer is suspected "
                             f"(default {heartbeat_mod.DEFAULT_TIMEOUT})")
    parser.add_argument("--auth-key", default=None,
                        help=f"pre-shared handshake key (or ${framing.AUTH_KEY_ENV})"
                             "; required for non-loopback binds")
    parser.add_argument("--json-dir", default=None,
                        help="write a BENCH_live_<protocol>.json artifact here")


def cmd_serve(args) -> int:
    if args.join:
        if not args.replica_id:
            raise ConfigError("--join needs --replica-id")
        from repro.live.node import run_node

        node_args = argparse.Namespace(
            join=args.join, replica_id=args.replica_id,
            bind=args.node_bind, auth_key=args.auth_key,
        )
        return asyncio.run(run_node(node_args))
    return asyncio.run(_Controller(args).run())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="run (or join) a live replica cluster over TCP/asyncio",
    )
    add_serve_arguments(parser)
    args = parser.parse_args(argv)
    try:
        return cmd_serve(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
