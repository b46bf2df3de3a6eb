"""One live replica: a protocol process on a wall clock.

:class:`LiveRuntime` is the wall-clock implementation of the protocol
driver surface (see :mod:`repro.protocols.runtime`): ``now`` is
seconds since the cluster's agreed start epoch, timers are
``loop.call_later`` handles wrapped to the simulator's
``.cancel()``/``.active`` contract, and ``trace`` is an ordinary
:class:`~repro.sim.trace.Tracer` so live runs produce the same records
probes consume.

:func:`run_node` is the ``python -m repro serve --join`` body: join
the controller, build the node's deployment, run the hosted process
until told to stop, report trace + committed history back.

The node builds the protocol plugin's **full** deployment (every
process object) but hosts only one: the others are inert *mirrors*
never started, kept because SC/SCR wiring points suspicion oracles at
the counterpart process object.  Arming a mirror's fault plan from the
cluster-wide declarative fault schedule makes
``other.fault.active(now)`` the live embodiment of the paper's
assumption 3(a)(i): the schedule is known cluster-wide, so a correct
member's time-domain suspicion of a scheduled crash is confirmed and
never false.
"""

from __future__ import annotations

import asyncio
import os
import signal
import time
from dataclasses import dataclass
from typing import Any, Callable

import repro.harness.probes as probe_registry
import repro.protocols as protocols
from repro.calibration import paper_testbed
from repro.crypto.dealer import TrustedDealer
from repro.errors import ConfigError, SimulationError
from repro.failures.faults import CrashFault
from repro.live import chaos as chaos_mod
from repro.live import heartbeat as heartbeat_mod
from repro.live import recovery as recovery_mod
from repro.live.transport import LiveTransport
from repro.net import framing
from repro.protocols.base import Deployment
from repro.sim.trace import Tracer

#: Trace kinds a live node retains: the union of the paper probes'
#: needs, so live artifacts are built from the same records.
LIVE_PROBES = ("order-latency", "throughput", "failover", "recovery-timeline")

#: Seconds after its scheduled crash activation that a killed node
#: hard-exits, turning protocol-level silence into real TCP death so
#: peers' reconnect machinery is exercised too.
KILL_EXIT_GRACE = 0.5


@dataclass
class PauseFault(CrashFault):
    """A windowed crash: silent between ``active_from`` and ``until``,
    correct again afterwards (the ``--pause-after`` fault)."""

    until: float = float("inf")

    def active(self, now: float) -> bool:
        return self.active_from <= now < self.until

    def is_crashed(self, now: float) -> bool:
        return self.active(now)


class LiveTimer:
    """A pending wall-clock timer with the simulator handle contract."""

    __slots__ = ("_handle", "_state")

    def __init__(self) -> None:
        self._handle = None
        self._state = "pending"

    @property
    def active(self) -> bool:
        return self._state == "pending"

    @property
    def cancelled(self) -> bool:
        return self._state == "cancelled"

    def cancel(self) -> None:
        if self._state != "pending":
            raise SimulationError(f"cannot cancel a {self._state} timer")
        self._state = "cancelled"
        if self._handle is not None:
            self._handle.cancel()


class LiveRuntime:
    """Wall-clock driver: the :class:`~repro.sim.kernel.Simulator`
    surface protocol code reads, minus the virtual time."""

    def __init__(
        self, loop: asyncio.AbstractEventLoop, trace: Tracer | None = None
    ) -> None:
        self.loop = loop
        self.trace = trace if trace is not None else Tracer()
        # Until the cluster start epoch is known, t=0 is "now".
        self._loop_epoch = loop.time()

    def set_epoch(self, epoch_unix: float) -> None:
        """Anchor t=0 at a unix timestamp all nodes agreed on."""
        self._loop_epoch = self.loop.time() + (epoch_unix - time.time())

    @property
    def now(self) -> float:
        return self.loop.time() - self._loop_epoch

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> LiveTimer:
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay}s in the past")
        timer = LiveTimer()
        timer._handle = self.loop.call_later(delay, self._fire, timer, callback, args)
        return timer

    def schedule_at(
        self, at: float, callback: Callable[..., None], *args: Any
    ) -> LiveTimer:
        timer = LiveTimer()
        timer._handle = self.loop.call_at(
            self._loop_epoch + at, self._fire, timer, callback, args
        )
        return timer

    @staticmethod
    def _fire(timer: LiveTimer, callback: Callable[..., None], args: tuple) -> None:
        if timer._state != "pending":
            return
        timer._state = "fired"
        callback(*args)


def live_tracer() -> Tracer:
    """A tracer keeping exactly what the live probes consume."""
    return Tracer(keep_kinds=probe_registry.kinds_union(LIVE_PROBES))


def config_from_spec(spec: dict):
    """Rebuild the protocol config every node derives from the start
    spec — built independently but identically on each node."""
    plugin = protocols.get(spec["protocol"])
    return plugin.configure(
        scheme=spec["scheme"],
        f=spec["f"],
        batching_interval=spec["batching_interval"],
        heartbeat_interval=spec["heartbeat_interval"],
        view_timeout=spec["view_timeout"],
        send_replies=True,
        checkpoint_interval=spec["checkpoint_interval"],
    )


def build_node(
    spec: dict,
    replica_id: str,
    runtime: LiveRuntime,
    transport: LiveTransport,
):
    """Build this node's deployment and arm the fault schedule.

    Returns this node's process.  The caller hosts it on the transport
    — immediately for a fresh start, only after snapshot install for a
    rejoin: frames to an unhosted name are dropped, which is exactly
    the quarantine a replica mid state-transfer needs.  The trusted
    dealer is seeded from the spec, so every node independently
    provisions identical simulated keys and fail-signal blanks — no
    key distribution step.
    """
    plugin = protocols.get(spec["protocol"])
    config = config_from_spec(spec)
    names = plugin.process_names(config)
    if replica_id not in names:
        raise ConfigError(
            f"unknown replica id {replica_id!r}; this deployment has {names}"
        )
    dealer = TrustedDealer(config.scheme, mode="simulated", seed=spec["seed"])
    provider = dealer.provision(list(names))
    deployment = Deployment(
        sim=runtime,
        network=transport,
        config=config,
        calibration=paper_testbed(),
        provider=provider,
        dealer=dealer,
    )
    plugin.build(deployment)
    for target, kind, after, duration in spec.get("faults", ()):
        process = deployment.processes.get(target)
        if process is None:
            continue
        if kind == "kill":
            process.fault = CrashFault(active_from=after)
        elif kind == "pause":
            process.fault = PauseFault(active_from=after, until=after + duration)
    return deployment.processes[replica_id]


async def run_node(argv_ns) -> int:
    """Join a controller and run one replica until stopped.

    ``argv_ns`` carries ``join`` (controller HOST:PORT), ``replica_id``,
    ``bind`` (data interface) and ``auth_key``.  Whether this is a
    fresh start or a post-crash rejoin is the *controller's* call: a
    restarted replica runs the exact same command line, and the spec it
    receives carries ``rejoin: True`` plus the live peers' current
    addresses, so the node fetches the committed prefix before hosting
    its process.
    """
    loop = asyncio.get_running_loop()
    auth_key = framing.resolve_auth_key(argv_ns.auth_key)
    host, _, port = argv_ns.join.rpartition(":")

    transport = LiveTransport(argv_ns.replica_id, auth_key=auth_key)
    data_host, data_port = await transport.start_listener(argv_ns.bind, 0)

    reader, writer = await framing.open_connection_with_retry(
        host, int(port), framing.STARTUP
    )
    if auth_key is not None:
        await framing.answer_challenge_async(reader, writer, auth_key)
    framing.write_frame(
        writer, ("join", argv_ns.replica_id, data_host, data_port, os.getpid())
    )
    await writer.drain()

    start = await framing.read_frame(reader)
    if not (isinstance(start, tuple) and start[0] == "start"):
        raise ConfigError(f"controller sent {start!r} instead of a start frame")
    spec = start[1]
    rejoining = bool(spec.get("rejoin"))

    runtime = LiveRuntime(loop, trace=live_tracer())
    transport.addresses.update(
        {name: tuple(addr) for name, addr in spec["addresses"].items()
         if name != argv_ns.replica_id}
    )
    transport.clock = lambda: runtime.now
    transport.chaos = chaos_mod.schedule_for_node(
        spec.get("chaos"), argv_ns.replica_id, spec["seed"]
    )
    process = build_node(spec, argv_ns.replica_id, runtime, transport)
    runtime.set_epoch(spec["epoch"])

    # Every node serves committed-prefix snapshots to rejoining peers.
    recovery_mod.serve_state_transfer(transport, process)

    # Stop can arrive during any long-running work — a state transfer
    # included — as an operator signal or a controller frame, so both
    # feed one event the whole node body races against, and the control
    # loop runs from the first moment (it also repoints peer addresses
    # while a transfer is still in flight).
    stopping = asyncio.Event()
    for signo in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(signo, stopping.set)

    async def control_loop() -> None:
        try:
            while True:
                frame = await framing.read_frame(reader)
                if not (isinstance(frame, tuple) and frame):
                    continue
                if frame[0] == "stop":
                    stopping.set()
                    return
                if frame[0] == "addr" and len(frame) == 4:
                    # A peer restarted on a new ephemeral port.
                    _, peer, peer_host, peer_port = frame
                    if peer != argv_ns.replica_id:
                        transport.update_address(peer, peer_host, int(peer_port))
        except framing.PeerLost:
            stopping.set()  # controller died: nothing left to run for
            return

    control = loop.create_task(control_loop())

    rejoin_stats: dict | None = None
    fetcher: recovery_mod.PrefixFetcher | None = None
    catchup: asyncio.Task | None = None
    aborted = False
    if rejoining:
        fetcher = recovery_mod.PrefixFetcher(
            argv_ns.replica_id,
            list(spec["addresses"]),
            transport.addresses,
            auth_key,
            runtime,
        )
        fetch = loop.create_task(fetcher.fetch_and_install(process))
        stop_wait = loop.create_task(stopping.wait())
        await asyncio.wait(
            {fetch, stop_wait}, return_when=asyncio.FIRST_COMPLETED
        )
        stop_wait.cancel()
        if fetch.done() and not fetch.cancelled() and fetch.exception() is None:
            rejoin_stats = fetch.result()
        else:
            # Stopped or failed mid-transfer: the candidate machine
            # dies with the fetch task — the partial snapshot is
            # discarded, never installed — and the node still reports.
            aborted = True
            exc = (
                fetch.exception()
                if fetch.done() and not fetch.cancelled() else None
            )
            fetch.cancel()
            fetcher.close()
            rejoin_stats = {
                "aborted": True,
                "error": repr(exc) if exc is not None else "stopped",
            }

    peers = [n for n in spec["addresses"] if n != argv_ns.replica_id]
    monitor = heartbeat_mod.HeartbeatMonitor(
        argv_ns.replica_id,
        peers,
        transport,
        runtime,
        interval=spec.get("hb_interval", heartbeat_mod.DEFAULT_INTERVAL),
        timeout=spec.get("hb_timeout", heartbeat_mod.DEFAULT_TIMEOUT),
        quorum=len(spec["addresses"]) - spec["f"],
    )

    if not aborted:
        # Hosting is the commit point: from here frames dispatch into
        # the process — for a rejoin, on top of the installed prefix.
        transport.host(argv_ns.replica_id)
        if rejoining:
            process.start()
            catchup = loop.create_task(fetcher.catchup_forever(process))
        else:
            runtime.schedule_at(max(0.0, runtime.now), process.start)
        monitor.start()

        # A scheduled kill of *this* node eventually becomes a real
        # process death, not just protocol silence.  (A rejoin spec has
        # its own kills stripped by the controller.)
        for target, kind, after, _duration in spec.get("faults", ()):
            if kind == "kill" and target == argv_ns.replica_id:
                runtime.schedule_at(after + KILL_EXIT_GRACE, os._exit, 0)

        await stopping.wait()

    control.cancel()
    monitor.stop()
    if catchup is not None:
        catchup.cancel()
    if fetcher is not None:
        fetcher.close()

    chaos_stats = None
    if transport.chaos is not None:
        chaos_stats = {
            "frames_dropped": transport.chaos.frames_dropped,
            "frames_delayed": transport.chaos.frames_delayed,
        }
    report = {
        "replica": argv_ns.replica_id,
        "records": [
            (r.time, r.kind, dict(r.fields)) for r in runtime.trace.records
        ],
        "history": [
            (seq, digest.hex()) for seq, digest in process.machine.history
        ],
        "state_digest": process.machine.state_digest().hex(),
        "crashed": bool(process.fault.is_crashed(runtime.now)),
        "wire": transport.counters(),
        "state": process.retained_state(),
        "heartbeat": monitor.summary(),
        "rejoin": rejoin_stats,
        "chaos": chaos_stats,
    }
    try:
        framing.write_frame(writer, ("report", report))
        await writer.drain()
    except (OSError, ConnectionError):
        pass
    writer.close()
    await transport.close()
    return 0
