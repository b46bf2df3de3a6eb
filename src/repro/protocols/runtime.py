"""Runtime-agnostic driver surface for the protocol logic.

The order protocols (SC/SCR/BFT/CT) never import the simulation kernel
directly: everything they ask of their environment flows through a
narrow surface this module names explicitly —

* a **clock/timer driver** with ``now``, ``schedule(delay, cb, *args)``
  / ``schedule_at(time, cb, *args)`` returning cancellable handles
  (``.cancel()`` / ``.active``), and a ``trace`` sink
  (:class:`~repro.sim.trace.Tracer`); and
* a **transport** with the :class:`~repro.net.network.Network` surface
  the processes use: ``attach`` / ``has_actor`` / ``set_link`` /
  ``send`` / ``multicast``.

:class:`~repro.sim.kernel.Simulator` + ``Network`` is one
implementation (virtual time); :mod:`repro.live` provides another
(asyncio wall clock + TCP).  This module ships the third, smallest
backend: :class:`StepRuntime` + :class:`LocalTransport`, a kernel-free
single-process harness that can *step* protocol logic against recorded
inputs — the cross-validation tool that proves the protocol code is
genuinely runtime-independent (replaying a simulator recording through
it must reproduce the commit order bit for bit; see
``tests/live/test_replay.py``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.errors import SimulationError
from repro.sim.trace import Tracer

if TYPE_CHECKING:  # this module stays kernel-free at run time
    from repro.core.process import OrderProcessBase
    from repro.core.service import ReplicatedStateMachine


class StepTimer:
    """A pending :class:`StepRuntime` timer.

    Mirrors the :class:`~repro.sim.events.Event` handle contract the
    protocol helpers rely on (:class:`~repro.core.suspicion.
    ExpectationMonitor` cancels via ``.active`` / ``.cancel()``):
    cancelling twice is an error, firing deactivates.
    """

    __slots__ = ("time", "seq", "callback", "args", "_state")

    def __init__(self, time: float, seq: int, callback, args) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self._state = "pending"

    @property
    def active(self) -> bool:
        return self._state == "pending"

    def cancel(self) -> None:
        if self._state != "pending":
            raise SimulationError(f"cannot cancel a {self._state} timer")
        self._state = "cancelled"


class StepRuntime:
    """A kernel-free clock: timers fire only when :meth:`run_until`
    advances the clock past them.

    Satisfies the protocol driver surface (``now`` / ``schedule`` /
    ``schedule_at`` / ``trace``) without importing
    :mod:`repro.sim.kernel`; ties in firing time break by scheduling
    order, the kernel's discipline.
    """

    def __init__(self, trace: Tracer | None = None) -> None:
        self.now = 0.0
        self.trace = trace if trace is not None else Tracer()
        self._heap: list[tuple[float, int, StepTimer]] = []
        self._seq = 0

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> StepTimer:
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay}s in the past")
        return self.schedule_at(self.now + delay, callback, *args)

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> StepTimer:
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time}: clock already at t={self.now}"
            )
        timer = StepTimer(time, self._seq, callback, args)
        self._seq += 1
        heapq.heappush(self._heap, (time, timer.seq, timer))
        return timer

    def run_until(self, time: float) -> int:
        """Fire every pending timer due at or before ``time``; the
        clock is left at ``time``.  Returns the number fired."""
        if time < self.now:
            raise SimulationError(
                f"cannot rewind the clock to t={time} from t={self.now}"
            )
        fired = 0
        heap = self._heap
        while heap and heap[0][0] <= time:
            _, _, timer = heapq.heappop(heap)
            if not timer.active:
                continue
            self.now = timer.time
            timer._state = "fired"
            timer.callback(*timer.args)
            fired += 1
        self.now = time
        return fired


class LocalTransport:
    """The :class:`~repro.net.network.Network` surface without a wire.

    Actors attach under their names exactly as on the simulated
    network, but nothing is delivered by default: sends to *hosted*
    names (see :meth:`host`) are handed to ``deliver`` (or dispatched
    straight into ``on_message`` when no deliver hook is given), sends
    to anything else go to ``on_remote`` — the seam a real transport
    (:mod:`repro.live`) or a replay harness (drop everything; the
    recording already contains the consequences) plugs into.
    """

    def __init__(
        self,
        runtime: Any,
        on_remote: Callable[[str, str, Any, int], None] | None = None,
    ) -> None:
        self.runtime = runtime
        self.on_remote = on_remote
        self._actors: dict[str, Any] = {}
        self._hosted: set[str] = set()
        self.messages_sent = 0
        self.bytes_sent = 0

    # -- topology (the surface plugin ``build`` touches) ---------------
    def attach(self, actor: Any) -> None:
        if actor.name in self._actors:
            from repro.errors import ConfigError

            raise ConfigError(f"duplicate actor name {actor.name!r}")
        self._actors[actor.name] = actor

    def has_actor(self, name: str) -> bool:
        return name in self._actors

    def set_link(self, src: str, dst: str, model: Any) -> None:
        """Dedicated links are a delay-model concern; no wire, no-op."""

    def host(self, *names: str) -> None:
        """Mark ``names`` as locally served: sends to them dispatch
        into the local actor instead of going remote."""
        self._hosted.update(names)

    # -- transmission ---------------------------------------------------
    def send(
        self,
        sender: str,
        dest: str,
        payload: Any,
        size_bytes: int,
        depart_time: float | None = None,
    ) -> None:
        """Route one message; ``depart_time`` is a simulation-kernel
        concept (CPU-marshalling completion) and is ignored here."""
        self.messages_sent += 1
        self.bytes_sent += size_bytes
        if dest in self._hosted:
            actor = self._actors.get(dest)
            if actor is not None:
                actor.on_message(sender, payload)
        elif self.on_remote is not None:
            self.on_remote(sender, dest, payload, size_bytes)

    def multicast(
        self,
        sender: str,
        dests: Iterable[str],
        payload: Any,
        size_bytes: int,
        depart_time: float | None = None,
    ) -> None:
        for dest in dests:
            self.send(sender, dest, payload, size_bytes, depart_time)


# ----------------------------------------------------------------------
# Dispatch recording and replay
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Dispatch:
    """One handler invocation observed at a process: the time its
    ``on_message`` ran (post receive-service), the sender, and the
    payload object itself."""

    time: float
    sender: str
    payload: Any


@dataclass
class DispatchLog:
    """Per-process handler recordings from one simulated run."""

    dispatches: dict[str, list[Dispatch]] = field(default_factory=dict)
    end_time: float = 0.0

    def for_process(self, name: str) -> list[Dispatch]:
        return self.dispatches.get(name, [])


def record_dispatches(cluster) -> DispatchLog:
    """Wrap every order process of a built (unstarted) cluster so each
    handler invocation is recorded with its dispatch time.

    The wrapped ``on_message`` is an instance attribute, so both the
    direct-call path and the scheduled-delivery path (which looks the
    attribute up when it schedules a completion, or when a CPU run
    queue releases one) observe it; call before ``cluster.start()``.
    """
    log = DispatchLog()
    for name, process in cluster.processes.items():
        entries = log.dispatches.setdefault(name, [])

        def recorder(sender, payload, _proc=process, _entries=entries):
            _entries.append(Dispatch(_proc.sim.now, sender, payload))
            type(_proc).on_message(_proc, sender, payload)

        process.on_message = recorder
    return log


def replay_process(
    protocol: str,
    config,
    seed: int,
    name: str,
    dispatches: list[Dispatch],
    end_time: float,
    calibration=None,
):
    """Re-run one process's recorded inputs through a kernel-free
    deployment; returns the replayed process.

    A fresh deployment of ``protocol`` is built against a
    :class:`StepRuntime` + :class:`LocalTransport` (remote sends
    dropped: their consequences are already in the recording), only
    ``name`` is started, and each recorded dispatch is injected after
    advancing the clock to its time — timers due up to that instant
    (batch formation, heartbeats) fire first, as they did in the
    original interleaving.  With the same seed the trusted dealer
    provisions identical keys, so signature checks behave identically.
    """
    import repro.protocols as protocols
    from repro.calibration import paper_testbed
    from repro.crypto.dealer import TrustedDealer
    from repro.protocols.base import Deployment

    plugin = protocols.get(protocol)
    runtime = StepRuntime()
    transport = LocalTransport(runtime)
    names = plugin.process_names(config)
    dealer = TrustedDealer(config.scheme, mode="simulated", seed=seed)
    provider = dealer.provision(list(names))
    deployment = Deployment(
        sim=runtime,
        network=transport,
        config=config,
        calibration=calibration if calibration is not None else paper_testbed(),
        provider=provider,
        dealer=dealer,
    )
    plugin.build(deployment)
    process = deployment.processes[name]
    process.start()
    for dispatch in dispatches:
        runtime.run_until(dispatch.time)
        process.on_message(dispatch.sender, dispatch.payload)
    runtime.run_until(max(end_time, runtime.now))
    return process


# ----------------------------------------------------------------------
# Committed-prefix snapshots (live rejoin + state transfer)
# ----------------------------------------------------------------------
#: The placeholder client name snapshot-replayed entries carry: the
#: original (client, req_id) pairs are not part of the digest chain, so
#: a transferred prefix cannot reconstruct them — and must not trigger
#: replies either.
SNAPSHOT_CLIENT = "∅snapshot"


def replay_history(
    name: str,
    rows: list[tuple[int, bytes]],
    expected_digest: bytes | None = None,
    base=None,
):
    """Replay committed-prefix ``rows`` through a fresh kernel-free
    state machine; returns the machine.

    ``rows`` are ``(seq, req_digest)`` pairs as replicas report them
    (the shape of ``ReplicatedStateMachine.history``).  The replay
    recomputes the digest chain from genesis exactly as the original
    execution did, so a row sequence with gaps, replays or altered
    digests is rejected — either by the machine's own consecutive-seq
    check (:class:`~repro.errors.ProtocolError`) or by the final
    ``expected_digest`` comparison against the digest the snapshot
    provider claimed.  Passing ``base`` continues an already verified
    machine instead of starting from genesis (delta catch-up chunks).
    """
    from repro.core.messages import OrderEntry
    from repro.core.service import ReplicatedStateMachine
    from repro.errors import ProtocolError

    machine = base if base is not None else ReplicatedStateMachine(name)
    for seq, digest in rows:
        if seq <= machine.applied_seq:
            continue  # idempotent: resumed transfers may resend rows
        machine.apply(
            OrderEntry(
                seq=seq,
                req_digest=bytes(digest),
                client=SNAPSHOT_CLIENT,
                req_id=0,
            )
        )
    if expected_digest is not None and machine.state_digest() != expected_digest:
        raise ProtocolError(
            f"{name}: snapshot digest mismatch after replaying "
            f"{len(rows)} row(s) to seq {machine.applied_seq} — "
            f"discarding the transferred prefix"
        )
    return machine


def install_prefix(process: OrderProcessBase, machine: ReplicatedStateMachine) -> int:
    """Adopt a verified replayed ``machine`` as ``process``'s committed
    prefix and fast-forward its execution cursor.

    Returns the adopted ``applied_seq``.  ``machine``, ``_exec_next``
    and ``_execute_ready()`` are :class:`~repro.core.process.
    OrderProcessBase` members, so every order-process flavour executes
    through them and this is the whole protocol-side rejoin: subsequent
    committed slots whose ``first_seq`` follows the prefix execute
    normally.
    """
    process.machine = machine
    process._exec_next = max(process._exec_next, machine.applied_seq + 1)
    return machine.applied_seq
