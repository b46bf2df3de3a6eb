"""The reliable asynchronous network connecting all processes.

Semantics follow the paper's system model: every sent message is
delivered uncorrupted at its destination after a finite delay with no
known bound (the delay model decides the actual value).  There is no
loss, duplication or corruption; Byzantine behaviour lives in the
*processes*, not the wire.

Delivery pipeline for one message::

    sender actor          network                    receiving node
    -----------------     ----------------------     -------------------------
    send(dest, payload,   arrival = depart + delay   service = receive_service
         size, depart) -> heap entry at arrival  ->  done = busy CPU + service
                                                     on_message at `done`

so a burst of arrivals serialises on the receiver's CPU — the mechanism
behind the saturation regions of Figures 4 and 5.

A message in flight is just its arguments: ``send`` and ``multicast``
push a plain ``[arrive, seq, _deliver, (dest, sender, payload, size)]``
entry onto the simulator's heap, and ``_deliver`` pushes
``[done, seq, on_message, (sender, payload)]``; both take ``seq`` from
the simulator's queue like every other push.  An :class:`Envelope` is
built only while a :meth:`Network.hold_matching` predicate needs one to
look at.  ``send`` and ``multicast`` return ``None``.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Callable, Iterable

from repro.errors import ConfigError, SimulationError
from repro.net.delay import DelayModel, LanDelay, LinkDelayStream
from repro.net.message import Envelope
from repro.sim.kernel import Simulator
from repro.sim.process import Actor


class Network:
    """Reliable asynchronous message fabric between named actors.

    Parameters
    ----------
    sim:
        The simulator whose clock and RNG the network uses.
    default_link:
        Delay model used for any (src, dst) without an override.
    """

    def __init__(self, sim: Simulator, default_link: DelayModel | None = None) -> None:
        self.sim = sim
        self.default_link = default_link if default_link is not None else LanDelay()
        self._actors: dict[str, Actor] = {}
        self._links: dict[tuple[str, str], DelayModel] = {}
        self._next_msg_id = 0
        self.messages_sent = 0
        self.bytes_sent = 0
        #: Messages that travelled on a dedicated (overridden) link —
        #: in the paper's architecture, the fast replica-shadow
        #: connections.  ``messages_sent - pair_messages_sent`` is the
        #: load on the shared asynchronous network, the quantity the
        #: paper's message-overhead comparison concerns.
        self.pair_messages_sent = 0
        self.messages_by_sender: dict[str, int] = {}
        self._hold_predicate: Callable[[Envelope], bool] | None = None
        self._held: list[Envelope] = []
        # Per-(src, dst) resolved links: (LinkDelayStream, dedicated)
        # pairs built on first use.  Resolving once fuses the registry
        # lookup, the link-override lookup and the delay-model dispatch
        # that the hot send path used to repeat per message; set_link
        # invalidates the affected entry.
        self._stream_cache: dict[tuple[str, str], tuple[LinkDelayStream, bool]] = {}

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def attach(self, actor: Actor) -> None:
        """Register an actor under its name.  Names must be unique."""
        if actor.name in self._actors:
            raise ConfigError(f"duplicate actor name {actor.name!r}")
        self._actors[actor.name] = actor

    def has_actor(self, name: str) -> bool:
        """True when ``name`` is attached to this network."""
        return name in self._actors

    def set_link(self, src: str, dst: str, model: DelayModel) -> None:
        """Override the delay model for the directed link ``src -> dst``.

        Meant for topology construction; replacing a link that already
        carried traffic discards any draws its stream had prefetched
        (the link's RNG stream continues from wherever it stands).
        """
        key = (src, dst)
        self._links[key] = model
        self._stream_cache.pop(key, None)

    def link(self, src: str, dst: str) -> DelayModel:
        """The delay model in force for ``src -> dst``."""
        return self._links.get((src, dst), self.default_link)

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def send(
        self,
        sender: str,
        dest: str,
        payload: Any,
        size_bytes: int,
        depart_time: float | None = None,
    ) -> None:
        """Send one message; it is scheduled (or held) before this returns.

        ``depart_time`` is when the sender's CPU finished marshalling;
        it defaults to *now* and may not be in the past.
        """
        if size_bytes < 0:
            raise ConfigError(f"negative message size {size_bytes}")
        if dest not in self._actors:
            raise ConfigError(f"message to unknown actor {dest!r}")
        sim = self.sim
        now = sim.now
        depart = now if depart_time is None else depart_time
        if depart < now:
            raise SimulationError(
                f"depart_time {depart} is before now {now}"
            )
        key = (sender, dest)
        link = self._stream_cache.get(key)
        if link is None:
            link = self._resolve_link(key)
        stream, dedicated = link
        arrive = depart + stream.sample(size_bytes, depart)
        msg_id = self._next_msg_id
        self._next_msg_id = msg_id + 1
        self.messages_sent += 1
        self.bytes_sent += size_bytes
        if dedicated:
            self.pair_messages_sent += 1
        by_sender = self.messages_by_sender
        by_sender[sender] = by_sender.get(sender, 0) + 1
        hold = self._hold_predicate
        if hold is not None:
            envelope = Envelope(msg_id, sender, dest, payload, size_bytes, depart, arrive)
            if hold(envelope):
                self._held.append(envelope)
                return
        # Inlined Simulator.schedule_at minus the handle (keep in
        # lockstep): nothing cancels a delivery.
        queue = sim._queue
        seq = queue._seq
        queue._seq = seq + 1
        entry = [arrive, seq, self._deliver, (dest, sender, payload, size_bytes)]
        heappush(queue._heap, entry)

    def _resolve_link(self, key: tuple[str, str]) -> tuple[LinkDelayStream, bool]:
        """Build and cache the resolved stream for one directed link."""
        sender, dest = key
        rng = self.sim.rng.stream(f"net/{sender}->{dest}")
        link = self._links.get(key)
        dedicated = link is not None
        entry = (LinkDelayStream(link if dedicated else self.default_link, rng), dedicated)
        self._stream_cache[key] = entry
        return entry

    # ------------------------------------------------------------------
    # Experiment control: deferred delivery
    # ------------------------------------------------------------------
    def hold_matching(self, predicate: Callable[[Envelope], bool]) -> None:
        """Defer delivery of envelopes matching ``predicate``.

        The network stays *reliable*: held messages are delivered when
        :meth:`release_held` runs.  Experiments use this to age traffic
        (e.g. delaying acks so acked-but-uncommitted orders accumulate
        into BackLogs of a target size for the Figure 6 measurements);
        it models a transient delay spike on the asynchronous network,
        which the system model explicitly permits.
        """
        self._hold_predicate = predicate

    def release_held(self) -> None:
        """Deliver everything held and stop holding."""
        self._hold_predicate = None
        held, self._held = self._held, []
        for envelope in held:
            deliver_at = max(envelope.arrive_time, self.sim.now)
            self.sim.schedule_at(
                deliver_at,
                self._deliver,
                envelope.dest,
                envelope.sender,
                envelope.payload,
                envelope.size_bytes,
            )

    @property
    def held_count(self) -> int:
        """Number of envelopes currently held."""
        return len(self._held)

    def multicast(
        self,
        sender: str,
        dests: Iterable[str],
        payload: Any,
        size_bytes: int,
        depart_time: float | None = None,
    ) -> None:
        """Send the same payload to several destinations.

        Each copy is an independent unicast (the paper's implementation
        uses point-to-point TCP, not IP multicast), so each samples its
        own delay and counts toward the message totals.  Every
        destination is checked before the first copy is scheduled, so
        an unknown one sends nothing.  The loop body is :meth:`send`
        with the per-call validation, clock reads and sender bookkeeping
        hoisted out — a client multicasts every request to every
        process.
        """
        if size_bytes < 0:
            raise ConfigError(f"negative message size {size_bytes}")
        sim = self.sim
        now = sim.now
        depart = now if depart_time is None else depart_time
        if depart < now:
            raise SimulationError(f"depart_time {depart} is before now {now}")
        actors = self._actors
        targets = tuple(dests)
        for dest in targets:
            if dest not in actors:
                raise ConfigError(f"message to unknown actor {dest!r}")
        cache = self._stream_cache
        hold = self._hold_predicate
        deliver = self._deliver
        queue = sim._queue
        heap = queue._heap
        n_dedicated = 0
        for msg_id, dest in enumerate(targets, self._next_msg_id):
            key = (sender, dest)
            link = cache.get(key)
            if link is None:
                link = self._resolve_link(key)
            stream, dedicated = link
            arrive = depart + stream.sample(size_bytes, depart)
            if dedicated:
                n_dedicated += 1
            if hold is not None:
                envelope = Envelope(
                    msg_id, sender, dest, payload, size_bytes, depart, arrive
                )
                if hold(envelope):
                    self._held.append(envelope)
                    continue
            seq = queue._seq
            queue._seq = seq + 1
            heappush(heap, [arrive, seq, deliver, (dest, sender, payload, size_bytes)])
        n_sent = len(targets)
        self._next_msg_id += n_sent
        self.messages_sent += n_sent
        self.bytes_sent += n_sent * size_bytes
        self.pair_messages_sent += n_dedicated
        if n_sent:
            by_sender = self.messages_by_sender
            by_sender[sender] = by_sender.get(sender, 0) + n_sent

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def _deliver(self, dest: str, sender: str, payload: Any, size_bytes: int) -> None:
        actor = self._actors.get(dest)
        if actor is None:  # actor detached mid-flight; drop silently
            return
        service = actor.receive_service(payload, size_bytes)
        if service <= 0.0:
            # Zero-service messages model interrupt-level handling
            # (heartbeats, keepalives): they do not queue behind the
            # node's protocol work.
            actor.on_message(sender, payload)
            return
        # Inlined Cpu.submit + Simulator.schedule_at (bit-identical
        # arithmetic; keep in lockstep with both): this pair runs once
        # per queued delivery, the hottest compound call in a sweep.
        # ``on_message`` is scheduled directly — it re-checks crash
        # state at dispatch time itself.
        cpu = actor.cpu
        sim = self.sim
        now = sim.now
        busy = cpu.busy_until
        if busy > now:
            effective = service * (1.0 + cpu.overload_gamma * (busy - now))
            completion = busy + effective
        else:
            effective = service
            completion = now + service
        cpu.busy_until = completion
        cpu.total_busy += effective
        cpu.tasks_run += 1
        queue = sim._queue
        seq = queue._seq
        queue._seq = seq + 1
        heappush(queue._heap, [completion, seq, actor.on_message, (sender, payload)])
