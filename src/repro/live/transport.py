"""TCP/asyncio message fabric presenting the simulated-network surface.

One :class:`LiveTransport` per node process.  The hosted order process
talks to it exactly as it talks to :class:`repro.net.network.Network`
(``send`` / ``multicast`` / ``has_actor`` / ``attach`` / ``set_link``),
but delivery is real: frames are length-prefixed pickles
(:mod:`repro.net.framing`), one dialled connection per destination
replica with reconnect-and-backoff, and dynamic return routes for
clients that dial in.  At most one wire frame goes to a destination
per event-loop turn: a lone message travels as its own
``("msg", sender, dest, payload)`` frame, several bound for the same
socket as one ``("many", (frame, frame, ...))`` — one pickle, one
``write``, one read at the peer — so the per-frame cost is paid once
per batch of messages, not once per message.  Two deliberate
departures from the simulated fabric:

* ``depart_time`` (the simulated CPU-marshalling completion) is
  ignored — a real CPU does the real work;
* no ``receive_service`` modelling — inbound frames dispatch straight
  into the hosted actor's ``on_message`` on the event loop, which is
  single-threaded like the simulator, so protocol code needs no locks.

Everything except :meth:`send`/:meth:`multicast` enqueueing happens on
the owning event loop.
"""

from __future__ import annotations

import asyncio
import sys
from typing import Any, Callable, Iterable

from repro.errors import ConfigError
from repro.net import framing

#: Per-destination outbound queue bound; a destination that is down
#: keeps only the newest frames (the protocol tolerates message loss
#: to crashed peers — that is its whole point).
MAX_QUEUED_FRAMES = 2048
#: Most messages one ``many`` wire frame carries, so a coalesced frame
#: stays far below :data:`repro.net.framing.MAX_FRAME_BYTES`; a turn
#: that produces more writes several.
MAX_COALESCED_FRAMES = 256
#: Write-buffer bound for dialled-in return routes.  Those writes
#: bypass the queued channel path, so without a cap a stalled client
#: grows an unbounded StreamWriter buffer in the replica; past this,
#: messages to it are shed (message loss is tolerated, memory loss is
#: not).
MAX_ROUTE_BUFFER_BYTES = 4 * 1024 * 1024

_STOP = object()


class LiveTransport:
    """The network surface of one live node.

    Parameters
    ----------
    name:
        This node's own name (the hosted process or client).
    addresses:
        ``{peer_name: (host, port)}`` data listeners of the replicas.
    auth_key:
        Pre-shared key for the frame-level handshake (``None`` on
        loopback).
    """

    def __init__(
        self,
        name: str,
        addresses: dict[str, tuple[str, int]] | None = None,
        auth_key: bytes | None = None,
    ) -> None:
        self.name = name
        self.addresses = dict(addresses or {})
        self.auth_key = auth_key
        self._actors: dict[str, Any] = {}
        self._hosted: set[str] = set()
        # Dynamic return routes: peers that dialled us (clients, or
        # replicas whose hello arrived first), name -> StreamWriter.
        self._routes: dict[str, asyncio.StreamWriter] = {}
        # Messages accepted for a return route this loop turn, per
        # connection; non-empty means a _flush is scheduled, which
        # writes each connection's list as one frame.
        self._pending: dict[asyncio.StreamWriter, list[tuple]] = {}
        self._queues: dict[str, asyncio.Queue] = {}
        self._channels: dict[str, asyncio.Task] = {}
        self._server: asyncio.Server | None = None
        self._reader_tasks: set[asyncio.Task] = set()
        self._closed = False
        # messages_sent / frames_delivered count protocol messages
        # (accepted by send / handed to an actor); the wire_* counters
        # count the frames, and their framed bytes, that crossed a
        # socket after the hello.  bytes_sent sums the simulator's size
        # estimates (payload_bytes) of the messages sent, not wire bytes.
        self.messages_sent = 0
        self.bytes_sent = 0
        self.frames_delivered = 0
        self.wire_frames_out = 0
        self.wire_frames_in = 0
        self.wire_bytes_out = 0
        self.wire_bytes_in = 0
        # Handlers for non-"msg" frame kinds (state transfer, control):
        # kind -> callable(frame, reply_writer | None).
        self._control: dict[str, Callable[[tuple, Any], None]] = {}
        # Liveness hook: called with the peer name for every inbound
        # frame (heartbeat failure detection feeds on it).
        self.peer_activity: Callable[[str], None] | None = None
        # Injectable network-fault schedule (repro.live.chaos) and the
        # clock it reads (cluster time); None = clean network.
        self.chaos = None
        self.clock: Callable[[], float] = lambda: 0.0
        # Fallback actor for inbound msg frames whose dest is not
        # hosted here.  A population load driver issues requests under
        # many virtual client names over one connection; hosting each
        # would be O(population), so it catches every reply instead.
        self.catch_all: Any = None

    # ------------------------------------------------------------------
    # Topology (the Network surface plugin builds touch)
    # ------------------------------------------------------------------
    def attach(self, actor: Any) -> None:
        if actor.name in self._actors:
            raise ConfigError(f"duplicate actor name {actor.name!r}")
        self._actors[actor.name] = actor

    def has_actor(self, name: str) -> bool:
        """True for every reachable name: locally attached actors,
        replicas with known addresses, and dialled-in peers (clients
        become addressable the moment their hello frame arrives)."""
        return (
            name in self._actors
            or name in self.addresses
            or name in self._routes
        )

    def counters(self) -> dict[str, int]:
        """Messages against wire frames and bytes, both directions: a
        ratio of ``wire_frames_out`` to ``messages_sent`` near 1.0 on a
        busy node means coalescing has stopped working."""
        return {
            "messages_sent": self.messages_sent,
            "frames_delivered": self.frames_delivered,
            "wire_frames_out": self.wire_frames_out,
            "wire_frames_in": self.wire_frames_in,
            "wire_bytes_out": self.wire_bytes_out,
            "wire_bytes_in": self.wire_bytes_in,
        }

    def set_link(self, src: str, dst: str, model: Any) -> None:
        """Pair links are a delay-model concept; the wire is the wire."""

    def host(self, *names: str) -> None:
        """Mark ``names`` as served by this node: sends to them
        dispatch locally instead of over TCP."""
        self._hosted.update(names)

    def register_control(
        self, kind: str, handler: Callable[[tuple, Any], None]
    ) -> None:
        """Dispatch inbound frames tagged ``kind`` (anything but
        ``"msg"``) to ``handler(frame, reply_writer)``.

        ``reply_writer`` is the StreamWriter of the connection the
        frame arrived on when it arrived on our listener (the state
        transfer server answers on it), else ``None``.
        """
        self._control[kind] = handler

    def update_address(self, name: str, host: str, port: int) -> None:
        """Repoint ``name`` at a new data listener (a restarted
        replica rebinds an ephemeral port).

        The existing outbound channel — still backing off against the
        dead listener — is torn down with its queued frames (the peer
        was down; the protocol tolerates that loss); the next send
        dials the new address.
        """
        if self.addresses.get(name) == (host, port):
            return
        self.addresses[name] = (host, port)
        task = self._channels.pop(name, None)
        self._queues.pop(name, None)
        if task is not None:
            task.cancel()
        route = self._routes.pop(name, None)
        if route is not None:
            route.close()

    # ------------------------------------------------------------------
    # Listener
    # ------------------------------------------------------------------
    async def start_listener(self, host: str, port: int = 0) -> tuple[str, int]:
        """Bind the data listener; returns the bound (host, port)."""
        framing.require_auth_for_bind(host, self.auth_key)
        self._server = await asyncio.start_server(self._serve_peer, host, port)
        bound = self._server.sockets[0].getsockname()
        return bound[0], bound[1]

    async def _serve_peer(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peer = None
        try:
            if self.auth_key is not None:
                await framing.deliver_challenge_async(reader, writer, self.auth_key)
            hello = await framing.read_frame(reader)
            if not (
                isinstance(hello, tuple)
                and len(hello) == 2
                and hello[0] == "hello"
                and isinstance(hello[1], str)
            ):
                return
            peer = hello[1]
            self._routes[peer] = writer
            while True:
                frame, size = await framing.read_sized_frame(reader)
                self.wire_bytes_in += size
                self._note_activity(peer)
                self._dispatch_frame(frame, writer)
        except (framing.PeerLost, framing.AuthenticationError, OSError):
            pass
        finally:
            # Drop every route pointing at this connection — the hello
            # name plus any virtual-client aliases learned from it.
            stale = [n for n, w in self._routes.items() if w is writer]
            for name in stale:
                del self._routes[name]
            writer.close()

    def _note_activity(self, peer: str) -> None:
        callback = self.peer_activity
        if callback is not None:
            callback(peer)

    def _dispatch_frame(self, frame: object, writer=None) -> None:
        """Handle one frame read off a socket.  A ``many`` is unrolled
        in order into the per-message path; one nested inside another
        is dropped, not recursed into (no sender writes one)."""
        self.wire_frames_in += 1
        if not (isinstance(frame, tuple) and frame):
            return
        if frame[0] != "many":
            self._dispatch_one(frame, writer)
        elif len(frame) == 2 and isinstance(frame[1], tuple):
            for inner in frame[1]:
                if isinstance(inner, tuple) and inner and inner[0] != "many":
                    self._dispatch_one(inner, writer)

    def _dispatch_one(self, frame: tuple, writer) -> None:
        kind = frame[0]
        if kind == "msg":
            if len(frame) != 4:
                return
            _, sender, dest, payload = frame
            if dest not in self._hosted:
                if self.catch_all is not None:
                    self.frames_delivered += 1
                    self.catch_all.on_message(sender, payload)
                return  # misrouted or for a mirror: not ours to handle
            actor = self._actors.get(dest)
            if actor is None:
                return
            # Virtual-client alias: a request whose declared client is
            # not the connection's hello name (a population driver
            # multiplexing many sampled ids over one connection) makes
            # that id routable back over the same connection, so
            # replies to it reach the driver.
            if writer is not None:
                client = getattr(payload, "client", None)
                if (
                    client is not None
                    and client != sender
                    and client not in self._routes
                    and client not in self.addresses
                ):
                    self._routes[client] = writer
            self.frames_delivered += 1
            actor.on_message(sender, payload)
            return
        if kind == "hb":
            # Pure liveness beacons: the activity note above (or the
            # pump's) already recorded them; nothing to dispatch.
            return
        handler = self._control.get(kind)
        if handler is not None:
            handler(frame, writer)

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
        """Route one message.  Local destinations dispatch on the next
        loop turn (so a handler's sends never re-enter protocol code
        mid-handler, matching the simulator's event discipline)."""
        self.messages_sent += 1
        self.bytes_sent += size_bytes
        if dest in self._hosted:
            actor = self._actors.get(dest)
            if actor is not None:
                asyncio.get_running_loop().call_soon(actor.on_message, sender, payload)
            return
        self._transmit(dest, ("msg", sender, dest, payload))

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

    def send_raw(self, dest: str, frame: tuple) -> None:
        """Put one non-``msg`` frame (heartbeat, state transfer) on the
        wire to ``dest``, through the same chaos gate protocol traffic
        crosses — a partition silences heartbeats too, which is exactly
        how the failure detector notices it."""
        self._transmit(dest, frame)

    def _transmit(self, dest: str, frame: tuple) -> None:
        """The chaos gate in front of every remote transmission."""
        chaos = self.chaos
        if chaos is not None:
            verdict, delay = chaos.action(self.clock(), self.name, dest)
            if verdict == "drop":
                return
            if verdict == "delay":
                asyncio.get_running_loop().call_later(
                    delay, self._enqueue, dest, frame
                )
                return
        self._enqueue(dest, frame)

    def _enqueue(self, dest: str, frame: tuple) -> None:
        if self._closed:
            return
        route = self._routes.get(dest)
        if route is not None and not route.is_closing():
            # A dialled-in peer (a client awaiting replies): answer on
            # its own connection, shedding when it stops draining.
            if route.transport.get_write_buffer_size() < MAX_ROUTE_BUFFER_BYTES:
                if not self._pending:
                    asyncio.get_running_loop().call_soon(self._flush)
                self._pending.setdefault(route, []).append(frame)
            return
        if dest not in self.addresses:
            return  # unreachable: a mirror-only name, or a gone client
        queue = self._queues.get(dest)
        if queue is None:
            queue = self._queues[dest] = asyncio.Queue()
            self._channels[dest] = asyncio.get_running_loop().create_task(
                self._channel(dest, queue)
            )
        if queue.qsize() >= MAX_QUEUED_FRAMES:
            queue.get_nowait()  # shed oldest: the peer is long gone
        queue.put_nowait(frame)

    def _flush(self) -> None:
        """Write what this loop turn queued for each return route."""
        pending, self._pending = self._pending, {}
        for route, frames in pending.items():
            for at in range(0, len(frames), MAX_COALESCED_FRAMES):
                if route.is_closing():
                    break
                try:
                    self._write(route, frames[at : at + MAX_COALESCED_FRAMES])
                except OSError:
                    pass

    def _write(self, writer: asyncio.StreamWriter, frames: list[tuple]) -> None:
        """Put ``frames`` on ``writer`` as one wire frame: a lone frame
        as itself, several as one ``many``."""
        frame = frames[0] if len(frames) == 1 else ("many", tuple(frames))
        try:
            size = framing.write_frame(writer, frame)
        except ConfigError as exc:
            # Over MAX_FRAME_BYTES: the peer would drop the connection.
            # Send what fits by itself and say what does not.
            if len(frames) > 1:
                for one in frames:
                    self._write(writer, [one])
            else:
                print(f"{self.name}: dropped {exc}", file=sys.stderr, flush=True)
        else:
            self.wire_frames_out += 1
            self.wire_bytes_out += size

    async def _channel(self, dest: str, queue: asyncio.Queue) -> None:
        """Outbound connection to one peer: dial, handshake, drain the
        queue; reconnect on the shared jittered-backoff policy
        (:data:`repro.net.framing.RECONNECT`) on any failure, the
        delay sequence resetting on every successful dial.

        Each wake-up takes everything already queued (up to
        :data:`MAX_COALESCED_FRAMES`) as one wire frame, so the sends
        of one loop turn cost one ``write`` and one ``drain``.

        The connection is full duplex — the peer answers over *this*
        connection (its dialled-in return route) rather than dialling
        back, so every successful dial also starts an inbound pump.
        """
        writer: asyncio.StreamWriter | None = None
        pump: asyncio.Task | None = None
        delays = framing.RECONNECT.delays()
        try:
            while not self._closed:
                frames = [await queue.get()]
                while len(frames) < MAX_COALESCED_FRAMES and not queue.empty():
                    frames.append(queue.get_nowait())
                if frames[-1] is _STOP:  # close() queues it last
                    break
                while not self._closed:
                    if writer is None or writer.is_closing():
                        if pump is not None:
                            pump.cancel()
                            pump = None
                        # Re-read every dial: update_address repoints
                        # a restarted replica at its new listener.
                        host, port = self.addresses[dest]
                        try:
                            reader, writer = await asyncio.open_connection(host, port)
                            if self.auth_key is not None:
                                await framing.answer_challenge_async(
                                    reader, writer, self.auth_key
                                )
                            framing.write_frame(writer, ("hello", self.name))
                            await writer.drain()
                            delays = framing.RECONNECT.delays()
                            pump = asyncio.get_running_loop().create_task(
                                self._pump_inbound(dest, reader)
                            )
                            self._reader_tasks.add(pump)
                            pump.add_done_callback(self._reader_tasks.discard)
                        except (
                            OSError, framing.PeerLost, framing.AuthenticationError
                        ):
                            writer = None
                            await asyncio.sleep(next(delays))
                            if queue.qsize() >= MAX_QUEUED_FRAMES:
                                break  # shed these frames; newer ones queued
                            continue
                    try:
                        self._write(writer, frames)
                        await writer.drain()
                        break
                    except (OSError, ConnectionError):
                        writer.close()
                        writer = None  # retry the same frames on a fresh dial
        finally:
            if pump is not None:
                pump.cancel()
            if writer is not None:
                writer.close()

    async def _pump_inbound(self, peer: str, reader: asyncio.StreamReader) -> None:
        """Dispatch frames the peer writes back on an outbound
        connection (return-route traffic: replies to a client, or a
        replica answering over the connection we opened first)."""
        try:
            while True:
                frame, size = await framing.read_sized_frame(reader)
                self.wire_bytes_in += size
                self._note_activity(peer)
                self._dispatch_frame(frame)
        except (framing.PeerLost, OSError, asyncio.CancelledError):
            return

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    async def close(self) -> None:
        """Stop accepting, flush nothing, drop every connection."""
        self._closed = True
        self._pending.clear()
        if self._server is not None:
            self._server.close()
        for queue in self._queues.values():
            queue.put_nowait(_STOP)
        for task in self._channels.values():
            task.cancel()
        for task in list(self._reader_tasks):
            task.cancel()
        for writer in list(self._routes.values()):
            writer.close()
        for task in list(self._channels.values()):
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
