"""``LiveTransport`` on loopback, in one event loop, no subprocess.

The transport puts at most one wire frame per destination per loop
turn on a socket: the sends of one turn travel as one ``many`` frame,
a lone send as the plain ``msg`` frame it always was.  These tests pin
that rule on both send paths — the dialled channel and the dialled-in
return route — and the behaviour that had to survive it: per-peer FIFO
order, the chaos gate judging each message, route shedding, the
channel's retry on a fresh dial, and a ``close()`` that flushes
nothing.  Raw asyncio peers stand in where the test has to see the
bytes that crossed the socket.
"""

from __future__ import annotations

import asyncio
import gc
import pickle

from repro.harness.perf import sample_hotpath_message

from repro.live import transport as transport_mod
from repro.live.transport import MAX_COALESCED_FRAMES, LiveTransport
from repro.net import framing

TIMEOUT = 5.0


class Sink:
    """An actor that records what it is handed."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.got: list[tuple[str, object]] = []

    def on_message(self, sender: str, payload: object) -> None:
        self.got.append((sender, payload))


async def _until(condition) -> None:
    async def poll() -> None:
        while not condition():
            await asyncio.sleep(0.001)

    await asyncio.wait_for(poll(), TIMEOUT)


async def _listening(name: str) -> tuple[LiveTransport, Sink, tuple[str, int]]:
    node = LiveTransport(name)
    sink = Sink(name)
    node.attach(sink)
    node.host(name)
    return node, sink, await node.start_listener("127.0.0.1")


async def _pair():
    """``a`` dials ``b``; once the first message is through, ``b``
    holds a return route to ``a``.  Both sinks are emptied again."""
    b, b_sink, address = await _listening("b")
    a = LiveTransport("a", addresses={"b": address})
    a_sink = Sink("a")
    a.attach(a_sink)
    a.host("a")
    a.send("a", "b", "dial", 0)
    await _until(lambda: b_sink.got)
    b_sink.got.clear()
    return a, a_sink, b, b_sink


def _msg_bytes(sender: str, dest: str, payload: object) -> bytes:
    """A message's wire bytes as they were before frames coalesced."""
    data = pickle.dumps(("msg", sender, dest, payload), protocol=pickle.HIGHEST_PROTOCOL)
    return framing.LEN.pack(len(data)) + data


async def _dial_raw(address: tuple[str, int], name: str):
    """A raw peer dialled into a transport's listener."""
    reader, writer = await asyncio.open_connection(*address)
    framing.write_frame(writer, ("hello", name))
    await writer.drain()
    return reader, writer


class RawListener:
    """A raw peer a transport's channel dials: one list of frames per
    accepted connection, hello included."""

    def __init__(self) -> None:
        self.connections: list[list[object]] = []
        self.raw = bytearray()
        self.hang_up_after: int | None = None
        self._server: asyncio.Server | None = None

    async def start(self) -> tuple[str, int]:
        self._server = await asyncio.start_server(self._serve, "127.0.0.1", 0)
        return self._server.sockets[0].getsockname()[:2]

    async def _serve(self, reader, writer) -> None:
        frames: list[object] = []
        self.connections.append(frames)
        try:
            while True:
                if self.hang_up_after == len(frames):
                    self.hang_up_after = None
                    return
                header = await reader.readexactly(framing.LEN.size)
                body = await reader.readexactly(framing.LEN.unpack(header)[0])
                self.raw += header + body
                frames.append(framing.decode_frame(body))
        except (asyncio.IncompleteReadError, OSError):
            pass
        finally:
            writer.close()

    def close(self) -> None:
        self._server.close()


# ----------------------------------------------------------------------
# One wire frame per peer per turn
# ----------------------------------------------------------------------
def test_one_turn_of_channel_sends_is_one_wire_frame_in_order():
    async def scenario():
        a, _, b, b_sink = await _pair()
        frames_in, frames_out = b.wire_frames_in, a.wire_frames_out
        for i in range(10):
            a.send("a", "b", i, 8)
        await _until(lambda: len(b_sink.got) == 10)
        assert b_sink.got == [("a", i) for i in range(10)]
        assert b.wire_frames_in - frames_in == 1
        assert a.wire_frames_out - frames_out == 1
        assert a.messages_sent == 11 and b.frames_delivered == 11
        await a.close()
        await b.close()

    asyncio.run(scenario())


def test_one_turn_of_route_sends_is_one_wire_frame_in_order():
    async def scenario():
        a, a_sink, b, _ = await _pair()
        assert a.wire_frames_in == 0
        for i in range(10):
            b.send("b", "a", i, 8)
        await _until(lambda: len(a_sink.got) == 10)
        assert a_sink.got == [("b", i) for i in range(10)]
        assert a.wire_frames_in == 1
        assert b.wire_frames_out == 1
        coalesced = ("many", tuple(("msg", "b", "a", i) for i in range(10)))
        assert b.counters() == {
            "messages_sent": 10, "frames_delivered": 1,
            "wire_frames_out": 1, "wire_frames_in": 1,
            "wire_bytes_out": len(framing.encode_frame(coalesced)),
            "wire_bytes_in": len(framing.encode_frame(("msg", "a", "b", "dial"))),
        }
        await a.close()
        await b.close()

    asyncio.run(scenario())


def test_sends_in_different_turns_are_separate_frames():
    async def scenario():
        a, a_sink, b, b_sink = await _pair()
        frames_in = b.wire_frames_in
        for i in range(3):
            a.send("a", "b", i, 8)
            await _until(lambda: len(b_sink.got) == i + 1)
            b.send("b", "a", i, 8)
            await _until(lambda: len(a_sink.got) == i + 1)
        assert b.wire_frames_in - frames_in == 3
        assert a.wire_frames_in == 3
        await a.close()
        await b.close()

    asyncio.run(scenario())


def test_a_lone_send_is_the_plain_msg_frame_on_both_paths():
    async def scenario():
        # Channel path: the transport dials a raw listener.
        listener = RawListener()
        a = LiveTransport("a", addresses={"raw": await listener.start()})
        a.send("a", "raw", {"k": (1, 2.5)}, 8)
        await _until(lambda: listener.connections and len(listener.connections[0]) == 2)
        hello = framing.encode_frame(("hello", "a"))
        assert bytes(listener.raw) == hello + _msg_bytes("a", "raw", {"k": (1, 2.5)})
        await a.close()
        listener.close()

        # Route path: a raw peer dials the transport.
        b, _, address = await _listening("b")
        reader, writer = await _dial_raw(address, "raw")
        await _until(lambda: b.has_actor("raw"))
        b.send("b", "raw", {"k": (1, 2.5)}, 8)
        expected = _msg_bytes("b", "raw", {"k": (1, 2.5)})
        assert await asyncio.wait_for(reader.readexactly(len(expected)), TIMEOUT) == expected
        writer.close()
        await b.close()

    asyncio.run(scenario())


def test_a_long_turn_splits_at_max_coalesced_frames():
    async def scenario():
        a, a_sink, b, b_sink = await _pair()
        frames_in = b.wire_frames_in
        for i in range(600):
            a.send("a", "b", i, 8)
            b.send("b", "a", i, 8)
        await _until(lambda: len(a_sink.got) == 600 and len(b_sink.got) == 600)
        assert [p for _, p in a_sink.got] == list(range(600))
        assert [p for _, p in b_sink.got] == list(range(600))
        wire_frames = -(-600 // MAX_COALESCED_FRAMES)
        assert b.wire_frames_in - frames_in == wire_frames
        assert a.wire_frames_in == wire_frames
        await a.close()
        await b.close()

    asyncio.run(scenario())


def test_a_nested_many_is_dropped_not_unrolled():
    async def scenario():
        b, b_sink, address = await _listening("b")
        _, writer = await _dial_raw(address, "raw")
        msg = lambda payload: ("msg", "raw", "b", payload)  # noqa: E731
        framing.write_frame(
            writer, ("many", (msg(1), ("many", (msg(2),)), ("hb", "raw"), msg(3)))
        )
        framing.write_frame(writer, ("many", [msg(4)]))  # not a tuple of frames
        framing.write_frame(writer, msg(5))
        await writer.drain()
        await _until(lambda: b_sink.got and b_sink.got[-1] == ("raw", 5))
        assert b_sink.got == [("raw", 1), ("raw", 3), ("raw", 5)]
        assert b.wire_frames_in == 3 and b.frames_delivered == 3
        writer.close()
        await b.close()

    asyncio.run(scenario())


def test_a_doubly_signed_order_moves_as_its_fields():
    """One 16-entry doubly-signed order a -> b is at most 1.5 KB on the
    wire: fields only, no encoder memos, counted on both ends."""

    async def scenario():
        a, _, b, b_sink = await _pair()
        out_before, in_before = a.wire_bytes_out, b.wire_bytes_in
        order = sample_hotpath_message(n_entries=16)
        a.send("a", "b", order, 0)
        await _until(lambda: b_sink.got)
        assert b_sink.got == [("a", order)]
        moved = a.wire_bytes_out - out_before
        assert moved == b.wire_bytes_in - in_before
        assert moved == len(framing.encode_frame(("msg", "a", "b", order)))
        assert moved <= 1536
        await a.close()
        await b.close()

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# What had to survive coalescing
# ----------------------------------------------------------------------
class DropNth:
    """A chaos schedule that drops exactly the ``n``-th judged message."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.judged = 0

    def action(self, now: float, src: str, dst: str) -> tuple[str, float]:
        self.judged += 1
        return ("drop", 0.0) if self.judged == self.n else ("pass", 0.0)


def test_a_chaos_drop_removes_exactly_the_judged_message():
    async def scenario():
        a, a_sink, b, b_sink = await _pair()
        a.chaos, b.chaos = DropNth(3), DropNth(2)
        frames_in = b.wire_frames_in
        for i in range(5):
            a.send("a", "b", i, 8)
            b.send("b", "a", i, 8)
        await _until(lambda: len(b_sink.got) == 4 and len(a_sink.got) == 4)
        assert [p for _, p in b_sink.got] == [0, 1, 3, 4]
        assert [p for _, p in a_sink.got] == [0, 2, 3, 4]
        assert b.wire_frames_in - frames_in == 1 and a.wire_frames_in == 1
        assert a.chaos.judged == 5 and b.chaos.judged == 5
        await a.close()
        await b.close()

    asyncio.run(scenario())


def test_a_stalled_route_still_sheds_at_the_buffer_bound(monkeypatch):
    bound, payload = 64 * 1024, b"x" * (32 * 1024)
    monkeypatch.setattr(transport_mod, "MAX_ROUTE_BUFFER_BYTES", bound)

    async def scenario():
        b, _, address = await _listening("b")
        _, writer = await _dial_raw(address, "raw")  # never reads
        await _until(lambda: b.has_actor("raw"))
        route = b._routes["raw"]
        sends = 1500  # ~48 MB offered: far past any loopback socket buffer
        for _ in range(sends):
            b.send("b", "raw", payload, len(payload))
            await asyncio.sleep(0)
        assert b.messages_sent == sends
        assert b.wire_frames_out < sends  # the rest were shed, unpickled
        # One message past the bound at most: the check precedes queuing.
        assert route.transport.get_write_buffer_size() < bound + 2 * len(payload)
        writer.close()
        await b.close()

    asyncio.run(scenario())


def test_a_turn_too_big_for_one_frame_goes_out_message_by_message(monkeypatch, capsys):
    """The write-side bound refuses a coalesced frame the peer would
    drop the connection over; what fits by itself still arrives, in
    order, and the one message that never could is named on stderr."""
    monkeypatch.setattr(framing, "MAX_FRAME_BYTES", 1024)

    async def scenario():
        a, a_sink, b, b_sink = await _pair()
        payloads = [bytes([i]) * 400 for i in range(4)]
        payloads.insert(2, b"!" * 2000)
        for payload in payloads:
            a.send("a", "b", payload, len(payload))
            b.send("b", "a", payload, len(payload))
        await _until(lambda: len(a_sink.got) == 4 and len(b_sink.got) == 4)
        fitting = [p for p in payloads if len(p) == 400]
        assert [p for _, p in a_sink.got] == fitting
        assert [p for _, p in b_sink.got] == fitting
        assert a.wire_frames_in == 4 and b.wire_frames_out == 4
        await a.close()
        await b.close()

    asyncio.run(scenario())
    complaints = capsys.readouterr().err.splitlines()
    assert len(complaints) == 2 and all("'msg' frame of" in line for line in complaints)


def test_a_channel_resends_the_whole_coalesced_frame_on_a_fresh_dial():
    async def scenario():
        listener = RawListener()
        listener.hang_up_after = 2  # hello + one message, then the peer dies
        a = LiveTransport("a", addresses={"raw": await listener.start()})
        a.send("a", "raw", "first", 8)
        await _until(lambda: listener.connections and len(listener.connections[0]) == 2)
        await asyncio.sleep(0.05)
        # Written into the dead connection: TCP takes it and answers
        # with a reset (message loss to a crashed peer is tolerated).
        a.send("a", "raw", "lost", 8)
        await asyncio.sleep(0.05)
        # This turn's write fails on the reset; the same coalesced
        # frame must arrive whole, once, on the connection dialled next.
        for i in range(5):
            a.send("a", "raw", i, 8)
        await _until(lambda: len(listener.connections) == 2 and len(listener.connections[1]) == 2)
        await asyncio.sleep(0.05)
        first, second = listener.connections
        assert first == [("hello", "a"), ("msg", "a", "raw", "first")]
        assert second == [
            ("hello", "a"),
            ("many", tuple(("msg", "a", "raw", i) for i in range(5))),
        ]
        # first, lost, and the five-message frame written twice.
        assert a.wire_frames_out == 4
        await a.close()
        listener.close()

    asyncio.run(scenario())


def test_close_with_pending_frames_writes_nothing_and_leaks_no_exception():
    async def scenario():
        complaints: list[dict] = []
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: complaints.append(context)
        )
        listener = RawListener()
        b, _, address = await _listening("b")
        reader, writer = await _dial_raw(address, "raw")
        await _until(lambda: b.has_actor("raw"))
        b.addresses["peer"] = await listener.start()
        for i in range(3):
            b.send("b", "raw", i, 8)  # pending on the route, flush armed
            b.send("b", "peer", i, 8)  # queued for a channel not yet dialled
        await b.close()
        b.send("b", "raw", "late", 8)  # a closed transport accepts nothing
        # EOF, and not a byte before it.
        assert await asyncio.wait_for(reader.read(), TIMEOUT) == b""
        await asyncio.sleep(0.05)
        assert listener.connections == [] or listener.connections == [[]]
        assert b.wire_frames_out == 0
        writer.close()
        listener.close()
        gc.collect()  # a dropped task reports its exception when collected
        await asyncio.sleep(0)
        assert complaints == []

    asyncio.run(scenario())
