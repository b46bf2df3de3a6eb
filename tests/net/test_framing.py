"""The live transport's wire codec: framing, handshake, bind gating.

These tests pin the contract the live cluster depends on: frames
round-trip through blocking sockets and asyncio streams identically,
a vanished peer is always :class:`PeerLost` (never a bare OSError or a
short read), and the HMAC handshake admits matching keys only.
"""

from __future__ import annotations

import asyncio
import socket

import pytest

from repro.errors import ConfigError
from repro.net import framing
from repro.net.framing import (
    AuthenticationError,
    PeerLost,
    is_loopback,
    recv_msg,
    require_auth_for_bind,
    resolve_auth_key,
    send_msg,
)


def _pair() -> tuple[socket.socket, socket.socket]:
    return socket.socketpair()


# ----------------------------------------------------------------------
# Blocking framing
# ----------------------------------------------------------------------
def test_roundtrip_objects():
    a, b = _pair()
    payloads = [("task", 3, {"x": 1.5}), b"\x00" * 70_000, None]
    try:
        for obj in payloads:
            send_msg(a, obj)
            assert recv_msg(b) == obj
    finally:
        a.close()
        b.close()


def test_eof_is_peer_lost():
    a, b = _pair()
    a.close()
    with pytest.raises(PeerLost):
        recv_msg(b)
    b.close()


def test_partial_frame_is_peer_lost():
    a, b = _pair()
    a.sendall(framing.LEN.pack(100) + b"short")
    a.close()
    with pytest.raises(PeerLost):
        recv_msg(b)
    b.close()


def test_timeout_is_peer_lost():
    a, b = _pair()
    b.settimeout(0.05)
    with pytest.raises(PeerLost):
        recv_msg(b)
    a.close()
    b.close()


def test_oversize_frame_header_is_peer_lost():
    """An unauthenticated peer cannot demand a 4 GiB allocation by
    lying in the length header: the frame is refused unread."""
    a, b = _pair()
    a.sendall(framing.LEN.pack(framing.MAX_FRAME_BYTES + 1))
    with pytest.raises(PeerLost):
        recv_msg(b)
    a.close()
    b.close()


def test_oversize_frame_is_refused_by_its_writer(monkeypatch):
    """The bound is checked where the frame is made, not only where it
    is read: the sender of an oversize frame gets an error naming the
    frame kind and its size, and not a byte reaches the peer (which
    would drop the connection unread, losing the frame silently)."""
    monkeypatch.setattr(framing, "MAX_FRAME_BYTES", 1024)
    a, b = _pair()
    b.settimeout(0.05)
    try:
        with pytest.raises(ConfigError, match=r"'report' frame of \d+ bytes") as caught:
            send_msg(a, ("report", {"records": [0] * 2048}))
        assert "MAX_FRAME_BYTES (1024)" in str(caught.value)
        with pytest.raises(ConfigError, match=r"'bytes' frame of"):
            send_msg(a, b"\x00" * 2048)  # an untagged object names its type
        with pytest.raises(PeerLost, match="timed out"):
            recv_msg(b)
        # A frame at the bound exactly is every reader's largest legal one.
        overhead = len(framing.encode_frame(b"\x00" * 1000)) - framing.LEN.size - 1000
        at_bound = b"\x00" * (1024 - overhead)
        assert len(framing.encode_frame(at_bound)) == framing.LEN.size + 1024
        send_msg(a, at_bound)
        assert recv_msg(b) == at_bound
    finally:
        a.close()
        b.close()


# ----------------------------------------------------------------------
# asyncio framing
# ----------------------------------------------------------------------
def test_async_oversize_frame_is_refused_by_its_writer(monkeypatch):
    monkeypatch.setattr(framing, "MAX_FRAME_BYTES", 1024)

    class Sink:
        written = b""

        def write(self, data: bytes) -> None:
            self.written += data

    sink = Sink()
    with pytest.raises(ConfigError, match=r"'many' frame of \d+ bytes"):
        framing.write_frame(sink, ("many", tuple(("msg", i, bytes([i]) * 64) for i in range(32))))
    assert sink.written == b""
    framing.write_frame(sink, ("msg", 0, b"x" * 64))
    assert sink.written == framing.encode_frame(("msg", 0, b"x" * 64))


def test_async_roundtrip_and_eof():
    async def scenario():
        received = []

        async def serve(reader, writer):
            received.append(await framing.read_frame(reader))
            framing.write_frame(writer, ("pong", 2))
            await writer.drain()
            with pytest.raises(PeerLost):
                await framing.read_frame(reader)
            writer.close()

        server = await asyncio.start_server(serve, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        framing.write_frame(writer, ("ping", 1))
        await writer.drain()
        reply = await framing.read_frame(reader)
        writer.close()
        await asyncio.sleep(0.05)
        server.close()
        return received, reply

    received, reply = asyncio.run(scenario())
    assert received == [("ping", 1)]
    assert reply == ("pong", 2)


def test_async_oversize_frame_header_is_peer_lost():
    async def scenario():
        outcome = {}

        async def serve(reader, writer):
            try:
                await framing.read_frame(reader)
            except PeerLost as exc:
                outcome["error"] = exc
            writer.close()

        server = await asyncio.start_server(serve, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        _, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(framing.LEN.pack(framing.MAX_FRAME_BYTES + 1))
        await writer.drain()
        await asyncio.sleep(0.1)
        writer.close()
        server.close()
        return outcome

    outcome = asyncio.run(scenario())
    assert isinstance(outcome.get("error"), PeerLost)


# ----------------------------------------------------------------------
# Handshake
# ----------------------------------------------------------------------
_EVIL_UNPICKLED: list[str] = []


class _Evil:
    """Pickles to a call recording that unpickling happened."""

    def __reduce__(self):
        return (_EVIL_UNPICKLED.append, ("unpickled pre-auth",))


def _listener_outcome(dialer) -> Exception | None:
    """Run :func:`deliver_challenge_async` against a raw asyncio dialer
    ``dialer(reader, writer)``; returns the listener's exception, or
    ``None`` when the handshake succeeded."""

    async def scenario():
        outcome = asyncio.get_running_loop().create_future()

        async def serve(reader, writer):
            try:
                await framing.deliver_challenge_async(reader, writer, b"secret")
                outcome.set_result(None)
            except Exception as exc:  # noqa: BLE001 - recording for assert
                outcome.set_result(exc)
            writer.close()

        server = await asyncio.start_server(serve, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        await dialer(reader, writer)
        result = await asyncio.wait_for(outcome, timeout=5)
        writer.close()
        server.close()
        return result

    return asyncio.run(scenario())


async def _read_raw_challenge(reader) -> bytes:
    (length,) = framing.LEN.unpack(await reader.readexactly(framing.LEN.size))
    return await reader.readexactly(length)


def test_handshake_never_unpickles_preauth():
    """A rogue dialer answering the challenge with a crafted pickle
    gets rejected without the payload ever reaching pickle.loads: the
    handshake speaks raw capped byte strings, so the bytes are only a
    wrong HMAC answer."""
    import pickle

    del _EVIL_UNPICKLED[:]

    async def rogue(reader, writer):
        await _read_raw_challenge(reader)
        payload = pickle.dumps(_Evil())
        writer.write(framing.LEN.pack(len(payload)) + payload)
        await writer.drain()

    outcome = _listener_outcome(rogue)
    assert _EVIL_UNPICKLED == []
    assert isinstance(outcome, AuthenticationError)


def test_handshake_rejects_oversize_message():
    """A pre-auth peer cannot demand a large allocation through the
    handshake length header either."""

    async def greedy(reader, writer):
        await _read_raw_challenge(reader)
        writer.write(framing.LEN.pack(2**31))  # claim a 2 GiB response
        await writer.drain()

    assert isinstance(_listener_outcome(greedy), AuthenticationError)


def test_async_handshake_matches_blocking():
    async def scenario(listener_key, dialer_key):
        results = {}

        async def serve(reader, writer):
            try:
                await framing.deliver_challenge_async(reader, writer, listener_key)
                results["listener"] = None
            except AuthenticationError as exc:
                results["listener"] = exc
            writer.close()

        server = await asyncio.start_server(serve, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            await framing.answer_challenge_async(reader, writer, dialer_key)
            results["dialer"] = None
        except AuthenticationError as exc:
            results["dialer"] = exc
        writer.close()
        await asyncio.sleep(0.05)
        server.close()
        return results

    good = asyncio.run(scenario(b"k", b"k"))
    assert good == {"listener": None, "dialer": None}
    bad = asyncio.run(scenario(b"k", b"wrong"))
    assert isinstance(bad["listener"], AuthenticationError)
    assert isinstance(bad["dialer"], AuthenticationError)


# ----------------------------------------------------------------------
# Key resolution and bind gating
# ----------------------------------------------------------------------
def test_resolve_auth_key_precedence(monkeypatch):
    monkeypatch.delenv(framing.AUTH_KEY_ENV, raising=False)
    assert resolve_auth_key(None) is None
    assert resolve_auth_key("abc") == b"abc"
    assert resolve_auth_key(b"raw") == b"raw"
    monkeypatch.setenv(framing.AUTH_KEY_ENV, "from-env")
    assert resolve_auth_key(None) == b"from-env"
    assert resolve_auth_key("explicit-wins") == b"explicit-wins"


def test_is_loopback():
    assert is_loopback("127.0.0.1")
    assert is_loopback("::1")
    assert is_loopback("localhost")
    assert is_loopback("")
    assert not is_loopback("0.0.0.0")
    assert not is_loopback("10.1.2.3")
    assert not is_loopback("example.com")


def test_bind_gate_requires_key_off_loopback():
    require_auth_for_bind("127.0.0.1", None)  # loopback: fine bare
    require_auth_for_bind("0.0.0.0", b"key")  # keyed: fine anywhere
    with pytest.raises(ConfigError):
        require_auth_for_bind("0.0.0.0", None)


# ----------------------------------------------------------------------
# Sign what you ship: a frame carries fields, never derived state
# ----------------------------------------------------------------------
def _over_the_wire(obj):
    a, b = _pair()
    try:
        send_msg(a, obj)
        return recv_msg(b)
    finally:
        a.close()
        b.close()


def test_signature_check_reads_the_fields_not_a_shipped_memo():
    from repro.core.messages import OrderBatch, OrderEntry, countersign, sign_message
    from repro.core.messages import verify_signed
    from repro.crypto.dealer import TrustedDealer
    from repro.crypto.schemes import scheme_by_name

    pair = ("p1", "p1'")
    provider = TrustedDealer(
        scheme_by_name("md5-rsa1024"), mode="simulated", seed=1
    ).provision([*pair, "p2"])
    entries = tuple(OrderEntry(seq, bytes([seq]) * 16, "c1", seq) for seq in (1, 2, 3))
    order = countersign(
        provider, pair[1], sign_message(provider, pair[0], OrderBatch(1, 1, entries))
    )
    received = _over_the_wire(order)
    assert verify_signed(provider, received, pair)
    # A relay rewrites what is ordered and leaves the memo alone.
    forged = tuple(OrderEntry(e.seq, b"\xff" * 16, e.client, e.req_id) for e in entries)
    object.__setattr__(received.body, "entries", forged)
    got = _over_the_wire(received)
    assert got.body.entries == forged
    assert not verify_signed(provider, got, pair)


def test_a_request_comes_back_with_caches_derived_from_its_fields():
    from repro.core.requests import ClientRequest
    from repro.crypto.canon import encode_canonical
    from repro.crypto.digests import digest

    request = ClientRequest(client="c1", req_id=7, payload=b"op")
    request.digest_under("md5")
    # A relay plants a digest and an identity the fields do not have.
    request.__dict__["_digest_cache_"]["md5"] = b"\x00" * 16
    object.__setattr__(request, "key", ("c9", 99))
    got = _over_the_wire(request)
    assert got == request
    assert got.digest_under("md5") == digest("md5", encode_canonical(got))
    assert got.digest_under("md5") != b"\x00" * 16
    assert got.key == ("c1", 7)


_CALLED: list[str] = []


class _Smuggler:
    """Pickles to a call of a global outside the wire vocabulary."""

    def __init__(self, target) -> None:
        self.target = target

    def __reduce__(self):
        return (self.target, ("echo smuggled",))


def _refused_frames() -> list[bytes]:
    import os
    import pickle

    frames = [pickle.dumps(("msg", "p1", "p2", _Smuggler(os.system)))]
    frames.append(pickle.dumps(_Smuggler(_CALLED.append)))
    return frames


def test_a_frame_naming_a_global_outside_the_allow_list_is_refused():
    del _CALLED[:]
    for data in _refused_frames():
        a, b = _pair()
        try:
            a.sendall(framing.LEN.pack(len(data)) + data)
            with pytest.raises(PeerLost, match="not a wire class"):
                recv_msg(b)
        finally:
            a.close()
            b.close()

    async def scenario():
        outcomes = []

        async def serve(reader, writer):
            try:
                await framing.read_frame(reader)
            except PeerLost as exc:
                outcomes.append(exc)
            writer.close()

        server = await asyncio.start_server(serve, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        for data in _refused_frames():
            _, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(framing.LEN.pack(len(data)) + data)
            await writer.drain()
            await asyncio.sleep(0.05)
            writer.close()
        server.close()
        return outcomes

    outcomes = asyncio.run(scenario())
    assert len(outcomes) == 2
    assert all("not a wire class" in str(exc) for exc in outcomes)
    assert _CALLED == []


def test_a_frame_cannot_plant_state_on_a_wire_message():
    """Pickle's BUILD opcode would set attributes after construction;
    a wire message refuses it, so no frame can carry a memo."""
    import pickle

    from repro.core.messages import Heartbeat

    legit = pickle.dumps(Heartbeat(sender="p1", nonce=1), protocol=2)
    assert legit.endswith(b".")
    # Append "state dict, BUILD" before STOP.
    planted = (
        legit[:-1]
        + pickle.dumps({"_canon_fragment_": "forged"}, protocol=2)[2:-1]
        + pickle.BUILD
        + pickle.STOP
    )
    with pytest.raises(PeerLost, match="refusing pickled state"):
        framing.decode_frame(planted)
