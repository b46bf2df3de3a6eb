"""Length-prefixed pickle framing and the authenticated handshake.

The wire codec of the live replica runtime (:mod:`repro.live`).  A
frame is a 4-byte big-endian payload length followed by a pickle; the
asyncio stream variant carries the live cluster, and a blocking-socket
variant reads and writes the same bytes for code outside an event loop.

Authentication
--------------
Pickle is code execution for whoever can reach the port, so binding a
non-loopback interface requires a pre-shared key
(:func:`require_auth_for_bind`).  The handshake is the HMAC
challenge-response of :mod:`multiprocessing.connection`: the listener
sends ``#CHALLENGE#`` + 20 random bytes, the dialer answers with
``HMAC-SHA256(key, challenge)``, the listener replies ``#WELCOME#`` or
``#FAILURE#``.  Handshake messages travel as *raw* length-prefixed
byte strings with a small hard cap — never through the pickle codec —
so nothing attacker-controlled is unpickled before authentication
succeeds (the same discipline as :mod:`multiprocessing.connection`).
The key comes from ``--auth-key`` or the ``REPRO_AUTH_KEY``
environment variable (:func:`resolve_auth_key`); both sides must
agree or the connection is dropped before any pickle is read.
"""

from __future__ import annotations

import asyncio
import hmac
import ipaddress
import os
import pickle
import random
import socket
import struct
from dataclasses import dataclass
from typing import Iterator

from repro.errors import ConfigError

LEN = struct.Struct(">I")

#: Hard cap on a single frame's payload.  The length header is
#: attacker-controlled on an unauthenticated connection, so without a
#: bound any peer can demand a 4 GiB allocation before the handshake
#: even runs.  Legitimate frames (protocol messages, node reports)
#: are well under this; writers check it too (:func:`encode_frame`),
#: so a sender learns of an oversize frame instead of its peer
#: silently dropping the connection.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Environment variable carrying the pre-shared cluster key.
AUTH_KEY_ENV = "REPRO_AUTH_KEY"

_CHALLENGE = b"#CHALLENGE#"
_WELCOME = b"#WELCOME#"
_FAILURE = b"#FAILURE#"
_CHALLENGE_BYTES = 20
#: Hard cap on a raw handshake message; every legitimate one
#: (challenge, HMAC digest, verdict) is a few dozen bytes.
_HANDSHAKE_MAX = 256


class PeerLost(ConnectionError):
    """The peer vanished mid-conversation (EOF, reset, or timeout)."""


class AuthenticationError(ConnectionError):
    """The challenge-response handshake failed (wrong or missing key)."""


# ----------------------------------------------------------------------
# Jittered exponential backoff
#
# The one retry cadence every reconnect path shares: the live
# transport's per-peer channels and the load client's controller
# fetch.  Jitter decorrelates a fleet of peers retrying against the
# same reborn listener; the budget turns "retry forever on a dead
# peer" into a bounded failure with a :class:`PeerLost` whose
# ``__cause__`` names the last underlying error.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BackoffPolicy:
    """Delays for one reconnect conversation.

    ``first`` doubles via ``multiplier`` up to ``cap``; each delay is
    then jittered to ``uniform(delay * (1 - jitter), delay)``.  A
    ``budget`` bounds the *sum* of delays (and thereby total retry
    time); ``attempts`` bounds their count.  ``None`` means unbounded.
    """

    first: float = 0.05
    cap: float = 1.0
    multiplier: float = 2.0
    jitter: float = 0.5
    budget: float | None = None
    attempts: int | None = None

    def delays(self, rng: random.Random | None = None) -> Iterator[float]:
        """The jittered delay sequence, exhausted when the budget is.

        Pass a seeded ``rng`` for deterministic sequences in tests;
        the default draws from the module-level RNG.
        """
        draw = (rng or random).uniform
        delay = self.first
        spent = 0.0
        emitted = 0
        while True:
            if self.attempts is not None and emitted >= self.attempts:
                return
            jittered = draw(delay * (1.0 - self.jitter), delay) if self.jitter else delay
            if self.budget is not None:
                if spent >= self.budget:
                    return
                jittered = min(jittered, self.budget - spent)
            spent += jittered
            emitted += 1
            yield jittered
            delay = min(delay * self.multiplier, self.cap)


#: Default policy for dialling a peer that should already be up
#: (replica data listeners).
RECONNECT = BackoffPolicy(first=0.05, cap=1.0, budget=None)

#: Default policy for racing a peer that may still be starting (the
#: load client vs. the serve controller): bounded, so a truly absent
#: peer is a clean failure, not a hang.
STARTUP = BackoffPolicy(first=0.1, cap=2.0, budget=20.0)


async def open_connection_with_retry(
    host: str,
    port: int,
    policy: BackoffPolicy = STARTUP,
    rng: random.Random | None = None,
) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    """Asyncio dial with jittered backoff; :class:`PeerLost` on budget
    exhaustion, chained from the last connection error."""
    last: Exception | None = None
    for delay in _with_leading_zero(policy, rng):
        if delay:
            await asyncio.sleep(delay)
        try:
            return await asyncio.open_connection(host, port)
        except OSError as exc:
            last = exc
    raise PeerLost(
        f"could not connect to {host}:{port} within the retry budget "
        f"({policy.budget}s)"
    ) from last


def _with_leading_zero(
    policy: BackoffPolicy, rng: random.Random | None
) -> Iterator[float]:
    """The policy's delays preceded by an immediate first attempt."""
    yield 0.0
    yield from policy.delays(rng)


def encode_frame(obj: object) -> bytes:
    """The bytes of one frame: length header, then the pickle.

    Raises :class:`~repro.errors.ConfigError` naming the frame kind
    and size when the payload is over :data:`MAX_FRAME_BYTES` — every
    reader refuses such a frame unread and drops the connection, so
    nothing is written.
    """
    data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    if len(data) > MAX_FRAME_BYTES:
        tagged = isinstance(obj, tuple) and obj and isinstance(obj[0], str)
        kind = obj[0] if tagged else type(obj).__name__
        raise ConfigError(
            f"{kind!r} frame of {len(data)} bytes is over MAX_FRAME_BYTES "
            f"({MAX_FRAME_BYTES}); the peer would drop the connection"
        )
    return LEN.pack(len(data)) + data


# ----------------------------------------------------------------------
# Blocking-socket framing
# ----------------------------------------------------------------------
def send_msg(sock: socket.socket, obj: object) -> None:
    """Write one length-prefixed pickle frame (:func:`encode_frame`
    refuses an oversize one)."""
    sock.sendall(encode_frame(obj))


def recv_msg(sock: socket.socket) -> object:
    """Read one frame; :class:`PeerLost` on EOF, timeout, or an
    oversize length header (> :data:`MAX_FRAME_BYTES`)."""
    header = recv_exact(sock, LEN.size)
    (length,) = LEN.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise PeerLost(f"oversize frame header ({length} bytes); dropping peer")
    return pickle.loads(recv_exact(sock, length))


def recv_exact(sock: socket.socket, n: int) -> bytes:
    """Read exactly ``n`` bytes; :class:`PeerLost` on EOF or timeout."""
    chunks = []
    while n:
        try:
            chunk = sock.recv(n)
        except (socket.timeout, TimeoutError) as exc:
            raise PeerLost(f"timed out awaiting peer: {exc}") from None
        except OSError as exc:
            raise PeerLost(f"connection failed: {exc}") from None
        if not chunk:
            raise PeerLost("peer closed the connection")
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


# ----------------------------------------------------------------------
# asyncio framing
# ----------------------------------------------------------------------
def write_frame(writer: asyncio.StreamWriter, obj: object) -> None:
    """Queue one frame on an asyncio stream (caller awaits ``drain``;
    :func:`encode_frame` refuses an oversize one)."""
    writer.write(encode_frame(obj))


async def read_frame(reader: asyncio.StreamReader) -> object:
    """Read one frame from an asyncio stream; :class:`PeerLost` on EOF
    or an oversize length header (> :data:`MAX_FRAME_BYTES`)."""
    try:
        header = await reader.readexactly(LEN.size)
    except (asyncio.IncompleteReadError, ConnectionError, OSError) as exc:
        raise PeerLost(f"peer closed the connection: {exc!r}") from None
    (length,) = LEN.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise PeerLost(f"oversize frame header ({length} bytes); dropping peer")
    try:
        data = await reader.readexactly(length)
    except (asyncio.IncompleteReadError, ConnectionError, OSError) as exc:
        raise PeerLost(f"peer closed the connection: {exc!r}") from None
    return pickle.loads(data)


# ----------------------------------------------------------------------
# HMAC challenge-response handshake
#
# Handshake messages are raw length-prefixed byte strings, NEVER
# pickle frames: the whole point of the handshake is that nothing
# attacker-controlled is unpickled before the peer proves it holds the
# key.  A tiny hard cap on the length header doubles as the pre-auth
# allocation bound.
# ----------------------------------------------------------------------
def _answer(key: bytes, challenge: bytes) -> bytes:
    return hmac.new(key, challenge, "sha256").digest()


def _write_handshake(writer: asyncio.StreamWriter, data: bytes) -> None:
    writer.write(LEN.pack(len(data)) + data)


async def _read_handshake(reader: asyncio.StreamReader) -> bytes:
    try:
        header = await reader.readexactly(LEN.size)
    except (asyncio.IncompleteReadError, ConnectionError, OSError) as exc:
        raise PeerLost(f"peer closed the connection: {exc!r}") from None
    (length,) = LEN.unpack(header)
    if length > _HANDSHAKE_MAX:
        raise AuthenticationError(f"oversize handshake message ({length} bytes)")
    try:
        return await reader.readexactly(length)
    except (asyncio.IncompleteReadError, ConnectionError, OSError) as exc:
        raise PeerLost(f"peer closed the connection: {exc!r}") from None


async def deliver_challenge_async(
    reader: asyncio.StreamReader, writer: asyncio.StreamWriter, key: bytes
) -> None:
    """Listener side of the handshake over asyncio streams."""
    challenge = _CHALLENGE + os.urandom(_CHALLENGE_BYTES)
    _write_handshake(writer, challenge)
    await writer.drain()
    response = await _read_handshake(reader)
    if not hmac.compare_digest(response, _answer(key, challenge)):
        _write_handshake(writer, _FAILURE)
        await writer.drain()
        raise AuthenticationError("peer failed the auth handshake")
    _write_handshake(writer, _WELCOME)
    await writer.drain()


async def answer_challenge_async(
    reader: asyncio.StreamReader, writer: asyncio.StreamWriter, key: bytes
) -> None:
    """Dialer side of the handshake over asyncio streams."""
    challenge = await _read_handshake(reader)
    if not challenge.startswith(_CHALLENGE):
        raise AuthenticationError("peer did not issue an auth challenge")
    _write_handshake(writer, _answer(key, challenge))
    await writer.drain()
    verdict = await _read_handshake(reader)
    if verdict != _WELCOME:
        raise AuthenticationError("listener rejected our auth key")


# ----------------------------------------------------------------------
# Key resolution and bind gating
# ----------------------------------------------------------------------
def resolve_auth_key(explicit: str | bytes | None = None) -> bytes | None:
    """The cluster key: the explicit value, else ``REPRO_AUTH_KEY``.

    Returns ``None`` when neither is set (loopback-only operation).
    """
    if explicit:
        return explicit if isinstance(explicit, bytes) else explicit.encode("utf-8")
    from_env = os.environ.get(AUTH_KEY_ENV)
    return from_env.encode("utf-8") if from_env else None


def is_loopback(host: str) -> bool:
    """Whether ``host`` names a loopback interface."""
    if host in ("localhost", ""):
        return True
    try:
        return ipaddress.ip_address(host).is_loopback
    except ValueError:
        return False


def require_auth_for_bind(host: str, auth_key: bytes | None) -> None:
    """Refuse a non-loopback bind without a pre-shared key.

    The wire format is pickle; an unauthenticated non-loopback listener
    hands code execution to anyone who can reach the port.
    """
    if auth_key is None and not is_loopback(host):
        raise ConfigError(
            f"refusing to bind non-loopback interface {host!r} without an "
            f"auth key; pass --auth-key or set {AUTH_KEY_ENV} (the same key "
            f"on every host)"
        )
