"""Replica rejoin: committed-prefix state transfer over the live wire.

A replica restarted after a crash has lost everything (the runtime
keeps no disk state by design — the paper's processes are memoryless
across crashes).  To rejoin it must first *become* a replica again:
adopt the committed prefix its peers executed while it was dead, then
resume ordering from there.  This module implements both halves of
that transfer over the existing framed transport:

Serving (every live node, :func:`serve_state_transfer`)
    A ``("st_req", requester, from_seq, max_rows)`` control frame is
    answered on the connection it arrived on with one ``("st_chunk",
    provider, from_seq, rows, applied_seq, digest)`` frame: up to
    ``max_rows`` history rows starting at ``from_seq``, plus the
    provider's applied sequence and state digest *at serve time* (the
    event loop makes the triple atomic).  Serving is pure reads —
    a provider never blocks its ordering work to feed a joiner.

Fetching (the rejoining node, :class:`PrefixFetcher`)
    Chunked and resumable: rows accumulate into a candidate state
    machine replayed through the kernel-free
    :func:`~repro.protocols.runtime.replay_history`; a connection loss
    mid-transfer reconnects (jittered backoff, bounded budget) — to the
    same peer or the next one — and resumes from the first row the
    candidate machine still needs, re-sent rows being idempotent.  The
    snapshot **installs atomically**: nothing touches the hosted
    process until the candidate machine has caught up with the
    provider and its recomputed digest chain matches the provider's
    claimed state digest; a fetch abandoned mid-way (signal, peer
    loss, digest mismatch) therefore discards the partial prefix by
    construction.

After install the fetcher keeps running as an **anti-entropy poller**:
batches committed in the gap between the snapshot and the node's first
live commit are pulled the same way (``base=`` the live machine) and
executed via the process's own ``_execute_ready`` cascade, so the
rejoined replica's history keeps extending even across the handoff
window.

Checkpoints and a rejoined replica: its own checkpoint claims start
from the snapshot, so their sequence numbers may never line up with its
peers'.  It does not need them to: it truncates on the peers' ``f + 1``
matching claims like everyone else, and ``CheckpointTracker`` drops its
stale claims at the next stable point.
"""

from __future__ import annotations

import asyncio
import os

from repro.core.process import OrderProcessBase
from repro.errors import ProtocolError
from repro.net import framing
from repro.protocols.runtime import install_prefix, replay_history

#: Rows per state-transfer chunk (frames stay far under the codec cap).
ST_CHUNK_ROWS = int(os.environ.get("REPRO_ST_CHUNK_ROWS", "512"))
#: Per-chunk response deadline before the fetcher rotates peers.
ST_CHUNK_TIMEOUT = 5.0
#: Requester-side pause between chunks (test hook: widens the
#: mid-transfer window so signals can land inside it).
ST_CHUNK_DELAY_ENV = "REPRO_ST_CHUNK_DELAY"
#: Dial policy for snapshot peers: bounded, so a rejoin against a dead
#: cluster fails crisply instead of spinning.
ST_DIAL = framing.BackoffPolicy(first=0.1, cap=1.0, budget=10.0)
#: Anti-entropy poll cadence after the snapshot is installed.
CATCHUP_PERIOD = 0.5


def serve_state_transfer(transport, process) -> None:
    """Register the provider half on a live node's transport."""

    def handle(frame: tuple, writer) -> None:
        if writer is None or not (isinstance(frame, tuple) and len(frame) == 4):
            return
        _, requester, from_seq, max_rows = frame
        if not isinstance(from_seq, int) or not isinstance(max_rows, int):
            return
        machine = process.machine
        history = machine.history
        # History rows are consecutive from seq 1: index = seq - 1.
        start = max(0, from_seq - 1)
        rows = [
            (seq, bytes(digest))
            for seq, digest in history[start:start + max(1, min(max_rows, 4096))]
        ]
        reply = (
            "st_chunk",
            transport.name,
            from_seq,
            rows,
            machine.applied_seq,
            machine.state_digest(),
        )
        try:
            framing.write_frame(writer, reply)
        except OSError:
            return
        if hasattr(process, "trace"):
            process.trace(
                "state_served",
                peer=str(requester),
                from_seq=from_seq,
                rows=len(rows),
            )

    transport.register_control("st_req", handle)


class PrefixFetcher:
    """The requester half: fetch, verify, install, then keep catching up.

    One instance per rejoining node.  :meth:`fetch_and_install` runs
    the initial snapshot; :meth:`catchup_forever` is the post-install
    anti-entropy loop.  Both survive peer loss by rotating through
    ``peers`` with jittered backoff.
    """

    def __init__(
        self,
        name: str,
        peers: list[str],
        addresses: dict[str, tuple[str, int]],
        auth_key: bytes | None,
        runtime,
        chunk_rows: int = 0,
    ) -> None:
        self.name = name
        self.peers = [p for p in peers if p != name]
        self.addresses = addresses
        self.auth_key = auth_key
        self.runtime = runtime
        self.chunk_rows = chunk_rows or ST_CHUNK_ROWS
        self.chunk_delay = float(os.environ.get(ST_CHUNK_DELAY_ENV, "0") or 0)
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._peer_index = 0
        self.peer_used: str | None = None
        self.chunks = 0
        self.bytes_transferred = 0

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------
    async def _connect(self) -> None:
        """Dial the next peer in rotation; :class:`~repro.net.framing.
        PeerLost` once every peer exhausted its budget."""
        last: Exception | None = None
        for _ in range(len(self.peers)):
            peer = self.peers[self._peer_index % len(self.peers)]
            self._peer_index += 1
            host, port = self.addresses[peer]
            try:
                reader, writer = await framing.open_connection_with_retry(
                    host, port, ST_DIAL
                )
                if self.auth_key is not None:
                    await framing.answer_challenge_async(
                        reader, writer, self.auth_key
                    )
                framing.write_frame(writer, ("hello", f"{self.name}!st"))
                await writer.drain()
            except (OSError, framing.PeerLost, framing.AuthenticationError) as exc:
                last = exc
                continue
            self._reader, self._writer = reader, writer
            self.peer_used = peer
            return
        raise framing.PeerLost(
            f"{self.name}: no peer would serve a state transfer "
            f"(tried {self.peers})"
        ) from last

    def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            self._reader = self._writer = None

    async def _request_chunk(self, from_seq: int) -> tuple:
        """One st_req/st_chunk round trip, reconnecting on any failure.

        Returns ``(rows, applied_seq, digest)``.
        """
        while True:
            if self._writer is None or self._writer.is_closing():
                await self._connect()
            try:
                framing.write_frame(
                    self._writer,
                    ("st_req", f"{self.name}!st", from_seq, self.chunk_rows),
                )
                await self._writer.drain()
                frame = await asyncio.wait_for(
                    framing.read_frame(self._reader), ST_CHUNK_TIMEOUT
                )
            except (OSError, framing.PeerLost, asyncio.TimeoutError):
                self.close()
                continue  # resume against the next peer in rotation
            if not (
                isinstance(frame, tuple)
                and len(frame) == 6
                and frame[0] == "st_chunk"
            ):
                self.close()
                continue
            _, _provider, _from, rows, applied_seq, digest = frame
            self.chunks += 1
            self.bytes_transferred += sum(
                8 + len(d) for _, d in rows
            )
            return rows, int(applied_seq), bytes(digest)

    # ------------------------------------------------------------------
    # Snapshot + deltas
    # ------------------------------------------------------------------
    async def fetch_and_install(self, process) -> dict:
        """Fetch the committed prefix, verify, and adopt it atomically.

        Loops until the candidate machine has caught up with the
        provider's applied sequence; only then (digest verified) does
        the hosted ``process`` learn anything.  Returns the rejoin
        stats for the node's report and trace.
        """
        trace = self.runtime.trace
        started = self.runtime.now
        trace.emit(started, "rejoin_started", node=self.name)
        candidate = replay_history(self.name, [])
        while True:
            rows, applied_seq, digest = await self._request_chunk(
                candidate.applied_seq + 1
            )
            if rows:
                candidate = replay_history(self.name, rows, base=candidate)
            if candidate.applied_seq >= applied_seq:
                # Caught up with the provider: the digest claim is for
                # exactly this prefix — the verification point.
                if candidate.applied_seq == applied_seq and (
                    candidate.state_digest() != digest
                ):
                    self.close()
                    raise ProtocolError(
                        f"{self.name}: snapshot digest mismatch at seq "
                        f"{applied_seq} from {self.peer_used}; "
                        f"partial prefix discarded"
                    )
                break
            if self.chunk_delay:
                await asyncio.sleep(self.chunk_delay)
        snapshot_seq = install_prefix(process, candidate)
        duration = self.runtime.now - started
        stats = {
            "peer": self.peer_used,
            "snapshot_seq": snapshot_seq,
            "entries": snapshot_seq,
            "bytes": self.bytes_transferred,
            "chunks": self.chunks,
            "duration": round(duration, 6),
        }
        trace.emit(self.runtime.now, "rejoin_complete", node=self.name, **stats)
        return stats

    async def catchup_forever(self, process: OrderProcessBase) -> None:
        """Anti-entropy: pull rows the live protocol hasn't executed.

        Runs until cancelled.  Each round asks a peer for rows past
        the process's applied prefix; anything returned is replayed
        into the live machine (idempotent, consecutive-checked), the
        execution cursor advanced, and the process poked so committed
        slots stacked behind the gap execute and reply as usual.
        """
        while True:
            try:
                await asyncio.sleep(CATCHUP_PERIOD)
                machine = process.machine
                rows, applied_seq, _digest = await self._request_chunk(
                    machine.applied_seq + 1
                )
                fresh = [r for r in rows if r[0] > machine.applied_seq]
                if not fresh:
                    continue
                replay_history(self.name, fresh, base=machine)
                install_prefix(process, machine)
                process._execute_ready()
                self.runtime.trace.emit(
                    self.runtime.now,
                    "catchup_applied",
                    node=self.name,
                    rows=len(fresh),
                    applied_seq=machine.applied_seq,
                )
            except asyncio.CancelledError:
                raise
            except (framing.PeerLost, OSError, ProtocolError):
                # Peer churn mid-poll: next round rotates and retries.
                self.close()
