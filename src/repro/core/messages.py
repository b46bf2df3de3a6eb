"""Protocol message types and the signed-message wrapper.

Terminology follows Sections 3 and 4 of the paper:

* ``order<c, o, D(m)>`` — a coordinator's order decision; with batching
  (Section 4.3) a wire message carries a *batch* of consecutive
  decisions, represented here as :class:`OrderBatch`;
* a **doubly-signed** message carries two signatures in sequence; the
  second signatory signed over the body *and* the first signature,
  indicating endorsement (Section 3);
* ``ack`` — N1's acknowledgement, which "also contains the received
  order";
* ``fail-signal`` — the pre-supplied, counterpart-signed blank that a
  pair member double-signs to announce the pair's crash (Section 3.2);
* ``BackLog`` / ``Start`` / support tuples — the install part
  (Section 4.2);
* ``ViewChange`` / ``Unwilling`` — the SCR extension (Section 4.4).

Wire sizes are *estimates* used by the simulator's delay and marshal
models; they count payload bytes plus signature bytes, mirroring the
Java-serialised sizes of the paper's implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.crypto.canon import FieldsOnly
from repro.crypto.dealer import FailSignalBody
from repro.crypto.signed import (
    SignedMessage,
    countersign,
    require_signed,
    sign_message,
    signing_bytes,
    verify_signed,
)
from repro.crypto.signing import Signature

__all__ = [
    "Ack",
    "BackLog",
    "CatchUpReply",
    "CatchUpRequest",
    "CommitProof",
    "FailSignalBody",
    "HEADER_BYTES",
    "Heartbeat",
    "NewView",
    "OrderBatch",
    "OrderEntry",
    "PairForward",
    "PairProposal",
    "PairStartProposal",
    "PairStatusUp",
    "SignedMessage",
    "Start",
    "StartSupport",
    "SupportBundle",
    "Unwilling",
    "ViewChange",
    "countersign",
    "payload_size",
    "require_signed",
    "sign_message",
    "signing_bytes",
    "verify_signed",
]

#: Fixed per-message framing overhead (headers, type tags) in bytes.
HEADER_BYTES = 48
#: Estimated wire size of one order entry (seq + digest + request key).
ENTRY_BYTES = 40


# ----------------------------------------------------------------------
# Ordering messages
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class OrderEntry(FieldsOnly):
    """One order decision ``order<c, o, D(m)>`` (c lives on the batch)."""

    seq: int
    req_digest: bytes
    client: str
    req_id: int


@dataclass(frozen=True)
class OrderBatch(FieldsOnly):
    """A batch of consecutive order decisions from coordinator ``rank``.

    ``batch_id`` is unique per (rank, first_seq) and used for latency
    bookkeeping and duplicate suppression.
    """

    rank: int
    batch_id: int
    entries: tuple[OrderEntry, ...]

    @property
    def first_seq(self) -> int:
        return self.entries[0].seq

    @property
    def last_seq(self) -> int:
        return self.entries[-1].seq

    def payload_bytes(self) -> int:
        return HEADER_BYTES + ENTRY_BYTES * len(self.entries)

    def __reduce__(self):
        # The hot wire shape: one tuple of primitive rows, so pickling
        # stays in C instead of calling a __reduce__ per entry.
        rows = tuple([(e.seq, e.req_digest, e.client, e.req_id) for e in self.entries])
        return order_batch, (self.rank, self.batch_id, rows)


def order_batch(rank: int, batch_id: int, rows: tuple) -> OrderBatch:
    """Rebuild an :class:`OrderBatch` from its wire form
    ``(rank, batch_id, ((seq, req_digest, client, req_id), ...))``."""
    return OrderBatch(rank, batch_id, tuple([OrderEntry(*row) for row in rows]))


@dataclass(frozen=True)
class Ack(FieldsOnly):
    """N1's acknowledgement; carries the order it acknowledges."""

    acker: str
    order: SignedMessage  # SignedMessage[OrderBatch]

    def payload_bytes(self) -> int:
        batch: OrderBatch = self.order.body
        return HEADER_BYTES + batch.payload_bytes() + self.order.signature_bytes


@dataclass(frozen=True)
class CommitProof(FieldsOnly):
    """Proof of commitment: the distinct ack/order evidence retained by
    N3.  ``acks`` are the signed ack messages received; together with
    the order's own signers they name at least ``quorum`` distinct
    processes.  Carrying the signatures (not just names) means a
    Byzantine process cannot fabricate a proof to skew the install
    part's ``max_committed`` computation."""

    order: SignedMessage  # SignedMessage[OrderBatch]
    acks: tuple[SignedMessage, ...]  # SignedMessage[Ack], distinct ackers
    quorum: int

    @property
    def supporters(self) -> frozenset[str]:
        names = set(self.order.signers)
        for ack in self.acks:
            names.add(ack.body.acker)
        return frozenset(names)

    def payload_bytes(self) -> int:
        batch: OrderBatch = self.order.body
        size = HEADER_BYTES + batch.payload_bytes() + self.order.signature_bytes
        # Acks reference the order by digest on the wire rather than
        # embedding it again, hence the flat per-ack estimate.
        size += len(self.acks) * (HEADER_BYTES + 20)
        for ack in self.acks:
            size += ack.signature_bytes
        return size


@dataclass(frozen=True)
class BackLog(FieldsOnly):
    """IN1's recovery report from one process.

    Contains (a) the fail-signal that triggered the install, (b) the
    committed order with the largest sequence number plus its proof of
    commitment, and (c) every acked-but-uncommitted order.
    """

    sender: str
    new_rank: int
    fail_signal: SignedMessage  # SignedMessage[FailSignalBody]
    max_committed: CommitProof | None
    uncommitted: tuple[SignedMessage, ...]  # SignedMessage[OrderBatch]

    def payload_bytes(self) -> int:
        size = HEADER_BYTES
        size += HEADER_BYTES + self.fail_signal.signature_bytes  # embedded fail-signal
        if self.max_committed is not None:
            size += self.max_committed.payload_bytes()
        for signed in self.uncommitted:
            batch: OrderBatch = signed.body
            size += batch.payload_bytes() + signed.signature_bytes
        return size


@dataclass(frozen=True)
class Start(FieldsOnly):
    """IN2's installation order from the new coordinator.

    Treated as an order message with sequence number ``start_seq``;
    committing it commits every order in ``new_backlog``.
    """

    new_rank: int
    start_seq: int
    new_backlog: tuple[SignedMessage, ...]  # SignedMessage[OrderBatch], seq order

    def payload_bytes(self) -> int:
        size = HEADER_BYTES
        for signed in self.new_backlog:
            batch: OrderBatch = signed.body
            size += batch.payload_bytes() + signed.signature_bytes
        return size


@dataclass(frozen=True)
class StartSupport(FieldsOnly):
    """IN3's identifier–signature tuple supporting a Start."""

    supporter: str
    new_rank: int
    signature: Signature  # over the doubly-signed Start

    def payload_bytes(self) -> int:
        return HEADER_BYTES + self.signature.size_bytes


@dataclass(frozen=True)
class SupportBundle(FieldsOnly):
    """IN4's multicast of the collected support tuples."""

    new_rank: int
    tuples: tuple[StartSupport, ...]

    def payload_bytes(self) -> int:
        return HEADER_BYTES + sum(t.payload_bytes() for t in self.tuples)


@dataclass(frozen=True)
class CatchUpRequest(FieldsOnly):
    """A lagging process asks peers for committed orders it is missing."""

    requester: str
    first_seq: int
    last_seq: int

    def payload_bytes(self) -> int:
        return HEADER_BYTES


@dataclass(frozen=True)
class CatchUpReply(FieldsOnly):
    """Committed orders returned to a lagging process.  The requester
    accepts an order once ``f + 1`` distinct repliers agree on it."""

    replier: str
    orders: tuple[SignedMessage, ...]

    def payload_bytes(self) -> int:
        size = HEADER_BYTES
        for signed in self.orders:
            batch: OrderBatch = signed.body
            size += batch.payload_bytes() + signed.signature_bytes
        return size


# ----------------------------------------------------------------------
# SCR extension messages (Section 4.4)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ViewChange(FieldsOnly):
    """A vote to move to ``view``; carries the sender's backlog data."""

    sender: str
    view: int
    max_committed: CommitProof | None
    uncommitted: tuple[SignedMessage, ...]

    def payload_bytes(self) -> int:
        size = HEADER_BYTES
        if self.max_committed is not None:
            size += self.max_committed.payload_bytes()
        for signed in self.uncommitted:
            batch: OrderBatch = signed.body
            size += batch.payload_bytes() + signed.signature_bytes
        return size


@dataclass(frozen=True)
class Unwilling(FieldsOnly):
    """The candidate pair for ``view`` declines (its status is not up);
    includes its fail-signal as evidence."""

    sender: str
    view: int
    fail_signal: SignedMessage

    def payload_bytes(self) -> int:
        return 2 * HEADER_BYTES + self.fail_signal.signature_bytes


@dataclass(frozen=True)
class NewView(FieldsOnly):
    """The SCR analogue of Start: installs ``view`` with a backlog."""

    view: int
    new_rank: int
    start_seq: int
    new_backlog: tuple[SignedMessage, ...]

    def payload_bytes(self) -> int:
        size = HEADER_BYTES
        for signed in self.new_backlog:
            batch: OrderBatch = signed.body
            size += batch.payload_bytes() + signed.signature_bytes
        return size


# ----------------------------------------------------------------------
# Pair-internal messages (fast link)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PairProposal(FieldsOnly):
    """Coordinator replica -> shadow: an order awaiting endorsement."""

    order: SignedMessage  # singly-signed OrderBatch

    def payload_bytes(self) -> int:
        batch: OrderBatch = self.order.body
        return HEADER_BYTES + batch.payload_bytes() + self.order.signature_bytes


@dataclass(frozen=True)
class PairStartProposal(FieldsOnly):
    """New coordinator replica -> shadow: Start plus the ``n − f``
    BackLogs it was computed from (IN2)."""

    start: SignedMessage  # singly-signed Start
    backlogs: tuple[SignedMessage, ...]  # signed BackLog messages

    def payload_bytes(self) -> int:
        start: Start = self.start.body
        size = HEADER_BYTES + start.payload_bytes() + self.start.signature_bytes
        for signed in self.backlogs:
            body: BackLog = signed.body
            size += body.payload_bytes() + signed.signature_bytes
        return size


@dataclass(frozen=True)
class PairForward(FieldsOnly):
    """Section 3.1 normal-form collaboration: a copy of a message the
    sender received/sent over the asynchronous network."""

    original_sender: str
    payload: Any
    size_hint: int

    def payload_bytes(self) -> int:
        return HEADER_BYTES + self.size_hint


@dataclass(frozen=True)
class Heartbeat(FieldsOnly):
    """Pair liveness probe (drives SCR recovery detection)."""

    sender: str
    nonce: int

    def payload_bytes(self) -> int:
        return HEADER_BYTES


@dataclass(frozen=True)
class PairStatusUp(FieldsOnly):
    """SCR: pair members agree their pair is operative again."""

    sender: str
    since: float

    def payload_bytes(self) -> int:
        return HEADER_BYTES


def payload_size(payload: Any) -> int:
    """Wire size of any protocol payload.

    ``SignedMessage`` adds its signature bytes on top of the body.

    The size of a frozen message never changes, yet the senders ask for
    it repeatedly (cost charging, marshalling, forwarding), so the
    computed value is memoised on the instance; objects that refuse the
    attribute (slots, builtins) are simply recomputed each time.
    """
    try:
        return payload._payload_size_
    except AttributeError:
        pass
    if isinstance(payload, SignedMessage):
        size = payload_size(payload.body) + payload.signature_bytes
    else:
        sizer = getattr(payload, "payload_bytes", None)
        if sizer is not None:
            size = sizer()
        else:
            # FailSignalBody and any other bare body: framing only.
            size = HEADER_BYTES
    try:
        object.__setattr__(payload, "_payload_size_", size)
    except (AttributeError, TypeError):
        pass
    return size
