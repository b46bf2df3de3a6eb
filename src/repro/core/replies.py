"""Client replies: closing the state-machine-replication loop.

The paper focuses on the ordering requirement and leaves the rest of
Schneider's state-machine-replication framework implicit.  For a usable
library we close the loop: after executing a committed entry, each
order process sends the client a :class:`Reply`; a correct client
accepts a result once ``f + 1`` distinct processes report the *same*
result for the request — at most ``f`` are faulty, so at least one of
any ``f + 1`` matching replies comes from a correct process.

Replies are unsigned (matching-content voting does not need signatures
for correctness; the paper's clients are outside the trust argument),
and the whole path is optional (``ProtocolConfig.send_replies``) so the
performance studies measure exactly what the paper measured.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.core.messages import HEADER_BYTES, OrderEntry
from repro.crypto.canon import FieldsOnly


@dataclass(frozen=True)
class Reply(FieldsOnly):
    """One process's execution result for one client request."""

    replier: str
    client: str
    req_id: int
    seq: int
    result_digest: bytes

    def payload_bytes(self) -> int:
        return HEADER_BYTES + len(self.result_digest)


def result_digest(entry: OrderEntry) -> bytes:
    """Deterministic execution result for an entry.

    The demo state machine's 'result' is a digest of the assigned
    sequence number and request digest — any deterministic function of
    the ordered input works, and all correct replicas compute the same
    value, which is what the f+1 matching rule needs.
    """
    return hashlib.sha256(
        entry.seq.to_bytes(8, "big") + entry.req_digest
    ).digest()[:16]


class ReplyTracker:
    """Client-side collection of replies until ``f + 1`` agree."""

    def __init__(self, f: int) -> None:
        self.f = f
        self._votes: dict[tuple[str, int], dict[bytes, set[str]]] = {}
        self.completed: dict[tuple[str, int], tuple[int, bytes, float]] = {}

    def note_reply(self, reply: Reply, now: float) -> bool:
        """Record a reply; True if it *just* completed the request."""
        key = (reply.client, reply.req_id)
        if key in self.completed:
            return False
        votes = self._votes.setdefault(key, {})
        supporters = votes.setdefault(reply.result_digest, set())
        supporters.add(reply.replier)
        if len(supporters) >= self.f + 1:
            self.completed[key] = (reply.seq, reply.result_digest, now)
            self._votes.pop(key, None)
            return True
        return False

    @property
    def pending(self) -> int:
        return len(self._votes)
