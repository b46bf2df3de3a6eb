"""The replicated deterministic state machine (the ``s_i`` of Figure 1).

The order protocol's whole purpose is to feed every replica the same
sequence of requests.  :class:`ReplicatedStateMachine` consumes
committed order entries **in sequence order** and folds them into a
running state digest; two replicas that processed the same prefix have
equal digests, which is the safety property the integration tests
assert.
"""

from __future__ import annotations

import hashlib

from repro.core.messages import OrderEntry
from repro.errors import ProtocolError


class ReplicatedStateMachine:
    """Digest-chained execution log.

    ``apply`` must be called with strictly consecutive sequence numbers
    starting at 1; the class raises on gaps or replays, making ordering
    bugs loud in tests.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.applied_seq = 0
        self._digest = hashlib.sha256(b"genesis").digest()
        self.history: list[tuple[int, bytes]] = []

    def apply(self, entry: OrderEntry) -> None:
        """Execute one committed order entry."""
        if entry.seq != self.applied_seq + 1:
            raise ProtocolError(
                f"{self.name}: applying seq {entry.seq} after {self.applied_seq}"
            )
        self.applied_seq = entry.seq
        self._digest = hashlib.sha256(
            self._digest + entry.seq.to_bytes(8, "big") + entry.req_digest
        ).digest()
        self.history.append((entry.seq, entry.req_digest))

    def state_digest(self) -> bytes:
        """Digest of the whole execution history so far."""
        return self._digest

    def __len__(self) -> int:
        return len(self.history)

