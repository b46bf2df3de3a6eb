"""Checkpointing: bounding the order log.

Neither SC nor SCR can run forever while retaining every committed
order (BackLogs carry proofs whose verification assumes the log is
available).  Following the standard construction (PBFT's checkpoints),
processes periodically exchange signed digests of their executed state;
once ``f + 1`` distinct processes vouch for the same digest at the same
sequence number, the checkpoint is *stable* — at least one correct
process holds that state — and committed slots below it can be
discarded.

A stable checkpoint releases everything an executed batch pins, not
just its log slot: pooled requests, per-slot tables and (the signing
cache being bounded) the signed-message graphs; a per-client record of
executed ids keeps execution exactly once afterwards.

Catch-up requests reaching below the stable checkpoint cannot be served
from the log anymore.  Simulated runs leave it there (checkpoints are
off unless a config asks for them).  The live runtime always checkpoints
(``repro.live.cluster.LIVE_CHECKPOINT_INTERVAL``) and falls back to state
transfer: a replica that rejoins fetches the committed prefix from a
peer's ``machine.history`` and replays it (:mod:`repro.live.recovery`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.messages import HEADER_BYTES
from repro.crypto.canon import FieldsOnly


@dataclass(frozen=True)
class Checkpoint(FieldsOnly):
    """A process's claim: "after executing seq, my state digest is d"."""

    process: str
    seq: int
    state_digest: bytes

    def payload_bytes(self) -> int:
        return HEADER_BYTES + len(self.state_digest)


class CheckpointTracker:
    """Collects checkpoint claims until f + 1 agree (stability)."""

    def __init__(self, f: int) -> None:
        self.f = f
        self._votes: dict[tuple[int, bytes], set[str]] = {}
        self.stable_seq = 0
        self.stable_digest: bytes | None = None

    def note(self, checkpoint: Checkpoint) -> bool:
        """Record a claim; True if a new stable checkpoint emerged."""
        if checkpoint.seq <= self.stable_seq:
            return False
        key = (checkpoint.seq, checkpoint.state_digest)
        supporters = self._votes.setdefault(key, set())
        supporters.add(checkpoint.process)
        if len(supporters) >= self.f + 1:
            self.stable_seq = checkpoint.seq
            self.stable_digest = checkpoint.state_digest
            # Older claims can never become the newest stable point.
            self._votes = {
                k: v for k, v in self._votes.items() if k[0] > checkpoint.seq
            }
            return True
        return False
