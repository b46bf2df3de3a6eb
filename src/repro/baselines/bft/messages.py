"""PBFT message types (signature-based variant, as the paper evaluates)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.messages import HEADER_BYTES, CommitProof, OrderBatch, SignedMessage
from repro.crypto.canon import FieldsOnly


@dataclass(frozen=True)
class PrePrepare(FieldsOnly):
    """Primary's proposal: the batch with its assigned sequence."""

    view: int
    seq: int  # first sequence number of the batch
    batch: OrderBatch

    def payload_bytes(self) -> int:
        return HEADER_BYTES + self.batch.payload_bytes()


@dataclass(frozen=True)
class Prepare(FieldsOnly):
    """A backup's agreement to (view, seq, digest)."""

    view: int
    seq: int
    batch_digest: bytes
    replica: str

    def payload_bytes(self) -> int:
        return HEADER_BYTES + len(self.batch_digest)


@dataclass(frozen=True)
class Commit(FieldsOnly):
    """A replica's commit vote for (view, seq, digest)."""

    view: int
    seq: int
    batch_digest: bytes
    replica: str

    def payload_bytes(self) -> int:
        return HEADER_BYTES + len(self.batch_digest)


@dataclass(frozen=True)
class PreparedProof(FieldsOnly):
    """Evidence that a batch prepared at a replica: the pre-prepare and
    ``2f`` matching prepares (carried inside view-change messages)."""

    pre_prepare: SignedMessage  # SignedMessage[PrePrepare]
    prepares: tuple[SignedMessage, ...]  # SignedMessage[Prepare]

    def payload_bytes(self) -> int:
        size = self.pre_prepare.body.payload_bytes() + self.pre_prepare.signature_bytes
        for prepare in self.prepares:
            size += prepare.body.payload_bytes() + prepare.signature_bytes
        return size


@dataclass(frozen=True)
class BftViewChange(FieldsOnly):
    """A replica's vote to move to ``new_view``."""

    new_view: int
    replica: str
    last_committed: int
    committed_proof: CommitProof | None
    prepared: tuple[PreparedProof, ...]

    def payload_bytes(self) -> int:
        size = HEADER_BYTES
        if self.committed_proof is not None:
            size += self.committed_proof.payload_bytes()
        for proof in self.prepared:
            size += proof.payload_bytes()
        return size


@dataclass(frozen=True)
class BftNewView(FieldsOnly):
    """New primary's installation message: the view-change quorum it
    collected and the pre-prepares it re-issues."""

    new_view: int
    view_changes: tuple[SignedMessage, ...]  # SignedMessage[BftViewChange]
    pre_prepares: tuple[SignedMessage, ...]  # SignedMessage[PrePrepare]

    def payload_bytes(self) -> int:
        size = HEADER_BYTES
        for vc in self.view_changes:
            size += vc.body.payload_bytes() + vc.signature_bytes
        for pp in self.pre_prepares:
            size += pp.body.payload_bytes() + pp.signature_bytes
        return size
