"""The install part (Section 4.2): choosing what the new coordinator
carries forward.

The heart is :func:`compute_new_backlog`, the paper's NewBackLog rule:

1. among the ``n − f`` received BackLogs, find the committed order with
   the largest sequence number (``max{max_committed}``) — the *base*;
2. include every uncommitted order with a sequence number above the
   base found in any BackLog;
3. where two *conflicting* doubly-signed orders exist for one sequence
   number (possible only when both members of a previous coordinator
   pair have failed, see Section 4.2's discussion), keep the copy that
   appears in at least ``f + 1`` BackLogs — only that one can have been
   committed by a correct process; with no majority copy, no correct
   process committed either, so the deterministic tie-break (smallest
   digest) is safe.

The same computation serves the SCR extension's view change, which
carries BackLog-shaped data inside ViewChange messages.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.messages import BackLog, CommitProof, OrderBatch, SignedMessage
from repro.crypto.canon import encode_canonical
from repro.errors import ProtocolError


@dataclass(frozen=True)
class BacklogView:
    """The fields of a BackLog the computation needs (ViewChange
    messages in SCR provide the same shape)."""

    sender: str
    max_committed: CommitProof | None
    uncommitted: tuple[SignedMessage, ...]


def as_view(backlog: BackLog) -> BacklogView:
    """Project a BackLog message onto the computation's input shape."""
    return BacklogView(
        sender=backlog.sender,
        max_committed=backlog.max_committed,
        uncommitted=backlog.uncommitted,
    )


@dataclass(frozen=True)
class NewBacklogResult:
    """Outcome of the NewBackLog computation."""

    base_proof: CommitProof | None  # the max{max_committed} order + proof
    base_seq: int  # last sequence number covered by the base (0 if none)
    new_backlog: tuple[SignedMessage, ...]  # orders to re-commit, seq order
    start_seq: int  # sequence number the Start message itself occupies


def _batch_of(signed: SignedMessage) -> OrderBatch:
    batch = signed.body
    if not isinstance(batch, OrderBatch):
        raise ProtocolError(f"backlog entry is not an order batch: {type(batch)}")
    return batch


def _batch_key(signed: SignedMessage) -> bytes:
    """Identity of a batch's contents (for counting agreeing copies)."""
    batch = _batch_of(signed)
    return encode_canonical((batch.rank, [(e.seq, e.req_digest) for e in batch.entries]))


def compute_new_backlog(views: list[BacklogView], f: int) -> NewBacklogResult:
    """The paper's NewBackLog rule over ``n − f`` backlog views."""
    if not views:
        raise ProtocolError("NewBackLog needs at least one backlog")

    # Step 1: the base — the committed order with the largest sequence.
    base_proof: CommitProof | None = None
    base_seq = 0
    for view in views:
        proof = view.max_committed
        if proof is None:
            continue
        last = _batch_of(proof.order).last_seq
        if last > base_seq:
            base_seq = last
            base_proof = proof

    # Step 2: candidate uncommitted orders above the base, grouped by
    # their first sequence number.
    by_slot: dict[int, dict[bytes, tuple[SignedMessage, set[str]]]] = {}
    for view in views:
        for signed in view.uncommitted:
            batch = _batch_of(signed)
            if batch.last_seq <= base_seq:
                continue
            key = _batch_key(signed)
            slot = by_slot.setdefault(batch.first_seq, {})
            if key in slot:
                slot[key][1].add(view.sender)
            else:
                slot[key] = (signed, {view.sender})

    # Step 3: conflict resolution per slot.
    chosen: list[SignedMessage] = []
    for first_seq in sorted(by_slot):
        candidates = by_slot[first_seq]
        if len(candidates) == 1:
            (signed, _supporters), = candidates.values()
            chosen.append(signed)
            continue
        majority = [
            (key, signed)
            for key, (signed, supporters) in candidates.items()
            if len(supporters) >= f + 1
        ]
        if majority:
            # At most one copy can reach f+1 among n-f backlogs of
            # which at most f are faulty.
            majority.sort(key=lambda item: item[0])
            chosen.append(majority[0][1])
        else:
            # No copy was committed by any correct process; any
            # deterministic choice is safe.
            key = min(candidates)
            chosen.append(candidates[key][0])

    # The chosen orders must tile the range above the base without
    # holes (guaranteed by the in-sequence ack rule; see DESIGN.md).
    next_seq = base_seq + 1
    contiguous: list[SignedMessage] = []
    for signed in chosen:
        batch = _batch_of(signed)
        if batch.first_seq > next_seq:
            break  # hole: later orders cannot be safely re-committed
        if batch.last_seq < next_seq:
            continue  # overlaps the base; already covered
        contiguous.append(signed)
        next_seq = batch.last_seq + 1

    start_seq = next_seq
    return NewBacklogResult(
        base_proof=base_proof,
        base_seq=base_seq,
        new_backlog=tuple(contiguous),
        start_seq=start_seq,
    )


def verify_start_against_backlogs(
    claimed: tuple[SignedMessage, ...],
    claimed_start_seq: int,
    provided_views: list[BacklogView],
    own_views: list[BacklogView],
    f: int,
) -> bool:
    """The shadow's IN2 check of the replica's Start computation.

    Recomputes NewBackLog from the backlogs the replica supplied.  For
    any slot where the replica's choice differs from the recomputation
    (possible only under conflicting doubly-signed orders), the shadow
    consults the backlogs *it received directly* (``own_views``): the
    replica's choice is acceptable only if no conflicting copy has
    ``f + 1`` direct supporters — i.e. only if the replica did not
    discard a possibly-committed order.
    """
    recomputed = compute_new_backlog(provided_views, f)
    if recomputed.start_seq != claimed_start_seq:
        return False
    if len(recomputed.new_backlog) != len(claimed):
        return False
    own_counts: dict[int, dict[bytes, int]] = {}
    for view in own_views:
        for signed in view.uncommitted:
            batch = _batch_of(signed)
            slot = own_counts.setdefault(batch.first_seq, {})
            key = _batch_key(signed)
            slot[key] = slot.get(key, 0) + 1
    # Every claimed slot must carry the copy that might have been
    # committed: if the shadow's own backlogs show f+1 supporters for a
    # *different* copy at that slot, the replica discarded a possibly-
    # committed order — even if its provided backlogs were internally
    # consistent (a Byzantine replica chooses which backlogs to show).
    claimed_keys = {}
    for ours, theirs in zip(recomputed.new_backlog, claimed):
        if _batch_key(ours) != _batch_key(theirs):
            return False  # not the NewBackLog the provided backlogs give
        batch = _batch_of(theirs)
        claimed_keys[batch.first_seq] = _batch_key(theirs)
    for first_seq, counts in own_counts.items():
        for key, count in counts.items():
            if count < f + 1:
                continue
            chosen = claimed_keys.get(first_seq)
            if chosen is not None and chosen != key:
                return False
    return True
