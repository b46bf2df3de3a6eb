"""The PBFT replica.

Normal case (Figure 3(b) of the paper):

1. **pre-prepare (1 → n)** — the primary assigns sequence numbers to a
   batch, signs a PrePrepare and multicasts it;
2. **prepare (n → n)** — each backup validates the proposal, signs a
   Prepare and multicasts it; a replica is *prepared* once it holds the
   pre-prepare and ``2f`` matching prepares from distinct backups;
3. **commit (n → n)** — prepared replicas multicast signed Commits; a
   batch commits locally at ``2f + 1`` matching commits.

Per batch, every replica therefore receives ~``2n`` messages and
verifies ~``2n`` signatures, against SC's 2 order copies + ``n − 1``
acks — this receive/verify asymmetry is the mechanism behind BFT's
higher latency and earlier saturation in Figures 4 and 5.

The view change is the standard one (view-change messages carrying
prepared proofs; the new primary re-issues pre-prepares in a NewView).
It exists for failure tests and completeness; the paper's measurements
only exercise BFT's failure-free path.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.calibration import CalibrationProfile
from repro.baselines.bft.messages import (
    BftNewView,
    BftViewChange,
    Commit,
    PrePrepare,
    Prepare,
    PreparedProof,
)
from repro.core.checkpoint import Checkpoint as SmrCheckpoint
from repro.core.config import ProtocolConfig
from repro.core.messages import OrderBatch, SignedMessage
from repro.core.process import OrderProcessBase
from repro.core.requests import ClientRequest
from repro.crypto.canon import encode_canonical
from repro.crypto.digests import digest
from repro.crypto.signing import SignatureProvider
from repro.net.addresses import replica_name
from repro.net.network import Network
from repro.sim.kernel import Simulator


class _BatchState:
    """Per-(view, seq) agreement state at one replica."""

    __slots__ = (
        "pre_prepare",
        "batch",
        "digest",
        "prepares",
        "prepare_msgs",
        "commits",
        "sent_prepare",
        "sent_commit",
        "committed",
    )

    def __init__(self) -> None:
        self.pre_prepare: SignedMessage | None = None
        self.batch: OrderBatch | None = None
        self.digest: bytes | None = None
        self.prepares: set[str] = set()
        self.prepare_msgs: dict[str, SignedMessage] = {}
        self.commits: set[str] = set()
        self.sent_prepare = False
        self.sent_commit = False
        self.committed = False


class BftReplica(OrderProcessBase):
    """One replica of the signature-based PBFT baseline."""

    # Differs from SC's salt only by history; the seeded traces pin both.
    EQUIVOCATION_SALT = b"equiv"

    def __init__(
        self,
        sim: Simulator,
        name: str,
        network: Network,
        config: ProtocolConfig,
        provider: SignatureProvider,
        calibration: CalibrationProfile,
    ) -> None:
        n = 3 * config.f + 1
        super().__init__(
            sim, name, network, config, provider, calibration,
            tuple(replica_name(i) for i in range(1, n + 1)),
        )
        self.f = config.f
        self.n = n
        self.view = 1
        self.states: dict[tuple[int, int], _BatchState] = {}
        self.committed_seqs: dict[int, OrderBatch] = {}  # first_seq -> batch
        # view change state
        self.in_view_change = False
        self.pending_view: int | None = None
        self._view_changes: dict[int, dict[str, SignedMessage]] = {}
        self._voted_views: set[int] = set()
        self.view_timeout = config.view_timeout
        self.liveness_period = self.view_timeout / 2
        self.last_progress = 0.0

    # ------------------------------------------------------------------
    def primary_of(self, view: int) -> str:
        return replica_name(((view - 1) % self.n) + 1)

    @property
    def primary(self) -> str:
        return self.primary_of(self.view)

    @property
    def is_ordering(self) -> bool:
        return self.name == self.primary and not self.in_view_change

    @property
    def order_rank(self) -> int:
        return self.view

    def start(self) -> None:
        self.last_progress = self.sim.now
        if self.is_ordering:
            self._arm_batch_timer()
        self._arm_liveness_timer()

    # ------------------------------------------------------------------
    # Receive-cost model: one signature per protocol message
    # ------------------------------------------------------------------
    def verification_service(self, payload: Any, size_bytes: int) -> float:
        if isinstance(payload, ClientRequest):
            return 0.0
        if isinstance(payload, SignedMessage):
            body = payload.body
            if isinstance(body, PrePrepare):
                return self.verify_cost(1, size_bytes)
            if isinstance(body, (Prepare, Commit)):
                state = self.states.get((body.view, body.seq))
                if state is not None and state.committed:
                    return 0.0  # agreement done: discard without verifying
                return self.verify_cost(1, size_bytes)
            if isinstance(body, BftViewChange):
                return self.verify_cost(1, size_bytes)
            if isinstance(body, SmrCheckpoint):
                return self.verify_cost(1, size_bytes)
            if isinstance(body, BftNewView):
                n_inner = len(body.view_changes) + len(body.pre_prepares)
                return self.verify_cost(1 + n_inner, size_bytes)
        return 0.0

    # ------------------------------------------------------------------
    def handle(self, sender: str, payload: Any) -> None:
        if isinstance(payload, ClientRequest):
            self._on_request(sender, payload)
            return
        if not isinstance(payload, SignedMessage):
            return
        body = payload.body
        if isinstance(body, PrePrepare):
            self._on_pre_prepare(sender, payload)
        elif isinstance(body, Prepare):
            self._on_prepare(sender, payload)
        elif isinstance(body, Commit):
            self._on_commit(sender, payload)
        elif isinstance(body, BftViewChange):
            self._on_view_change(sender, payload)
        elif isinstance(body, BftNewView):
            self._on_new_view(sender, payload)
        elif isinstance(body, SmrCheckpoint):
            self._on_checkpoint(sender, payload)

    # ------------------------------------------------------------------
    # Primary: batching and pre-prepare
    # ------------------------------------------------------------------
    def _disseminate(self, batch: OrderBatch) -> None:
        """Pre-prepare (1 → n), signed by the primary."""
        batch = self._apply_order_faults(batch)
        pre = PrePrepare(view=self.view, seq=batch.first_seq, batch=batch)
        signed = self.make_signed(pre)
        if self.fault.equivocates(self.sim.now):
            twin_batch = self._equivocating_twin(batch)
            twin = self.make_signed(
                PrePrepare(view=self.view, seq=batch.first_seq, batch=twin_batch)
            )
            half = len(self.others) // 2
            self.multicast_payload(self.others[:half], signed)
            self.multicast_payload(self.others[half:], twin)
        else:
            self.multicast_payload(self.others, signed)
        self._accept_pre_prepare(signed)

    # ------------------------------------------------------------------
    # Three-phase agreement
    # ------------------------------------------------------------------
    def _state(self, view: int, seq: int) -> _BatchState:
        state = self.states.get((view, seq))
        if state is None:
            state = _BatchState()
            self.states[(view, seq)] = state
        return state

    def _released(self, view: int, seq: int) -> bool:
        """Executed here and collected since: a late prepare or commit
        must not bring its state back."""
        return seq < self._exec_next and (view, seq) not in self.states

    def _batch_digest(self, batch: OrderBatch) -> bytes:
        return digest(self.config.scheme.digest, encode_canonical(batch))

    def _on_pre_prepare(self, sender: str, signed: SignedMessage) -> None:
        pre: PrePrepare = signed.body
        if pre.view != self.view or self.in_view_change:
            return
        if sender != self.primary_of(pre.view):
            return
        if not self.check_signed(signed, (self.primary_of(pre.view),)):
            return
        self._accept_pre_prepare(signed)

    def _accept_pre_prepare(self, signed: SignedMessage) -> None:
        pre: PrePrepare = signed.body
        state = self._state(pre.view, pre.seq)
        batch_digest = self._batch_digest(pre.batch)
        if state.pre_prepare is not None:
            return  # only the first pre-prepare for a slot is accepted
        state.pre_prepare = signed
        state.batch = pre.batch
        state.digest = batch_digest
        if self.name != self.primary_of(pre.view):
            prepare = Prepare(
                view=pre.view, seq=pre.seq, batch_digest=batch_digest, replica=self.name
            )
            signed_prepare = self.make_signed(prepare)
            state.prepares.add(self.name)
            state.prepare_msgs[self.name] = signed_prepare
            state.sent_prepare = True
            self.multicast_payload(self.others, signed_prepare)
        self._maybe_prepared(pre.view, pre.seq)

    def _on_prepare(self, sender: str, signed: SignedMessage) -> None:
        prepare: Prepare = signed.body
        if sender != prepare.replica or prepare.view != self.view or self.in_view_change:
            return
        if self._released(prepare.view, prepare.seq):
            return
        if sender == self.primary_of(prepare.view):
            return  # the primary never prepares
        if not self.check_signed(signed, (prepare.replica,)):
            return
        state = self._state(prepare.view, prepare.seq)
        if state.digest is not None and prepare.batch_digest != state.digest:
            return  # conflicting prepare; ignore (primary equivocated)
        state.prepares.add(prepare.replica)
        state.prepare_msgs[prepare.replica] = signed
        self._maybe_prepared(prepare.view, prepare.seq)

    def _maybe_prepared(self, view: int, seq: int) -> None:
        state = self._state(view, seq)
        if state.sent_commit or state.pre_prepare is None:
            return
        if len(state.prepares) < 2 * self.f:
            return
        state.sent_commit = True
        commit = Commit(view=view, seq=seq, batch_digest=state.digest, replica=self.name)
        signed_commit = self.make_signed(commit)
        state.commits.add(self.name)
        self.multicast_payload(self.others, signed_commit)
        self._maybe_committed(view, seq)

    def _on_commit(self, sender: str, signed: SignedMessage) -> None:
        commit: Commit = signed.body
        if sender != commit.replica or commit.view != self.view or self.in_view_change:
            return
        if self._released(commit.view, commit.seq):
            return
        if not self.check_signed(signed, (commit.replica,)):
            return
        state = self._state(commit.view, commit.seq)
        if state.digest is not None and commit.batch_digest != state.digest:
            return
        state.commits.add(commit.replica)
        self._maybe_committed(commit.view, commit.seq)

    def _maybe_committed(self, view: int, seq: int) -> None:
        state = self._state(view, seq)
        if state.committed or state.batch is None:
            return
        if len(state.commits) < 2 * self.f + 1:
            return
        state.committed = True
        self.committed_seqs[seq] = state.batch
        self.last_progress = self.sim.now
        self.trace(
            "order_committed",
            batch_id=state.batch.batch_id,
            rank=view,
            first_seq=seq,
            n_requests=len(state.batch.entries),
        )
        self._execute_ready()

    def _committed_batch(self, first_seq: int) -> OrderBatch | None:
        return self.committed_seqs.get(first_seq)

    def _sequenced_batches(self) -> Iterator[OrderBatch]:
        return (s.batch for s in self.states.values() if s.batch is not None)

    def _collect_garbage(self, stable_seq: int) -> int:
        victims = [
            key
            for key, state in self.states.items()
            if state.committed and state.batch is not None
            and state.batch.last_seq <= stable_seq
        ]
        for key in victims:
            del self.states[key]
        executed = [
            seq
            for seq, batch in self.committed_seqs.items()
            if batch.last_seq <= stable_seq and seq < self._exec_next
        ]
        for seq in executed:
            del self.committed_seqs[seq]
        return len(victims)

    # ------------------------------------------------------------------
    # View change
    # ------------------------------------------------------------------
    def _liveness_tick(self) -> None:
        self._liveness_armed = False
        if self.crashed:
            return
        stalled = self.sim.now - self.last_progress > self.view_timeout
        waiting = any(k not in self.ordered_keys for k in self.pending) or any(
            not s.committed and s.pre_prepare is not None for s in self.states.values()
        )
        if stalled and waiting and not self.is_ordering:
            self._call_view_change(self.view + 1)
        self._arm_liveness_timer()

    def _call_view_change(self, new_view: int) -> None:
        if new_view in self._voted_views or new_view <= self.view:
            return
        self._voted_views.add(new_view)
        self.in_view_change = True
        self.pending_view = max(self.pending_view or 0, new_view)
        prepared: list[PreparedProof] = []
        for (view, seq), state in sorted(self.states.items()):
            if state.committed or state.pre_prepare is None:
                continue
            if len(state.prepares) >= 2 * self.f:
                proofs = tuple(
                    state.prepare_msgs[name]
                    for name in sorted(state.prepare_msgs)
                )[: 2 * self.f]
                prepared.append(
                    PreparedProof(pre_prepare=state.pre_prepare, prepares=proofs)
                )
        body = BftViewChange(
            new_view=new_view,
            replica=self.name,
            last_committed=self._exec_next - 1,
            committed_proof=None,
            prepared=tuple(prepared),
        )
        signed = self.make_signed(body)
        self.trace("view_change_sent", view=new_view)
        if self.name == self.primary_of(new_view):
            self._note_view_change(signed)
        self.multicast_payload(self.others, signed)

    def _on_view_change(self, sender: str, signed: SignedMessage) -> None:
        vc: BftViewChange = signed.body
        if sender != vc.replica or not self.check_signed(signed, (vc.replica,)):
            return
        if vc.new_view <= self.view:
            return
        if vc.new_view not in self._voted_views:
            self._call_view_change(vc.new_view)
        self._note_view_change(signed)

    def _note_view_change(self, signed: SignedMessage) -> None:
        vc: BftViewChange = signed.body
        votes = self._view_changes.setdefault(vc.new_view, {})
        votes[vc.replica] = signed
        if self.name != self.primary_of(vc.new_view):
            return
        if len(votes) < 2 * self.f + 1:
            return
        self._emit_new_view(vc.new_view)

    def _emit_new_view(self, new_view: int) -> None:
        if self.view >= new_view:
            return
        votes = self._view_changes[new_view]
        chosen = tuple(votes[name] for name in sorted(votes))[: 2 * self.f + 1]
        # Re-issue pre-prepares for every prepared batch reported.
        by_seq: dict[int, SignedMessage] = {}
        for signed_vc in chosen:
            vc: BftViewChange = signed_vc.body
            for proof in vc.prepared:
                pre: PrePrepare = proof.pre_prepare.body
                if pre.seq not in by_seq and pre.seq not in self.committed_seqs:
                    by_seq[pre.seq] = proof.pre_prepare
        reissued = []
        for seq in sorted(by_seq):
            old: PrePrepare = by_seq[seq].body
            reissued.append(
                self.make_signed(PrePrepare(view=new_view, seq=seq, batch=old.batch))
            )
        body = BftNewView(
            new_view=new_view, view_changes=chosen, pre_prepares=tuple(reissued)
        )
        signed = self.make_signed(body)
        self.trace("new_view_sent", view=new_view)
        self.multicast_payload(self.others, signed)
        self._enter_view(new_view, tuple(reissued))

    def _on_new_view(self, sender: str, signed: SignedMessage) -> None:
        nv: BftNewView = signed.body
        if nv.new_view <= self.view:
            return
        if sender != self.primary_of(nv.new_view):
            return
        if not self.check_signed(signed, (self.primary_of(nv.new_view),)):
            return
        if len(nv.view_changes) < 2 * self.f + 1:
            return
        self._enter_view(nv.new_view, nv.pre_prepares)

    def _enter_view(self, new_view: int, pre_prepares: tuple[SignedMessage, ...]) -> None:
        self.view = new_view
        self.in_view_change = False
        self.pending_view = None
        self.last_progress = self.sim.now
        self.trace("view_installed", view=new_view)
        max_seq = self._exec_next - 1
        for signed_pre in pre_prepares:
            pre: PrePrepare = signed_pre.body
            max_seq = max(max_seq, pre.batch.last_seq)
            self._accept_pre_prepare(signed_pre)
        if self.is_ordering:
            self.next_assign_seq = max(self.next_assign_seq, max_seq + 1)
            self._rebuild_unordered()
            self._arm_batch_timer()
