"""The SC order protocol (Sections 3–4.3).

One :class:`ScProcess` per order process.  The first ``f`` replicas are
paired with shadows; pair rank ``c`` coordinates, starting at 1.

Normal operation (Figure 3(a)) — three phases:

1. **1 → 1**: coordinator replica ``pc`` assigns sequence numbers to a
   batch of requests, signs the batch and sends it *only* to its shadow
   ``p'c`` for endorsement;
2. **2 → n**: the shadow validates (value domain), countersigns and
   multicasts the doubly-signed order to everyone; ``pc`` forwards the
   endorsed order to everyone as well;
3. **n → n**: every process that received the doubly-signed,
   in-sequence order multicasts a signed ack (N1), waits for ack-or-
   order evidence from ``n − f`` distinct processes (N2) and commits,
   retaining the evidence as proof of commitment (N3).

Failure handling: mutual checking turns a value- or time-domain fault
inside the coordinator pair into a doubly-signed **fail-signal**, which
triggers the install part (IN1–IN5, :mod:`repro.core.install`).  After
each installation the old coordinator pair goes *dumb* (Section 4.3)
and the quorum shrinks accordingly.

Assumption 3(a)(i) — "non-faulty processes never judge each other to be
untimely" — is embodied by a *suspicion oracle*: a time-domain deadline
miss is confirmed against the counterpart's actual fault state before a
fail-signal is raised (the SCR variant drops the oracle; see
:mod:`repro.core.scr`).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.calibration import CalibrationProfile
from repro.core.checkpoint import Checkpoint
from repro.core.config import ProtocolConfig
from repro.core.install import (
    BacklogView,
    as_view,
    compute_new_backlog,
    verify_start_against_backlogs,
)
from repro.core.messages import (
    Ack,
    BackLog,
    CatchUpReply,
    CatchUpRequest,
    FailSignalBody,
    Heartbeat,
    OrderBatch,
    OrderEntry,
    PairForward,
    PairProposal,
    PairStartProposal,
    PairStatusUp,
    SignedMessage,
    Start,
    StartSupport,
    SupportBundle,
    payload_size,
    signing_bytes,
)
from repro.core.pair import (
    DEFER,
    INVALID,
    VALID,
    batches_equal,
    build_fail_signal,
    fail_signal_pair_rank,
    validate_order_batch,
)
from repro.core.process import INSTALL_CLIENT, OrderLogProcess
from repro.core.requests import ClientRequest
from repro.core.suspicion import ExpectationMonitor, OrderProductionWatch
from repro.crypto.canon import encode_canonical
from repro.crypto.digests import digest
from repro.crypto.signing import Signature, SignatureProvider
from repro.errors import ProtocolError
from repro.net.addresses import is_shadow, pair_of
from repro.net.network import Network
from repro.sim.kernel import Simulator

#: Message types handled at interrupt level (see ``is_urgent``); built
#: once — the check runs on every delivery.
_URGENT_TYPES = (Heartbeat, PairStatusUp)


def make_install_batch(
    signed_start: SignedMessage, digest_name: str
) -> OrderBatch:
    """Wrap a doubly-signed Start as a single-entry order batch so the
    normal part (N1–N3) can commit it (IN5)."""
    start: Start = signed_start.body
    entry = OrderEntry(
        seq=start.start_seq,
        req_digest=digest(digest_name, encode_canonical(signed_start.body)),
        client=INSTALL_CLIENT,
        req_id=start.new_rank,
    )
    return OrderBatch(rank=start.new_rank, batch_id=-start.new_rank, entries=(entry,))


class ScProcess(OrderLogProcess):
    """One order process of the SC protocol."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        network: Network,
        config: ProtocolConfig,
        provider: SignatureProvider,
        calibration: CalibrationProfile,
        fail_signal_blank: tuple[FailSignalBody, Signature] | None = None,
    ) -> None:
        super().__init__(
            sim, name, network, config, provider, calibration,
            config.process_names, quorum=config.order_quorum,
        )
        self.shadow = is_shadow(name)
        self.paired = config.is_paired(self.index)
        self.counterpart = pair_of(name) if self.paired else None
        self.blank = fail_signal_blank
        if self.paired and fail_signal_blank is None:
            raise ProtocolError(f"paired process {name} needs a fail-signal blank")

        # --- ordering state -------------------------------------------
        self.n_eff = config.n
        self.f_eff = config.f
        self.dumb_ranks: set[int] = set()

        # --- shadow endorsement state ---------------------------------
        self.next_endorse_seq = 1
        self._deferred: list[SignedMessage] = []  # proposals awaiting requests
        self.proposed: dict[int, OrderBatch] = {}  # pc side: first_seq -> own batch

        # --- pair collaboration ---------------------------------------
        self.pair_down = not self.paired
        self.fail_signalled = False
        self.my_fail_signal: SignedMessage | None = None
        self.expect = ExpectationMonitor(self, self._on_expectation_miss)
        # The differential delay bound (Section 2.1.1) covers the
        # counterpart's *processing* too, so deadlines include the two
        # signing operations on an order's pair-internal path.
        self._processing_margin = 2 * self.cost.sign + 8 * (
            calibration.unmarshal_base + calibration.handle_base
        )
        watch_deadline = (
            config.batching_interval
            + config.order_deadline_slack
            + self._processing_margin
        )
        self.watch = OrderProductionWatch(self, watch_deadline, self._on_watch_miss)
        self.last_heard_from_counterpart = 0.0
        self._heartbeat_armed = False
        self.suspicion_oracle: Callable[[], bool] | None = None

        # --- install state --------------------------------------------
        self.installing = False
        self.install_target: int | None = None
        self.failed_pairs: dict[int, SignedMessage] = {}
        self.backlogs: dict[str, SignedMessage] = {}
        self._backlog_sent_for: int | None = None
        self._start_computed_for: set[int] = set()
        self.pending_start: SignedMessage | None = None
        self.start_supports: dict[str, StartSupport] = {}
        self._support_sent = False
        self._bundle_ok = False
        self._bundle_sent = False
        self.installed_ranks: list[int] = []
        self._catchup: dict[int, dict[bytes, tuple[SignedMessage, set[str]]]] = {}
        self._catchup_requested: set[tuple[int, int]] = set()
        self._future_orders: list[tuple[str, SignedMessage]] = []
        self._early_bundles: list[tuple[str, SupportBundle]] = []

    # ==================================================================
    # Role helpers
    # ==================================================================
    @property
    def is_coordinating_replica(self) -> bool:
        return not self.shadow and self.index == self.c and not self.installing

    is_ordering = is_coordinating_replica

    @property
    def is_coordinating_shadow(self) -> bool:
        return self.shadow and self.index == self.c and not self.installing

    def start(self) -> None:
        """Arm timers appropriate to this process's initial role."""
        if self.is_coordinating_replica:
            self._arm_batch_timer()
        if self.is_coordinating_shadow:
            self.watch.start()
        if self.paired:
            self._arm_heartbeat()
            self.last_heard_from_counterpart = self.sim.now

    # ==================================================================
    # Receive-cost model
    # ==================================================================
    def verification_service(self, payload: Any, size_bytes: int) -> float:
        if isinstance(payload, ClientRequest):
            return 0.0
        if isinstance(payload, SignedMessage):
            body = payload.body
            if isinstance(body, OrderBatch):
                slot = self.log.slots.get(body.first_seq)
                if slot is not None and slot.order is not None:
                    return 0.0  # duplicate copy: parsed, then discarded
                return self.verify_cost(len(payload.signatures), size_bytes)
            if isinstance(body, Ack):
                order_body: OrderBatch = body.order.body
                first = (
                    order_body.first_seq
                    if isinstance(order_body, OrderBatch)
                    else 0
                )
                slot = self.log.slots.get(first)
                if slot is not None and slot.committed:
                    return 0.0  # late ack for a committed slot: discard
                inner = 0
                if slot is None or slot.order is None:
                    inner = len(body.order.signatures)
                return self.verify_cost(1 + inner, size_bytes)
            if isinstance(body, FailSignalBody):
                return self.verify_cost(2, size_bytes)
            if isinstance(body, Start):
                return self.verify_cost(len(payload.signatures), size_bytes)
            if isinstance(body, BackLog):
                return self.verify_cost(1, size_bytes)
            if isinstance(body, Checkpoint):
                return self.verify_cost(1, size_bytes)
        if isinstance(payload, PairProposal):
            return self.verify_cost(1, size_bytes)
        if isinstance(payload, PairStartProposal):
            return self.verify_cost(1, size_bytes)
        if isinstance(payload, StartSupport):
            return self.verify_cost(1, size_bytes)
        if isinstance(payload, SupportBundle):
            return self.verify_cost(len(payload.tuples), size_bytes)
        if isinstance(payload, PairForward):
            return self.cal.compare_base
        if isinstance(payload, CatchUpReply):
            return self.verify_cost(2 * len(payload.orders), size_bytes)
        return 0.0

    # ==================================================================
    # Dispatch
    # ==================================================================
    def handle(self, sender: str, payload: Any) -> None:
        if self.paired and sender == self.counterpart:
            self.last_heard_from_counterpart = self.sim.now
        if isinstance(payload, ClientRequest):
            self._on_request(sender, payload)
        elif isinstance(payload, PairProposal):
            self._on_pair_proposal(sender, payload)
        elif isinstance(payload, PairStartProposal):
            self._on_pair_start_proposal(sender, payload)
        elif isinstance(payload, PairForward):
            self._on_pair_forward(sender, payload)
        elif isinstance(payload, Heartbeat):
            pass  # receipt already refreshed last_heard_from_counterpart
        elif isinstance(payload, StartSupport):
            self._on_start_support(sender, payload)
        elif isinstance(payload, SupportBundle):
            self._on_support_bundle(sender, payload)
        elif isinstance(payload, CatchUpRequest):
            self._on_catchup_request(sender, payload)
        elif isinstance(payload, CatchUpReply):
            self._on_catchup_reply(sender, payload)
        elif isinstance(payload, SignedMessage):
            body = payload.body
            if isinstance(body, OrderBatch):
                self._on_order(sender, payload)
            elif isinstance(body, Ack):
                self._on_ack(sender, payload)
            elif isinstance(body, FailSignalBody):
                self._on_fail_signal(sender, payload)
            elif isinstance(body, Start):
                self._on_start(sender, payload)
            elif isinstance(body, BackLog):
                self._on_backlog(sender, payload)
            elif isinstance(body, Checkpoint):
                self._on_checkpoint(sender, payload)

    # ==================================================================
    # Client requests and batching (coordinator normal part)
    # ==================================================================
    def _on_request(self, sender: str, request: ClientRequest) -> bool:
        if not super()._on_request(sender, request):
            return False
        if self.paired and self.config.pair_forwarding and not self.pair_down:
            self.send_pair(
                self.counterpart,
                PairForward(sender, request, request.size_bytes),
            )
        if self.is_coordinating_shadow:
            self.watch.note_request(request.key)
            self._retry_deferred()
        return True

    def _batch_tick(self) -> None:
        """Unlike CT/BFT, a crashed or withholding coordinator replica
        keeps its timer running (and stays silent, ``queue_depth``
        included): its shadow's deadlines, not the tick, detect it."""
        self._batch_timer_armed = False
        if not self.is_coordinating_replica or self.pair_down and self.paired:
            return
        if not (self.crashed or self.fault.withholds_orders(self.sim.now)):
            self._emit_queue_depth()
            if self.unordered:
                self._propose_next_batch()
        self._arm_batch_timer()

    def _disseminate(self, batch: OrderBatch) -> None:
        """Phase 1 (1 → 1): sign the batch and send it to the shadow
        for endorsement, under an endorsement deadline."""
        batch = self._apply_order_faults(batch)
        signed = self.make_signed(batch)
        self.proposed[batch.first_seq] = batch
        if self.paired:
            self.send_pair(self.counterpart, PairProposal(order=signed))
            self.expect.expect(("endorse", batch.first_seq), self._endorse_deadline())
            if self.fault.equivocates(self.sim.now):
                twin = self._equivocating_twin(batch)
                self.send_pair(self.counterpart, PairProposal(order=self.make_signed(twin)))
        else:
            # The unpaired (f+1)-th coordinator: singly-signed orders
            # are accepted directly (SC2 guarantees it is non-faulty).
            self.multicast_payload(self.others, signed)
            self._process_order(signed)

    def _endorse_deadline(self) -> float:
        """Deadline for the counterpart's endorsement of a proposal.

        A conservative differential delay estimate: the pair link delay
        bound plus the counterpart's known per-proposal processing and
        one full batching cycle of competing work (client requests and
        acks the counterpart handles between endorsements)."""
        return (
            self.config.pair_delay_estimate
            + self._processing_margin
            + self.config.batching_interval
        )

    def _proposal_allowance(self, proposals: list[SignedMessage]) -> float:
        """Extra deadline allowance for a pair-internal proposal whose
        endorsement requires verifying shipped content (Start/NewView
        with backlogs).  The proposer computes it from what it shipped —
        the delay estimate covers the counterpart's known workload."""
        n_verifies = 0
        total_bytes = 0
        for signed in proposals:
            body = signed.body
            total_bytes += payload_size(signed)
            max_committed = getattr(body, "max_committed", None)
            if max_committed is not None:
                n_verifies += len(max_committed.order.signatures)
                n_verifies += len(max_committed.acks)
            for order in getattr(body, "uncommitted", ()):
                n_verifies += len(order.signatures)
        kb = total_bytes / 1024.0
        work = (
            n_verifies * self.cost.verify
            + kb
            * (
                self.cal.unmarshal_per_kb
                + self.cal.backlog_compute_per_kb
                + self.cal.marshal_per_kb
            )
            + 2 * kb / self.cal.pair_bandwidth * 1024.0
        )
        # Safety factor: the counterpart may be draining queued work
        # (fail-over happens amid a message burst).  A conservative
        # delay estimate keeps 3(b)(i)'s false suspicions out of
        # moderate-load runs without hiding real failures for long.
        return 3.0 * work + 0.020

    # ==================================================================
    # Shadow: endorsement (phase 1 -> 2)
    # ==================================================================
    def _on_pair_proposal(self, sender: str, proposal: PairProposal) -> None:
        if sender != self.counterpart or self.pair_down:
            return
        signed = proposal.order
        if not self.check_signed(signed, (self.counterpart,)):
            self._value_domain_failure("bad signature on proposal")
            return
        batch: OrderBatch = signed.body
        if batch.rank != self.c or not self.is_coordinating_shadow:
            return
        # Proposals are endorsed in sequence order, so one that arrives
        # while an earlier one still waits for a request follows that
        # one's sequence numbers and waits behind it.
        expected = self.next_endorse_seq
        if self._deferred:
            expected = self._deferred[-1].body.last_seq + 1
        verdict = validate_order_batch(
            batch, expected, self.pending, self.config.scheme.digest
        )
        if verdict.verdict == INVALID:
            self._value_domain_failure(verdict.reason)
            return
        if verdict.verdict == DEFER or self._deferred:
            self._deferred.append(signed)
            self.expect.expect(
                ("defer", batch.first_seq), self.config.pair_delay_estimate
            )
            return
        self._endorse(signed)

    def _endorse(self, signed: SignedMessage) -> None:
        batch: OrderBatch = signed.body
        if self.fault.mutates_endorsement(self.sim.now):
            # Byzantine shadow: alter the body, keep the replica's
            # signature.  The chain no longer verifies; correct
            # receivers drop it and the replica fail-signals.
            corrupted = OrderBatch(
                rank=batch.rank,
                batch_id=batch.batch_id,
                entries=tuple(
                    OrderEntry(e.seq, b"\x66" * len(e.req_digest), e.client, e.req_id)
                    for e in batch.entries
                ),
            )
            bad = SignedMessage(body=corrupted, signatures=signed.signatures)
            doubly = self.make_countersigned(bad)
        else:
            doubly = self.make_countersigned(signed)
        self.next_endorse_seq = batch.last_seq + 1
        for entry in batch.entries:
            self.watch.note_ordered((entry.client, entry.req_id))
        self.expect.fulfil(("defer", batch.first_seq))
        self.multicast_payload(self.others, doubly)
        self.trace("order_endorsed", first_seq=batch.first_seq, batch_id=batch.batch_id)
        self._process_order(doubly)

    def _retry_deferred(self) -> None:
        if not self._deferred:
            return
        waiting, self._deferred = self._deferred, []
        for at, signed in enumerate(waiting):
            batch: OrderBatch = signed.body
            if not self.is_coordinating_shadow or batch.rank != self.c:
                continue
            verdict = validate_order_batch(
                batch, self.next_endorse_seq, self.pending, self.config.scheme.digest
            )
            if verdict.verdict == VALID:
                self._endorse(signed)
            elif verdict.verdict == DEFER:
                # In sequence order: the rest wait behind this one.
                self._deferred = waiting[at:]
                return
            else:
                self._value_domain_failure(verdict.reason)
                return

    # ==================================================================
    # Normal part: N1-N3
    # ==================================================================
    def _on_order(self, sender: str, signed: SignedMessage) -> None:
        batch: OrderBatch = signed.body
        if batch.entries and batch.entries[0].client == INSTALL_CLIENT:
            return  # install pseudo-batches never travel as plain orders
        if batch.rank != self.c or self.installing:
            if batch.rank >= self.c:
                # Orders from a coordinator we have not installed yet
                # may overtake the installation traffic; hold them.
                self._future_orders.append((sender, signed))
            return
        expected = self.config.coordinator_members(batch.rank)
        if tuple(signed.signers) != expected:
            # Possibly a mutated endorsement from a Byzantine shadow:
            # the paired replica recognises its own proposal underneath.
            if (
                self.is_coordinating_replica
                and self.paired
                and sender == self.counterpart
            ):
                self._value_domain_failure("counterpart altered endorsement chain")
            return
        if not self.check_signed(signed, expected):
            if self.is_coordinating_replica and sender == self.counterpart:
                self._value_domain_failure("invalid endorsement from shadow")
            return
        if self.is_coordinating_replica and self.paired:
            mine = self.proposed.get(batch.first_seq)
            if mine is not None and not batches_equal(mine, batch):
                self._value_domain_failure("shadow endorsed a different batch")
                return
            self.expect.fulfil(("endorse", batch.first_seq))
            # Phase 2 (second half): pc forwards the endorsed order to
            # every other process, including the shadow.
            self.multicast_payload(self.others, signed)
        self._process_order(signed)

    def _ack_order(self, signed: SignedMessage) -> None:
        batch: OrderBatch = signed.body
        slot = self.log.note_order(signed)
        if slot.acked:
            return
        slot.acked = True
        self.next_expected = max(self.next_expected, batch.last_seq + 1)
        ack_body = Ack(acker=self.name, order=signed)
        signed_ack = self.make_signed(ack_body)
        self.log.note_ack(self.name, signed, signed_ack)
        self.multicast_payload(self.others, signed_ack)
        if self.paired and self.config.pair_forwarding and not self.pair_down:
            self.send_pair(
                self.counterpart, PairForward(self.name, signed, payload_size(signed))
            )
        self._maybe_commit(batch.first_seq)

    def _on_ack(self, sender: str, signed_ack: SignedMessage) -> None:
        ack: Ack = signed_ack.body
        if sender != ack.acker:
            return
        if not self.check_signed(signed_ack, (ack.acker,)):
            return
        order = ack.order
        body = order.body
        if not isinstance(body, OrderBatch) or self._released(body):
            return
        is_install = bool(body.entries) and body.entries[0].client == INSTALL_CLIENT
        slot = self.log.slots.get(body.first_seq)
        have_order = slot is not None and slot.order is not None
        if not have_order:
            if is_install:
                # The pseudo batch's authenticity rests on the Start we
                # hold, not on a direct signature over the batch.
                if not self._matches_pending_start(body):
                    return
            else:
                # The ack carries the order; authenticate before adoption.
                expected = self._order_signers(body)
                if expected is None or not self.check_signed(order, expected):
                    return
                if body.rank == self.c and not self.installing:
                    self._process_order(order)
        self.log.note_ack(ack.acker, order, signed_ack)
        self._maybe_commit(body.first_seq)

    def _matches_pending_start(self, batch: OrderBatch) -> bool:
        if self.pending_start is None:
            return False
        expected = make_install_batch(self.pending_start, self.config.scheme.digest)
        return batches_equal(expected, batch)

    def _order_signers(self, batch: OrderBatch) -> tuple[str, ...] | None:
        try:
            return self.config.coordinator_members(batch.rank)
        except Exception:
            return None

    def _wrap_checkpoint(self, claim: Checkpoint) -> SignedMessage:
        signed = self.make_signed(claim)
        self.trace("checkpoint_emitted", seq=claim.seq)
        return signed

    def _collect_garbage(self, stable_seq: int) -> int:
        """The coordinator's own-proposal table goes with its slots."""
        self.proposed = {
            s: batch for s, batch in self.proposed.items() if batch.last_seq > stable_seq
        }
        return super()._collect_garbage(stable_seq)

    # ==================================================================
    # Fail-signalling (Section 3.2)
    # ==================================================================
    def _value_domain_failure(self, reason: str) -> None:
        self.trace("value_domain_failure", reason=reason)
        self.emit_fail_signal(reason=reason, domain="value")

    def _on_watch_miss(self, key: Any) -> None:
        self._timing_suspicion(f"no order produced for request {key}")

    def _on_expectation_miss(self, key: Any) -> None:
        self._timing_suspicion(f"expected output missing: {key}")

    def _timing_suspicion(self, reason: str) -> None:
        """A time-domain deadline passed.  Under assumption 3(a)(i) the
        delay estimate is accurate, which we embody as an oracle check:
        the suspicion is raised only if the counterpart really is
        faulty.  (ScrProcess overrides this with real, fallible
        suspicion per 3(b)(i).)"""
        if self.pair_down:
            return
        if self.suspicion_oracle is not None and not self.suspicion_oracle():
            # Estimate says "still timely" - re-arm monitoring.
            if self.is_coordinating_shadow:
                self.watch.start()
            return
        self.trace("time_domain_failure", reason=reason)
        self.emit_fail_signal(reason=reason, domain="time")

    def emit_fail_signal(self, reason: str = "", domain: str = "time") -> None:
        """Double-sign the pre-supplied blank and broadcast (crash of
        the abstract signal-on-crash process)."""
        if not self.paired or self.fail_signalled:
            return
        self.fail_signalled = True
        self.pair_down = True
        body, blank_sig = self.blank
        self.charge(self.cost.sign + self.cost.digest_cost(payload_size(body)))
        signed = build_fail_signal(self.provider, self.name, body, blank_sig)
        self.my_fail_signal = signed
        self.trace(
            "fail_signal_emitted", pair=self.index, reason=reason, domain=domain
        )
        self._stop_pair_collaboration()
        self.multicast_payload(self.others, signed)
        self._register_fail_signal(signed, self.index)

    def _stop_pair_collaboration(self) -> None:
        self.expect.cancel_all()
        self.watch.stop()
        self._deferred.clear()

    def _on_fail_signal(self, sender: str, signed: SignedMessage) -> None:
        rank = fail_signal_pair_rank(self.provider, signed)
        if rank is None:
            return
        if rank in self.failed_pairs:
            return
        # Echo to the first signatory in case the second maliciously
        # omitted to send it (Section 3.2).
        body: FailSignalBody = signed.body
        if sender != body.first_signer:
            self.send_payload(body.first_signer, signed)
        # A process learning of its own pair's fail-signal emits its own.
        if self.paired and rank == self.index and not self.fail_signalled:
            self.emit_fail_signal(reason="counterpart fail-signalled")
        self._register_fail_signal(signed, rank)

    def _register_fail_signal(self, signed: SignedMessage, rank: int) -> None:
        self.failed_pairs[rank] = signed
        self.trace("fail_signal_received", pair=rank)
        if rank == self.c and not self.installing:
            self._begin_install(signed)
        elif self.installing and rank == self.install_target:
            # The candidate being installed has itself fail-signalled:
            # restart IN1 toward the next live candidate.
            self._begin_install(signed)

    # ==================================================================
    # Install part: IN1-IN5
    # ==================================================================
    def _next_candidate(self) -> int:
        rank = self.c + 1
        while rank in self.failed_pairs and rank < self.config.coordinator_candidates:
            rank += 1
        if rank > self.config.coordinator_candidates:
            raise ProtocolError(f"{self.name}: no coordinator candidates left")
        return rank

    def _begin_install(self, fail_signal: SignedMessage) -> None:
        """IN1: advance c, stop acking orders, multicast BackLog."""
        self.installing = True
        target = self._next_candidate()
        if target == self.install_target:
            return  # already installing this candidate
        self.install_target = target
        self.backlogs = {}
        self._support_sent = False
        self._bundle_ok = False
        self._bundle_sent = False
        self.pending_start = None
        self.start_supports = {}
        self.trace("install_started", target=target)
        backlog = BackLog(
            sender=self.name,
            new_rank=target,
            fail_signal=fail_signal,
            max_committed=self.log.max_committed_proof(),
            uncommitted=self.log.uncommitted_orders(),
        )
        signed = self.make_signed(backlog)
        self.trace("backlog_sent", target=target, size=payload_size(signed))
        self._backlog_sent_for = target
        if self._is_install_coordinator(target):
            self.backlogs[self.name] = signed
            self._maybe_compute_start()
        self.multicast_payload(self.others, signed)

    def _is_install_coordinator(self, target: int) -> bool:
        members = self.config.coordinator_members(target)
        return self.name == members[0]

    def _is_install_shadow(self, target: int) -> bool:
        members = self.config.coordinator_members(target)
        return len(members) == 2 and self.name == members[1]

    def _on_backlog(self, sender: str, signed: SignedMessage) -> None:
        backlog: BackLog = signed.body
        if sender != backlog.sender or not self.check_signed(signed, (backlog.sender,)):
            return
        # The embedded fail-signal lets processes that have not yet seen
        # it join the installation.
        rank = fail_signal_pair_rank(self.provider, backlog.fail_signal)
        if rank is not None and rank not in self.failed_pairs:
            self._register_fail_signal(backlog.fail_signal, rank)
        if self.installing and backlog.new_rank == self.install_target:
            self.backlogs[backlog.sender] = signed
            if self._is_install_coordinator(backlog.new_rank) or self._is_install_shadow(
                backlog.new_rank
            ):
                self._maybe_compute_start()

    def _install_quorum(self) -> int:
        return self.n_eff - self.f_eff

    def _maybe_compute_start(self) -> None:
        """IN2 at the new coordinator replica."""
        target = self.install_target
        if target is None or not self._is_install_coordinator(target):
            return
        if target in self._start_computed_for:
            return
        if len(self.backlogs) < self._install_quorum():
            return
        self._start_computed_for.add(target)
        chosen = list(self.backlogs.values())[: self._install_quorum()]
        views, total_kb = self._deep_validate_backlogs(chosen)
        result = compute_new_backlog(views, self.config.f)
        self.charge(self.cal.backlog_compute_per_kb * total_kb)
        new_backlog = result.new_backlog
        if result.base_proof is not None:
            new_backlog = (result.base_proof.order, *tuple(
                s for s in new_backlog if s is not result.base_proof.order
            ))
        start = Start(new_rank=target, start_seq=result.start_seq, new_backlog=new_backlog)
        signed_start = self.make_signed(start)
        self.trace("start_computed", target=target, start_seq=result.start_seq)
        if self._is_install_shadow_needed(target):
            self.send_pair(
                self.counterpart,
                PairStartProposal(start=signed_start, backlogs=tuple(chosen)),
            )
            self.expect.expect(
                ("endorse-start", target),
                self._endorse_deadline() + self._proposal_allowance(chosen),
            )
        else:
            # Unpaired coordinator: singly-signed Start, accepted as-is.
            self.multicast_payload(self.others, signed_start)
            self.trace("failover_complete", target=target, start_seq=start.start_seq)
            self._adopt_start(signed_start)

    def _is_install_shadow_needed(self, target: int) -> bool:
        return len(self.config.coordinator_members(target)) == 2

    def _deep_validate_backlogs(
        self, chosen: list[SignedMessage]
    ) -> tuple[list[BacklogView], float]:
        """Charge verification of backlog contents; return views + KB."""
        views: list[BacklogView] = []
        total_bytes = 0
        n_verifies = 0
        for signed in chosen:
            backlog: BackLog = signed.body
            total_bytes += payload_size(signed)
            if backlog.max_committed is not None:
                n_verifies += len(backlog.max_committed.order.signatures)
                n_verifies += len(backlog.max_committed.acks)
            for order in backlog.uncommitted:
                n_verifies += len(order.signatures)
            views.append(as_view(backlog))
        self.charge(n_verifies * self.cost.verify)
        return views, total_bytes / 1024.0

    def _on_pair_start_proposal(self, sender: str, proposal: PairStartProposal) -> None:
        """IN2 at the new coordinator's shadow."""
        if sender != self.counterpart or self.pair_down:
            return
        target = self.install_target
        if target is None or not self._is_install_shadow(target):
            return
        if not self.check_signed(proposal.start, (self.counterpart,)):
            self._value_domain_failure("bad signature on Start proposal")
            return
        start: Start = proposal.start.body
        provided_views: list[BacklogView] = []
        ok = True
        for signed in proposal.backlogs:
            backlog = signed.body
            if not isinstance(backlog, BackLog) or not self.check_signed(
                signed, (backlog.sender,)
            ):
                ok = False
                break
            provided_views.append(as_view(backlog))
        _, total_kb = (
            self._deep_validate_backlogs(list(proposal.backlogs)) if ok else ([], 0.0)
        )
        own_views = [
            as_view(s.body) for s in self.backlogs.values()
        ]
        claimed = start.new_backlog
        base_first = claimed[0] if claimed else None
        claimed_rest = claimed[1:] if claimed else ()
        if ok:
            ok = verify_start_against_backlogs(
                self._strip_base(claimed, provided_views),
                start.start_seq,
                provided_views,
                own_views,
                self.config.f,
            )
        if not ok:
            self._value_domain_failure("Start fails recomputation check")
            return
        self.charge(self.cal.backlog_compute_per_kb * total_kb)
        doubly = self.make_countersigned(proposal.start)
        self.trace("start_endorsed", target=target, start_seq=start.start_seq)
        self.multicast_payload(self.others, doubly)
        self._adopt_start(doubly)

    @staticmethod
    def _strip_base(
        claimed: tuple[SignedMessage, ...], views: list[BacklogView]
    ) -> tuple[SignedMessage, ...]:
        """Remove the leading base order (max committed) if present, so
        the recomputation compares uncommitted choices only."""
        if not claimed:
            return claimed
        base_last = 0
        for view in views:
            if view.max_committed is not None:
                batch: OrderBatch = view.max_committed.order.body
                base_last = max(base_last, batch.last_seq)
        first: OrderBatch = claimed[0].body
        if base_last and first.last_seq <= base_last:
            return claimed[1:]
        return claimed

    def _on_start(self, sender: str, signed: SignedMessage) -> None:
        """IN3/IN5 entry: an authentic (doubly-)signed Start arrives."""
        start: Start = signed.body
        if self.installing and self.install_target is None:
            return
        target = start.new_rank
        if not self.installing or target != self.install_target:
            # Late joiner: a Start implies the fail-signal path was
            # missed; adopt if it extends our view of the world.
            if target <= self.c:
                return
        members = self.config.coordinator_members(target)
        if tuple(signed.signers) != members or not self.check_signed(signed, members):
            return
        if self.is_coordinating_replica and self.paired and sender == self.counterpart:
            self.expect.fulfil(("endorse-start", target))
        self._adopt_start(signed)

    def _adopt_start(self, signed: SignedMessage) -> None:
        start: Start = signed.body
        if self.pending_start is not None:
            return
        self.pending_start = signed
        target = start.new_rank
        members = self.config.coordinator_members(target)
        # Replay any support bundle that overtook the Start.
        early, self._early_bundles = self._early_bundles, []
        for sender, bundle in early:
            self._on_support_bundle(sender, bundle)
        if self.pending_start is None:
            return  # install already completed via an early bundle
        # IN3: support tuples (only when more faults may remain).
        if self.f_eff > 1 and len(members) == 2:
            if self.name not in members and not self._support_sent:
                self._support_sent = True
                size = payload_size(start)
                self.charge(self.cost.sign + self.cost.digest_cost(size))
                signature = self.provider.sign(
                    self.name, signing_bytes(start, signed.signatures)
                )
                support = StartSupport(
                    supporter=self.name, new_rank=target, signature=signature
                )
                for member in members:
                    self.send_payload(member, support)
            if self.name in members:
                self._maybe_send_bundle()
        else:
            # f == 1 (or unpaired coordinator): the doubly-signed Start
            # itself carries f+1 signatures; installation proceeds.
            if self._is_install_coordinator(target) or self._is_install_shadow(target):
                if not self._bundle_sent:
                    self._bundle_sent = True
                    self.trace(
                        "failover_complete", target=target, start_seq=start.start_seq
                    )
            self._complete_install()

    def _on_start_support(self, sender: str, support: StartSupport) -> None:
        if sender != support.supporter:
            return
        # Stored unconditionally (the Start may still be in flight);
        # signatures are checked when the bundle is assembled.
        self.start_supports.setdefault(sender, support)
        self._maybe_send_bundle()

    def _valid_supports(self, members: tuple[str, ...]) -> dict[str, StartSupport]:
        start: Start = self.pending_start.body
        valid: dict[str, StartSupport] = {}
        for name, support in self.start_supports.items():
            if name in members or support.new_rank != start.new_rank:
                continue
            if self.provider.verify(
                support.signature,
                signing_bytes(start, self.pending_start.signatures),
                support.supporter,
            ):
                valid[name] = support
        return valid

    def _maybe_send_bundle(self) -> None:
        """IN4 at the new coordinator pair."""
        if self.pending_start is None or self._bundle_sent:
            return
        start: Start = self.pending_start.body
        members = self.config.coordinator_members(start.new_rank)
        if self.name not in members:
            return
        valid = self._valid_supports(members)
        if len(valid) < self.f_eff - 1:
            return
        tuples = tuple(valid[name] for name in sorted(valid))[: self.f_eff - 1]
        self._bundle_sent = True
        bundle = SupportBundle(new_rank=start.new_rank, tuples=tuples)
        self.trace(
            "failover_complete", target=start.new_rank, start_seq=start.start_seq
        )
        self.multicast_payload(self.others, bundle)
        self._bundle_ok = True
        self._complete_install()

    def _on_support_bundle(self, sender: str, bundle: SupportBundle) -> None:
        if self.pending_start is None:
            # The bundle overtook the Start; hold it.
            self._early_bundles.append((sender, bundle))
            return
        start: Start = self.pending_start.body
        if bundle.new_rank != start.new_rank:
            return
        members = self.config.coordinator_members(start.new_rank)
        needed = self.f_eff - 1
        valid = 0
        for support in bundle.tuples:
            if support.supporter in members:
                continue
            if self.provider.verify(
                support.signature,
                signing_bytes(start, self.pending_start.signatures),
                support.supporter,
            ):
                valid += 1
        if valid >= needed:
            self._bundle_ok = True
            self._complete_install()

    def _complete_install(self) -> None:
        """IN5: run the normal part on the Start pseudo-order."""
        if self.pending_start is None:
            return
        start: Start = self.pending_start.body
        if start.new_rank in self.installed_ranks or start.new_rank <= self.c:
            return  # both pair members multicast the bundle; run once
        if self.f_eff > 1 and len(self.config.coordinator_members(start.new_rank)) == 2:
            if not self._bundle_ok:
                return
        old_rank = self.c
        self.c = start.new_rank
        self.installing = False
        self.install_target = None
        self.installed_ranks.append(start.new_rank)
        self.backlogs = {}
        self.trace("coordinator_installed", rank=self.c, start_seq=start.start_seq)
        # Dumb-process optimisation (Section 4.3).
        if self.config.dumb_optimization:
            for rank in range(old_rank, start.new_rank):
                if rank not in self.dumb_ranks:
                    self.dumb_ranks.add(rank)
                    members = self.config.coordinator_members(rank)
                    if len(members) == 2:
                        self.n_eff -= 2
                        self.f_eff -= 1
                        self.log.quorum = self.n_eff - self.f_eff
                    if self.name in members:
                        self.dumb = True
                        self.trace("went_dumb", rank=rank)
        # Orders from the deposed coordinator that did not survive into
        # NewBackLog are discarded (they were never committed anywhere).
        self.log.drop_uncommitted_from(start.start_seq)
        self.next_expected = min(self.next_expected, start.start_seq)
        # Re-commit the backlog orders the Start carries.
        for signed_order in start.new_backlog:
            self.log.force_commit(signed_order, self.sim.now)
        # Missing orders below the backlog? Ask peers (IN5's guarantee).
        self._request_catchup_if_needed(start)
        # The Start itself commits through the normal part.
        pseudo = make_install_batch(self.pending_start, self.config.scheme.digest)
        pseudo_signed = SignedMessage(body=pseudo, signatures=self.pending_start.signatures)
        self.next_expected = max(self.next_expected, start.start_seq)
        self._process_order(pseudo_signed)
        self._execute_ready()
        # New coordinator resumes ordering after the Start's slot.
        if self.is_coordinating_replica:
            self.next_assign_seq = start.start_seq + 1
            self._rebuild_unordered()
            self._arm_batch_timer()
        if self.is_coordinating_shadow:
            self.next_endorse_seq = start.start_seq + 1
            self.watch.start()
        # Replay orders that overtook the installation traffic.
        replay, self._future_orders = self._future_orders, []
        for sender, signed in replay:
            self._on_order(sender, signed)

    # ==================================================================
    # Catch-up (IN5's "f+1 agreeing order messages")
    # ==================================================================
    def _request_catchup_if_needed(self, start: Start) -> None:
        if not start.new_backlog:
            return
        first_batch: OrderBatch = start.new_backlog[0].body
        missing_up_to = first_batch.first_seq - 1
        if self._exec_next > missing_up_to:
            return
        span = (self._exec_next, missing_up_to)
        if span in self._catchup_requested:
            return
        self._catchup_requested.add(span)
        self.trace("catchup_requested", first=span[0], last=span[1])
        self.multicast_payload(
            self.others, CatchUpRequest(self.name, span[0], span[1])
        )

    def _on_catchup_request(self, sender: str, request: CatchUpRequest) -> None:
        orders = self.log.committed_between(request.first_seq, request.last_seq)
        if orders:
            self.send_payload(sender, CatchUpReply(self.name, orders))

    def _on_catchup_reply(self, sender: str, reply: CatchUpReply) -> None:
        if sender != reply.replier:
            return
        for signed in reply.orders:
            batch = signed.body
            if not isinstance(batch, OrderBatch):
                continue
            slot = self.log.slots.get(batch.first_seq)
            if slot is not None and slot.committed:
                continue
            is_install = batch.entries and batch.entries[0].client == INSTALL_CLIENT
            if not is_install:
                expected = self._order_signers(batch)
                if expected is None or not self.check_signed(signed, expected):
                    continue
            key = encode_canonical(
                (batch.rank, [(e.seq, e.req_digest) for e in batch.entries])
            )
            bucket = self._catchup.setdefault(batch.first_seq, {})
            if key in bucket:
                bucket[key][1].add(sender)
            else:
                bucket[key] = (signed, {sender})
            agreeing = bucket[key][1]
            if len(agreeing) >= self.config.f + 1 or (
                not is_install and self.check_signed(signed)
            ):
                self.log.force_commit(signed, self.sim.now)
                self.trace(
                    "catchup_committed",
                    first_seq=batch.first_seq,
                    last_seq=batch.last_seq,
                )
                self.next_expected = max(self.next_expected, batch.last_seq + 1)
        self._execute_ready()

    # ==================================================================
    # Pair forwarding and heartbeats
    # ==================================================================
    def _on_pair_forward(self, sender: str, forward: PairForward) -> None:
        if sender != self.counterpart:
            return
        # Cross-check: the cost was charged in receive_service; value
        # checking of forwarded copies happens implicitly because the
        # counterpart receives its own copies directly (clients and
        # multicasts address all processes).
        if isinstance(forward.payload, ClientRequest):
            self.note_request(forward.payload)
            if forward.payload.key not in self.pending:
                return  # executed and released: nothing is owed for it
            if self.is_coordinating_shadow:
                self.watch.note_request(forward.payload.key)
                self._retry_deferred()
            if (
                self.is_coordinating_replica
                and forward.payload.key not in self.ordered_keys
            ):
                if forward.payload.key not in {r.key for r in self.unordered}:
                    self.unordered.append(forward.payload)

    def _arm_heartbeat(self) -> None:
        if self._heartbeat_armed or not self.paired:
            return
        self._heartbeat_armed = True
        self.set_timer(self.config.heartbeat_interval, self._heartbeat_tick)

    def is_urgent(self, payload: Any) -> bool:
        return isinstance(payload, _URGENT_TYPES)

    def _heartbeat_tick(self) -> None:
        self._heartbeat_armed = False
        if self.pair_down or self.crashed:
            return
        self.send_urgent(
            self.counterpart, Heartbeat(self.name, nonce=int(self.sim.now * 1e6))
        )
        silent_for = self.sim.now - self.last_heard_from_counterpart
        if silent_for > self._silence_threshold():
            self._timing_suspicion(f"counterpart silent for {silent_for:.3f}s")
            if self.pair_down:
                return
        self._arm_heartbeat()

    def _silence_threshold(self) -> float:
        return (
            self.config.heartbeat_interval
            + self.config.pair_delay_estimate
            + self._processing_margin
        )
