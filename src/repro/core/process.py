"""Shared plumbing and the shared replication pipeline of every order
process (SC, SCR, and the baselines).

:class:`OrderProcessBase` wires an actor to the network with the cost
accounting conventions used throughout the reproduction:

* **receive**: the network charges ``unmarshal + handling +
  verification`` (from :meth:`receive_service`) to the node CPU before
  the handler runs;
* **sign**: handlers charge signing/digesting when they create signed
  messages (:meth:`make_signed` / :meth:`make_countersigned`);
* **send**: :meth:`send_payload` / :meth:`multicast_payload` charge
  marshalling plus a per-destination cost, and the message departs when
  that CPU work completes.

Fault plans (:mod:`repro.failures`) are consulted here for crash
behaviour; richer Byzantine hooks are consulted by the protocol
subclasses at their decision points.

It also owns the steady-state **pipeline** — request intake → batch
formation → (protocol-specific agreement) → in-order execution → client
replies → checkpoint-driven truncation.  The paper attributes the
latency gap between SC, CT and BFT to crypto cost and message rounds,
so everything that is neither runs as the *same code* under all three.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Iterable, Iterator

from repro.calibration import CalibrationProfile
from repro.core.batching import Batcher
from repro.core.checkpoint import Checkpoint, CheckpointTracker
from repro.core.config import ProtocolConfig
from repro.core.log import OrderLog
from repro.core.messages import (
    OrderBatch,
    OrderEntry,
    SignedMessage,
    countersign,
    payload_size,
    sign_message,
    verify_signed,
)
from repro.core.replies import Reply, result_digest
from repro.core.requests import ClientRequest
from repro.core.service import ReplicatedStateMachine
from repro.crypto.costs import OpCosts
from repro.crypto.digests import digest
from repro.crypto.signed import signing_cache_size
from repro.crypto.signing import SignatureProvider
from repro.failures.faults import FaultPlan
from repro.net.addresses import base_index
from repro.net.network import Network
from repro.sim.kernel import Simulator
from repro.sim.process import Actor

#: Client-name marker of the pseudo order entry that carries a Start.
INSTALL_CLIENT = "__install__"


class OrderProcessBase(Actor):
    """An order process attached to the simulated network.

    Subclasses get the whole pipeline and supply only what the paper
    says differs between protocols: the "pipeline hooks" below, a
    :meth:`handle` that routes client requests to :meth:`_on_request`,
    and a call to :meth:`_execute_ready` whenever agreement commits.
    ``names`` is the whole order-process group, this process included.
    """

    #: Prefix an equivocating coordinator salts its twin's digests with.
    EQUIVOCATION_SALT = b"equivocate"

    def __init__(
        self,
        sim: Simulator,
        name: str,
        network: Network,
        config: ProtocolConfig,
        provider: SignatureProvider,
        calibration: CalibrationProfile,
        names: tuple[str, ...],
    ) -> None:
        super().__init__(sim, name)
        self.network = network
        self.config = config
        self.provider = provider
        self.cal = calibration
        self.index = base_index(name)
        self.others = tuple(n for n in names if n != name)
        self.cost: OpCosts = calibration.crypto.for_scheme(provider.scheme)
        self.cpu.overload_gamma = calibration.overload_gamma
        self.fault = FaultPlan(active_from=float("inf"))
        # Requests known to this process (clients send to all nodes).
        self.pending: dict[tuple[str, int], ClientRequest] = {}
        # With checkpoints on, a stable checkpoint drops executed
        # requests from the pool and this record keeps them executed
        # *once*: per client, every id <= floor has executed, plus the
        # ids above it that have (see ``has_executed``).
        self._pruning = config.checkpoint_interval > 0
        self._executed_batches: deque[OrderBatch] = deque()  # not yet stable
        self._executed_floor: dict[str, int] = {}
        self._executed_above: dict[str, set[int]] = {}
        # True once the process has been turned "dumb" (Section 4.3):
        # it keeps executing but no longer transmits.
        self.dumb = False
        # --- pipeline state -------------------------------------------
        self.machine = ReplicatedStateMachine(name)
        self._exec_next = 1  # next first_seq to execute
        self.unordered: list[ClientRequest] = []
        self.ordered_keys: set[tuple[str, int]] = set()
        self.next_assign_seq = 1
        self.batch_counter = 0
        self._batch_timer_armed = False
        self.checkpoints = CheckpointTracker(config.f)
        self._last_checkpoint_seq = 0
        # Timeout-driven coordinator suspicion: CT and BFT set the period
        # and define ``_liveness_tick``; SC's pairs check each other instead.
        self.liveness_period = 0.0
        self._liveness_armed = False
        network.attach(self)

    # ------------------------------------------------------------------
    # Fault state
    # ------------------------------------------------------------------
    @property
    def fault(self) -> FaultPlan:
        """The process's fault plan.

        A managed attribute so that assignment (the injector's
        ``process.fault = plan``) refreshes ``_fault_benign``: the base
        :class:`FaultPlan`'s hooks are all no-ops, so hot paths — every
        send and every receive consult the plan — may skip it entirely
        while the process is unfaulted, which is the common case for
        all but one process of a run.
        """
        return self._fault

    @fault.setter
    def fault(self, plan: FaultPlan) -> None:
        self._fault = plan
        self._fault_benign = type(plan) is FaultPlan

    @property
    def crashed(self) -> bool:
        """Whether the process's fault plan says it has crashed."""
        return not self._fault_benign and self._fault.is_crashed(self.sim.now)

    # ------------------------------------------------------------------
    # Signing helpers (charge CPU at creation time)
    # ------------------------------------------------------------------
    def make_signed(self, body: Any) -> SignedMessage:
        """Sign ``body`` as this process, charging sign + digest cost."""
        size = payload_size(body)
        cost = self.cost.sign + self.cost.digest_cost(size)
        self.charge(cost)
        trace = self.sim.trace
        if trace.wants("crypto_op"):
            trace.emit(self.sim.now, "crypto_op", actor=self.name, op="sign",
                       msg=type(body).__name__, cost=cost)
        return sign_message(self.provider, self.name, body)

    def make_countersigned(self, message: SignedMessage) -> SignedMessage:
        """Add this process's endorsement signature."""
        size = payload_size(message.body)
        cost = self.cost.sign + self.cost.digest_cost(size)
        self.charge(cost)
        trace = self.sim.trace
        if trace.wants("crypto_op"):
            trace.emit(self.sim.now, "crypto_op", actor=self.name, op="sign",
                       msg=type(message.body).__name__, cost=cost)
        return countersign(self.provider, self.name, message)

    def check_signed(
        self, message: SignedMessage, expected_signers: tuple[str, ...] | None = None
    ) -> bool:
        """Logical signature verification (its CPU cost was charged by
        :meth:`receive_service` when the message arrived)."""
        return verify_signed(self.provider, message, expected_signers)

    def verify_cost(self, n_signatures: int, size_bytes: int) -> float:
        """CPU seconds to verify ``n_signatures`` over a body of
        ``size_bytes`` (one digest computation, n public-key ops)."""
        if n_signatures <= 0:
            return 0.0
        return n_signatures * self.cost.verify + self.cost.digest_cost(size_bytes)

    # ------------------------------------------------------------------
    # Transmission helpers
    # ------------------------------------------------------------------
    def _censors_send(self, payload: Any, dest: str) -> bool:
        """Whether the (non-benign) fault plan suppresses this send."""
        now = self.sim.now
        return self._fault.is_crashed(now) or self._fault.drops_message(now, payload, dest)

    def send_payload(self, dest: str, payload: Any) -> None:
        """Unicast with marshalling cost; silently dropped when the
        process is dumb/crashed or its fault plan censors the send."""
        if self.dumb or (not self._fault_benign and self._censors_send(payload, dest)):
            return
        size = payload_size(payload)
        depart = self.cpu.submit(self.cal.marshal_cost(size) + self.cal.send_per_dest)
        self.network.send(self.name, dest, payload, size, depart_time=depart)

    def send_pair(self, dest: str, payload: Any) -> None:
        """Unicast over the pair link (adds the RMI call overhead)."""
        if self.dumb or (not self._fault_benign and self._censors_send(payload, dest)):
            return
        size = payload_size(payload)
        depart = self.cpu.submit(
            self.cal.marshal_cost(size) + self.cal.pair_call_overhead
        )
        self.network.send(self.name, dest, payload, size, depart_time=depart)

    def send_urgent(self, dest: str, payload: Any) -> None:
        """Interrupt-level unicast: departs immediately, bypassing the
        CPU queue.  Used for heartbeat-class keepalives whose entire
        purpose is to stay timely while the node crunches."""
        if self.dumb or (not self._fault_benign and self._censors_send(payload, dest)):
            return
        self.network.send(self.name, dest, payload, payload_size(payload))

    def multicast_payload(self, dests: Iterable[str], payload: Any) -> None:
        """Marshal once, then send to every destination."""
        if self.dumb:
            return
        name = self.name
        if self._fault_benign:
            targets = [dest for dest in dests if dest != name]
        else:
            if self.crashed:
                return
            now = self.sim.now
            targets = [
                dest
                for dest in dests
                if dest != name and not self._fault.drops_message(now, payload, dest)
            ]
        if not targets:
            return
        size = payload_size(payload)
        depart = self.cpu.submit(
            self.cal.marshal_cost(size) + self.cal.send_per_dest * len(targets)
        )
        for dest in targets:
            self.network.send(name, dest, payload, size, depart_time=depart)

    # ------------------------------------------------------------------
    # Reception
    # ------------------------------------------------------------------
    def receive_service(self, payload: Any, size_bytes: int) -> float:
        """Unmarshal + handling + type-specific verification cost."""
        if not self._fault_benign and self._fault.is_crashed(self.sim.now):
            return 0.0
        cal = self.cal
        if type(payload) is ClientRequest:
            # The dominant message class (clients multicast to every
            # process): never urgent, never verified — every protocol's
            # verification_service returns 0.0 for it, so the two
            # dispatch hops are skipped.  Cost: unmarshal_base +
            # unmarshal_per_kb * KB, plus handle_base.
            return (
                cal.unmarshal_base
                + cal.unmarshal_per_kb * (size_bytes / 1024.0)
                + cal.handle_base
            )
        if self.is_urgent(payload):
            return 0.0  # interrupt-level: never queues behind work
        base = (
            cal.unmarshal_base
            + cal.unmarshal_per_kb * (size_bytes / 1024.0)
            + cal.handle_base
        )
        verify = self.verification_service(payload, size_bytes)
        if verify > 0.0:
            trace = self.sim.trace
            if trace.wants("crypto_op"):
                body = getattr(payload, "body", payload)
                trace.emit(self.sim.now, "crypto_op", actor=self.name, op="verify",
                           msg=type(body).__name__, cost=verify)
        return base + verify

    def is_urgent(self, payload: Any) -> bool:
        """Heartbeat-class messages handled at interrupt level;
        subclasses widen this for their own keepalive types."""
        return False

    def verification_service(self, payload: Any, size_bytes: int) -> float:
        """Protocol-specific verification cost; subclasses override."""
        return 0.0

    def on_message(self, sender: str, payload: Any) -> None:
        if self._fault_benign or not self._fault.is_crashed(self.sim.now):
            self.handle(sender, payload)

    def handle(self, sender: str, payload: Any) -> None:
        """Protocol logic; subclasses override."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Request pool
    # ------------------------------------------------------------------
    def note_request(self, request: ClientRequest) -> bool:
        """Record a client request; False if it was already known, or
        has executed (a late copy is neither pooled nor ordered again)."""
        key = request.key
        if key in self.pending or (self._pruning and self.has_executed(*key)):
            return False
        self.pending[key] = request
        return True

    def has_executed(self, client: str, req_id: int) -> bool:
        """Whether the exactly-once record covers this request.  The
        record is O(outstanding window) for a client whose ids are
        contiguous and one int per executed request for sparse ids
        (population traffic numbers requests pool-wide); a tighter
        bound for that traffic is out of scope."""
        return req_id <= self._executed_floor.get(client, 0) or req_id in (
            self._executed_above.get(client, ())
        )

    def _record_executed(self, client: str, req_id: int) -> None:
        floor = self._executed_floor.get(client, 0)
        if req_id != floor + 1:
            if req_id > floor:
                self._executed_above.setdefault(client, set()).add(req_id)
            return
        above = self._executed_above.get(client)
        if above:  # the floor rises through whatever executed ahead of it
            while req_id + 1 in above:
                req_id += 1
                above.remove(req_id)
            if not above:
                del self._executed_above[client]
        self._executed_floor[client] = req_id

    def _forget_requests(self, keys: list[tuple[str, int]]) -> None:
        """Drop executed requests from every per-request table."""
        for key in keys:
            self.pending.pop(key, None)
        self.ordered_keys.difference_update(keys)

    def retained_state(self) -> dict[str, int]:
        """What this process still holds per batch and per request (the
        live node report's ``state`` block): bounded by the checkpoint
        window, whatever the run length."""
        return {
            "log_slots": sum(1 for _ in self._sequenced_batches()),
            "pooled_requests": len(self.pending),
            "executed_record": len(self._executed_floor)
            + sum(map(len, self._executed_above.values())),
            "signing_cache": signing_cache_size(),
            "stable_seq": self.checkpoints.stable_seq,
        }

    # ------------------------------------------------------------------
    # Pipeline hooks (what differs between protocols)
    # ------------------------------------------------------------------
    @property
    def is_ordering(self) -> bool:
        """Whether this process assigns sequence numbers right now."""
        raise NotImplementedError

    @property
    def order_rank(self) -> int:
        """The coordinator rank / view new batches are formed under."""
        raise NotImplementedError

    def _disseminate(self, batch: OrderBatch) -> None:
        """Start agreement on a freshly formed batch."""
        raise NotImplementedError

    def _committed_batch(self, first_seq: int) -> OrderBatch | None:
        """The committed batch starting at ``first_seq``, if any."""
        raise NotImplementedError

    def _sequenced_batches(self) -> Iterator[OrderBatch]:
        """Every batch this process has seen sequenced, committed or not."""
        raise NotImplementedError

    def _collect_garbage(self, stable_seq: int) -> int:
        """Discard agreement state a stable checkpoint at ``stable_seq``
        covers; returns how many batches were dropped."""
        raise NotImplementedError

    def _wrap_checkpoint(self, claim: Checkpoint) -> SignedMessage:
        """The wire form of this process's own checkpoint claim."""
        return self.make_signed(claim)

    # ------------------------------------------------------------------
    # Pipeline: intake and batch formation (the ordering process)
    # ------------------------------------------------------------------
    def _on_request(self, sender: str, request: ClientRequest) -> bool:
        """Pool a client request; False if it was already known."""
        if not self.note_request(request):
            return False
        if self.is_ordering and request.key not in self.ordered_keys:
            self.unordered.append(request)
        return True

    def _arm_batch_timer(self) -> None:
        if self._batch_timer_armed:
            return
        self._batch_timer_armed = True
        self.set_timer(self.config.batching_interval, self._batch_tick)

    def _arm_liveness_timer(self) -> None:
        if self._liveness_armed:
            return
        self._liveness_armed = True
        self.set_timer(self.liveness_period, self._liveness_tick)

    def _batch_tick(self) -> None:
        self._batch_timer_armed = False
        if not self.is_ordering or self.crashed:
            return
        self._emit_queue_depth()
        if self.unordered and not self.fault.withholds_orders(self.sim.now):
            self._propose_next_batch()
        self._arm_batch_timer()

    def _emit_queue_depth(self) -> None:
        trace = self.sim.trace
        if trace.wants("queue_depth"):
            trace.emit(self.sim.now, "queue_depth", actor=self.name,
                       depth=len(self.unordered))

    def _propose_next_batch(self) -> None:
        """Cut the next batch from ``unordered`` and disseminate it."""
        batcher = Batcher(self.config.batch_size_bytes)
        requests = batcher.take(self.unordered)
        del self.unordered[: len(requests)]
        self.batch_counter += 1
        batch = batcher.make_batch(
            rank=self.order_rank,
            batch_id=self.batch_counter,
            first_seq=self.next_assign_seq,
            requests=requests,
            digest_name=self.config.scheme.digest,
        )
        self.next_assign_seq = batch.last_seq + 1
        for request in requests:
            self.ordered_keys.add(request.key)
        self.trace(
            "batch_formed",
            batch_id=batch.batch_id,
            rank=batch.rank,
            first_seq=batch.first_seq,
            n_requests=len(batch.entries),
        )
        trace = self.sim.trace
        if trace.wants("batch_requests"):
            trace.emit(
                self.sim.now, "batch_requests", actor=self.name,
                rank=batch.rank, batch_id=batch.batch_id,
                keys=tuple((entry.client, entry.req_id) for entry in batch.entries),
            )
        self._disseminate(batch)

    def _apply_order_faults(self, batch: OrderBatch) -> OrderBatch:
        """A Byzantine coordinator's value-domain fault: the batch with
        whatever digests its fault plan corrupts.  Called by the
        protocols that model such coordinators (not by CT)."""
        mutated = tuple(
            OrderEntry(
                seq=entry.seq,
                req_digest=self.fault.mutate_order_digest(self.sim.now, entry.req_digest),
                client=entry.client,
                req_id=entry.req_id,
            )
            for entry in batch.entries
        )
        if mutated == batch.entries:
            return batch
        return OrderBatch(rank=batch.rank, batch_id=batch.batch_id, entries=mutated)

    def _equivocating_twin(self, batch: OrderBatch) -> OrderBatch:
        """A conflicting batch for the same sequence numbers."""
        entries = tuple(
            OrderEntry(
                seq=entry.seq,
                req_digest=digest(
                    self.config.scheme.digest, self.EQUIVOCATION_SALT + entry.req_digest
                ),
                client=entry.client,
                req_id=entry.req_id,
            )
            for entry in batch.entries
        )
        return OrderBatch(rank=batch.rank, batch_id=-batch.batch_id, entries=entries)

    def _rebuild_unordered(self) -> None:
        """A new coordinator re-queues every known request that is not
        already covered by a committed or live order."""
        sequenced = {
            (entry.client, entry.req_id)
            for batch in self._sequenced_batches()
            for entry in batch.entries
        }
        self.unordered = [
            request
            for key, request in sorted(self.pending.items())
            if key not in sequenced
        ]
        self.ordered_keys = sequenced | {r.key for r in self.unordered}

    # ------------------------------------------------------------------
    # Pipeline: execution, replies, checkpoints (every process)
    # ------------------------------------------------------------------
    def _execute_ready(self) -> None:
        """Apply committed batches in sequence order, as far as they go."""
        while (batch := self._committed_batch(self._exec_next)) is not None:
            for entry in batch.entries:
                self.machine.apply(entry)
            self._exec_next = batch.last_seq + 1
            if self.config.send_replies:
                self._send_replies(batch)
            if self._pruning:
                for entry in batch.entries:
                    self._record_executed(entry.client, entry.req_id)
                self._executed_batches.append(batch)
                self._maybe_emit_checkpoint()

    def _send_replies(self, batch: OrderBatch) -> None:
        for entry in batch.entries:
            if entry.client == INSTALL_CLIENT or not self.network.has_actor(entry.client):
                continue
            self.send_payload(
                entry.client,
                Reply(
                    replier=self.name,
                    client=entry.client,
                    req_id=entry.req_id,
                    seq=entry.seq,
                    result_digest=result_digest(entry),
                ),
            )

    def _maybe_emit_checkpoint(self) -> None:
        """Log truncation at ``f + 1`` matching state digests.  Asked
        after every executed batch (checkpointing runs only), so the
        claimed seq depends on the batch sequence alone and processes
        that execute the same batches claim the same points."""
        applied = self.machine.applied_seq
        if applied - self._last_checkpoint_seq < self.config.checkpoint_interval:
            return
        self._last_checkpoint_seq = applied
        claim = Checkpoint(
            process=self.name, seq=applied, state_digest=self.machine.state_digest()
        )
        wrapped = self._wrap_checkpoint(claim)
        self._note_checkpoint(claim)
        self.multicast_payload(self.others, wrapped)

    def _on_checkpoint(self, sender: str, signed: SignedMessage) -> None:
        claim: Checkpoint = signed.body
        if sender != claim.process or not self.check_signed(signed, (claim.process,)):
            return
        self._note_checkpoint(claim)

    def _note_checkpoint(self, claim: Checkpoint) -> None:
        if self.checkpoints.note(claim):
            stable = self.checkpoints.stable_seq
            # Release everything a stable batch pins, not just its slot.
            done = self._executed_batches
            keys: list[tuple[str, int]] = []
            while done and done[0].last_seq <= stable:
                keys += [(e.client, e.req_id) for e in done.popleft().entries]
            self._forget_requests(keys)
            dropped = self._collect_garbage(stable)
            self.trace("checkpoint_stable", seq=stable, dropped=dropped)


class OrderLogProcess(OrderProcessBase):
    """An order process that commits through an :class:`OrderLog`: an
    in-sequence order is acked (N1) and commits on ack-or-order evidence
    from ``quorum`` distinct processes (N2, N3).  SC and CT share this
    rule; they differ in :meth:`_ack_order` (what an ack carries)."""

    def __init__(self, *args: Any, quorum: int) -> None:
        super().__init__(*args)
        self.c = 1  # rank of the current coordinator
        self.log = OrderLog(quorum)
        self.next_expected = 1  # next first_seq this process may ack
        self.parked: dict[int, SignedMessage] = {}

    @property
    def order_rank(self) -> int:
        return self.c

    def _ack_order(self, signed: SignedMessage) -> None:
        """N1: adopt the order, multicast this process's ack."""
        raise NotImplementedError

    def _process_order(self, signed: SignedMessage) -> None:
        """N1 for an authenticated order: ack if in-sequence."""
        batch: OrderBatch = signed.body
        if batch.first_seq > self.next_expected:
            self.parked.setdefault(batch.first_seq, signed)
            return
        if batch.first_seq < self.next_expected:
            slot = self.log.slots.get(batch.first_seq)
            if (slot is not None and slot.acked) or self._released(batch):
                return  # duplicate
        self._ack_order(signed)
        # Drain any parked successors.
        while self.next_expected in self.parked:
            self._ack_order(self.parked.pop(self.next_expected))

    def _released(self, batch: OrderBatch) -> bool:
        """Executed here and truncated since: late orders and acks for
        it must not bring the slot back (to be acked and committed again)."""
        return batch.last_seq < self._exec_next and batch.first_seq not in self.log.slots

    def _maybe_commit(self, first_seq: int) -> None:
        slot = self.log.slots.get(first_seq)
        if slot is None or slot.committed or slot.order is None:
            return
        if not self.log.quorum_reached(slot):
            return
        batch: OrderBatch = slot.order.body
        self.log.commit(slot, self.sim.now)
        if batch.entries and batch.entries[0].client == INSTALL_CLIENT:
            self.trace("install_committed", rank=batch.rank, start_seq=batch.first_seq)
        else:
            self.trace(
                "order_committed",
                batch_id=batch.batch_id,
                rank=batch.rank,
                first_seq=batch.first_seq,
                n_requests=len(batch.entries),
            )
        self._execute_ready()

    def _committed_batch(self, first_seq: int) -> OrderBatch | None:
        slot = self.log.slots.get(first_seq)
        if slot is None or not slot.committed or slot.order is None:
            return None
        return slot.order.body

    def _sequenced_batches(self) -> Iterator[OrderBatch]:
        return (
            slot.order.body for slot in self.log.slots.values() if slot.order is not None
        )

    def _collect_garbage(self, stable_seq: int) -> int:
        return self.log.truncate_below(stable_seq)
