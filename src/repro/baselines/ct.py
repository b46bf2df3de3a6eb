"""CT: the crash-tolerant baseline (Section 5).

"CT is simply derived from SC, with no process being paired and no
cryptographic techniques used.  Specifically, the shadow processes are
excluded from the system (hence n = 2f+1), the coordinator process
directly sends its order message to all other processes, and an order
message is committed in the same way as SC."

So the phases are: **1 → n** (coordinator to all) and **n → n** (acks),
with commit at ``n − f`` distinct ack-or-order evidence.  The paper
uses CT to show how much switching from crash to Byzantine fault
tolerance costs BFT and SC; its steady-state latency (~10 ms on the
2006 testbed) anchors the calibration.

Crash fail-over (not measured by the paper but needed for a usable
library): processes detect coordinator silence with a simple timeout
and deterministically move to the next replica in index order,
exchanging the same BackLog/Start shapes as SC — minus all signatures.
"""

from __future__ import annotations

from typing import Any

from repro.calibration import CalibrationProfile
from repro.core.checkpoint import Checkpoint
from repro.core.config import ProtocolConfig
from repro.core.install import BacklogView, compute_new_backlog
from repro.core.messages import (
    Ack,
    BackLog,
    OrderBatch,
    SignedMessage,
    Start,
)
from repro.core.process import INSTALL_CLIENT, OrderLogProcess
from repro.core.requests import ClientRequest
from repro.core.sc import make_install_batch
from repro.crypto.signing import SignatureProvider
from repro.net.addresses import replica_name
from repro.net.network import Network
from repro.sim.kernel import Simulator


def _plain(body: Any) -> SignedMessage:
    """CT carries no signatures; wrap bodies in an empty chain so the
    shared message/log machinery applies unchanged."""
    return SignedMessage(body=body, signatures=())


class CtProcess(OrderLogProcess):
    """One order process of the crash-tolerant baseline."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        network: Network,
        config: ProtocolConfig,
        provider: SignatureProvider,
        calibration: CalibrationProfile,
    ) -> None:
        super().__init__(
            sim, name, network, config, provider, calibration,
            config.replica_names, quorum=config.replica_count - config.f,
        )
        self.n = config.replica_count
        self.quorum = self.log.quorum
        self.sequenced_keys: set[tuple[str, int]] = set()
        # fail-over state
        self.installing = False
        self.install_target: int | None = None
        self.backlogs: dict[str, SignedMessage] = {}
        self._start_done: set[int] = set()
        self.last_heard_from_coordinator = 0.0
        self.liveness_period = 10 * config.batching_interval  # the crash timeout

    # ------------------------------------------------------------------
    @property
    def coordinator(self) -> str:
        return replica_name(self.c)

    @property
    def is_ordering(self) -> bool:
        return self.index == self.c and not self.installing

    def start(self) -> None:
        self.last_heard_from_coordinator = self.sim.now
        if self.is_ordering:
            self._arm_batch_timer()
        else:
            self._arm_liveness_timer()

    # ------------------------------------------------------------------
    # Costs: no crypto; just marshalling and handling
    # ------------------------------------------------------------------
    def verification_service(self, payload: Any, size_bytes: int) -> float:
        return 0.0

    # ------------------------------------------------------------------
    def handle(self, sender: str, payload: Any) -> None:
        if sender == self.coordinator:
            self.last_heard_from_coordinator = self.sim.now
        if isinstance(payload, ClientRequest):
            self._on_request(sender, payload)
        elif isinstance(payload, SignedMessage):
            body = payload.body
            if isinstance(body, OrderBatch):
                self._on_order(sender, payload)
            elif isinstance(body, Ack):
                self._on_ack(sender, payload)
            elif isinstance(body, BackLog):
                self._on_backlog(sender, payload)
            elif isinstance(body, Start):
                self._on_start(sender, payload)
            elif isinstance(body, Checkpoint):
                if sender == body.process:
                    self._note_checkpoint(body)

    # ------------------------------------------------------------------
    # Coordinator: batch and disseminate (1 -> n)
    # ------------------------------------------------------------------
    def _disseminate(self, batch: OrderBatch) -> None:
        """1 → n: the bare order goes straight to every process."""
        order = _plain(batch)
        self.multicast_payload(self.others, order)
        self._process_order(order)

    # ------------------------------------------------------------------
    # Normal part (same commit rule as SC)
    # ------------------------------------------------------------------
    def _on_order(self, sender: str, signed: SignedMessage) -> None:
        batch: OrderBatch = signed.body
        if batch.entries and batch.entries[0].client == INSTALL_CLIENT:
            return
        if batch.rank != self.c or self.installing:
            return
        if sender != self.coordinator:
            return
        self._process_order(signed)

    def _ack_order(self, signed: SignedMessage) -> None:
        batch: OrderBatch = signed.body
        slot = self.log.note_order(signed)
        if slot.acked:
            return
        slot.acked = True
        for entry in batch.entries:
            self.sequenced_keys.add((entry.client, entry.req_id))
        self.next_expected = max(self.next_expected, batch.last_seq + 1)
        # The coordinator's own order message already stands as its
        # contribution; every process adds its ack.
        slot.support.add(self.coordinator)
        ack = _plain(Ack(acker=self.name, order=signed))
        self.log.note_ack(self.name, signed, ack)
        self.multicast_payload(self.others, ack)
        self._maybe_commit(batch.first_seq)

    def _on_ack(self, sender: str, signed_ack: SignedMessage) -> None:
        ack: Ack = signed_ack.body
        if sender != ack.acker:
            return
        body = ack.order.body
        if not isinstance(body, OrderBatch) or self._released(body):
            return
        slot = self.log.slots.get(body.first_seq)
        if (slot is None or slot.order is None) and body.rank == self.c:
            if not self.installing:
                if body.entries and body.entries[0].client == INSTALL_CLIENT:
                    pass
                else:
                    self._process_order(ack.order)
        self.log.note_ack(ack.acker, ack.order, signed_ack)
        self._maybe_commit(body.first_seq)

    def _wrap_checkpoint(self, claim: Checkpoint) -> SignedMessage:
        return _plain(claim)

    # ------------------------------------------------------------------
    # Crash fail-over (timeout-driven; CT tolerates crashes only)
    # ------------------------------------------------------------------
    def _liveness_tick(self) -> None:
        self._liveness_armed = False
        if self.crashed or self.is_ordering:
            return
        silent = self.sim.now - self.last_heard_from_coordinator
        if not self.installing and silent > self.liveness_period and self.unassigned_work():
            self._begin_install()
        self._arm_liveness_timer()

    def _forget_requests(self, keys: list[tuple[str, int]]) -> None:
        super()._forget_requests(keys)
        self.sequenced_keys.difference_update(keys)

    def unassigned_work(self) -> bool:
        """Only suspect a silent coordinator when work is pending:
        a known request that no order we have seen covers, or an order
        stuck short of its commit quorum."""
        return any(key not in self.sequenced_keys for key in self.pending) or bool(
            self.log.uncommitted_orders()
        )

    def _begin_install(self) -> None:
        self.installing = True
        target = self.c + 1
        if target > self.n:
            return
        self.install_target = target
        self.trace("install_started", target=target)
        backlog = BackLog(
            sender=self.name,
            new_rank=target,
            fail_signal=_plain(None),
            max_committed=self.log.max_committed_proof(),
            uncommitted=self.log.uncommitted_orders(),
        )
        signed = _plain(backlog)
        if self.index == target:
            self.backlogs[self.name] = signed
            self._maybe_start()
        self.multicast_payload(self.others, signed)

    def _on_backlog(self, sender: str, signed: SignedMessage) -> None:
        backlog: BackLog = signed.body
        if sender != backlog.sender:
            return
        if backlog.new_rank <= self.c:
            return  # stale: that installation already completed here
        if not self.installing:
            # A peer started fail-over; join it.
            self.installing = True
            self.install_target = backlog.new_rank
            self._begin_install_join(backlog.new_rank)
        if backlog.new_rank == self.install_target:
            self.backlogs[backlog.sender] = signed
            if self.index == backlog.new_rank:
                self._maybe_start()

    def _begin_install_join(self, target: int) -> None:
        backlog = BackLog(
            sender=self.name,
            new_rank=target,
            fail_signal=_plain(None),
            max_committed=self.log.max_committed_proof(),
            uncommitted=self.log.uncommitted_orders(),
        )
        signed = _plain(backlog)
        if self.index == target:
            self.backlogs[self.name] = signed
        self.multicast_payload(self.others, signed)

    def _maybe_start(self) -> None:
        target = self.install_target
        if target is None or target in self._start_done or self.index != target:
            return
        if len(self.backlogs) < self.quorum:
            return
        self._start_done.add(target)
        views = [
            BacklogView(
                sender=s.body.sender,
                max_committed=s.body.max_committed,
                uncommitted=s.body.uncommitted,
            )
            for s in self.backlogs.values()
        ][: self.quorum]
        result = compute_new_backlog(views, self.config.f)
        new_backlog = result.new_backlog
        if result.base_proof is not None:
            new_backlog = (result.base_proof.order, *new_backlog)
        start = Start(new_rank=target, start_seq=result.start_seq, new_backlog=new_backlog)
        signed = _plain(start)
        self.trace("failover_complete", target=target, start_seq=start.start_seq)
        self.multicast_payload(self.others, signed)
        self._adopt_start(signed)

    def _on_start(self, sender: str, signed: SignedMessage) -> None:
        start: Start = signed.body
        if sender != replica_name(start.new_rank) or start.new_rank <= self.c:
            return
        self._adopt_start(signed)

    def _adopt_start(self, signed: SignedMessage) -> None:
        start: Start = signed.body
        self.c = start.new_rank
        self.installing = False
        self.install_target = None
        self.backlogs = {}
        self.trace("coordinator_installed", rank=self.c, start_seq=start.start_seq)
        self.log.drop_uncommitted_from(start.start_seq)
        self.next_expected = min(self.next_expected, start.start_seq)
        for signed_order in start.new_backlog:
            self.log.force_commit(signed_order, self.sim.now)
        pseudo = make_install_batch(signed, self.config.scheme.digest)
        pseudo_signed = SignedMessage(body=pseudo, signatures=())
        self.next_expected = max(self.next_expected, start.start_seq)
        self._process_order(pseudo_signed)
        self._execute_ready()
        if self.is_ordering:
            self.next_assign_seq = start.start_seq + 1
            self._rebuild_unordered()
            self._arm_batch_timer()
        self.last_heard_from_coordinator = self.sim.now
        self._arm_liveness_timer()
