"""Arms fault plans on processes and delay surges on links.

Besides the direct object API (:meth:`FaultInjector.inject` /
:meth:`FaultInjector.surge_link`), the injector understands the
*declarative* form scenario specs use: a fault kind name, a target
("coordinator" resolves through the protocol plugin registry, plain
names address processes, ``"pair:<rank>"`` addresses a pair link) and
an activation time.  ``hold_acks`` needs no target: it acts on the
whole network (:meth:`FaultInjector.hold_acks`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.core.messages import Ack, SignedMessage
from repro.errors import ConfigError
from repro.failures.faults import (
    CrashFault,
    DelaySurgeFault,
    EquivocationFault,
    FaultPlan,
    HoldAcksFault,
    MutateEndorsementFault,
    WithholdOrdersFault,
    WrongDigestFault,
)
from repro.net.delay import SurgeableDelay
from repro.net.message import Envelope
from repro.sim.kernel import Simulator

if TYPE_CHECKING:
    from repro.harness.cluster import Cluster

#: Declarative fault vocabulary (scenario specs name these kinds).
FAULT_KINDS: dict[str, type[FaultPlan]] = {
    "crash": CrashFault,
    "wrong_digest": WrongDigestFault,
    "withhold_orders": WithholdOrdersFault,
    "equivocate": EquivocationFault,
    "mutate_endorsement": MutateEndorsementFault,
    "delay_surge": DelaySurgeFault,
    "hold_acks": HoldAcksFault,
}


def fault_kinds() -> tuple[str, ...]:
    """The fault kind names scenario specs may use."""
    return tuple(FAULT_KINDS)


class FaultInjector:
    """Schedules faults into a running simulation.

    Process faults are attached directly (``process.fault = plan``);
    the process consults the plan's hooks.  Link faults require the
    link's delay model to be a :class:`SurgeableDelay`.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.injected: list[tuple[str, FaultPlan]] = []

    def inject(self, process: Any, plan: FaultPlan) -> None:
        """Attach ``plan`` to ``process`` (anything with a ``fault`` slot)."""
        if not hasattr(process, "fault"):
            raise ConfigError(f"{process!r} does not accept fault plans")
        process.fault = plan
        self.injected.append((getattr(process, "name", repr(process)), plan))
        self.sim.trace.emit(
            self.sim.now,
            "fault_injected",
            target=getattr(process, "name", "?"),
            fault=type(plan).__name__,
            active_from=plan.active_from,
        )

    def surge_link(self, link: SurgeableDelay, plan: DelaySurgeFault) -> None:
        """Schedule a delay surge on a (pair) link."""
        if plan.until <= plan.active_from:
            raise ConfigError("surge window is empty")
        link.add_surge(plan.active_from, plan.until, factor=plan.factor)
        self.sim.trace.emit(
            self.sim.now,
            "surge_injected",
            start=plan.active_from,
            end=plan.until,
            factor=plan.factor,
        )

    def hold_acks(self, cluster: "Cluster", plan: HoldAcksFault) -> None:
        """From ``plan.active_from``, hold every ``Ack`` on the network;
        release them all when the next fail-over completes.

        Acked-but-uncommitted orders pile up meanwhile, so the
        fail-over's BackLogs carry them (the Figure 6 x-axis).
        Releasing at the fail-signal instead would let the ack burst
        race the BackLog exchange, committing the very orders whose
        recovery Figure 6 measures.  The network stays reliable: every
        held ack is delivered, merely late — without a fail-over, never
        within the run.  A kind-scoped subscription fires whether or
        not any probe retains the record.
        """
        network = cluster.network
        self.sim.schedule_at(plan.active_from, network.hold_matching, _carries_ack)
        self.sim.trace.subscribe(
            lambda record: network.release_held(), kinds=("failover_complete",)
        )

    # ------------------------------------------------------------------
    # Declarative injection (scenario specs)
    # ------------------------------------------------------------------
    def inject_named(
        self,
        cluster: "Cluster",
        kind: str,
        target: str = "coordinator",
        at: float = 0.0,
        **params: Any,
    ) -> FaultPlan:
        """Build a fault plan from its kind name and arm it.

        ``target`` is a process name, ``"coordinator"`` (resolved to
        the cluster protocol's initial coordinator via the plugin
        registry), or ``"pair:<rank>"`` for a pair-link delay surge;
        ``hold_acks`` ignores it.  Extra ``params`` are forwarded to the
        plan constructor (e.g. ``until``/``factor`` for ``delay_surge``).
        """
        try:
            plan_cls = FAULT_KINDS[kind]
        except KeyError:
            raise ConfigError(
                f"unknown fault kind {kind!r}; known: {fault_kinds()}"
            ) from None
        try:
            plan = plan_cls(active_from=at, **params)
        except TypeError as exc:
            raise ConfigError(f"bad parameters for fault {kind!r}: {exc}") from None

        if isinstance(plan, DelaySurgeFault):
            self.surge_link(self._resolve_link(cluster, target), plan)
        elif isinstance(plan, HoldAcksFault):
            self.hold_acks(cluster, plan)
        else:
            self.inject(self._resolve_process(cluster, target), plan)
        return plan

    def _resolve_process(self, cluster: "Cluster", target: str) -> Any:
        name = cluster.coordinator_name if target == "coordinator" else target
        try:
            return cluster.process(name)
        except KeyError:
            raise ConfigError(
                f"fault target {target!r} names no process; deployed: "
                f"{cluster.process_names}"
            ) from None

    def _resolve_link(self, cluster: "Cluster", target: str) -> SurgeableDelay:
        if not target.startswith("pair:"):
            raise ConfigError(
                f"delay_surge targets a pair link, e.g. 'pair:1'; got {target!r}"
            )
        try:
            rank = int(target.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"bad pair-link target {target!r}") from None
        try:
            return cluster.pair_links[rank]
        except KeyError:
            raise ConfigError(
                f"no pair link with rank {rank}; protocol {cluster.protocol!r} "
                f"deploys links {tuple(cluster.pair_links)}"
            ) from None


def _carries_ack(envelope: Envelope) -> bool:
    return isinstance(envelope.payload, SignedMessage) and isinstance(
        envelope.payload.body, Ack
    )
