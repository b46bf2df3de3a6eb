"""Cluster builder: one call from protocol name to runnable deployment.

Wires together the simulator, network (with per-pair fast links), the
trusted dealer, the order processes of the chosen protocol, clients and
the fault injector — the simulated analogue of Figure 1's architecture.

Protocol-specific construction lives entirely in the plugins of
:mod:`repro.protocols`; this module only assembles the substrate and
asks the registered plugin to populate it, so any protocol registered
with :func:`repro.protocols.register` is buildable here by name.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import repro.protocols as protocols
from repro.calibration import CalibrationProfile, paper_testbed
from repro.core.config import ProtocolConfig
from repro.core.client import Client
from repro.crypto.dealer import TrustedDealer
from repro.crypto.signing import SignatureProvider
from repro.failures.injector import FaultInjector
from repro.net.addresses import client_name
from repro.net.delay import SurgeableDelay
from repro.net.network import Network
from repro.protocols import Deployment, OrderProtocol
from repro.sim.kernel import Simulator


@dataclass
class Cluster:
    """A fully wired simulated deployment."""

    protocol: str
    sim: Simulator
    network: Network
    config: ProtocolConfig
    calibration: CalibrationProfile
    provider: SignatureProvider
    processes: dict[str, object]
    clients: list[Client]
    injector: FaultInjector
    pair_links: dict[int, SurgeableDelay] = field(default_factory=dict)
    plugin: OrderProtocol | None = None

    def process(self, name: str):
        """Look up an order process by name."""
        return self.processes[name]

    @property
    def process_names(self) -> tuple[str, ...]:
        return tuple(self.processes)

    @property
    def coordinator_name(self) -> str:
        """The initial coordinator/primary, per the protocol plugin."""
        plugin = self.plugin if self.plugin is not None else protocols.get(self.protocol)
        return plugin.initial_coordinator(self.config)

    def start(self) -> None:
        """Arm every process's initial timers."""
        for process in self.processes.values():
            process.start()

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Advance the simulation."""
        self.sim.run(until=until, max_events=max_events)

    # ------------------------------------------------------------------
    # Cross-replica inspection helpers (used by tests and examples)
    # ------------------------------------------------------------------
    def committed_histories(self) -> dict[str, list[tuple[int, bytes]]]:
        """Execution history (seq, digest) per process."""
        return {
            name: list(proc.machine.history) for name, proc in self.processes.items()
        }

    def agreement_digests(self) -> dict[str, bytes]:
        """State digest per process — equal prefixes imply safety."""
        return {
            name: proc.machine.state_digest() for name, proc in self.processes.items()
        }


def order_process_names(protocol: str, config: ProtocolConfig) -> tuple[str, ...]:
    """The order-process names a protocol deploys."""
    return protocols.get(protocol).process_names(config)


def build_cluster(
    protocol: str = "sc",
    config: ProtocolConfig | None = None,
    calibration: CalibrationProfile | None = None,
    seed: int = 1,
    n_clients: int = 2,
    crypto_mode: str = "simulated",
    key_bits: int | None = None,
) -> Cluster:
    """Build a runnable deployment of the given protocol.

    ``protocol`` names any plugin registered in :mod:`repro.protocols`.
    ``crypto_mode="real"`` provisions actual RSA/DSA keys (use small
    ``key_bits`` to keep key generation fast in tests); the default
    simulated provider is unforgeable and fast, with operation *times*
    charged from the calibration profile either way.
    """
    plugin = protocols.get(protocol)
    if config is None:
        config = plugin.default_config()
    plugin.validate(config)
    calibration = calibration if calibration is not None else paper_testbed()

    sim = Simulator(seed=seed)
    network = Network(sim, default_link=calibration.lan_link())
    names = plugin.process_names(config)
    dealer = TrustedDealer(config.scheme, mode=crypto_mode, seed=seed, key_bits=key_bits)
    provider = dealer.provision(list(names))

    deployment = Deployment(
        sim=sim,
        network=network,
        config=config,
        calibration=calibration,
        provider=provider,
        dealer=dealer,
    )
    plugin.build(deployment)

    clients = [
        Client(
            sim,
            client_name(i),
            network,
            targets=names,
            request_bytes=config.request_bytes,
            f=config.f,
        )
        for i in range(1, n_clients + 1)
    ]
    for client in clients:
        network.attach(client)

    injector = FaultInjector(sim)
    return Cluster(
        protocol=protocol,
        sim=sim,
        network=network,
        config=config,
        calibration=calibration,
        provider=provider,
        processes=deployment.processes,
        clients=clients,
        injector=injector,
        pair_links=deployment.pair_links,
        plugin=plugin,
    )
