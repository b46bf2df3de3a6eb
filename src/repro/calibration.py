"""Calibration of the simulated testbed.

The paper's measurements come from 15 Linux machines (Pentium IV
2.8 GHz, 2 GB RAM) on a switched LAN, running Java 1.5 — we replace
that testbed with a discrete-event simulation whose cost constants are
gathered here.  Everything is plain data: re-calibrating for a
different era of hardware means constructing a different profile.

The constants fall into four groups:

* **marshalling** — Java object serialisation was expensive (hundreds
  of microseconds per message plus a per-KB term);
* **per-message handling** — dispatch, bookkeeping, socket syscalls;
* **network** — LAN propagation/bandwidth/jitter, plus the faster
  dedicated replica–shadow link;
* **crypto** — delegated to :class:`~repro.crypto.costs.CryptoCostModel`.

Because every cryptographic *cost* is charged from this profile, the
code that actually computes digest/signature values is free to be
fast: :func:`repro.crypto.digests.digest` defaults to the ``hashlib``
backend (bit-identical to the from-scratch reference, ~50x quicker)
and the simulated provider mints MAC tokens — neither choice can move
a simulated metric, only harness wall time.

``overload_gamma`` inflates service times for work that starts late
(queued), modelling the runtime's degradation under overload (GC,
scheduler churn); it is what turns the post-saturation throughput
*plateau* of an ideal queue into the *decline* the paper measured.
Setting it to zero recovers the ideal queue.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

from repro.crypto.costs import CryptoCostModel
from repro.errors import ConfigError
from repro.net.delay import LanDelay


@dataclass(frozen=True)
class CalibrationProfile:
    """Cost constants of the simulated testbed (all times in seconds)."""

    marshal_base: float = 700e-6
    marshal_per_kb: float = 140e-6
    unmarshal_base: float = 700e-6
    unmarshal_per_kb: float = 140e-6
    handle_base: float = 200e-6
    send_per_dest: float = 200e-6
    duplicate_base: float = 150e-6
    compare_base: float = 40e-6
    backlog_compute_per_kb: float = 300e-6
    overload_gamma: float = 0.08
    lan_propagation: float = 120e-6
    lan_bandwidth: float = 12.5e6
    lan_jitter: float = 60e-6
    pair_propagation: float = 50e-6
    pair_bandwidth: float = 12.5e6
    pair_jitter: float = 15e-6
    # RMI adds per-call overhead on top of plain serialisation.
    pair_call_overhead: float = 150e-6
    crypto: CryptoCostModel = field(default_factory=CryptoCostModel.p4_2006)

    def lan_link(self) -> LanDelay:
        """Delay model of the shared asynchronous network."""
        return LanDelay(
            propagation=self.lan_propagation,
            bandwidth_bytes_per_s=self.lan_bandwidth,
            jitter=self.lan_jitter,
        )

    def pair_link(self) -> LanDelay:
        """Delay model of the dedicated replica-shadow connection."""
        return LanDelay(
            propagation=self.pair_propagation,
            bandwidth_bytes_per_s=self.pair_bandwidth,
            jitter=self.pair_jitter,
        )

    def marshal_cost(self, size_bytes: int) -> float:
        """Sender-side CPU to serialise one message."""
        return self.marshal_base + self.marshal_per_kb * (size_bytes / 1024.0)


def paper_testbed() -> CalibrationProfile:
    """The default profile approximating the paper's cluster."""
    return CalibrationProfile()


def ideal_testbed() -> CalibrationProfile:
    """Free CPU and crypto — for functional tests where only message
    *order* matters, not timing."""
    return CalibrationProfile(
        marshal_base=0.0,
        marshal_per_kb=0.0,
        unmarshal_base=0.0,
        unmarshal_per_kb=0.0,
        handle_base=0.0,
        send_per_dest=0.0,
        duplicate_base=0.0,
        compare_base=0.0,
        backlog_compute_per_kb=0.0,
        overload_gamma=0.0,
        pair_call_overhead=0.0,
        crypto=CryptoCostModel.free(),
    )


#: Named profiles that sweep tasks and scenario specs reference, so
#: those values stay small and picklable.
CALIBRATION_PROFILES: dict[str, Callable[[], CalibrationProfile]] = {
    "paper": paper_testbed,
    "ideal": ideal_testbed,
}


@lru_cache(maxsize=None)
def resolve_calibration(name: str) -> CalibrationProfile:
    """Resolve a profile name, once per process (workers share the
    cached instance across all their tasks)."""
    try:
        factory = CALIBRATION_PROFILES[name]
    except KeyError:
        raise ConfigError(
            f"unknown calibration profile {name!r}; "
            f"known: {tuple(CALIBRATION_PROFILES)}"
        ) from None
    return factory()
