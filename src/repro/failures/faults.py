"""Fault plans: what a faulty process does once its fault activates.

A plan is attached to one process and consulted at the protocol's
decision points.  Before ``active_from`` the process behaves correctly;
afterwards the plan's hooks fire.  All hooks default to correct
behaviour so each plan overrides only what it corrupts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass
class FaultPlan:
    """Base plan: a correct process (no-op hooks).

    Attributes
    ----------
    active_from:
        Virtual time at which the fault switches on.
    """

    active_from: float = 0.0

    def active(self, now: float) -> bool:
        """Whether the fault is in effect at virtual time ``now``."""
        return now >= self.active_from

    # Hook points --------------------------------------------------------
    def drops_message(self, now: float, payload: Any, dest: str) -> bool:
        """True if the process should silently not send this message."""
        return False

    def is_crashed(self, now: float) -> bool:
        """True if the process has crashed (no sends, no processing)."""
        return False

    def mutate_order_digest(self, now: float, digest: bytes) -> bytes:
        """Possibly corrupt a digest the coordinator is about to sign."""
        return digest

    def withholds_orders(self, now: float) -> bool:
        """True if the coordinator silently stops ordering requests."""
        return False

    def equivocates(self, now: float) -> bool:
        """True if the coordinator proposes conflicting orders."""
        return False

    def mutates_endorsement(self, now: float) -> bool:
        """True if a shadow alters an order before endorsing it."""
        return False


@dataclass
class CrashFault(FaultPlan):
    """Silent crash: the process stops sending and processing."""

    def is_crashed(self, now: float) -> bool:
        return self.active(now)


@dataclass
class WrongDigestFault(FaultPlan):
    """Value-domain fault: the coordinator signs orders with a corrupted
    request digest.  Its shadow detects the mismatch and fail-signals.
    This is the fault the paper injects for the Figure 6 measurements."""

    corruption: bytes = b"\xde\xad"

    def mutate_order_digest(self, now: float, digest: bytes) -> bytes:
        if not self.active(now):
            return digest
        return (self.corruption * (len(digest) // len(self.corruption) + 1))[: len(digest)]


@dataclass
class WithholdOrdersFault(FaultPlan):
    """Time-domain fault: the coordinator stops assigning orders.  Its
    shadow notices the missing outputs and fail-signals."""

    def withholds_orders(self, now: float) -> bool:
        return self.active(now)


@dataclass
class EquivocationFault(FaultPlan):
    """The coordinator proposes two different batches for the same
    sequence number (to its shadow, or — for BFT — to different
    replica subsets)."""

    def equivocates(self, now: float) -> bool:
        return self.active(now)


@dataclass
class MutateEndorsementFault(FaultPlan):
    """A Byzantine shadow alters the order it was asked to endorse; the
    paired replica observes the corrupted multicast and fail-signals."""

    corruption: bytes = b"\x66"

    def mutates_endorsement(self, now: float) -> bool:
        return self.active(now)


@dataclass
class DelaySurgeFault(FaultPlan):
    """Timing fault for SCR studies: not attached to a process but to a
    pair link, inflating delays during ``[active_from, until)`` so that
    delay estimates become temporarily inaccurate (assumption 3(b)(i))."""

    until: float = field(default=0.0)
    factor: float = 10.0


@dataclass
class HoldAcksFault(FaultPlan):
    """Timing fault for fail-over studies: not attached to a process but
    to the network, which holds every ``Ack`` from ``active_from`` until
    the next fail-over completes (see ``FaultInjector.hold_acks``)."""
