"""Failure injection: crash, Byzantine and timing faults.

The paper's evaluation injects a single value-domain fault and measures
fail-over; the protocol design additionally tolerates crashes, timing
failures and (for less than one third of processes) arbitrary Byzantine
behaviour.  This package provides scripted fault *plans* that protocol
actors consult at their decision points, plus an injector that arms
plans at virtual times.
"""

from repro.failures.faults import (
    CrashFault,
    EquivocationFault,
    FaultPlan,
    MutateEndorsementFault,
    WithholdOrdersFault,
    WrongDigestFault,
)
from repro.failures.injector import FaultInjector

__all__ = [
    "CrashFault",
    "EquivocationFault",
    "FaultInjector",
    "FaultPlan",
    "MutateEndorsementFault",
    "WithholdOrdersFault",
    "WrongDigestFault",
]
