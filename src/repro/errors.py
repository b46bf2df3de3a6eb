"""Exception hierarchy for the ``repro`` library.

Every exception raised deliberately by this library derives from
:class:`ReproError` so callers can catch library failures without also
swallowing programming errors such as :class:`TypeError`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigError(ReproError):
    """An experiment or protocol configuration is invalid.

    Raised eagerly at construction time (for example, a Byzantine fault
    budget ``f`` that does not satisfy ``n = 3f + 1``) so that bad set-ups
    never reach the simulator.
    """


class MetricsError(ReproError):
    """Metric extraction from a trace failed.

    Raised by :mod:`repro.harness.metrics` and the measurement probes
    in :mod:`repro.harness.probes` when a trace cannot support the
    requested quantity — no latency samples to aggregate, an empty
    throughput window, a fail-over measurement without a complete
    episode.  Distinct from :class:`ConfigError`: the *set-up* was
    valid, the *measurement* could not be brought to a number.
    """


class SweepError(ReproError):
    """A sweep task could not be brought to a result.

    Raised by the serial and pool modes of :mod:`repro.harness.exec`
    when a task fails, in-process or inside a pool worker (the message
    names the owning ``point_id``), when a pool worker dies without
    producing a result, or when a progress or journal callback fails.
    """


class AnalysisError(ReproError):
    """The static-analysis pass could not run to a verdict.

    Raised by :mod:`repro.analysis` for structural problems — a source
    file that does not parse, an unknown checker code in ``--select``,
    a malformed baseline file — never for ordinary findings, which are
    data (:class:`repro.analysis.base.Finding`), not exceptions.
    """


class SimulationError(ReproError):
    """The discrete-event simulator was used incorrectly.

    Examples: scheduling an event in the past, running a simulator that
    has already been stopped, or cancelling an event twice.
    """


class CryptoError(ReproError):
    """A cryptographic operation failed structurally.

    This covers malformed keys, unsupported schemes and invalid parameter
    sizes.  A signature that simply fails to verify is *not* an error (it
    is an expected runtime outcome under Byzantine behaviour) and is
    reported through boolean verify results instead.
    """


class VerificationError(ReproError):
    """A message failed an authenticity or well-formedness check.

    Protocol handlers raise this when a message claims an authenticated
    pedigree that does not hold (for example a "doubly-signed" order whose
    second signature does not cover the first).  Handlers convert the
    exception into the protocol-level reaction the paper prescribes
    (drop, or treat as evidence of a value-domain failure).
    """


class ProtocolError(ReproError):
    """An order-protocol invariant was violated.

    These indicate a bug in the protocol implementation (or a test
    deliberately violating preconditions), never expected runtime
    behaviour: for example committing two different digests at the same
    sequence number inside a single correct process.
    """
