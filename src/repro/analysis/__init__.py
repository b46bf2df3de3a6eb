"""Static analysis of the tree's determinism and safety invariants.

The third plugin table (after protocols and measurement probes, on
the same :class:`repro.registry.Registry`): a
:class:`~repro.analysis.base.Checker` is one machine-enforced
invariant, registered by code in
:data:`~repro.analysis.base.CHECKERS` and run by ``python -m repro
lint``.  Five ship built in —

* ``RPR001`` determinism — no ambient randomness or wall-clock reads
  in sim/protocol code; harness telemetry goes through
  :mod:`repro.harness.telemetry`;
* ``RPR002`` registry dispatch — no protocol string dispatch and no
  concrete plugin-class imports outside the owning packages;
* ``RPR003`` trace-kind consistency — probe ``kinds`` declarations,
  emit sites and ``Tracer.wants()`` guards agree;
* ``RPR004`` wire safety — no ``pickle.loads`` outside the framing
  module, frames decoded there by the restricted ``_WireUnpickler``
  alone, every frame reader bounded by ``MAX_FRAME_BYTES``;
* ``RPR005`` async hygiene — nothing blocks the live event loop.

Suppression is explicit and reviewable: ``# repro: allow[CODE]
reason`` line pragmas, plus the committed near-empty baseline
(:mod:`~repro.analysis.baseline`).  The CI job ``lint-invariants``
gates ``repro lint --format json src tests`` on every push.
"""

from repro.analysis.base import CHECKERS, Checker, Finding, SourceFile
from repro.analysis.engine import (
    JSON_SCHEMA_VERSION,
    LintReport,
    lint_files,
    lint_paths,
    lint_sources,
)

# Importing the checker modules registers them.
from repro.analysis.determinism import DeterminismChecker
from repro.analysis.dispatch import DispatchChecker
from repro.analysis.tracekinds import TraceKindChecker
from repro.analysis.wire import WireSafetyChecker
from repro.analysis.asynchygiene import AsyncHygieneChecker

register = CHECKERS.register
get = CHECKERS.get
names = CHECKERS.names
all_checkers = CHECKERS.all

__all__ = [
    "AsyncHygieneChecker",
    "CHECKERS",
    "Checker",
    "DeterminismChecker",
    "DispatchChecker",
    "Finding",
    "JSON_SCHEMA_VERSION",
    "LintReport",
    "SourceFile",
    "TraceKindChecker",
    "WireSafetyChecker",
    "all_checkers",
    "get",
    "lint_files",
    "lint_paths",
    "lint_sources",
    "names",
    "register",
]
