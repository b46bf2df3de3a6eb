"""RPR001 — determinism: no ambient randomness or wall clock in
simulation and protocol code.

Byte-identical BENCH artifacts and bit-identical sim-vs-live replays
only hold if every random draw flows through a named
:class:`~repro.sim.rng.RngRegistry` stream and no simulated component
ever reads the host clock.  Two tiers:

* the **deterministic zone** (``repro/sim``, ``repro/protocols``,
  ``repro/core``, ``repro/baselines``, ``repro/failures``,
  ``repro/crypto``, and the workload/population engines) forbids
  module-level ``random.*`` calls, unseeded ``random.Random()``,
  ``os.urandom``/``secrets``/``uuid.uuid4`` and every wall-clock read;
* the **harness clock tier** (the rest of ``repro/harness``) forbids
  only direct wall-clock reads — telemetry belongs behind
  :mod:`repro.harness.telemetry`, the one module allowed to touch the
  host clock, so "how long did this take" never leaks into "what did
  the experiment compute".

Intentional exceptions carry ``# repro: allow[RPR001] reason``.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.astutil import import_map, resolve_call
from repro.analysis.base import CHECKERS, Checker, Finding, SourceFile

#: Wall-clock reads, forbidden in both tiers.
CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "time.thread_time", "time.thread_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: Ambient entropy, forbidden in the deterministic zone.
ENTROPY_CALLS = frozenset({
    "os.urandom",
    "uuid.uuid4", "uuid.uuid1",
    "secrets.token_bytes", "secrets.token_hex", "secrets.token_urlsafe",
    "secrets.randbelow", "secrets.choice", "secrets.randbits",
})

#: The module whose helpers are the sanctioned clock boundary.
TELEMETRY_MODULE = "repro/harness/telemetry.py"

#: Full-rule zone: everything that feeds the deterministic simulation
#: or the protocol state machines.
DETERMINISTIC_SCOPE = (
    "repro/sim/",
    "repro/protocols/",
    "repro/core/",
    "repro/baselines/",
    "repro/failures/",
    "repro/crypto/",
    "repro/harness/workload.py",
    "repro/harness/population.py",
)


def _is_random_module(origin: str) -> bool:
    return origin == "random" or origin.startswith("random.")


@CHECKERS.register
class DeterminismChecker(Checker):
    code = "RPR001"
    name = "determinism"
    description = (
        "no ambient randomness (random.*, os.urandom, secrets, uuid4) or "
        "wall-clock reads in sim/protocol code; harness telemetry reads "
        "the clock only through repro.harness.telemetry"
    )
    scope = DETERMINISTIC_SCOPE + ("repro/harness/",)

    def check_file(self, file: SourceFile) -> Iterable[Finding]:
        if file.relpath == TELEMETRY_MODULE:
            return
        full_rules = any(
            file.relpath.startswith(p) if p.endswith("/") else file.relpath == p
            for p in DETERMINISTIC_SCOPE
        )
        imports = import_map(file.tree)
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.Call):
                continue
            origin = resolve_call(node, imports)
            if origin is None:
                continue
            if origin in CLOCK_CALLS:
                where = (
                    "deterministic code must take times from the simulator"
                    if full_rules
                    else "route wall-time telemetry through repro.harness.telemetry"
                )
                yield self.finding(
                    file, node, f"wall-clock read `{origin}()`; {where}"
                )
            elif full_rules and origin in ENTROPY_CALLS:
                yield self.finding(
                    file, node,
                    f"ambient entropy `{origin}()`; draw from a named "
                    f"RngRegistry stream instead",
                )
            elif full_rules and origin == "random.Random" and not (
                node.args or node.keywords
            ):
                yield self.finding(
                    file, node,
                    "unseeded random.Random(); seed it or take a named "
                    "RngRegistry stream",
                )
            elif (
                full_rules
                and _is_random_module(origin)
                and origin not in ("random.Random", "random")
            ):
                yield self.finding(
                    file, node,
                    f"module-level `{origin}()` draws from the shared global "
                    f"RNG; use a named RngRegistry stream",
                )
