"""RPR003 — trace-kind consistency: probes and emitters agree.

The probe registry derives the tracer keep-filter from the *declared*
kinds of the selected probes, and hot-path emitters guard expensive
field construction with :meth:`~repro.sim.trace.Tracer.wants`.  Both
conventions are string-keyed, so nothing but this checker notices
when they drift:

* a probe declaring a kind **no emitter ever produces** measures
  silence (a typo'd kind yields zero samples, not an error);
* an **unguarded emit of a scale-only kind** evaluates its field
  kwargs on every event even when no probe subscribed — exactly the
  per-event cost the ``Tracer.wants()`` guard exists to avoid.

The checker statically collects every literal-kind emission
(``tracer.emit(t, "kind", ...)``, the ``Process.trace("kind", ...)``
wrapper, and direct ``TraceRecord(...)`` construction), every probe
class's ``kinds`` declaration (with its ``scale_only`` marker), and
every ``wants("kind")`` guard, then cross-checks the three.  It needs
the whole-tree view: the cross-checks only run when the analyzed set
includes the tracer and the probe registry modules.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Sequence

from repro.analysis.astutil import str_const
from repro.analysis.base import CHECKERS, Checker, Finding, SourceFile

#: Files whose presence marks a whole-tree run (the cross-checks are
#: meaningless over a partial file set).
ANCHOR_FILES = ("repro/sim/trace.py", "repro/harness/probes/base.py")

#: Call-attribute names that emit a trace record with a literal kind in
#: their second positional argument (``emit(time, kind, ...)``).
EMIT_ATTRS = frozenset({"emit"})

#: Call names whose *first* argument is the kind (the ``Process.trace``
#: wrapper and any future ``record(kind, ...)`` helpers).
KIND_FIRST_ATTRS = frozenset({"trace", "record"})


@dataclass
class _EmitSite:
    file: SourceFile
    node: ast.Call
    kind: str
    guarded: bool


@dataclass
class _ProbeDecl:
    file: SourceFile
    node: ast.ClassDef
    name: str
    kinds: frozenset[str]
    scale_only: bool


@dataclass
class _Collected:
    emits: list[_EmitSite] = field(default_factory=list)
    probes: list[_ProbeDecl] = field(default_factory=list)


def _guard_kinds(test: ast.AST) -> set[str]:
    """Kind literals asserted by ``wants("...")`` calls in an if-test."""
    kinds: set[str] = set()
    for node in ast.walk(test):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "wants"
            and node.args
        ):
            kind = str_const(node.args[0])
            if kind is not None:
                kinds.add(kind)
    return kinds


class _EmitCollector(ast.NodeVisitor):
    """Walks one module tracking the ``wants()`` guards in scope."""

    def __init__(self, file: SourceFile, out: _Collected) -> None:
        self.file = file
        self.out = out
        self._guards: list[set[str]] = []

    def visit_If(self, node: ast.If) -> None:
        self._guards.append(_guard_kinds(node.test))
        for child in node.body:
            self.visit(child)
        self._guards.pop()
        for child in node.orelse:
            self.visit(child)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        decl = _probe_decl(self.file, node)
        if decl is not None:
            self.out.probes.append(decl)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        kind = _emitted_kind(node)
        if kind is not None:
            guarded = any(kind in kinds for kinds in self._guards)
            self.out.emits.append(_EmitSite(self.file, node, kind, guarded))
        self.generic_visit(node)


def _emitted_kind(node: ast.Call) -> str | None:
    func = node.func
    if isinstance(func, ast.Attribute):
        if func.attr in EMIT_ATTRS and len(node.args) >= 2:
            return str_const(node.args[1])
        if func.attr in KIND_FIRST_ATTRS and node.args:
            return str_const(node.args[0])
    name = func.attr if isinstance(func, ast.Attribute) else (
        func.id if isinstance(func, ast.Name) else None
    )
    if name == "TraceRecord":
        for keyword in node.keywords:
            if keyword.arg == "kind":
                return str_const(keyword.value)
        if len(node.args) >= 2:
            return str_const(node.args[1])
    return None


def _probe_decl(file: SourceFile, node: ast.ClassDef) -> _ProbeDecl | None:
    """A probe declaration, recognised by a literal ``kinds =
    frozenset({...})`` class attribute."""
    kinds: frozenset[str] | None = None
    scale_only = False
    for stmt in node.body:
        target = None
        value = None
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target, value = stmt.targets[0], stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            target, value = stmt.target, stmt.value
        if not isinstance(target, ast.Name) or value is None:
            continue
        if target.id == "kinds":
            kinds = _literal_kind_set(value)
        elif target.id == "scale_only":
            scale_only = isinstance(value, ast.Constant) and value.value is True
    if kinds is None:
        return None
    return _ProbeDecl(file, node, node.name, kinds, scale_only)


def _literal_kind_set(value: ast.AST) -> frozenset[str] | None:
    if (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Name)
        and value.func.id == "frozenset"
    ):
        if not value.args:
            return frozenset()
        inner = value.args[0]
        if isinstance(inner, (ast.Set, ast.Tuple, ast.List)):
            kinds = [str_const(elt) for elt in inner.elts]
            if all(kind is not None for kind in kinds):
                return frozenset(kinds)  # type: ignore[arg-type]
    return None


@CHECKERS.register
class TraceKindChecker(Checker):
    code = "RPR003"
    name = "trace-kinds"
    description = (
        "every probe-declared trace kind has an emitter, and scale-only "
        "kinds are emitted behind a Tracer.wants() guard"
    )
    scope = ("repro/",)

    def run(self, files: Sequence[SourceFile]) -> list[Finding]:
        in_scope = [f for f in files if self.applies_to(f.relpath)]
        present = {f.relpath for f in in_scope}
        if not all(anchor in present for anchor in ANCHOR_FILES):
            return []  # partial run: the cross-file checks would lie
        collected = _Collected()
        for file in in_scope:
            _EmitCollector(file, collected).visit(file.tree)
        emitted = {site.kind for site in collected.emits}
        findings: list[Finding] = []
        for probe in collected.probes:
            for kind in sorted(probe.kinds - emitted):
                findings.append(self.finding(
                    probe.file, probe.node,
                    f"probe {probe.name} subscribes to kind {kind!r} but no "
                    f"emitter in the tree produces it",
                ))
        scale_kinds = set().union(
            *(p.kinds for p in collected.probes if p.scale_only)
        ) if any(p.scale_only for p in collected.probes) else set()
        always_kinds = set().union(
            *(p.kinds for p in collected.probes if not p.scale_only and p.kinds)
        ) if any(not p.scale_only and p.kinds for p in collected.probes) else set()
        guard_required = scale_kinds - always_kinds
        for site in collected.emits:
            if site.kind in guard_required and not site.guarded:
                findings.append(self.finding(
                    site.file, site.node,
                    f"unguarded hot-path emit of scale-only kind "
                    f"{site.kind!r}; wrap in `if tracer.wants({site.kind!r}):` "
                    f"so unmeasured runs never build its fields",
                ))
        return findings
