"""RPR002 — registry dispatch: plugin axes stay behind their
registries.

Protocols and probes are registries so that a new plugin is one
module, not a harness edit.  That only stays true if nothing outside
the owning packages re-grows ``if protocol == "sc"`` chains or imports
a concrete plugin class around the registry.  Two rules, over
``src/repro`` only (tests may poke concrete classes):

* no string-literal dispatch on a protocol-ish value (``== "sc"``,
  ``in ("sc", "bft")``, ``.startswith("sc")``) outside
  ``repro/protocols/``;
* no imports of concrete plugin classes from the probe or protocol
  implementation modules outside their owning packages —
  callers go through ``register/get/names``.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable

from repro.analysis.astutil import dotted_name, str_const
from repro.analysis.base import Checker, Finding, SourceFile
from repro.analysis.registry import register

#: Implementation modules whose classes are registry-only outside the
#: owning package (the package ``__init__`` re-exports are the public
#: face and register the plugins as a side effect).
PLUGIN_MODULES = {
    "repro.harness.probes": ("paper", "recovery", "scale"),
    "repro.protocols": ("sc", "scr", "bft", "ct"),
}

_PROTOCOLISH = re.compile(r"(^|_)protocol$")


def _owning_prefix(package: str) -> str:
    return package.replace(".", "/") + "/"


def _protocolish(node: ast.AST) -> bool:
    """Whether an expression names a protocol value (``protocol``,
    ``spec.protocol``, ``order_protocol``...)."""
    if isinstance(node, ast.Attribute):
        return bool(_PROTOCOLISH.search(node.attr))
    if isinstance(node, ast.Name):
        return bool(_PROTOCOLISH.search(node.id))
    return False


def _literal_strings(node: ast.AST) -> bool:
    if str_const(node) is not None:
        return True
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)) and node.elts:
        return all(str_const(elt) is not None for elt in node.elts)
    return False


@register
class DispatchChecker(Checker):
    code = "RPR002"
    name = "registry-dispatch"
    description = (
        "no string dispatch on protocol names and no concrete plugin-class "
        "imports outside the owning registry packages"
    )
    scope = ("repro/",)

    def check_file(self, file: SourceFile) -> Iterable[Finding]:
        in_protocols = file.relpath.startswith("repro/protocols/")
        for node in ast.walk(file.tree):
            if isinstance(node, ast.ImportFrom):
                yield from self._check_import(file, node)
            elif in_protocols:
                continue
            elif isinstance(node, ast.Compare):
                yield from self._check_compare(file, node)
            elif isinstance(node, ast.Call):
                yield from self._check_startswith(file, node)

    def _check_compare(
        self, file: SourceFile, node: ast.Compare
    ) -> Iterable[Finding]:
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn)):
                continue
            pair = ((left, right), (right, left))
            for value, literal in pair:
                if _protocolish(value) and _literal_strings(literal):
                    yield self.finding(
                        file, node,
                        "string dispatch on a protocol name; resolve through "
                        "the repro.protocols registry (get/names) or the "
                        "plugin's own attributes",
                    )
                    break

    def _check_startswith(
        self, file: SourceFile, node: ast.Call
    ) -> Iterable[Finding]:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "startswith"
            and _protocolish(func.value)
            and node.args
            and _literal_strings(node.args[0])
        ):
            yield self.finding(
                file, node,
                "prefix dispatch on a protocol name; ask the registered "
                "plugin instead of pattern-matching its name",
            )

    def _check_import(
        self, file: SourceFile, node: ast.ImportFrom
    ) -> Iterable[Finding]:
        if node.level or not node.module:
            return
        for package, submodules in PLUGIN_MODULES.items():
            if file.relpath.startswith(_owning_prefix(package)):
                continue
            if node.module not in {f"{package}.{sub}" for sub in submodules}:
                continue
            classes = [
                alias.name for alias in node.names
                if alias.name[:1].isupper()
            ]
            if classes:
                yield self.finding(
                    file, node,
                    f"direct plugin-class import ({', '.join(classes)} from "
                    f"{node.module}) bypasses the {package} registry; use "
                    f"register/get/names",
                )
