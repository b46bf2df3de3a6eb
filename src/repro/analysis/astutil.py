"""Small AST helpers shared by the checkers.

The central tool is import-aware call resolution: a checker that wants
to forbid ``time.monotonic()`` must also catch ``from time import
monotonic`` and ``import time as t``; :func:`import_map` +
:func:`resolve_call` normalise all three spellings to the canonical
dotted name ``"time.monotonic"``.
"""

from __future__ import annotations

import ast
from typing import Iterator


def import_map(tree: ast.AST) -> dict[str, str]:
    """Local name -> canonical dotted origin, from every import.

    ``import random as r`` maps ``r -> random``; ``from random import
    Random as R`` maps ``R -> random.Random``.  Relative imports and
    star imports are ignored (nothing in this tree uses them).
    """
    mapping: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                mapping[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                if alias.name == "*":
                    continue
                mapping[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return mapping


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def resolve_call(node: ast.Call, imports: dict[str, str]) -> str | None:
    """Canonical dotted name of the called object, import-aware.

    Returns ``None`` for calls whose base is not a module-level import
    (method calls on locals, ``self`` attributes, subscripts...).
    """
    return resolve_name(node.func, imports)


def resolve_name(node: ast.AST, imports: dict[str, str]) -> str | None:
    """Canonical dotted name of a Name/Attribute chain, import-aware
    (``None`` unless its head is a module-level import)."""
    dotted = dotted_name(node)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    origin = imports.get(head)
    if origin is None:
        return None
    return f"{origin}.{rest}" if rest else origin


def str_const(node: ast.AST | None) -> str | None:
    """The value of a string-literal node, else ``None``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def walk_with_async_context(
    tree: ast.AST,
) -> Iterator[tuple[ast.AST, bool]]:
    """Yield ``(node, inside_async_def)`` over the whole module.

    A nested synchronous ``def`` inside an ``async def`` resets the
    flag: its body runs wherever it is called, and flagging it would
    punish helper closures for their lexical position.
    """

    def visit(node: ast.AST, in_async: bool) -> Iterator[tuple[ast.AST, bool]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.AsyncFunctionDef):
                yield (child, True)
                yield from visit(child, True)
            elif isinstance(child, (ast.FunctionDef, ast.Lambda)):
                yield (child, False)
                yield from visit(child, False)
            else:
                yield (child, in_async)
                yield from visit(child, in_async)

    yield from visit(tree, False)


def enclosing_function_nodes(tree: ast.AST) -> dict[ast.AST, ast.AST]:
    """Map every node to its nearest enclosing function def (or the
    module when at top level)."""
    owner: dict[ast.AST, ast.AST] = {}

    def visit(node: ast.AST, current: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            nxt = current
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nxt = child
            owner[child] = nxt
            visit(child, nxt)

    visit(tree, tree)
    return owner
