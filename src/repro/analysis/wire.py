"""RPR004 — wire safety: unpickling stays inside the framing module
and every frame reader is bounded.

Pickle is code execution for whoever can reach the socket, so the
hardened handshake of PR 7 only means something while two properties
hold tree-wide:

* ``pickle.loads`` appears **only** in ``repro/net/framing.py`` —
  the single audited choke point where frames are read post-handshake
  (a coalesced ``many`` frame is one pickle, so ``read_frame`` hands
  the live transport its inner frames already decoded and unrolling a
  batch needs no second ``loads``; local journal files use
  ``pickle.load`` on streams and are out of scope; test fixtures that
  unpickle deliberately carry a pragma);
* every function in the framing module that unpickles, and every raw
  length-prefixed read helper near the wire, must consult a byte
  bound (``MAX_FRAME_BYTES`` / ``_HANDSHAKE_MAX``) before allocating
  — a length header is attacker-controlled until authentication, and
  after it, a bug shield.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.astutil import (
    enclosing_function_nodes,
    import_map,
    resolve_call,
)
from repro.analysis.base import Checker, Finding, SourceFile
from repro.analysis.registry import register

FRAMING_MODULE = "repro/net/framing.py"

#: Names that read ``n`` bytes for a caller-supplied ``n``; inside the
#: framing module their enclosing function must reference a bound.
RAW_READERS = frozenset({"recv_exact", "readexactly"})

BOUND_NAMES = frozenset({"MAX_FRAME_BYTES", "_HANDSHAKE_MAX"})


def _references_bound(func: ast.AST) -> bool:
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and node.id in BOUND_NAMES:
            return True
        if isinstance(node, ast.Attribute) and node.attr in BOUND_NAMES:
            return True
    return False


def _is_pickle_loads(node: ast.Call, imports: dict[str, str]) -> bool:
    return resolve_call(node, imports) == "pickle.loads"


@register
class WireSafetyChecker(Checker):
    code = "RPR004"
    name = "wire-safety"
    description = (
        "pickle.loads only inside repro/net/framing.py, and every "
        "length-prefixed frame reader bounds against MAX_FRAME_BYTES"
    )
    scope = ("repro/", "tests/")

    def check_file(self, file: SourceFile) -> Iterable[Finding]:
        imports = import_map(file.tree)
        in_framing = file.relpath == FRAMING_MODULE
        owners = enclosing_function_nodes(file.tree) if in_framing else {}
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.Call):
                continue
            if _is_pickle_loads(node, imports):
                if not in_framing:
                    yield self.finding(
                        file, node,
                        "pickle.loads outside repro/net/framing.py; read "
                        "frames through the framing codec (recv_msg / "
                        "read_frame) so the byte bound and the handshake "
                        "discipline apply (the inner frames of a 'many' "
                        "arrive decoded: tuples to unroll, not bytes)",
                    )
                    continue
                owner = owners.get(node)
                if owner is None or not _references_bound(owner):
                    yield self.finding(
                        file, node,
                        "unpickling in a function that never consults "
                        "MAX_FRAME_BYTES; bound the frame length before "
                        "allocating",
                    )
            elif in_framing:
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else (
                    func.id if isinstance(func, ast.Name) else None
                )
                if name in RAW_READERS and node.args:
                    length = node.args[-1]
                    if isinstance(length, ast.Constant):
                        continue  # fixed-size header read
                    if isinstance(length, ast.Attribute) and length.attr == "size":
                        continue  # struct header size
                    owner = owners.get(node)
                    if owner is None or not _references_bound(owner):
                        yield self.finding(
                            file, node,
                            f"length-prefixed read via {name}() in a function "
                            f"that never consults MAX_FRAME_BYTES / "
                            f"_HANDSHAKE_MAX",
                        )
