"""RPR004 — wire safety: frames are decoded by the one restricted
unpickler, and every frame reader is bounded.

Pickle is code execution for whoever can reach the socket unless the
decoder restricts what a frame may name, so three properties hold
tree-wide:

* ``pickle.loads`` appears nowhere outside ``repro/net/framing.py``
  (a coalesced ``many`` frame is one pickle, so ``read_frame`` hands
  the live transport its inner frames already decoded and unrolling a
  batch needs no second ``loads``; local journal files use
  ``pickle.load`` on streams and are out of scope; test fixtures that
  unpickle in-process values deliberately carry a pragma);
* inside the framing module, frames are decoded only by
  ``_WireUnpickler``, whose ``find_class`` admits the wire vocabulary
  alone: a bare ``pickle.loads``/``pickle.load``, a plain
  ``pickle.Unpickler`` or any other ``Unpickler`` subclass is a finding;
* every raw length-prefixed read helper in the framing module must
  consult a byte bound (``MAX_FRAME_BYTES`` / ``_HANDSHAKE_MAX``)
  before allocating — a length header is attacker-controlled until
  authentication, and after it, a bug shield.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.astutil import (
    enclosing_function_nodes,
    import_map,
    resolve_call,
    resolve_name,
)
from repro.analysis.base import CHECKERS, Checker, Finding, SourceFile

FRAMING_MODULE = "repro/net/framing.py"

#: Names that read ``n`` bytes for a caller-supplied ``n``; inside the
#: framing module their enclosing function must reference a bound.
RAW_READERS = frozenset({"recv_exact", "readexactly"})

BOUND_NAMES = frozenset({"MAX_FRAME_BYTES", "_HANDSHAKE_MAX"})

#: The framing module's one decoder, and the unrestricted spellings
#: it replaces there.
RESTRICTED_UNPICKLER = "_WireUnpickler"
BARE_DECODERS = frozenset({"pickle.loads", "pickle.load", "pickle.Unpickler"})


def _references_bound(func: ast.AST) -> bool:
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and node.id in BOUND_NAMES:
            return True
        if isinstance(node, ast.Attribute) and node.attr in BOUND_NAMES:
            return True
    return False


@CHECKERS.register
class WireSafetyChecker(Checker):
    code = "RPR004"
    name = "wire-safety"
    description = (
        "no pickle.loads outside repro/net/framing.py; inside it, frames "
        "are decoded by the restricted _WireUnpickler alone, and every "
        "length-prefixed frame reader bounds against MAX_FRAME_BYTES"
    )
    scope = ("repro/", "tests/")

    def check_file(self, file: SourceFile) -> Iterable[Finding]:
        imports = import_map(file.tree)
        in_framing = file.relpath == FRAMING_MODULE
        owners = enclosing_function_nodes(file.tree) if in_framing else {}
        for node in ast.walk(file.tree):
            if in_framing and isinstance(node, ast.ClassDef):
                for base in node.bases:
                    if (
                        resolve_name(base, imports) == "pickle.Unpickler"
                        and node.name != RESTRICTED_UNPICKLER
                    ):
                        yield self.finding(
                            file, node,
                            f"unpickler {node.name} beside {RESTRICTED_UNPICKLER}; "
                            f"frames have one decoder, restricted to the wire "
                            f"vocabulary",
                        )
                continue
            if not isinstance(node, ast.Call):
                continue
            called = resolve_call(node, imports)
            if called == "pickle.loads" and not in_framing:
                yield self.finding(
                    file, node,
                    "pickle.loads outside repro/net/framing.py; read "
                    "frames through the framing codec (recv_msg / "
                    "read_frame) so the byte bound and the handshake "
                    "discipline apply (the inner frames of a 'many' "
                    "arrive decoded: tuples to unroll, not bytes)",
                )
            elif in_framing and called in BARE_DECODERS:
                yield self.finding(
                    file, node,
                    f"{called} in the framing module; decode frames through "
                    f"{RESTRICTED_UNPICKLER} (decode_frame), whose find_class "
                    f"admits only the wire classes",
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
