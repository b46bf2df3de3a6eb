"""The perf ledger's import surface: every name ``bench/`` takes from
``repro`` exists.

``bench/`` sits outside ``src/`` and only a benchmark PR may edit it, so
deleting or renaming something it imports makes every workload exit at
import — and nothing in tier-1 notices.  This parses those files (it
never imports or runs them) and resolves each name against the tree.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path
from types import ModuleType

BENCH_DIR = Path(__file__).resolve().parents[2] / "bench"

#: What the walker must find at the very least: the names a clean-up of
#: ``src/`` is most tempted to delete, and the one import that only the
#: ``_SETUP_CODE`` child script makes.
PINNED = {
    "repro.harness.perf.sample_hotpath_message",
    "repro.harness.workload.OpenLoopWorkload",
    "repro.net.codec",
    "repro.net.codec.encode",
    "repro.net.framing.write_frame",
    "repro.live.client.percentile",
    "repro.harness.runner.resolve_calibration",
}


def _python_sources():
    """``(label, tree)`` of each bench file and of every module-level
    string constant in it that compiles (scripts run in a child)."""
    for path in sorted(BENCH_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        yield path.name, tree
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, str)):
                try:
                    yield f"{path.name}:{node.lineno}", ast.parse(node.value.value)
                except SyntaxError:
                    continue


def _resolve(dotted: str):
    """The object at ``dotted``: the longest importable module prefix,
    then attributes.  Raises ImportError / AttributeError when absent."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(dotted)


def _is_module(dotted: str) -> bool:
    try:
        return isinstance(_resolve(dotted), ModuleType)
    except (ImportError, AttributeError):
        return False  # reported once, as the missing import it is


def _used_names(tree: ast.AST) -> set[str]:
    """Dotted ``repro`` names: imports, plus ``alias.attr`` reads where
    the alias is bound to a ``repro`` module."""
    bound: dict[str, str] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    used.add(alias.name)
                    if alias.asname:
                        bound[alias.asname] = alias.name
        elif (isinstance(node, ast.ImportFrom) and node.level == 0
                and (node.module or "").split(".")[0] == "repro"):
            for alias in node.names:
                dotted = f"{node.module}.{alias.name}"
                used.add(dotted)
                bound[alias.asname or alias.name] = dotted
    modules = {name: dotted for name, dotted in bound.items() if _is_module(dotted)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            used.add(f"{modules[node.value.id]}.{node.attr}")
    return used


def test_every_repro_name_the_ledger_uses_exists():
    used: dict[str, str] = {}
    for label, tree in _python_sources():
        for dotted in _used_names(tree):
            used.setdefault(dotted, label)
    assert PINNED <= set(used), sorted(PINNED - set(used))
    missing = []
    for dotted, label in sorted(used.items()):
        try:
            _resolve(dotted)
        except (ImportError, AttributeError) as exc:
            missing.append(f"{label}: {dotted} ({exc})")
    assert not missing, "\n".join(missing)
