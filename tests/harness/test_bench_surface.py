"""The perf ledger's import surface: every name ``bench/`` takes from
``repro`` exists, and every call it makes to one still binds.

``bench/`` sits outside ``src/`` and only a benchmark PR may edit it, so
deleting or renaming something it imports makes every workload exit at
import — and dropping a keyword it passes makes it fail at its first
call — while nothing in tier-1 notices.  This parses those files (it
never imports or runs them) and resolves each name against the tree.
"""

from __future__ import annotations

import ast
import importlib
import inspect
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


def _imports(tree: ast.AST) -> tuple[set[str], dict[str, str]]:
    """The dotted ``repro`` names ``tree`` imports, and the local names
    bound to them."""
    bound: dict[str, str] = {}
    imported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    imported.add(alias.name)
                    if alias.asname:
                        bound[alias.asname] = alias.name
        elif (isinstance(node, ast.ImportFrom) and node.level == 0
                and (node.module or "").split(".")[0] == "repro"):
            for alias in node.names:
                dotted = f"{node.module}.{alias.name}"
                imported.add(dotted)
                bound[alias.asname or alias.name] = dotted
    return imported, bound


def _module_attribute(node: ast.AST, modules: dict[str, str]) -> str | None:
    """``alias.attr`` as a dotted name when the alias is bound to a
    ``repro`` module, else ``None``."""
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules):
        return f"{modules[node.value.id]}.{node.attr}"
    return None


def _used_names(tree: ast.AST) -> set[str]:
    """Dotted ``repro`` names: imports, plus ``alias.attr`` reads where
    the alias is bound to a ``repro`` module."""
    used, bound = _imports(tree)
    modules = {name: dotted for name, dotted in bound.items() if _is_module(dotted)}
    for node in ast.walk(tree):
        dotted = _module_attribute(node, modules)
        if dotted is not None:
            used.add(dotted)
    return used


def _keyword_calls(tree: ast.AST):
    """``(dotted, call)`` for each call with keyword arguments whose
    callee is a ``repro`` name: an imported one or ``alias.attr``."""
    _, bound = _imports(tree)
    modules = {name: dotted for name, dotted in bound.items() if _is_module(dotted)}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not node.keywords:
            continue
        if isinstance(node.func, ast.Name):
            dotted = bound.get(node.func.id)
        else:
            dotted = _module_attribute(node.func, modules)
        if dotted is not None:
            yield dotted, node


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


def test_every_repro_call_the_ledger_makes_binds():
    """A keyword ``bench/`` passes must still be a parameter: a
    ``SweepTask`` that lost ``n_batches`` imports fine and fails only
    when the driver runs the ledger."""
    calls = []
    unbound = []
    for label, tree in _python_sources():
        for dotted, call in _keyword_calls(tree):
            calls.append(dotted)
            try:
                signature = inspect.signature(_resolve(dotted))
            except (ImportError, AttributeError):
                continue  # reported as missing by the test above
            # A starred argument hides how many positionals there are.
            starred = any(isinstance(arg, ast.Starred) for arg in call.args)
            positional = [None] * (0 if starred else len(call.args))
            keywords = {kw.arg: None for kw in call.keywords if kw.arg is not None}
            try:
                signature.bind_partial(*positional, **keywords)
            except TypeError as exc:
                unbound.append(f"{label}:{call.lineno}: {dotted}{signature} ({exc})")
    assert "repro.harness.runner.SweepTask" in calls
    assert not unbound, "\n".join(unbound)
