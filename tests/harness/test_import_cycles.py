"""The harness point modules form a DAG: scenario <- runner <-
figures <- cli.  No deferred import may hide a cycle."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent
POINT_MODULES = (
    "figures", "cli", "runner", "scenario", "workload", "population",
)


@pytest.mark.parametrize("module", POINT_MODULES)
def test_module_imports_alone_in_a_fresh_interpreter(module):
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run(
        [sys.executable, "-c", f"import repro.harness.{module}"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr


def test_no_function_level_import_of_a_point_module():
    """A ``from repro.harness.runner import ...`` inside a function is
    how the old runner <-> experiments <-> scenario cycle was papered
    over; the point modules are only ever imported at module level."""
    guarded = {f"repro.harness.{name}" for name in POINT_MODULES[:4]}
    offenders = []
    for path in [*(SRC / "harness").rglob("*.py"), SRC / "live" / "validate.py"]:
        tree = ast.parse(path.read_text())
        for scope in ast.walk(tree):
            if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(scope):
                if isinstance(node, ast.ImportFrom):
                    named = {node.module} | {
                        f"{node.module}.{alias.name}" for alias in node.names
                    }
                elif isinstance(node, ast.Import):
                    named = {alias.name for alias in node.names}
                else:
                    continue
                if named & guarded:
                    offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert offenders == []
