"""The reach tool (``tools/reach``): the report's gate on a fixture tree,
and the recorder in a forked child that leaves through ``os._exit``."""

import importlib.util
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
TOOL = REPO / "tools" / "reach"

pytestmark = pytest.mark.skipif(
    sys.version_info < (3, 11), reason="the tool keys functions by co_qualname (3.11+)"
)

FIXTURE = """
def used():
    return [x for x in range(3)]


def only_tests_call_this():
    return 1


class Thing:
    def method(self):
        return lambda: 0
"""


def _report():
    spec = importlib.util.spec_from_file_location("reach_report", TOOL / "report.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def gate(tmp_path, capsys, monkeypatch):
    """Run report.py over a one-file tree in which ``used`` and
    ``Thing.method`` were reached; returns (exit code, stdout)."""
    src, reach = tmp_path / "src", tmp_path / "reach"
    src.mkdir()
    reach.mkdir()
    (src / "mod.py").write_text(FIXTURE)
    (reach / "123.txt").write_text("mod.py::<module>\nmod.py::used\nmod.py::Thing.method\n")
    monkeypatch.setenv("REACH_DIR", str(reach))
    report = _report()

    def run(allow: str) -> tuple[int, str]:
        (tmp_path / "allow.txt").write_text(textwrap.dedent(allow))
        code = report.main(["--src", str(src), "--allow", str(tmp_path / "allow.txt")])
        return code, capsys.readouterr().out

    return run


def test_unlisted_unreached_function_fails(gate):
    code, out = gate("")
    assert code == 1
    assert "FAIL unreached, not allow-listed: mod.py::only_tests_call_this" in out
    # Comprehensions and lambdas are not functions of their own here.
    assert "listcomp" not in out and "lambda" not in out


def test_listed_unreached_function_with_a_reason_passes(gate):
    code, out = gate("# comment\nmod.py::only_tests_call_this  tests read it\n")
    assert code == 0, out
    assert "| reached by the product | 2 |" in out
    assert "| unreached, allow-listed | 1 | 2 |" in out
    assert "| unreached, not listed | 0 | 0 |" in out


def test_entry_without_a_reason_fails(gate):
    code, out = gate("mod.py::only_tests_call_this\n")
    assert code == 1
    assert "FAIL allow-listed without a reason: mod.py::only_tests_call_this" in out


def test_stale_entry_fails(gate):
    code, out = gate(
        "mod.py::only_tests_call_this  tests read it\nmod.py::deleted  was here\n"
    )
    assert code == 1
    assert "FAIL stale, names no function: mod.py::deleted" in out


def test_reached_entry_is_printed_not_failed(gate):
    code, out = gate(
        "mod.py::only_tests_call_this  tests read it\nmod.py::used  a retry path\n"
    )
    assert code == 0, out
    assert "- `mod.py::used`" in out


def _python(code: str, reach_dir: Path | None) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(REPO / "src"), str(TOOL)]))
    env.pop("REACH_DIR", None)
    if reach_dir is not None:
        env["REACH_DIR"] = str(reach_dir)
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )


def test_recorder_sees_a_forked_child_that_leaves_through_os_exit(tmp_path):
    done = _python(
        """
        import os
        from repro.net.addresses import pair_of

        child = os.fork()
        if child == 0:
            pair_of("p1")
            os._exit(0)
        os.waitpid(child, 0)
        print(child)
        """,
        tmp_path,
    )
    child = done.stdout.strip()
    assert "net/addresses.py::pair_of" in (tmp_path / f"{child}.txt").read_text()
    parent = [p for p in tmp_path.glob("*.txt") if p.stem != child]
    assert parent and "net/addresses.py::<module>" in parent[0].read_text()
    assert "net/addresses.py::pair_of" not in parent[0].read_text()


def test_recorder_is_inert_without_reach_dir():
    done = _python("import sys; print(sys.gettrace())", None)
    assert done.stdout.strip() == "None"
