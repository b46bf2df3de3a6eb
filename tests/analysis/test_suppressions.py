"""The suppression machinery: pragmas, the baseline, and the checker
table's own rules (builtin order, error type, code shape).

Pragmas and baseline entries must be *accountable*: every waiver
carries a reason, waives something real, and shows up in the report
with its state — and anything malformed or stale comes back as an
active RPR000 finding so suppressions cannot quietly rot.
"""

from __future__ import annotations

import pytest

from repro.analysis.base import CHECKERS, Checker, SourceFile
from repro.analysis.baseline import parse_baseline
from repro.analysis.engine import lint_sources
from repro.errors import AnalysisError

CLOCKY = 'import time\n\n\ndef f():\n    return time.time()\n'


def by_code(report, code):
    return [f for f in report.findings if f.code == code]


# ----------------------------------------------------------------------
# Pragmas
# ----------------------------------------------------------------------
def test_pragma_on_the_line_suppresses():
    text = (
        "import time\n\n\ndef f():\n"
        "    return time.time()  # repro: allow[RPR001] boot banner only\n"
    )
    report = lint_sources([("repro/sim/x.py", text)])
    (finding,) = by_code(report, "RPR001")
    assert finding.state == "pragma"
    assert report.active() == ()
    assert report.exit_code == 0


def test_standalone_pragma_covers_the_next_line():
    text = (
        "import time\n\n\ndef f():\n"
        "    # repro: allow[RPR001] boot banner only\n"
        "    return time.time()\n"
    )
    report = lint_sources([("repro/sim/x.py", text)])
    (finding,) = by_code(report, "RPR001")
    assert finding.state == "pragma"


def test_pragma_only_waives_its_named_codes():
    text = (
        "import time\n\n\ndef f():\n"
        "    return time.time()  # repro: allow[RPR004] wrong code\n"
    )
    report = lint_sources([("repro/sim/x.py", text)])
    (finding,) = by_code(report, "RPR001")
    assert finding.state == "active"
    # ...and the pragma itself is now stale.
    assert any("stale pragma" in f.message for f in by_code(report, "RPR000"))


def test_pragma_without_reason_is_malformed():
    text = (
        "import time\n\n\ndef f():\n"
        "    return time.time()  # repro: allow[RPR001]\n"
    )
    report = lint_sources([("repro/sim/x.py", text)])
    rpr000 = by_code(report, "RPR000")
    assert rpr000 and all(f.state == "active" for f in rpr000)
    assert report.exit_code == 1


def test_stale_pragma_is_an_active_finding():
    text = "x = 1  # repro: allow[RPR001] nothing here anymore\n"
    report = lint_sources([("repro/sim/x.py", text)])
    (finding,) = by_code(report, "RPR000")
    assert "stale pragma" in finding.message
    assert report.exit_code == 1


def test_pragma_looking_text_in_a_docstring_is_ignored():
    text = '"""Docs show `# repro: allow[RPR001] reason` as the form."""\n'
    report = lint_sources([("repro/sim/x.py", text)])
    assert report.findings == ()


# ----------------------------------------------------------------------
# Baseline
# ----------------------------------------------------------------------
def test_baseline_waives_per_file_and_reports_state():
    baseline = "RPR001 repro/sim/x.py  # legacy clock, tracked in ROADMAP\n"
    report = lint_sources([("repro/sim/x.py", CLOCKY)], baseline_text=baseline)
    (finding,) = by_code(report, "RPR001")
    assert finding.state == "baseline"
    assert report.exit_code == 0
    assert report.stale_baseline == ()


def test_stale_baseline_entry_gates():
    baseline = "RPR001 repro/sim/gone.py  # file was deleted\n"
    report = lint_sources([("repro/sim/x.py", "x = 1\n")], baseline_text=baseline)
    assert [e.path for e in report.stale_baseline] == ["repro/sim/gone.py"]
    assert report.exit_code == 1


def test_malformed_baseline_lines_raise():
    with pytest.raises(AnalysisError):
        parse_baseline("RPR001 repro/sim/x.py\n")  # no justification
    with pytest.raises(AnalysisError):
        parse_baseline("RPR001  # path missing\n")
    assert parse_baseline("# just a comment\n\n") == []


# ----------------------------------------------------------------------
# Checker registry
# ----------------------------------------------------------------------
def test_builtin_checkers_register_on_import():
    assert CHECKERS.names() == (
        "RPR001", "RPR002", "RPR003", "RPR004", "RPR005"
    )


def test_register_rejects_bad_codes_and_duplicates():
    for code in ("", "rpr001", "RPR01", "R001", "RPR0001"):
        class Misnamed(Checker):
            pass

        Misnamed.code = code
        with pytest.raises(AnalysisError, match="needs a code like 'RPR001'"):
            CHECKERS.register(Misnamed)

    class Clashing(Checker):
        code = "RPR001"

    with pytest.raises(AnalysisError, match="already registered"):
        CHECKERS.register(Clashing)
    with pytest.raises(AnalysisError, match="unknown checker 'XYZ001'"):
        CHECKERS.get("XYZ001")
    assert CHECKERS.names() == (
        "RPR001", "RPR002", "RPR003", "RPR004", "RPR005"
    )


def test_custom_checker_runs_through_lint(monkeypatch):
    class Custom(Checker):
        code = "XYZ001"
        name = "custom"

        def check_file(self, file: SourceFile):
            yield self.finding(file, file.tree, "custom says hi")

    monkeypatch.setitem(CHECKERS.table, "XYZ001", Custom)
    assert CHECKERS.get("XYZ001") is Custom
    report = lint_sources([("repro/sim/x.py", "x = 1\n")])
    assert [f.code for f in report.active()] == ["XYZ001"]


def test_syntax_errors_are_analysis_errors():
    with pytest.raises(AnalysisError, match="cannot parse"):
        lint_sources([("repro/sim/x.py", "def broken(:\n")])
