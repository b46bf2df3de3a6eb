"""The lint engine: discover sources, run every checker, suppress,
report.

Two entry points: :func:`lint_paths` (the CLI's, walking real
directories against a repository root) and :func:`lint_sources` (the
fixture-test surface: in-memory ``(relpath, text)`` pairs through the
identical pipeline).  Both return a :class:`LintReport` whose
:meth:`~LintReport.to_json` payload is the documented stable schema of
``repro lint --format json``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.base import (
    CHECKERS,
    PRAGMA_CODE,
    Finding,
    SourceFile,
    apply_suppressions,
)
from repro.analysis.baseline import (
    BASELINE_NAME,
    BaselineEntry,
    load_baseline,
    parse_baseline,
    unused_entries,
    waivers,
)
from repro.errors import AnalysisError

#: Version of the ``--format json`` payload.  Bump only with the
#: schema documented in the README; consumers pin on it.
JSON_SCHEMA_VERSION = 1

#: Directory names never descended into during discovery.
SKIP_DIRS = frozenset({"__pycache__", ".git", ".venv", "node_modules"})


@dataclass(frozen=True)
class LintReport:
    """The outcome of one lint pass.

    ``findings`` carries every finding with its suppression state
    (``active`` / ``pragma`` / ``baseline``) after ``--select`` /
    ``--ignore`` filtering; only ``active`` findings gate.
    """

    findings: tuple[Finding, ...]
    files_checked: int
    codes_run: tuple[str, ...]
    stale_baseline: tuple[BaselineEntry, ...] = ()

    def active(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.state == "active")

    @property
    def exit_code(self) -> int:
        # Stale baseline entries gate too: the baseline may only shrink.
        return 1 if self.active() or self.stale_baseline else 0

    def counts(self) -> dict[str, dict[str, int]]:
        """Per-code finding counts by suppression state."""
        out: dict[str, dict[str, int]] = {}
        for finding in self.findings:
            per_code = out.setdefault(
                finding.code, {"active": 0, "pragma": 0, "baseline": 0}
            )
            per_code[finding.state] += 1
        return dict(sorted(out.items()))

    def to_json(self) -> dict:
        """The stable machine-readable payload (see README)."""
        return {
            "schema_version": JSON_SCHEMA_VERSION,
            "tool": "repro-lint",
            "files_checked": self.files_checked,
            "codes_run": list(self.codes_run),
            "counts": self.counts(),
            "findings": [
                {
                    "code": f.code,
                    "path": f.path,
                    "line": f.line,
                    "col": f.col,
                    "message": f.message,
                    "state": f.state,
                }
                for f in self.findings
            ],
            "stale_baseline": [
                {"code": e.code, "path": e.path, "reason": e.reason}
                for e in self.stale_baseline
            ],
            "exit_code": self.exit_code,
        }


def normalize_relpath(path: Path, root: Path) -> str:
    """Repository-relative posix path with the ``src/`` layer stripped,
    so checker scopes match the import layout (``repro/sim/...``)."""
    try:
        rel = path.resolve().relative_to(root.resolve())
    except ValueError:
        rel = path
    posix = rel.as_posix()
    if posix.startswith("src/"):
        posix = posix[len("src/"):]
    return posix


def discover(paths: Sequence[Path], root: Path) -> list[SourceFile]:
    """Every ``*.py`` under ``paths`` as :class:`SourceFile` values."""
    seen: set[str] = set()
    files: list[SourceFile] = []
    for base in paths:
        if not base.exists():
            raise AnalysisError(f"no such path: {base}")
        candidates = [base] if base.is_file() else sorted(
            p for p in base.rglob("*.py")
            if not any(part in SKIP_DIRS for part in p.parts)
        )
        for path in candidates:
            relpath = normalize_relpath(path, root)
            if relpath in seen:
                continue
            seen.add(relpath)
            files.append(SourceFile(
                relpath=relpath,
                text=path.read_text(encoding="utf-8"),
                path=path,
            ))
    return files


def _validate_filter(codes: Iterable[str] | None) -> tuple[str, ...] | None:
    if codes is None:
        return None
    known = set(CHECKERS.names()) | {PRAGMA_CODE}
    out = tuple(codes)
    for code in out:
        if code not in known:
            raise AnalysisError(
                f"unknown checker {code!r}; known: "
                f"{tuple(sorted(known))}"
            )
    return out


def run_checkers(files: Sequence[SourceFile]) -> list[Finding]:
    """Every registered checker over the file set (unsuppressed)."""
    findings: list[Finding] = []
    for checker_cls in CHECKERS.all():
        findings.extend(checker_cls().run(files))
    return findings


def lint_files(
    files: Sequence[SourceFile],
    *,
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
    baseline_entries: list[BaselineEntry] | None = None,
) -> LintReport:
    """The full pipeline over already-loaded sources.

    All checkers always run (pragma staleness needs the complete
    picture); ``select``/``ignore`` filter what is *reported*, and the
    gate only counts what is reported.
    """
    select_codes = _validate_filter(select)
    ignore_codes = _validate_filter(ignore) or ()
    entries = baseline_entries or []
    findings = apply_suppressions(
        run_checkers(files), files, waivers(entries)
    )
    suppressed = {
        (f.code, f.path) for f in findings if f.state == "baseline"
    }
    reported = tuple(
        f for f in findings
        if (select_codes is None or f.code in select_codes)
        and f.code not in ignore_codes
    )
    return LintReport(
        findings=reported,
        files_checked=len(files),
        codes_run=CHECKERS.names(),
        stale_baseline=tuple(unused_entries(entries, suppressed)),
    )


def lint_sources(
    sources: Sequence[tuple[str, str]],
    *,
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
    baseline_text: str = "",
) -> LintReport:
    """Lint in-memory ``(relpath, text)`` pairs — the fixture surface."""
    files = [SourceFile(relpath=relpath, text=text) for relpath, text in sources]
    entries = parse_baseline(baseline_text) if baseline_text else []
    return lint_files(
        files, select=select, ignore=ignore, baseline_entries=entries
    )


def lint_paths(
    paths: Sequence[str | Path],
    *,
    root: str | Path | None = None,
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
    baseline: str | Path | None = None,
) -> LintReport:
    """Lint real paths against a repository root (the CLI's pipeline)."""
    root_path = Path(root) if root is not None else _default_root(paths)
    baseline_path = (
        Path(baseline) if baseline is not None else root_path / BASELINE_NAME
    )
    files = discover([Path(p) for p in paths], root_path)
    return lint_files(
        files,
        select=select,
        ignore=ignore,
        baseline_entries=load_baseline(baseline_path),
    )


def _default_root(paths: Sequence[str | Path]) -> Path:
    """The nearest ancestor of the first path holding a ``pyproject.toml``
    (else the current directory) — where the baseline lives."""
    start = Path(paths[0]).resolve() if paths else Path.cwd()
    if start.is_file():
        start = start.parent
    for candidate in (start, *start.parents):
        if (candidate / "pyproject.toml").exists():
            return candidate
    return Path.cwd()
