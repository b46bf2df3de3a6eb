"""``python -m repro lint`` — the invariant linter's command line.

Text mode prints one finding per line (``path:line:col: CODE message``)
plus a per-code summary; ``--format json`` emits the stable payload
documented in the README for CI jobs and future tooling.  Exit 0
when no *active* finding remains, 1 otherwise, 2 on usage errors (via
the shared :class:`~repro.errors.ReproError` handling).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.analysis.base import CHECKERS
from repro.analysis.engine import LintReport, lint_paths
from repro.errors import ReproError


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths", nargs="*", metavar="PATHS",
        help="files or directories to check (default: src/ and tests/ "
             "under the repository root)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (json is the stable machine schema)",
    )
    parser.add_argument(
        "--select", default=None, metavar="CODE[,CODE]",
        help="report only these checker codes",
    )
    parser.add_argument(
        "--ignore", default=None, metavar="CODE[,CODE]",
        help="drop these checker codes from the report",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="suppression baseline (default: lint-baseline.txt at the "
             "repository root)",
    )
    parser.add_argument(
        "--root", default=None, metavar="DIR",
        help="repository root for relative paths and the default "
             "baseline (default: nearest ancestor with pyproject.toml)",
    )
    parser.add_argument(
        "--list", action="store_true", dest="list_checkers",
        help="list registered checkers and exit",
    )


def _split(value: str | None) -> tuple[str, ...] | None:
    if value is None:
        return None
    return tuple(code.strip() for code in value.split(",") if code.strip())


def _default_paths(root: Path) -> list[str]:
    paths = [str(root / name) for name in ("src", "tests") if (root / name).is_dir()]
    return paths or [str(root)]


def _list_checkers() -> int:
    for checker_cls in CHECKERS.all():
        checker = checker_cls()
        scope = ", ".join(checker.scope) or "everything"
        print(f"{checker.code}  {checker.name}")
        print(f"    {checker.description}")
        print(f"    scope: {scope}")
    return 0


def _render_text(report: LintReport) -> None:
    for finding in report.findings:
        print(finding.render())
    for entry in report.stale_baseline:
        print(
            f"{entry.path}: stale baseline entry {entry.code} "
            f"({entry.reason}) — remove it"
        )
    counts = report.counts()
    if counts:
        print()
        for code, states in counts.items():
            parts = [f"{n} {state}" for state, n in states.items() if n]
            print(f"{code}: {', '.join(parts)}")
    active = len(report.active())
    checked = report.files_checked
    verdict = "clean" if not active else f"{active} active finding(s)"
    print(f"repro lint: {checked} files checked — {verdict}")


def cmd_lint(args: argparse.Namespace) -> int:
    if args.list_checkers:
        return _list_checkers()
    root = Path(args.root).resolve() if args.root else None
    paths = list(args.paths)
    if not paths:
        from repro.analysis.engine import _default_root

        base = root or _default_root([Path.cwd()])
        root = root or base
        paths = _default_paths(base)
    report = lint_paths(
        paths,
        root=root,
        select=_split(args.select),
        ignore=_split(args.ignore),
        baseline=args.baseline,
    )
    if args.format == "json":
        json.dump(report.to_json(), sys.stdout, indent=2, sort_keys=False)
        print()
    else:
        _render_text(report)
    return report.exit_code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="statically enforce the determinism, dispatch, "
                    "trace-kind, wire-safety and async-hygiene invariants",
    )
    add_lint_arguments(parser)
    try:
        return cmd_lint(parser.parse_args(argv))
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
