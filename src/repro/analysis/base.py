"""The :class:`Checker` protocol and the static-analysis value types.

A checker is one *invariant* over the source tree, identified by a
stable code (``RPR001``...).  It declares the paths it patrols
(:attr:`Checker.scope`, prefixes of repository-relative paths with the
``src/`` layer stripped, so ``repro/sim/`` matches both the installed
and the in-repo form) and turns :class:`SourceFile` ASTs into
:class:`Finding` values.  Checkers are classes registered by code
in :data:`CHECKERS`, a :class:`repro.registry.Registry` like the
protocol and probe tables; instances are per-run.

Suppression happens in two layers, both recorded on the finding so
``--format json`` consumers can tell them apart:

* an inline pragma ``# repro: allow[RPR001] reason`` on the offending
  line (or alone on the line above it) waives exactly the named codes
  there — the reason is mandatory;
* a committed baseline file waives one code for one whole file, for
  intentional exceptions too broad for a line pragma
  (:mod:`~repro.analysis.baseline`).
"""

from __future__ import annotations

import ast
import re
from abc import ABC, abstractmethod
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Sequence

from repro.errors import AnalysisError
from repro.registry import Registry

#: The one pragma form the pass honours.  ``reason`` is mandatory: a
#: waiver nobody can justify in half a line should not exist.
PRAGMA_RE = re.compile(
    r"#\s*repro:\s*allow\[(?P<codes>[A-Z0-9,\s]+)\]\s*(?P<reason>.*)$"
)

#: Code reserved for findings the *engine* emits about the suppression
#: machinery itself (malformed or stale pragmas) rather than any
#: registered checker.
PRAGMA_CODE = "RPR000"


@dataclass(frozen=True)
class Finding:
    """One invariant violation at one source location.

    ``state`` is the suppression outcome: ``"active"`` findings gate,
    ``"pragma"`` and ``"baseline"`` findings are reported (JSON always
    carries them; text mode summarises) but never fail the run.
    """

    code: str
    path: str
    line: int
    message: str
    col: int = 0
    state: str = "active"

    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.code)

    def render(self) -> str:
        suffix = "" if self.state == "active" else f"  [{self.state}]"
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}{suffix}"


@dataclass(frozen=True)
class Pragma:
    """One parsed ``# repro: allow[...]`` comment."""

    line: int
    codes: tuple[str, ...]
    reason: str
    #: Lines this pragma waives: its own, plus the next line when the
    #: pragma stands alone (so a wrapped call can carry the waiver
    #: immediately above it).
    applies_to: tuple[int, ...] = ()


@dataclass
class SourceFile:
    """One parsed module presented to the checkers.

    ``relpath`` is repository-relative with a leading ``src/``
    stripped, so scope prefixes are written once (``repro/sim/``) and
    match wherever the tree is checked out.
    """

    relpath: str
    text: str
    path: Path | None = None
    _tree: ast.AST | None = field(default=None, repr=False)
    _pragmas: dict[int, Pragma] | None = field(default=None, repr=False)
    _pragma_errors: list[Finding] | None = field(default=None, repr=False)

    @property
    def tree(self) -> ast.AST:
        """The module AST; :class:`AnalysisError` on a syntax error."""
        if self._tree is None:
            try:
                self._tree = ast.parse(self.text, filename=self.relpath)
            except SyntaxError as exc:
                raise AnalysisError(
                    f"cannot parse {self.relpath}: {exc.msg} (line {exc.lineno})"
                ) from None
        return self._tree

    def _comments(self) -> Iterable[tuple[int, str, bool]]:
        """Real comment tokens as ``(line, text, standalone)`` — a
        pragma-looking string inside a docstring is not a pragma."""
        import io
        import tokenize

        try:
            tokens = tokenize.generate_tokens(io.StringIO(self.text).readline)
            for token in tokens:
                if token.type == tokenize.COMMENT:
                    standalone = token.line.strip().startswith("#")
                    yield token.start[0], token.string, standalone
        except (tokenize.TokenError, IndentationError, SyntaxError):
            return

    def _scan_pragmas(self) -> None:
        if self._pragmas is not None:
            return
        pragmas: dict[int, Pragma] = {}
        errors: list[Finding] = []
        for lineno, raw, standalone in self._comments():
            if "repro:" not in raw:
                continue
            match = PRAGMA_RE.search(raw)
            if match is None:
                if re.search(r"#\s*repro:\s*allow", raw):
                    errors.append(Finding(
                        code=PRAGMA_CODE, path=self.relpath, line=lineno,
                        message="malformed pragma; the form is "
                                "`# repro: allow[CODE] reason`",
                    ))
                continue
            codes = tuple(
                code.strip() for code in match.group("codes").split(",")
                if code.strip()
            )
            reason = match.group("reason").strip()
            if not codes or not reason:
                errors.append(Finding(
                    code=PRAGMA_CODE, path=self.relpath, line=lineno,
                    message="pragma needs both a code list and a reason: "
                            "`# repro: allow[CODE] reason`",
                ))
                continue
            applies = (lineno, lineno + 1) if standalone else (lineno,)
            pragmas[lineno] = Pragma(
                line=lineno, codes=codes, reason=reason, applies_to=applies
            )
        self._pragmas = pragmas
        self._pragma_errors = errors

    @property
    def pragmas(self) -> dict[int, Pragma]:
        self._scan_pragmas()
        assert self._pragmas is not None
        return self._pragmas

    @property
    def pragma_errors(self) -> list[Finding]:
        self._scan_pragmas()
        assert self._pragma_errors is not None
        return self._pragma_errors

    def pragma_for(self, code: str, line: int) -> Pragma | None:
        """The pragma waiving ``code`` at ``line``, if any."""
        for pragma in self.pragmas.values():
            if line in pragma.applies_to and code in pragma.codes:
                return pragma
        return None


class Checker(ABC):
    """One machine-enforced invariant over the source tree.

    Subclasses set :attr:`code` (registry key, also the finding code),
    :attr:`name` (human slug), :attr:`description` and :attr:`scope`.
    Per-file checkers implement :meth:`check_file`; whole-tree checkers
    (cross-file state, e.g. trace-kind consistency) override
    :meth:`run` instead.
    """

    #: Registry key and finding code (``RPR001``); subclasses override.
    code: str = ""
    #: Short slug for listings (``determinism``).
    name: str = ""
    #: One-line description for ``repro lint --list``.
    description: str = ""
    #: Path prefixes this checker patrols.  A directory scope ends in
    #: ``/``; a file scope names the file.  Empty means every file.
    scope: tuple[str, ...] = ()

    def applies_to(self, relpath: str) -> bool:
        if not self.scope:
            return True
        return any(
            relpath.startswith(prefix) if prefix.endswith("/") else relpath == prefix
            for prefix in self.scope
        )

    def run(self, files: Sequence[SourceFile]) -> list[Finding]:
        """Findings over the whole file set (default: per-file scan)."""
        findings: list[Finding] = []
        for file in files:
            if self.applies_to(file.relpath):
                findings.extend(self.check_file(file))
        return findings

    def check_file(self, file: SourceFile) -> Iterable[Finding]:
        """Findings for one in-scope file (per-file checkers)."""
        return ()

    def finding(
        self, file: SourceFile, node: ast.AST, message: str
    ) -> Finding:
        """A :class:`Finding` of this checker's code at ``node``."""
        return Finding(
            code=self.code,
            path=file.relpath,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


#: The shape every checker code takes (``RPR001``).
_CODE_RE = re.compile(r"^[A-Z]{2,8}[0-9]{3}$")


def _checker_code(checker: type[Checker]) -> str:
    """A checker's registry key, refusing codes not shaped like ``RPR001``."""
    if not _CODE_RE.match(checker.code):
        raise AnalysisError(
            f"checker class {checker!r} needs a code like 'RPR001'"
        )
    return checker.code


#: Every registered checker class by code; importing
#: :mod:`repro.analysis` registers the built-in ones.
CHECKERS: Registry[type[Checker]] = Registry(
    "checker", _checker_code, AnalysisError
)


def apply_suppressions(
    findings: Iterable[Finding],
    files: Sequence[SourceFile],
    baseline_waivers: set[tuple[str, str]],
) -> list[Finding]:
    """Mark each finding's suppression state and flag stale pragmas.

    A pragma that waives nothing is itself a defect (the invariant it
    excused no longer exists there) and comes back as an active
    :data:`PRAGMA_CODE` finding, so waivers cannot quietly outlive
    their reasons.  Baseline entries are matched on ``(code, path)``;
    unused ones are reported by the engine, not here.
    """
    by_path = {file.relpath: file for file in files}
    used_pragmas: set[tuple[str, int]] = set()
    out: list[Finding] = []
    for finding in findings:
        file = by_path.get(finding.path)
        pragma = file.pragma_for(finding.code, finding.line) if file else None
        if pragma is not None:
            used_pragmas.add((finding.path, pragma.line))
            out.append(replace(finding, state="pragma"))
        elif (finding.code, finding.path) in baseline_waivers:
            out.append(replace(finding, state="baseline"))
        else:
            out.append(finding)
    for file in files:
        out.extend(file.pragma_errors)
        for pragma in file.pragmas.values():
            if (file.relpath, pragma.line) not in used_pragmas:
                out.append(Finding(
                    code=PRAGMA_CODE, path=file.relpath, line=pragma.line,
                    message=f"stale pragma: allow[{','.join(pragma.codes)}] "
                            f"suppresses nothing on this line — remove it",
                ))
    return sorted(out, key=Finding.sort_key)
