"""The invariant-checker registry.

Maps checker codes (``RPR001``...) to
:class:`~repro.analysis.base.Checker` *classes* (instances are
per-run), mirroring the protocol, executor and probe registries.  The
five built-in invariants register on package import; a new invariant
registers with :func:`register` and is immediately selectable from
``repro lint --select`` and listed by ``repro lint --list``.
"""

from __future__ import annotations

import re

from repro.analysis.base import Checker
from repro.errors import AnalysisError

_REGISTRY: dict[str, type[Checker]] = {}

_CODE_RE = re.compile(r"^[A-Z]{2,8}[0-9]{3}$")


def register(checker: type[Checker], *, replace: bool = False) -> type[Checker]:
    """Add a checker class under its ``code``; returns it, so it can be
    used as a decorator.  Duplicate codes are an error unless
    ``replace=True`` (shadowing a builtin in tests)."""
    if not checker.code or not _CODE_RE.match(checker.code):
        raise AnalysisError(
            f"checker class {checker!r} needs a code like 'RPR001'"
        )
    if checker.code in _REGISTRY and not replace:
        raise AnalysisError(
            f"checker {checker.code!r} is already registered; "
            f"pass replace=True to override"
        )
    _REGISTRY[checker.code] = checker
    return checker


def unregister(code: str) -> None:
    """Remove a checker (primarily for test teardown)."""
    _REGISTRY.pop(code, None)


def get(code: str) -> type[Checker]:
    """Look up a checker class by code."""
    try:
        return _REGISTRY[code]
    except KeyError:
        raise AnalysisError(
            f"unknown checker {code!r}; known: {names()}"
        ) from None


def names() -> tuple[str, ...]:
    """Registered checker codes, in registration order."""
    return tuple(_REGISTRY)


def all_checkers() -> tuple[type[Checker], ...]:
    """Every registered checker class, in registration order."""
    return tuple(_REGISTRY.values())
