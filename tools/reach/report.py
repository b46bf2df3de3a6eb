"""Product-reach gate: which ``src/repro`` functions did the product pass run?

    REACH_DIR=DIR tools/reach/product.sh
    REACH_DIR=DIR python tools/reach/report.py [--src DIR] [--allow FILE]

Exit 2 if ``$REACH_DIR`` holds no recorder files.  The defaults are this
repo's ``src/repro`` and ``tools/reach/allow.txt``.

Compiles every file under ``--src`` and walks its function code objects
(``<module>``, class bodies, comprehensions and lambdas are skipped).  A
function is *reached* when a recorder file in ``$REACH_DIR`` names it.
Each line of ``--allow`` reads ``path::qualname  reason``; lines starting
with ``#`` are comments.  Exit 1 on an unreached function the allow-list
does not name, on an entry without a reason, and on a stale entry (one
that names no function).  An allow-listed function that was reached is
printed, not failed: timing decides whether some retry paths run.  Prints
a markdown table either way.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
from pathlib import Path
from types import CodeType

HERE = Path(__file__).resolve().parent


def functions(src: Path) -> dict[str, int]:
    """``path::qualname`` -> lines spanned, for every function under ``src``."""
    found: dict[str, int] = {}
    for path in sorted(src.rglob("*.py")):
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack.extend(c for c in code.co_consts if isinstance(c, CodeType))
            if code.co_flags & inspect.CO_OPTIMIZED and not code.co_name.startswith("<"):
                key = f"{path.relative_to(src).as_posix()}::{code.co_qualname}"
                lines = [line for _, _, line in code.co_lines() if line is not None]
                last = max(lines, default=code.co_firstlineno)
                found[key] = found.get(key, 0) + last - code.co_firstlineno + 1
    return found


def allow_list(path: Path) -> dict[str, str]:
    """``path::qualname`` -> reason ("" when the entry gives none)."""
    entries = {}
    for line in path.read_text().splitlines():
        key, _, reason = line.strip().partition(" ")
        if key and not key.startswith("#"):
            entries[key] = reason.strip()
    return entries


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=HERE.parents[1] / "src" / "repro")
    parser.add_argument("--allow", type=Path, default=HERE / "allow.txt")
    args = parser.parse_args(argv)
    reach_dir = os.environ.get("REACH_DIR")
    records = sorted(Path(reach_dir).glob("*.txt")) if reach_dir else []
    if not records:
        print(f"error: no recorder files in REACH_DIR={reach_dir}", file=sys.stderr)
        return 2
    reached = {key for f in records for key in f.read_text().splitlines()}
    spans, allowed = functions(args.src), allow_list(args.allow)
    defined, listed = set(spans), set(allowed)
    unreached = defined - reached
    problems = [f"unreached, not allow-listed: {k}" for k in sorted(unreached - listed)]
    problems += [f"allow-listed without a reason: {k}" for k in allowed if not allowed[k]]
    problems += [f"stale, names no function: {k}" for k in sorted(listed - defined)]

    def row(label: str, keys: set[str]) -> str:
        return f"| {label} | {len(keys)} | {sum(spans[k] for k in keys)} |"

    print("### Product reach (`tools/reach/product.sh`)\n")
    print(f"{len(records)} recorder files; {len(spans)} functions in `{args.src.name}`.\n")
    print("| class | functions | lines |\n| --- | --- | --- |")
    print(row("reached by the product", defined & reached))
    print(row("unreached, allow-listed", unreached & listed))
    print(row("unreached, not listed", unreached - listed))
    if listed & reached:
        print("\nReached although allow-listed (timing-dependent, or the entry can go):")
        print("\n".join(f"- `{key}`" for key in sorted(listed & reached)))
    if problems:
        print("\n" + "\n".join(f"- FAIL {problem}" for problem in problems))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
