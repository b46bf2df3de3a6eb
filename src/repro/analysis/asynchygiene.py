"""RPR005 — async hygiene: nothing blocks the live event loop.

The live runtime (:mod:`repro.live`) multiplexes every replica's
channels, heartbeats and the controller protocol on one asyncio loop
per process.  A single blocking call inside an ``async def`` — a
``time.sleep``, a blocking-socket framing helper, a synchronous dial —
stalls *every* connection on that loop, which reads as false
suspicions and spurious fail-overs in the very protocols under test.

The checker flags, inside ``async def`` bodies under ``repro/live``:

* ``time.sleep`` (use ``asyncio.sleep``);
* the blocking-socket framing helpers (``send_msg`` / ``recv_msg`` /
  ``recv_exact`` / ``connect_with_retry`` / ``deliver_challenge`` /
  ``answer_challenge`` — each has an asyncio twin in
  :mod:`repro.net.framing`);
* synchronous dials and subprocess waits
  (``socket.create_connection``, ``subprocess.run``, ...);
* blocking file I/O via bare ``open()`` (stage it before the loop, or
  hand it to ``asyncio.to_thread`` and pragma the call).

A synchronous ``def`` nested inside an ``async def`` is not flagged:
it runs wherever it is called from.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.astutil import import_map, resolve_call, walk_with_async_context
from repro.analysis.base import CHECKERS, Checker, Finding, SourceFile

#: Canonical dotted names that block, with the non-blocking move.
BLOCKING_CALLS: dict[str, str] = {
    "time.sleep": "await asyncio.sleep(...)",
    "socket.create_connection": "asyncio.open_connection / "
                                "open_connection_with_retry",
    "subprocess.run": "await asyncio.create_subprocess_exec(...)",
    "subprocess.check_output": "await asyncio.create_subprocess_exec(...)",
    "subprocess.check_call": "await asyncio.create_subprocess_exec(...)",
}

#: Blocking framing helpers (bare or attribute calls) with asyncio twins.
BLOCKING_HELPERS: dict[str, str] = {
    "send_msg": "write_frame + await drain",
    "recv_msg": "await read_frame(...)",
    "recv_exact": "await reader.readexactly(...)",
    "connect_with_retry": "await open_connection_with_retry(...)",
    "deliver_challenge": "await deliver_challenge_async(...)",
    "answer_challenge": "await answer_challenge_async(...)",
}


@CHECKERS.register
class AsyncHygieneChecker(Checker):
    code = "RPR005"
    name = "async-hygiene"
    description = (
        "no time.sleep, blocking sockets or blocking file I/O inside "
        "async def in repro/live"
    )
    scope = ("repro/live/",)

    def check_file(self, file: SourceFile) -> Iterable[Finding]:
        imports = import_map(file.tree)
        for node, in_async in walk_with_async_context(file.tree):
            if not in_async or not isinstance(node, ast.Call):
                continue
            origin = resolve_call(node, imports)
            if origin in BLOCKING_CALLS:
                yield self.finding(
                    file, node,
                    f"blocking `{origin}()` inside async def stalls the "
                    f"whole event loop; use {BLOCKING_CALLS[origin]}",
                )
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None
            )
            if name in BLOCKING_HELPERS:
                yield self.finding(
                    file, node,
                    f"blocking framing helper `{name}()` inside async def; "
                    f"use {BLOCKING_HELPERS[name]}",
                )
            elif isinstance(func, ast.Name) and func.id == "open":
                yield self.finding(
                    file, node,
                    "blocking file open() inside async def; stage the I/O "
                    "outside the loop or hand it to asyncio.to_thread",
                )
