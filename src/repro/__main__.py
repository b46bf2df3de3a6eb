"""Command-line entry point: ``python -m repro <command>``.

A thin wrapper over :mod:`repro.harness.cli` so the package itself is
runnable; also the ``repro`` console-script target.

The ``worker``, ``serve``, ``load`` and ``lint`` subcommands
short-circuit before the harness CLI is imported: sweep
coordinators (:mod:`repro.harness.exec.sockets`) spawn one ``python -m
repro worker`` process per job, the live-cluster controller
(:mod:`repro.live.cluster`) spawns one ``python -m repro serve
--join`` process per replica, the static-analysis pass
(:mod:`repro.analysis`) needs no simulator at all, and the fast paths
defer the harness CLI (its argparse tree, figure rendering and
their import chain) until a command actually needs it.  The behaviour
is identical either way — these paths and the matching subcommands in
:mod:`repro.harness.cli` delegate to the same mains.
"""

import sys


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "worker":
        from repro.harness.exec.sockets import main as worker_main

        return worker_main(argv[1:])
    if argv and argv[0] == "serve":
        from repro.live.cluster import main as serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "load":
        from repro.live.client import main as load_main

        return load_main(argv[1:])
    if argv and argv[0] == "lint":
        from repro.analysis.cli import main as lint_main

        return lint_main(argv[1:])
    from repro.harness.cli import main as _main

    return _main(argv)


if __name__ == "__main__":
    sys.exit(main())
