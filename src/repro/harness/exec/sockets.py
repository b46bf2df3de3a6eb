"""The ``sockets`` backend: a fault-tolerant TCP task coordinator.

The do-all problem in miniature (Dwork/Halpern/Waarts, PAPERS.md): a
grid of independent deterministic tasks, a fleet of unreliable
workers, and the requirement that every task gets done exactly once
*from the caller's point of view* however many workers die along the
way.  Because tasks are pure, "exactly once" is cheap — re-running a
task lost with its worker cannot change its result, so worker loss is
a **scheduling event, not a sweep failure**.

Topology::

    coordinator (this process)            worker subprocess x N
    ------------------------------        ---------------------------
    listen on host:port      <----------  python -m repro worker \\
    stream tasks to idle workers              --connect host:port
    collect results, reschedule losses    run_task(task) per message

Wire protocol: length-prefixed pickles (a 4-byte big-endian size, then
the payload), tuples on both directions —

* coordinator -> worker: ``("task", index, attempt, SweepTask)`` or
  ``("stop",)``;
* worker -> coordinator: ``("hello", pid)`` once, then
  ``("result", index, True, PointResult)`` or
  ``("result", index, False, traceback_text)``.

Failure semantics:

* **worker dies or times out mid-task** — the in-flight task goes back
  to the *front* of the queue (another worker picks it up next), the
  dead worker is reaped and a replacement is spawned.  Retries are
  bounded (:data:`DEFAULT_MAX_ATTEMPTS` per task); exhausting them
  aborts the sweep with a :class:`~repro.errors.SweepError` naming the
  point.
* **task raises inside a worker** — deterministic, so never retried:
  the sweep aborts with a :class:`SweepError` carrying the point id
  and the worker-side traceback.

By default the coordinator binds the loopback interface and spawns
``jobs`` local workers — byte-identical to ``serial``/``pool``, just
over TCP.  For multi-host use, pass ``--executor sockets --bind
0.0.0.0:5555 --spawn 0`` to any sweep command (equivalently, construct
``SocketExecutor(bind="0.0.0.0", port=5555, spawn=0, jobs=N)``) and
start ``python -m repro worker --connect coord-host:5555`` on as many
machines as you like (the grid waits for connections); ``jobs`` then
only caps how many tasks are in flight at once per accepted worker
(one each).

.. warning:: The payload format is **pickle** — anyone who completes a
   connection can execute code in the coordinator (and a rogue
   coordinator can do the same to a worker).  The loopback default
   needs no protection; binding a non-loopback interface *requires* a
   pre-shared key (``auth_key=`` / ``--auth-key`` / the
   ``REPRO_AUTH_KEY`` environment variable), which the coordinator
   verifies with an HMAC challenge-response handshake à la
   :mod:`multiprocessing.connection` before any frame is unpickled
   (:mod:`repro.net.framing`).  The key authenticates peers; it does
   not encrypt traffic — still keep the port on a trusted network or
   an SSH tunnel.

Test hook: setting ``REPRO_EXEC_CRASH=<substring>:<times>`` in a
worker's environment makes it ``os._exit(17)`` when handed a task
whose ``point_id`` contains the substring while ``attempt <= times``
— the only way to exercise the reschedule and retries-exhausted paths
deterministically from the test suite.
"""

from __future__ import annotations

import argparse
import os
import signal
import socket
import subprocess
import sys
import threading
import traceback
from collections import deque
from typing import Sequence

from repro.errors import ConfigError, SweepError
from repro.harness.exec.base import Executor, ProgressCallback, register
from repro.harness.exec.schedule import dispatch_order
from repro.harness.runner import PointResult, SweepTask, run_task
from repro.net import framing
from repro.net.framing import recv_msg, send_msg

#: Attempts per task (1 first run + 2 retries) before the sweep fails.
DEFAULT_MAX_ATTEMPTS = 3
#: Exit status of the ``REPRO_EXEC_CRASH`` test hook.
_CRASH_EXIT = 17


# ----------------------------------------------------------------------
# Worker side (`python -m repro worker --connect host:port`)
# ----------------------------------------------------------------------
def _maybe_crash(task: SweepTask, attempt: int) -> None:
    """Honour the ``REPRO_EXEC_CRASH`` test hook (see module docs)."""
    spec = os.environ.get("REPRO_EXEC_CRASH")
    if not spec:
        return
    pattern, _, times = spec.rpartition(":")
    if pattern and pattern in task.point_id and attempt <= int(times):
        os._exit(_CRASH_EXIT)


def worker_loop(host: str, port: int, auth_key: bytes | None = None) -> int:
    """Connect to a coordinator and run tasks until told to stop.

    The initial dial retries on the shared jittered-backoff policy
    (:data:`repro.net.framing.STARTUP`): external joiners routinely
    race the coordinator's bind, and a fixed-cadence (or single-shot)
    dial loses that race spuriously.  A coordinator that never appears
    is a clean :class:`~repro.net.framing.PeerLost` once the retry
    budget is spent.
    """
    with framing.connect_with_retry(host, port, framing.STARTUP) as sock:
        if auth_key is not None:
            try:
                framing.answer_challenge(sock, auth_key)
            except framing.AuthenticationError as exc:
                print(f"worker: {exc}", file=sys.stderr)
                return 2
        send_msg(sock, ("hello", os.getpid()))
        while True:
            try:
                msg = recv_msg(sock)
            except framing.PeerLost:
                return 0  # coordinator went away: nothing left to do
            if msg[0] == "stop":
                return 0
            _, index, attempt, task = msg
            _maybe_crash(task, attempt)
            try:
                result = run_task(task)
                reply = ("result", index, True, result)
            except Exception:
                reply = ("result", index, False, traceback.format_exc())
            try:
                send_msg(sock, reply)
            except OSError:
                return 0  # coordinator aborted the sweep mid-reply


def main(argv: list[str] | None = None) -> int:
    """CLI entry for the worker subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro worker",
        description="sweep worker: executes tasks streamed from a "
                    "sockets-executor coordinator",
    )
    parser.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="coordinator address (printed by the coordinator, or the "
             "host you started `SocketExecutor(bind=..., port=...)` on)",
    )
    parser.add_argument(
        "--auth-key", default=None,
        help=f"pre-shared handshake key (or ${framing.AUTH_KEY_ENV}); "
             "must match the coordinator's",
    )
    args = parser.parse_args(argv)
    host, _, port = args.connect.rpartition(":")
    if not host or not port.isdigit():
        parser.error(f"--connect wants HOST:PORT, got {args.connect!r}")
    return worker_loop(host, int(port), framing.resolve_auth_key(args.auth_key))


# ----------------------------------------------------------------------
# Coordinator side
# ----------------------------------------------------------------------
def add_coordinator_arguments(parser: argparse.ArgumentParser) -> None:
    """The coordinator's placement flags, for any sweep subcommand."""
    parser.add_argument("--bind", default=None, metavar="HOST:PORT",
                        help="sockets executor: listen on this interface "
                             "so workers can join from other hosts")
    parser.add_argument("--spawn", type=int, default=None, metavar="N",
                        help="sockets executor: local workers to spawn "
                             "(0 = wait for external workers only)")


def coordinator_options(args: argparse.Namespace, executor: str) -> dict[str, object]:
    """Constructor options from the parsed ``--bind``/``--spawn``/
    ``--auth-key`` flags (an error for any other backend)."""
    options: dict[str, object] = {}
    bind = getattr(args, "bind", None)
    if bind is not None:
        host, _, port = bind.rpartition(":")
        if not host or not port.isdigit():
            raise ConfigError(f"--bind wants HOST:PORT, got {bind!r}")
        options["bind"] = host
        options["port"] = int(port)
    spawn = getattr(args, "spawn", None)
    if spawn is not None:
        if spawn < 0:
            raise ConfigError("--spawn must be >= 0")
        options["spawn"] = spawn
    auth_key = getattr(args, "auth_key", None)
    if auth_key is not None:
        options["auth_key"] = auth_key
    if options and executor != "sockets":
        raise ConfigError(
            "--bind/--spawn/--auth-key configure the sockets coordinator; "
            "pass --executor sockets"
        )
    return options


@register
class SocketExecutor(Executor):
    """Stream tasks to worker subprocesses over TCP; survive their
    deaths."""

    name = "sockets"

    def __init__(
        self,
        jobs: int = 1,
        cost_hints: dict[str, float] | None = None,
        bind: str = "127.0.0.1",
        port: int = 0,
        spawn: int | None = None,
        task_timeout: float | None = None,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        worker_env: dict[str, str] | None = None,
        auth_key: str | bytes | None = None,
    ) -> None:
        super().__init__(jobs=jobs, cost_hints=cost_hints)
        self.bind = bind
        self.port = port
        #: Workers to spawn locally; ``None`` = one per job.  0 means
        #: "external workers will connect" (multi-host mode).
        self.spawn = self.jobs if spawn is None else spawn
        self.task_timeout = task_timeout
        if max_attempts < 1:
            raise ConfigError("sockets executor needs max_attempts >= 1")
        self.max_attempts = max_attempts
        self.worker_env = worker_env
        #: Pre-shared handshake key (``REPRO_AUTH_KEY`` when unset);
        #: mandatory for non-loopback binds, enforced at :meth:`run`.
        self.auth_key = framing.resolve_auth_key(auth_key)
        framing.require_auth_for_bind(self.bind, self.auth_key)

    # -- worker process management -------------------------------------
    def _spawn_worker(self, port: int) -> subprocess.Popen:
        env = dict(os.environ)
        # Propagate the coordinator's import path verbatim: workers
        # must resolve `repro` exactly as the parent does, installed
        # or straight from a source tree.
        env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
        if self.auth_key is not None:
            env[framing.AUTH_KEY_ENV] = self.auth_key.decode("utf-8")
        if self.worker_env:
            env.update(self.worker_env)
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "worker",
             "--connect", f"127.0.0.1:{port}"],
            env=env,
            stdout=subprocess.DEVNULL,
        )

    # -- scheduling core -----------------------------------------------
    def run(
        self,
        tasks: Sequence[SweepTask],
        progress: ProgressCallback | None = None,
    ) -> list[PointResult]:
        if not tasks:
            return []
        self._start_clock()
        self._tasks = tasks
        self._results: dict[int, PointResult] = {}
        self._fatal: SweepError | None = None
        self._cond = threading.Condition()
        self._serving = 0
        self._respawns = 0
        # Most-expensive-first; rescheduled losses jump the queue.
        self._queue: deque[tuple[int, int]] = deque(
            (i, 1) for i in dispatch_order(tasks, self.cost_hints)
        )
        self._procs: list[subprocess.Popen] = []
        threads: list[threading.Thread] = []

        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.bind, self.port))
        listener.listen()
        listener.settimeout(0.2)
        self._bound_port = port = listener.getsockname()[1]
        # A SIGINT/SIGTERM turns into a clean abort: the wait loop
        # wakes, the finally block reaps every worker subprocess, and
        # the caller gets a SweepError instead of a traceback plus a
        # fleet of orphans.  Only the main thread may install handlers.
        old_handlers: dict[int, object] = {}
        if threading.current_thread() is threading.main_thread():
            def _interrupted(signo: int, frame: object) -> None:
                self._abort(SweepError(
                    f"sweep interrupted by {signal.Signals(signo).name}"
                ))

            for signo in (signal.SIGINT, signal.SIGTERM):
                old_handlers[signo] = signal.signal(signo, _interrupted)
        if self.spawn == 0:
            # External-worker mode (CLI --bind/--spawn 0): the grid
            # waits for joins, so tell the operator where to point
            # `python -m repro worker` on the other hosts.
            print(
                f"sockets executor listening on {self.bind}:{port} — "
                f"join workers with: python -m repro worker "
                f"--connect <this-host>:{port}",
                file=sys.stderr, flush=True,
            )
        try:
            for _ in range(min(self.spawn, len(tasks))):
                self._procs.append(self._spawn_worker(port))

            def accept_loop() -> None:
                while not self._finished():
                    try:
                        conn, _ = listener.accept()
                    except socket.timeout:
                        continue
                    except OSError:
                        return
                    thread = threading.Thread(
                        target=self._serve, args=(conn, progress), daemon=True
                    )
                    threads.append(thread)
                    thread.start()

            acceptor = threading.Thread(target=accept_loop, daemon=True)
            acceptor.start()
            self._wait(progress)
        finally:
            with self._cond:
                self._cond.notify_all()
            listener.close()
            for proc in self._procs:
                if proc.poll() is None:
                    proc.terminate()
            for thread in threads:
                thread.join(timeout=2.0)
            for proc in self._procs:
                try:
                    proc.wait(timeout=2.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait(timeout=2.0)
            for signo, handler in old_handlers.items():
                signal.signal(signo, handler)
        if self._fatal is not None:
            raise self._fatal
        return [self._results[i] for i in range(len(tasks))]

    def _finished(self) -> bool:
        return self._fatal is not None or len(self._results) == len(self._tasks)

    def _wait(self, progress: ProgressCallback | None) -> None:
        """Block until the sweep completes, fails, or orphans."""
        with self._cond:
            while not self._finished():
                self._cond.wait(timeout=0.2)
                if self._finished():
                    break
                if (
                    self._procs
                    and self._serving == 0
                    and all(p.poll() is not None for p in self._procs)
                ):
                    codes = sorted({p.poll() for p in self._procs})
                    self._fatal = SweepError(
                        f"all sockets-executor workers exited (codes "
                        f"{codes}) with {len(self._tasks) - len(self._results)}"
                        f" task(s) unfinished — workers start with `python -m"
                        f" repro worker`; check they can import repro"
                    )

    def _serve(self, conn: socket.socket, progress: ProgressCallback | None) -> None:
        """One thread per connected worker: feed it tasks until done.

        Only *socket* I/O maps to "worker lost"; coordinator-local
        failures (a progress callback or checkpoint journal raising —
        a full disk, say) abort the sweep with the real error instead
        of being misread as a dead worker.
        """
        with self._cond:
            self._serving += 1
        in_flight: tuple[int, int] | None = None
        try:
            try:
                conn.settimeout(self.task_timeout)
                if self.auth_key is not None:
                    framing.deliver_challenge(conn, self.auth_key)
                hello = recv_msg(conn)
            except framing.AuthenticationError:
                # A peer with the wrong key is not one of our workers:
                # drop it without touching the fleet accounting.
                return
            except (framing.PeerLost, OSError):
                # Vanished before the handshake: nothing in flight to
                # reschedule, but keep the fleet at strength.
                self._worker_lost(None)
                return
            if not (isinstance(hello, tuple) and hello[0] == "hello"):
                return
            while True:
                item = self._next_item()
                if item is None:
                    try:
                        send_msg(conn, ("stop",))
                    except OSError:
                        pass
                    return
                in_flight = item
                index, attempt = item
                try:
                    send_msg(conn, ("task", index, attempt, self._tasks[index]))
                    _, r_index, ok, payload = recv_msg(conn)
                except (framing.PeerLost, OSError):
                    self._worker_lost(in_flight)
                    return
                in_flight = None
                if ok:
                    try:
                        self._record(r_index, payload, progress)
                    except Exception as exc:
                        self._abort(SweepError(
                            f"progress/checkpoint callback failed after "
                            f"{self._tasks[r_index].point_id}: {exc!r}"
                        ))
                        return
                else:
                    self._abort(SweepError(
                        f"sweep task {self._tasks[r_index].point_id} failed "
                        f"in a worker:\n{payload}"
                    ))
                    return
        finally:
            with self._cond:
                self._serving -= 1
                self._cond.notify_all()
            conn.close()

    def _next_item(self) -> tuple[int, int] | None:
        """The next (index, attempt) to dispatch; ``None`` when the
        sweep is over.  Blocks while the queue is empty but tasks are
        still in flight elsewhere (their workers may die)."""
        with self._cond:
            while True:
                if self._finished():
                    return None
                if self._queue:
                    return self._queue.popleft()
                self._cond.wait(timeout=0.2)

    def _record(
        self, index: int, point: PointResult, progress: ProgressCallback | None
    ) -> None:
        with self._cond:
            if index in self._results:  # duplicate from a raced retry
                return
            self._results[index] = point
            self._report(progress, point, total=len(self._tasks))
            self._cond.notify_all()

    def _abort(self, error: SweepError) -> None:
        with self._cond:
            if self._fatal is None:
                self._fatal = error
            self._cond.notify_all()

    def _worker_lost(self, in_flight: tuple[int, int] | None) -> None:
        """Reschedule the lost worker's task and refill the fleet."""
        respawn = False
        with self._cond:
            if self._fatal is None and in_flight is not None:
                index, attempt = in_flight
                if index not in self._results:
                    if attempt >= self.max_attempts:
                        task_id = self._tasks[index].point_id
                        self._fatal = SweepError(
                            f"sweep task {task_id} lost its worker "
                            f"{attempt} time(s) (died or timed out); "
                            f"giving up after {self.max_attempts} attempts"
                        )
                    else:
                        self._queue.appendleft((index, attempt + 1))
            # Keep the fleet at strength while work remains: one
            # replacement per loss, bounded so a worker that can never
            # start cannot respawn forever.
            respawn = (
                not self._finished()
                and self.spawn > 0
                and self._respawns < self.spawn * (self.max_attempts + 1)
            )
            if respawn:
                self._respawns += 1
            self._cond.notify_all()
        if respawn:
            self._procs.append(self._spawn_worker(self._bound_port))
