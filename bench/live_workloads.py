"""The four live-cluster workloads: processes, load driver, correctness gate.

The harness owns every PID: it starts ``python -m repro serve --spawn 0``
as the controller, then one ``serve --join`` process per replica, and
reaps each with ``os.wait4`` so CPU time and peak RSS come from the
kernel's own accounting.  Load is generated in this process on the
public ``LiveTransport`` / ``LoadClient`` / ``fetch_spec`` /
``ClientRequest`` API, one connection per replica.

Everything is scheduled against the cluster's start epoch: the first
warm-up request is due ``LEAD_S`` after it, the measured window opens
``WARMUP_S`` later, and a ``--kill-after`` lands in the middle of the
window because the controller is told the same offsets.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import random
import resource
import selectors
import signal
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import repro.protocols as protocols
from repro.core.requests import ClientRequest
from repro.harness.workload import arrival_times
from repro.live.client import LoadClient, fetch_spec, percentile
from repro.live.transport import LiveTransport
from common import HostSpeed, InvalidRun, SpanLog, program_env

#: Cluster start epoch -> first warm-up request due.
LEAD_S = 0.5
#: Load offered before the measured window opens.
WARMUP_S = 2.0
#: Longest wait for outstanding requests after the last one is sent.
DRAIN_S = 3.0
#: Pause between the last commit and the stop, so the slowest replica
#: executes the tail before histories are compared.
SETTLE_S = 1.0
#: A request answered later than this after its due time misses the
#: limit: 250 ms for independent users, and 1 s in a closed loop, where
#: each request queues behind the 255 others by design.
OPEN_LIMIT_S, CLOSED_LIMIT_S = 0.250, 1.0
#: An open-loop run whose generator sent a tenth of its requests later
#: than this is invalid: two batching intervals, past which the
#: generator and not the cluster sets the latency reported.  p99 is
#: reported, not gated: one 150 ms host stall in a 15 s run moves it
#: past any useful limit.
LATENESS_P90_LIMIT_S = 0.020
#: The failover gap looks at requests due in [kill - 0.5 s, kill + 2 s].
GAP_BEFORE_S, GAP_AFTER_S = 0.5, 2.0
#: Pause between two host-speed samples in the driver (~1 ms of CPU each).
PROBE_EVERY_S = 0.05
#: A replica's memory grows with every commit (~7 KB), so on a closed
#: loop its peak follows the rate.  The processes' peak resident sizes
#: are therefore read when the driver has seen this many commits (or,
#: in a run too short for that, when the window closes): 1 s into a
#: closed loop, 7 s into ``live-sc-steady``, after the kill on
#: ``live-sc-failover``.  Early, because SC's spurious fail-over (see
#: the README) stops the first pair growing from whenever it strikes.
RSS_AT_COMMITS = 4_000

CLIENT = "c1"


@dataclass(frozen=True)
class LiveWorkload:
    name: str
    protocol: str
    batching_interval: float
    #: Open loop: Poisson arrivals at this many requests per second.
    rate: float | None = None
    #: Closed loop: requests kept outstanding.
    outstanding: int | None = None
    #: Replica killed in the middle of the measured window.
    kill: str | None = None


WORKLOADS = {
    w.name: w
    for w in (
        LiveWorkload("live-sc-steady", "sc", 0.010, rate=600.0),
        LiveWorkload("live-sc-closed", "sc", 0.002, outstanding=256),
        LiveWorkload("live-bft-closed", "bft", 0.002, outstanding=256),
        LiveWorkload("live-sc-failover", "sc", 0.010, rate=300.0, kill="p1"),
    )
}


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------
class Child:
    """One spawned process, reaped with ``os.wait4`` for its rusage."""

    def __init__(
        self, role: str, argv: list[str], stderr: Path, stdout: Path | None = None
    ) -> None:
        self.role = role
        self.status: int | None = None
        self.rusage = None
        #: Peak resident MB when the driver read memory; None if gone by then.
        self.peak_mb: float | None = None
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        self.pid = os.posix_spawn(
            sys.executable,
            [sys.executable, *argv],
            program_env(),
            file_actions=[
                (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                (os.POSIX_SPAWN_OPEN, 1, str(stdout or os.devnull), flags, 0o644),
                (os.POSIX_SPAWN_OPEN, 2, str(stderr), flags, 0o644),
            ],
        )

    def poll(self) -> int | None:
        if self.status is None:
            pid, status, rusage = os.wait4(self.pid, os.WNOHANG)
            if pid:
                self.status = os.waitstatus_to_exitcode(status)
                self.rusage = rusage
        return self.status

    def wait(self, timeout: float) -> int | None:
        deadline = time.monotonic() + timeout
        while self.poll() is None and time.monotonic() < deadline:
            time.sleep(0.01)
        return self.status

    def signal(self, signo: int) -> None:
        if self.poll() is None:
            os.kill(self.pid, signo)

    def reap(self) -> None:
        """Make sure the process is gone and collected."""
        self.signal(signal.SIGTERM)
        if self.wait(2.0) is None:
            self.signal(signal.SIGKILL)
            self.wait(5.0)

    def read_memory(self) -> None:
        """Note the peak resident size so far (``VmHWM``), unless the
        process is gone.  Not ``ru_maxrss``: Linux starts a child's at
        the resident size of the process that spawned it."""
        try:
            status = Path(f"/proc/{self.pid}/status").read_text()
        except OSError:
            return
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                self.peak_mb = int(line.split()[1]) / 1024.0  # reported in KiB

    @property
    def cpu_s(self) -> float:
        return self.rusage.ru_utime + self.rusage.ru_stime


class LiveCluster:
    """Controller plus replica processes; a context manager that reaps
    every child however the block is left."""

    def __init__(
        self,
        workload: LiveWorkload,
        out_dir: Path,
        kill_after: float | None,
        json_dir: Path | None,
    ) -> None:
        self.workload = workload
        self.out_dir = out_dir
        plugin = protocols.get(workload.protocol)
        config = plugin.configure(
            scheme="md5-rsa1024", f=1, batching_interval=workload.batching_interval
        )
        self.names = plugin.process_names(config)
        self.controller_argv = [
            "-m", "repro", "serve", "--spawn", "0", "--bind", "127.0.0.1:0",
            "--protocol", workload.protocol, "--f", "1",
            "--batching-interval", str(workload.batching_interval),
            "--warmup", str(LEAD_S + WARMUP_S),
        ]  # fmt: skip
        if kill_after is not None:
            self.controller_argv += ["--kill-after", f"{workload.kill}:{kill_after}"]
        if json_dir is not None:
            self.controller_argv += ["--json-dir", str(json_dir)]
        self.controller: Child | None = None
        self.replicas: dict[str, Child] = {}
        self.control = ""
        self.spawned_at = 0.0

    def role(self, name: str) -> str:
        if name == self.names[0]:
            return "coordinator"
        return "shadow" if name == self.names[0] + "'" else "replica"

    def __enter__(self) -> "LiveCluster":
        self.spawned_at = time.monotonic()
        self.controller = Child(
            "controller",
            self.controller_argv,
            self._log("controller.err"),
            self._log("controller.out"),
        )
        self.control = self._control_address(self._log("controller.err"))
        for name in self.names:
            self.replicas[name] = Child(
                self.role(name),
                ["-m", "repro", "serve", "--join", self.control, "--replica-id", name],
                self._log(f"{name}.err"),
            )
        return self

    def _log(self, suffix: str) -> Path:
        return self.out_dir / f"{self.workload.name}.{suffix}"

    def __exit__(self, *exc) -> None:
        for child in (*self.replicas.values(), self.controller):
            if child is not None:
                child.reap()

    def _control_address(self, stderr: Path) -> str:
        """The ephemeral control port, from the controller's first line."""
        marker = "control listening on "
        deadline = time.monotonic() + 20.0
        while time.monotonic() < deadline:
            text = stderr.read_text() if stderr.exists() else ""
            if marker in text:
                return text.split(marker, 1)[1].split()[0]
            if self.controller.poll() is not None:
                break
            time.sleep(0.01)
        raise InvalidRun(f"controller never listened; see {stderr}")

    def stop(self) -> dict:
        """Stop the cluster and return the controller's summary."""
        self.controller.signal(signal.SIGTERM)
        if self.controller.wait(30.0) is None:
            raise InvalidRun("controller did not exit after SIGTERM")
        for name, child in self.replicas.items():
            if child.wait(10.0) is None:
                raise InvalidRun(f"replica {name} did not exit after the stop")
        out = self._log("controller.out")
        lines = out.read_text().strip().splitlines()
        if not lines:
            raise InvalidRun(f"controller printed no summary; see {out}")
        return json.loads(lines[-1])

    def children(self) -> list[Child]:
        return [self.controller, *self.replicas.values()]


# ----------------------------------------------------------------------
# Load driver
# ----------------------------------------------------------------------
class Driver(LoadClient):
    """``LoadClient`` that reports each commit and spans the reply path."""

    def __init__(self, name: str, f: int, spans: SpanLog) -> None:
        super().__init__(name, f)
        self.spans = spans
        self.on_commit = None

    def on_message(self, sender: str, payload) -> None:
        start = time.monotonic()
        before = len(self.latencies)
        super().on_message(sender, payload)
        if self.spans.enabled:
            self.spans.record("driver.match", payload.req_id, start, parent="driver.send")
        if self.on_commit is not None and len(self.latencies) > before:
            self.on_commit()


@dataclass
class LoadResult:
    """What the driver saw, on the monotonic clock."""

    due: dict[int, float]
    sent: dict[int, float]
    committed: dict[int, float]
    window: tuple[float, float]
    messages_sent: int
    frames_in: int
    #: Host slowdown over the measured window.
    slowdown: float


async def _sleep_until(when: float) -> None:
    delay = when - time.monotonic()
    if delay > 0:
        await asyncio.sleep(delay)


async def drive(
    workload: LiveWorkload,
    cluster: LiveCluster,
    seed: int,
    seconds: float,
    spans: SpanLog,
    traced: bool,
) -> LoadResult:
    """Offer the workload's load to ``cluster``."""
    spec = await fetch_spec(cluster.control, None)
    replicas = sorted(spec["addresses"])
    request_bytes = int(spec.get("request_bytes", 64))
    client = Driver(CLIENT, spec["f"], spans)
    transport = LiveTransport(
        CLIENT, addresses={name: tuple(addr) for name, addr in spec["addresses"].items()}
    )
    transport.attach(client)
    transport.host(CLIENT)

    load_start = time.monotonic() + (spec["epoch"] - time.time()) + LEAD_S
    window = (load_start + WARMUP_S, load_start + WARMUP_S + seconds)
    rng = random.Random(seed)
    due: dict[int, float] = {}
    sent: dict[int, float] = {}

    def send(req_id: int, due_at: float) -> None:
        request = ClientRequest(
            client=CLIENT, req_id=req_id, payload=rng.randbytes(8), size_bytes=request_bytes
        )
        due[req_id] = client.issue_times[req_id] = due_at
        start = time.monotonic()
        transport.multicast(CLIENT, replicas, request, request.size_bytes)
        sent[req_id] = time.monotonic()
        if spans.enabled:
            spans.record("driver.send", req_id, start)

    speed = HostSpeed()

    async def sample_speed() -> None:
        await _sleep_until(window[0])
        while time.monotonic() < window[1]:
            speed.sample()
            await asyncio.sleep(PROBE_EVERY_S)

    sampler = asyncio.ensure_future(sample_speed())

    def read_memory() -> None:
        for child in cluster.children():
            child.read_memory()

    req_ids = itertools.count(1)

    def on_commit() -> None:
        if len(client.latencies) == RSS_AT_COMMITS:
            read_memory()
        # A closed loop's commit issues the next request.
        if workload.outstanding is not None and time.monotonic() < window[1]:
            send(next(req_ids), time.monotonic())

    client.on_commit = on_commit

    if traced:
        # Odd seconds of the window traced, even ones not: the rates
        # differ by the tracing overhead, and drift within the run
        # (replicas slow down as their heaps grow) falls on both.
        loop = asyncio.get_running_loop()
        for k in range(int(seconds) + 1):
            loop.call_at(window[0] + k, setattr, spans, "enabled", k % 2 == 1)

    try:
        if workload.outstanding is None:
            offsets = arrival_times(workload.rate, WARMUP_S + seconds, "poisson", rng)
            for req_id, offset in enumerate(offsets, start=1):
                due_at = load_start + offset
                delay = due_at - time.monotonic()
                if delay > 0:
                    await asyncio.sleep(delay)
                elif req_id % 32 == 0:
                    await asyncio.sleep(0)  # behind schedule: still let replies in
                send(req_id, due_at)
        else:
            await _sleep_until(load_start)
            for _ in range(workload.outstanding):
                send(next(req_ids), time.monotonic())
            await _sleep_until(window[1])
        if cluster.controller.peak_mb is None:  # too short a run to have read it
            read_memory()

        drain_until = time.monotonic() + DRAIN_S
        while len(client.replies.completed) < len(due) and time.monotonic() < drain_until:
            await asyncio.sleep(0.02)
        await asyncio.sleep(SETTLE_S)
        await sampler
    finally:
        sampler.cancel()
        await transport.close()

    committed = {key[1]: done[2] for key, done in client.replies.completed.items()}
    return LoadResult(
        due=due,
        sent=sent,
        committed=committed,
        window=window,
        messages_sent=transport.messages_sent,
        frames_in=transport.frames_delivered,
        slowdown=speed.slowdown,
    )


# ----------------------------------------------------------------------
# One workload run
# ----------------------------------------------------------------------
def check_summary(cluster: LiveCluster, summary: dict, commits: int) -> list[str]:
    """The live correctness gate; returns the misses."""
    workload = cluster.workload
    killed = [workload.kill] if workload.kill else []
    survivors = sorted(n for n in cluster.names if n not in killed)
    misses = []
    if summary.get("histories_agree") is not True:
        misses.append("replica histories disagree")
    if summary.get("divergence") is not None:
        misses.append(f"divergence at {summary['divergence']}")
    if summary.get("killed") != killed:
        misses.append(f"killed {summary.get('killed')} but scheduled {killed}")
    if summary.get("survivors") != survivors:
        misses.append(f"survivors {summary.get('survivors')}, expected {survivors}")
    if not set(survivors) <= set(summary.get("reported", ())):
        misses.append(f"only {summary.get('reported')} reported")
    if summary.get("committed_prefix", 0) < commits:
        misses.append(
            f"committed prefix {summary.get('committed_prefix')} < driver commits {commits}"
        )
    for child in cluster.children():
        if child.status != 0:
            misses.append(f"{child.role} process exited with {child.status}")
    return misses


def run(
    workload: LiveWorkload,
    seed: int,
    seconds: float,
    out_dir: Path,
    spans: SpanLog,
    traced: bool,
) -> dict:
    """Run one live workload; returns counts plus every metric it can
    measure (end-to-end and per-layer alike, keyed by metric name)."""
    kill_offset = LEAD_S + WARMUP_S + seconds / 2 if workload.kill else None
    json_dir = out_dir / f"{workload.name}.artifact" if traced else None
    cpu_start = time.process_time()
    with LiveCluster(workload, out_dir, kill_offset, json_dir) as cluster:
        # select() takes a microsecond timeout where epoll rounds up to
        # the next millisecond, which alone made the generator 0.5 ms late.
        with asyncio.Runner(
            loop_factory=lambda: asyncio.SelectorEventLoop(selectors.SelectSelector())
        ) as runner:
            load = runner.run(drive(workload, cluster, seed, seconds, spans, traced))
        summary = cluster.stop()
    driver_cpu = time.process_time() - cpu_start

    issued, commits = len(load.due), len(load.committed)
    misses = check_summary(cluster, summary, commits)
    w0, w1 = load.window
    in_window = [r for r, at in load.due.items() if w0 <= at < w1]
    lateness = [load.sent[r] - load.due[r] for r in in_window]
    lateness_p90 = percentile(lateness, 0.90)
    if workload.outstanding is None and lateness_p90 > LATENESS_P90_LIMIT_S:
        misses.append(f"generator lateness p90 {lateness_p90 * 1e3:.2f} ms over the limit")
    if commits == 0:
        misses.append("no request ever committed")
    if misses:
        raise InvalidRun(f"{workload.name}: " + "; ".join(misses))

    latencies = [load.committed[r] - load.due[r] for r in in_window if r in load.committed]
    closed = workload.outstanding is not None
    limit = CLOSED_LIMIT_S if closed else OPEN_LIMIT_S
    window_commits = sum(1 for at in load.committed.values() if w0 <= at < w1)
    children = cluster.children()
    total_cpu = driver_cpu + sum(child.cpu_s for child in children)
    # CPU seconds are stated at the reference host speed.  So is wall
    # time the CPU sets: a closed loop's rate, and the part of a commit
    # latency beyond the mean wait for the batching timer.
    rate_slowdown = load.slowdown if closed else 1.0
    batching_wait = workload.batching_interval / 2
    p50 = percentile(latencies, 0.50)
    metrics = {
        "setup_s": min(load.committed.values()) - cluster.spawned_at,
        "throughput_per_s": window_commits / seconds * rate_slowdown,
        "cpu_s_per_kunit": total_cpu / commits * 1000.0 / load.slowdown,
        "peak_rss_mb": sum(child.peak_mb or 0.0 for child in cluster.replicas.values()),
        "latency_p50_ms": (batching_wait + (p50 - batching_wait) / load.slowdown) * 1e3,
        "within_limit_share": sum(1 for v in latencies if v <= limit) / len(in_window),
        "host.slowdown": load.slowdown,
        "live.failed_share": (issued - commits) / issued,
        "live.lateness_p99_ms": percentile(lateness, 0.99) * 1e3,
        "live.commit_p90_ms": percentile(latencies, 0.90) * 1e3,
        "live.commit_p99_ms": percentile(latencies, 0.99) * 1e3,
        "live.commit_max_ms": max(latencies) * 1e3,
        "live.driver_msgs_per_commit": load.messages_sent / commits,
        "live.driver_frames_in_per_commit": load.frames_in / commits,
        "live.cpu_ms_per_commit.driver": driver_cpu / commits * 1e3,
        "live.rss_mb.driver": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    by_role: dict[str, list[Child]] = {}
    for child in children:
        by_role.setdefault(child.role, []).append(child)
    for role, members in by_role.items():
        metrics[f"live.cpu_ms_per_commit.{role}"] = (
            sum(c.cpu_s for c in members) / len(members) / commits * 1e3
        )
        peaks = [c.peak_mb for c in members if c.peak_mb is not None]
        if peaks:
            metrics[f"live.rss_mb.{role}"] = sum(peaks) / len(peaks)
    if workload.kill:
        kill_at = w0 + seconds / 2
        metrics["live.failover_gap_ms"] = 1e3 * max(
            load.committed[r] - at
            for r, at in load.due.items()
            if kill_at - GAP_BEFORE_S <= at <= kill_at + GAP_AFTER_S and r in load.committed
        )
    if traced:
        metrics["live.driver_send_us"] = spans.mean_us("driver.send")
        metrics["live.driver_match_us"] = spans.mean_us("driver.match")
        paired_s = int(seconds) // 2 * 2  # as many traced seconds as untraced
        per_second = [0, 0]
        for at in load.committed.values():
            if w0 <= at < w0 + paired_s:
                per_second[int(at - w0) % 2] += 1
        untraced_commits, traced_commits = per_second
        if workload.outstanding is not None and untraced_commits:
            metrics["trace.overhead_pct"] = (
                100.0 * (untraced_commits - traced_commits) / untraced_commits
            )
        artifact = json_dir / f"BENCH_live_{workload.protocol}.json"
        point = json.loads(artifact.read_text())["points"][0]
        metrics["live.order_p50_ms"] = point["metrics"]["latency_p50"] * 1e3
    return {
        "attempted": issued,
        "failed": issued - commits,
        "n": len(latencies),
        "metrics": metrics,
    }
