"""Live loopback clusters: total order over real TCP, for every protocol.

Each test spawns a real ``python -m repro serve`` controller (which
spawns one OS process per replica), drives it with ``python -m repro
load``, and judges the run by the controller's machine-readable
summary line: every correct replica must report a committed history
that is a prefix of every other's (live total-order safety), and the
offered requests must actually commit.

The fail-over test additionally kills the SC coordinator mid-run —
the node hosting ``p1`` hard-exits, TCP connections drop, and the
surviving replicas must keep committing through the shadow while the
clients never notice.
"""

from __future__ import annotations

import json
import signal
import subprocess
import time

import pytest

from cluster_utils import finish_serve, run_load, start_serve
from repro.live.cluster import LIVE_CHECKPOINT_INTERVAL


@pytest.mark.parametrize("protocol", ("sc", "scr", "bft", "ct"))
def test_cluster_commits_identical_prefix(protocol):
    proc, control = start_serve("--protocol", protocol, "--f", "1",
                                "--duration", "5")
    try:
        load = run_load(control, rate=40, duration=2.5)
        summary = finish_serve(proc, timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
    assert load["issued"] > 0
    assert load["committed"] == load["issued"]
    assert load["latency_mean_s"] > 0
    assert summary["histories_agree"] is True
    assert summary["committed_prefix"] >= load["committed"]
    assert sorted(summary["reported"]) == sorted(summary["replicas"])
    assert summary["killed"] == []
    # Messages against wire frames, where an operator can see them:
    # f+1 = 2 replies commit a request, n = 4 (5 on SCR) may arrive.
    assert 2 <= load["frames_in_per_commit"] <= len(summary["replicas"])
    assert sorted(summary["wire"]) == sorted(summary["replicas"])
    for counters in summary["wire"].values():
        assert counters["messages_sent"] >= load["committed"]
        assert counters["frames_delivered"] >= load["committed"]
        # Heartbeats are wire frames too, so these only have a floor.
        assert counters["wire_frames_out"] > 0 and counters["wire_frames_in"] > 0
    assert sorted(summary["state"]) == sorted(summary["replicas"])


def test_sc_survives_coordinator_kill(tmp_path):
    """One injected replica failure mid-load: the coordinator's node
    process dies for real, survivors agree, clients lose nothing, and
    the artifact records the fail-over through the standard probes."""
    proc, control = start_serve(
        "--protocol", "sc", "--f", "1", "--duration", "8",
        "--kill-after", "p1:2.5", "--json-dir", str(tmp_path),
    )
    try:
        # Enough requests that a checkpoint (every 256 commits) has to
        # stabilise among the survivors after the fail-over.
        load = run_load(control, rate=80, duration=5)
        summary = finish_serve(proc, timeout=40)
    finally:
        if proc.poll() is None:
            proc.kill()
    assert load["issued"] > LIVE_CHECKPOINT_INTERVAL
    # The fail-over is supposed to be invisible to correct clients.
    assert load["committed"] >= 0.9 * load["issued"]
    assert summary["killed"] == ["p1"]
    assert "p1" not in summary["survivors"]
    assert len(summary["survivors"]) == 3
    assert summary["histories_agree"] is True
    assert summary["committed_prefix"] > 0
    # Checkpoints are on for every live node: each survivor has seen a
    # stable one and holds a window of the log, not the run.
    for name in summary["survivors"]:
        state = summary["state"][name]
        assert state["stable_seq"] > 0, (name, state)
        assert state["log_slots"] <= 2 * (LIVE_CHECKPOINT_INTERVAL + 256), (name, state)

    artifact = json.loads((tmp_path / "BENCH_live_sc.json").read_text())
    assert artifact["schema_version"] == 3
    [point] = artifact["points"]
    assert point["kind"] == "live-order"
    assert "failover" in point["probes"]
    assert point["metrics"]["failover_latency"] > 0
    assert point["metrics"]["batches_measured"] > 0


def test_serve_controller_reaps_children_on_sigterm():
    """Satellite regression: a controller killed mid-run must take its
    replica subprocesses down with it — no orphaned `serve --join`
    processes keep the ports and CPUs busy."""
    proc, control = start_serve("--protocol", "ct", "--f", "1")
    try:
        time.sleep(1.0)
        proc.send_signal(signal.SIGTERM)
        stdout, _ = proc.communicate(timeout=20)
    finally:
        if proc.poll() is None:
            proc.kill()
    # SIGTERM means "stop the cluster", not "crash": the controller
    # still verifies and summarises before exiting.
    summary = json.loads(stdout.strip().splitlines()[-1])
    assert summary["histories_agree"] is True
    remaining = subprocess.run(
        ["pgrep", "-f", f"join {control}"], capture_output=True, text=True
    )
    assert remaining.stdout.strip() == "", (
        f"orphaned replica processes survive the controller:\n{remaining.stdout}"
    )


def test_prefix_agreement_is_pairwise():
    """Reviewer regression: two long histories that both extend a short
    reference but diverge from each other must fail the safety check —
    agreement is pairwise, not against an arbitrary reference."""
    from repro.live.cluster import check_prefix_agreement

    a, b, c = (1, "x"), (2, "y"), (2, "z")
    assert check_prefix_agreement({}) == (0, True, None)
    assert check_prefix_agreement({"p1": [a], "p2": [a, b], "p3": [a, b]}) \
        == (1, True, None)
    verdict = check_prefix_agreement({"p1": [a], "p2": [a, b], "p3": [a, c]})
    assert verdict.ok is False
    # The verdict names the first divergent slot and the two replicas
    # holding it — what an operator greps the traces for.
    assert verdict.divergence == (2, "p2", "p3")


def test_prefix_agreement_divergence_names_first_slot():
    from repro.live.cluster import check_prefix_agreement

    left = [(1, "x"), (2, "y"), (3, "q")]
    right = [(1, "x"), (2, "z"), (3, "q")]
    verdict = check_prefix_agreement({"pA": left, "pB": right})
    assert verdict.ok is False
    slot, first, second = verdict.divergence
    assert slot == 2
    assert {first, second} == {"pA", "pB"}
