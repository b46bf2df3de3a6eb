"""The ``recovery-timeline`` probe: failure detection and rejoin costs.

A live run with chaos or restarts leaves a trail of recovery records —
``peer_suspected`` / ``peer_restored`` from every node's
:class:`~repro.live.heartbeat.HeartbeatMonitor`, ``rejoin_started`` /
``rejoin_complete`` / ``catchup_applied`` from the restarted replica's
:class:`~repro.live.recovery.PrefixFetcher`, and ``quorum_lost`` /
``quorum_restored`` when the cluster parked.  This probe folds that
trail into the recovery timeline of the run: how fast failures were
detected, how long a rejoin took and how much state it moved, and how
long the cluster spent parked without a commit quorum.

All metrics are informational (no gate directions): recovery cost in a
live run is dominated by real wall-clock timers, not protocol quality,
so regressions there say nothing a baseline gate should act on.
"""

from __future__ import annotations

from repro.harness.probes.base import Probe, ProbeContext
from repro.harness.probes.registry import PROBES
from repro.sim.trace import TraceRecord


@PROBES.register
class RecoveryTimelineProbe(Probe):
    """Detection latency, rejoin duration/volume, quorum outage time."""

    name = "recovery-timeline"
    kinds = frozenset({
        "peer_suspected", "peer_restored",
        "rejoin_started", "rejoin_complete", "catchup_applied",
        "quorum_lost", "quorum_restored",
    })
    description = (
        "failure-detection latency, rejoin duration and transferred "
        "state, quorum-outage time (live recovery runs)"
    )
    provides = (
        "suspicions", "suspicions_cleared", "detection_latency_mean",
        "rejoins", "rejoin_duration_mean",
        "catchup_entries", "catchup_bytes",
        "quorum_losses", "quorum_outage_s",
    )
    directions: dict[str, str] = {}

    def __init__(self, context: ProbeContext) -> None:
        super().__init__(context)
        self._silences: list[float] = []
        self._restores = 0
        self._rejoin_durations: list[float] = []
        self._catchup_entries = 0
        self._catchup_bytes = 0
        self._quorum_losses = 0
        self._outages: list[float] = []

    def consume(self, record: TraceRecord) -> None:
        kind = record.kind
        fields = record.fields
        if kind == "peer_suspected":
            # The observed silence *is* the detection latency: the gap
            # between the peer's last frame and the suspicion sweep
            # that noticed it.
            self._silences.append(float(fields.get("silence", 0.0)))
        elif kind == "peer_restored":
            self._restores += 1
        elif kind == "rejoin_complete":
            self._rejoin_durations.append(float(fields.get("duration", 0.0)))
            self._catchup_entries += int(fields.get("entries", 0))
            self._catchup_bytes += int(fields.get("bytes", 0))
        elif kind == "catchup_applied":
            self._catchup_entries += int(fields.get("rows", 0))
        elif kind == "quorum_lost":
            self._quorum_losses += 1
        elif kind == "quorum_restored":
            self._outages.append(float(fields.get("outage", 0.0)))

    def finalize(self) -> dict[str, float]:
        def mean(values: list[float]) -> float:
            return sum(values) / len(values) if values else 0.0

        return {
            "suspicions": float(len(self._silences)),
            "suspicions_cleared": float(self._restores),
            "detection_latency_mean": mean(self._silences),
            "rejoins": float(len(self._rejoin_durations)),
            "rejoin_duration_mean": mean(self._rejoin_durations),
            "catchup_entries": float(self._catchup_entries),
            "catchup_bytes": float(self._catchup_bytes),
            "quorum_losses": float(self._quorum_losses),
            "quorum_outage_s": float(sum(self._outages)),
        }
