"""Probes that only make sense at population scale.

Companions to the aggregated workload engine
(:mod:`repro.harness.population`): once a scenario offers load from
10^5–10^6 sampled client ids, three questions open up that the paper's
per-batch measurements cannot answer —

* ``client-fairness`` — is commit latency *shared fairly* across the
  population, or do Zipf-head clients crowd out the tail?  Jain's
  fairness index plus dispersion of per-client mean latencies.
* ``queue-depth`` — how deep does the coordinator's unordered queue
  run under diurnal/flash-crowd envelopes?  Mean/p95/max occupancy.
* ``crypto-cost`` — where do the signature cycles go?  Sign/verify
  counts and CPU seconds attributed per protocol phase (ordering,
  failover, checkpointing, replies).

All three stream: memory is bounded by live per-client aggregates and
batch bookkeeping, never by the trace.
"""

from __future__ import annotations

from repro.harness.probes.base import Probe, ProbeContext
from repro.harness.probes.registry import register
from repro.sim.trace import TraceRecord


def _percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile over pre-sorted values."""
    if not ordered:
        return 0.0
    index = max(0, min(len(ordered) - 1, round(q * (len(ordered) - 1))))
    return ordered[index]


@register
class ClientFairnessProbe(Probe):
    """Per-client commit-latency dispersion over sampled ids.

    Joins three streams: ``request_issued`` (issue instant per
    ``(client, req_id)``), ``batch_requests`` (which keys each formed
    batch carries), and the earliest ``order_committed`` per batch.
    Matched state is deleted on commit, so memory tracks *in-flight*
    requests plus one ``(count, sum, max)`` aggregate per client id
    actually sampled — not the population size.
    """

    name = "client-fairness"
    kinds = frozenset({"request_issued", "batch_requests", "order_committed"})
    description = (
        "per-client commit-latency dispersion: Jain fairness index and "
        "p95/p50 spread of per-client mean latencies"
    )
    provides = (
        "clients_observed",
        "fairness_jain",
        "client_latency_mean",
        "client_p95_over_p50",
    )
    directions = {"fairness_jain": "higher"}
    scale_only = True

    def __init__(self, context: ProbeContext) -> None:
        super().__init__(context)
        self._issued: dict[tuple[str, int], float] = {}
        self._batch_keys: dict[tuple[int, int], tuple] = {}
        # client -> [count, sum, max] of commit latencies
        self._per_client: dict[str, list[float]] = {}

    def consume(self, record: TraceRecord) -> None:
        if record.kind == "request_issued":
            self._issued.setdefault(tuple(record.fields["req"]), record.time)
        elif record.kind == "batch_requests":
            key = (record.fields["rank"], record.fields["batch_id"])
            self._batch_keys.setdefault(key, record.fields["keys"])
        else:  # order_committed — records arrive in time order, so the
            # first one per batch is the earliest commit anywhere.
            key = (record.fields["rank"], record.fields["batch_id"])
            keys = self._batch_keys.pop(key, None)
            if keys is None:
                return
            for req_key in keys:
                issued_at = self._issued.pop(tuple(req_key), None)
                if issued_at is None:
                    continue
                latency = record.time - issued_at
                client = req_key[0]
                stats = self._per_client.get(client)
                if stats is None:
                    self._per_client[client] = [1.0, latency, latency]
                else:
                    stats[0] += 1.0
                    stats[1] += latency
                    if latency > stats[2]:
                        stats[2] = latency

    def finalize(self) -> dict[str, float]:
        means = sorted(
            total / count for count, total, _ in self._per_client.values()
        )
        n = len(means)
        if n == 0:
            return {
                "clients_observed": 0.0,
                "fairness_jain": 0.0,
                "client_latency_mean": 0.0,
                "client_p95_over_p50": 0.0,
            }
        total = sum(means)
        squares = sum(m * m for m in means)
        jain = (total * total) / (n * squares) if squares > 0 else 1.0
        p50 = _percentile(means, 0.50)
        p95 = _percentile(means, 0.95)
        return {
            "clients_observed": float(n),
            "fairness_jain": jain,
            "client_latency_mean": total / n,
            "client_p95_over_p50": (p95 / p50) if p50 > 0 else 0.0,
        }


@register
class QueueDepthProbe(Probe):
    """Unordered-queue occupancy, sampled at every batch tick.

    The emitting processes sample their own queue right before batch
    formation (including empty ticks), so the series tracks offered
    load against drain capacity through envelope peaks.
    """

    name = "queue-depth"
    kinds = frozenset({"queue_depth"})
    description = "unordered-queue occupancy at each batch tick: mean/p95/max"
    provides = ("queue_depth_mean", "queue_depth_p95", "queue_depth_max")
    directions = {}
    scale_only = True

    def __init__(self, context: ProbeContext) -> None:
        super().__init__(context)
        self._points: list[tuple[float, float]] = []

    def consume(self, record: TraceRecord) -> None:
        self._points.append((record.time, float(record.fields["depth"])))

    def finalize(self) -> dict[str, float]:
        depths = sorted(depth for _, depth in self._points)
        if not depths:
            return {
                "queue_depth_mean": 0.0,
                "queue_depth_p95": 0.0,
                "queue_depth_max": 0.0,
            }
        return {
            "queue_depth_mean": sum(depths) / len(depths),
            "queue_depth_p95": _percentile(depths, 0.95),
            "queue_depth_max": depths[-1],
        }


#: Message type -> protocol phase, for cost attribution.  Types absent
#: here land in "other" (new message types degrade gracefully).
_PHASES = {
    "OrderBatch": "order",
    "PairProposal": "order",
    "PrePrepare": "order",
    "Prepare": "order",
    "Commit": "order",
    "Ack": "order",
    "FailSignal": "failover",
    "Suspect": "failover",
    "ViewChange": "failover",
    "NewView": "failover",
    "Start": "failover",
    "BackLog": "failover",
    "Checkpoint": "checkpoint",
    "Reply": "reply",
}
_PHASE_NAMES = ("order", "failover", "checkpoint", "reply", "other")


@register
class CryptoCostProbe(Probe):
    """Signature cost attribution per protocol phase.

    Consumes ``crypto_op`` records (emitted by ``make_signed`` /
    ``make_countersigned`` and the verification half of
    ``receive_service``) and buckets modelled CPU seconds by the
    message type's phase — at saturation this answers *which* part of
    the protocol the crypto budget actually feeds.
    """

    name = "crypto-cost"
    kinds = frozenset({"crypto_op"})
    description = (
        "sign/verify counts and modelled CPU seconds, attributed to "
        "protocol phases (order/failover/checkpoint/reply)"
    )
    provides = (
        "sign_ops",
        "verify_ops",
        "sign_cost_s",
        "verify_cost_s",
    ) + tuple(f"cost_{phase}_s" for phase in _PHASE_NAMES)
    directions = {}
    scale_only = True

    def __init__(self, context: ProbeContext) -> None:
        super().__init__(context)
        self._ops = {"sign": 0, "verify": 0}
        self._op_cost = {"sign": 0.0, "verify": 0.0}
        self._phase_cost = dict.fromkeys(_PHASE_NAMES, 0.0)

    def consume(self, record: TraceRecord) -> None:
        op = record.fields["op"]
        cost = record.fields["cost"]
        self._ops[op] += 1
        self._op_cost[op] += cost
        phase = _PHASES.get(record.fields["msg"], "other")
        self._phase_cost[phase] += cost

    def finalize(self) -> dict[str, float]:
        out = {
            "sign_ops": float(self._ops["sign"]),
            "verify_ops": float(self._ops["verify"]),
            "sign_cost_s": self._op_cost["sign"],
            "verify_cost_s": self._op_cost["verify"],
        }
        for phase in _PHASE_NAMES:
            out[f"cost_{phase}_s"] = self._phase_cost[phase]
        return out
