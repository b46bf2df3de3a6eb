"""Golden traces: the steady-state pipeline is pinned *across commits*.

``tests/integration/test_determinism.py`` compares a run with itself;
this file compares every run with the numbers the tree produced before
the shared batch → commit → execute → reply → checkpoint pipeline was
hoisted into ``OrderProcessBase``.  A refactor of that pipeline must
leave every entry of ``data/pipeline_golden.json`` untouched: the whole
trace (every kind, unfiltered), the network and kernel counters and the
per-process state digests.

Regenerate (only when a behaviour change is intended and reviewed):
``PYTHONPATH=src python tests/protocols/test_pipeline_golden.py``
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

import repro.protocols as protocols
from repro import OpenLoopWorkload, build_cluster

GOLDEN_PATH = Path(__file__).parent / "data" / "pipeline_golden.json"
SEEDS = (1, 2)
FAULT_ONSET = 0.45

#: case name -> (fault kind or None, fault target, config overrides)
_COMMON = {
    "clean": (None, None, {}),
    "crash": ("crash", "coordinator", {}),
    "withhold_orders": ("withhold_orders", "coordinator", {}),
    "checkpoint_replies": (None, None, {"checkpoint_interval": 16, "send_replies": True}),
}
_BYZANTINE = {
    "wrong_digest": ("wrong_digest", "coordinator", {}),
    "equivocate": ("equivocate", "coordinator", {}),
}
_PAIRED = {"mutate_endorsement": ("mutate_endorsement", "p1'", {})}
CASES = {
    "sc": {**_COMMON, **_BYZANTINE, **_PAIRED},
    "scr": {**_COMMON, **_BYZANTINE, **_PAIRED},
    "bft": {**_COMMON, **_BYZANTINE},
    "ct": dict(_COMMON),
}
CASE_IDS = [
    f"{protocol}/{case}/seed{seed}"
    for protocol, cases in CASES.items()
    for case in cases
    for seed in SEEDS
]


def run_case(case_id: str) -> dict:
    protocol, case, seed = case_id.split("/")
    kind, target, overrides = CASES[protocol][case]
    config = protocols.get(protocol).default_config(
        f=2, batching_interval=0.050, view_timeout=0.5, **overrides
    )
    cluster = build_cluster(protocol, config=config, seed=int(seed[4:]))
    OpenLoopWorkload(cluster, rate=100, duration=0.9).install()
    if kind is not None:
        cluster.injector.inject_named(cluster, kind, target=target, at=FAULT_ONSET)
    cluster.start()
    cluster.run(until=2.5)
    return {
        "trace_sha256": hashlib.sha256(
            cluster.sim.trace.to_jsonl().encode()
        ).hexdigest(),
        "trace_records": len(cluster.sim.trace),
        "messages_sent": cluster.network.messages_sent,
        "events_processed": cluster.sim.events_processed,
        "agreement_digests": {
            name: value.hex() for name, value in cluster.agreement_digests().items()
        },
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_file_covers_exactly_the_case_table(golden):
    assert sorted(golden) == sorted(CASE_IDS)


@pytest.mark.parametrize("case_id", CASE_IDS)
def test_run_matches_golden(case_id, golden):
    assert run_case(case_id) == golden[case_id]


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps({cid: run_case(cid) for cid in CASE_IDS}, indent=1, sort_keys=True)
        + "\n"
    )
    print(f"wrote {len(CASE_IDS)} cases to {GOLDEN_PATH}")
