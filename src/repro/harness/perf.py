"""The order batch the perf ledger's canonical-encode rows time.

Performance is measured by ``bench/`` only; this module survives because
``bench/layers.py`` imports the function below from exactly this path.
"""

from __future__ import annotations


def sample_hotpath_message(n_entries: int = 25):
    """A representative doubly-signed order batch (~1 KB)."""
    from repro.core.messages import OrderBatch, OrderEntry
    from repro.crypto.schemes import MD5_RSA_1024
    from repro.crypto.signed import countersign, sign_message
    from repro.crypto.signing import SimulatedSignatureProvider

    provider = SimulatedSignatureProvider(MD5_RSA_1024, ["p1", "p1'"])
    entries = tuple(
        OrderEntry(seq=i, req_digest=bytes(range(16)), client="c1", req_id=i)
        for i in range(1, n_entries + 1)
    )
    batch = OrderBatch(rank=1, batch_id=7, entries=entries)
    return countersign(provider, "p1'", sign_message(provider, "p1", batch))
