"""Figure 6: fail-over latency vs BackLog size (f = 2).

Regenerates the SC and SCR fail-over curves for each crypto scheme.
A value-domain fault is injected at the coordinator replica while a
controlled number of ~1 KB order batches sit acked-but-uncommitted, so
BackLogs (SC) / ViewChanges (SCR) carry 1..5 KB of recovery payload.

Asserted paper claims:

* fail-over latency increases linearly with BackLog size (checked with
  a least-squares fit, r² >= 0.9);
* more expensive cryptography raises the whole curve (the install path
  re-verifies every signature the backlogs carry).

The sweep runs as a task grid over :mod:`repro.harness.runner`, the
same machinery ``python -m repro suite`` uses.
"""

import pytest

from repro.harness.metrics import linear_fit
from repro.harness.runner import execute, failover_grid, failover_series
from repro.harness.sweeps import BACKLOG_BATCHES, series_table

_steady_by_scheme: dict[tuple[str, str], float] = {}


def _sweep(protocol: str, scheme: str):
    tasks = failover_grid((protocol,), (scheme,), BACKLOG_BATCHES)
    return failover_series(execute(tasks))[scheme][protocol]


@pytest.mark.parametrize("scheme", ["md5-rsa1024", "md5-rsa1536", "sha1-dsa1024"])
@pytest.mark.parametrize("protocol", ["sc", "scr"])
def test_fig6_curve(protocol, scheme):
    pts = _sweep(protocol, scheme)
    print()
    print(series_table(
        f"Figure 6 — fail-over latency (s) vs BackLog size [{protocol}, {scheme}]",
        {protocol: pts}, "backlog (KB)", "latency (s)",
    ))
    xs = [x for x, _ in pts]
    ys = [y for _, y in pts]
    assert xs == sorted(xs) and xs[0] < xs[-1], "backlog sizes should grow"
    slope, intercept, r2 = linear_fit(xs, ys)
    print(f"  fit: {slope*1e3:.1f} ms/KB + {intercept*1e3:.1f} ms (r² = {r2:.3f})")
    assert slope > 0, "latency should grow with backlog size"
    assert r2 >= 0.90, "growth should be close to linear (paper: linear)"
    _steady_by_scheme[(protocol, scheme)] = ys[0]
    cheap = _steady_by_scheme.get((protocol, "md5-rsa1024"))
    dear = _steady_by_scheme.get((protocol, "sha1-dsa1024"))
    if cheap is not None and dear is not None:
        assert dear > cheap, (
            "more expensive crypto should raise the fail-over curve"
        )
