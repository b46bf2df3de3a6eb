"""Figure 4: order latency vs batching interval (f = 2).

Regenerates one panel per crypto scheme — (a) MD5+RSA-1024,
(b) MD5+RSA-1536, (c) SHA1+DSA-1024 — for CT, SC and BFT, and asserts
the paper's findings:

* CT's latency stays flat and low across the sweep;
* SC's steady-state latency is below BFT's for every scheme;
* both SC and BFT blow up below a saturation threshold, and BFT's
  threshold is *larger* (it saturates at larger batching intervals);
* the SC/BFT steady-state gap widens when RSA is replaced by DSA
  (verification cost hits BFT's n-to-n phases hardest).

The sweep runs as a task grid over :mod:`repro.harness.runner`, the
same machinery ``python -m repro suite`` uses (the suite's quick/full
grids use different point counts — compare like with like).
"""

import pytest

from repro.harness.runner import execute, order_grid, order_series
from repro.harness.sweeps import (
    BENCH_INTERVALS,
    ORDER_PROTOCOLS,
    STEADY_INTERVAL,
    series_table,
)

INTERVALS = BENCH_INTERVALS
STEADY = STEADY_INTERVAL
N_BATCHES = 40

_gap_by_scheme: dict[str, float] = {}


def _sweep(scheme: str):
    tasks = order_grid(
        ORDER_PROTOCOLS, (scheme,), INTERVALS,
        n_batches=N_BATCHES, warmup_batches=8,
    )
    return order_series(execute(tasks), value="latency_mean")[scheme]


def _check_panel(scheme: str, series) -> None:
    latency = {p: dict(pts) for p, pts in series.items()}
    # CT flat and low.
    ct_values = [latency["ct"][iv] for iv in INTERVALS]
    assert max(ct_values) < 0.015, "CT should stay around 10 ms"
    assert max(ct_values) / min(ct_values) < 2.5, "CT should stay flat"
    # SC below BFT at every interval.
    for iv in INTERVALS:
        assert latency["sc"][iv] < latency["bft"][iv], (
            f"SC should beat BFT at {iv*1e3:.0f} ms under {scheme}"
        )
    # Saturation: BFT inflates more at the tightest interval.
    sc_blow = latency["sc"][INTERVALS[0]] / latency["sc"][STEADY]
    bft_blow = latency["bft"][INTERVALS[0]] / latency["bft"][STEADY]
    assert bft_blow > sc_blow, "BFT should saturate earlier/harder than SC"
    _gap_by_scheme[scheme] = latency["bft"][STEADY] - latency["sc"][STEADY]


@pytest.mark.parametrize(
    "scheme", ["md5-rsa1024", "md5-rsa1536", "sha1-dsa1024"]
)
def test_fig4_panel(scheme):
    series = _sweep(scheme)
    print()
    print(series_table(
        f"Figure 4 — order latency (s) vs batching interval [{scheme}]",
        series, "interval (s)", "latency (s)",
    ))
    _check_panel(scheme, series)
    if "md5-rsa1024" in _gap_by_scheme and "sha1-dsa1024" in _gap_by_scheme:
        assert (
            _gap_by_scheme["sha1-dsa1024"] > _gap_by_scheme["md5-rsa1024"]
        ), "DSA should widen the SC/BFT steady-state gap (paper: 21 -> 37 ms)"
