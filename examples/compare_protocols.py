#!/usr/bin/env python3
"""Mini Figure 4/5: CT vs SC vs BFT latency and throughput.

Sweeps three batching intervals for each protocol under MD5+RSA-1024
and prints the paper's comparison: CT cheapest (crash faults only),
SC in the middle, BFT slowest and first into saturation.

The protocol line-up comes straight from the plugin registry
(:mod:`repro.protocols`) — register a new protocol and it appears in
this comparison without touching the sweep code.

Run:  python examples/compare_protocols.py        (~1 minute)
"""

import repro.protocols as protocols
from repro.harness.report import render_table
from repro.harness.runner import SweepTask, run_task


def main() -> None:
    intervals = (0.060, 0.100, 0.250)
    # Every registered plugin joins the comparison; SCR is skipped only
    # because its failure-free behaviour matches SC (it would double
    # the runtime to show an identical line).
    line_up = [name for name in protocols.names() if name != "scr"]
    rows = []
    for protocol in line_up:
        plugin = protocols.get(protocol)
        for interval in intervals:
            result = run_task(SweepTask(
                kind="order", protocol=protocol, scheme="md5-rsa1024",
                batching_interval=interval, n_batches=30, warmup_batches=6,
            )).result
            rows.append((
                protocol,
                str(plugin.n(result.f)),
                f"{interval * 1e3:.0f}",
                f"{result.latency_mean * 1e3:.1f}",
                f"{result.throughput:.0f}",
            ))
    print(render_table(
        "CT vs SC vs BFT under MD5+RSA-1024 (f = 2, saturating clients)",
        ("protocol", "n", "interval (ms)", "latency (ms)", "throughput (req/s)"),
        rows,
    ))
    by_key = {(r[0], r[2]): float(r[3]) for r in rows}
    print(
        "\nat 250 ms (steady state): "
        f"CT {by_key[('ct', '250')]:.1f} ms  <  "
        f"SC {by_key[('sc', '250')]:.1f} ms  <  "
        f"BFT {by_key[('bft', '250')]:.1f} ms"
    )
    print("the signal-on-fail coordinator buys Byzantine tolerance for "
          "a fraction of BFT's latency premium over CT.")


if __name__ == "__main__":
    main()
