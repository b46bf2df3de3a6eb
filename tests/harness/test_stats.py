"""Seed-to-seed spread of the paper's headline comparison."""

import statistics

from repro.harness.experiments import run_order_experiment

#: Two-sided 95 % Student-t critical value for df = 2 (three seeds).
T95_DF2 = 4.303


def test_sc_beats_bft_with_confidence():
    """The paper's headline comparison, with error bars: over seeds
    1–3, the SC and BFT 95 % latency intervals must not overlap at a
    steady-state interval."""

    def interval(protocol):
        latencies = [
            run_order_experiment(
                protocol, "md5-rsa1024", 0.250, seed=seed,
                n_batches=15, warmup_batches=4,
            ).latency_mean
            for seed in (1, 2, 3)
        ]
        mean = statistics.mean(latencies)
        half = T95_DF2 * statistics.stdev(latencies) / len(latencies) ** 0.5
        return mean - half, mean + half

    sc, bft = interval("sc"), interval("bft")
    assert sc[1] < bft[0], f"intervals overlap: SC {sc} vs BFT {bft}"
