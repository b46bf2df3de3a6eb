"""The aggregated population engine: O(events) offered load.

Covers the declarative spec (validation + dict round-trip), the
rejection-inversion Zipf sampler, bounded-Pareto gap calibration, the
superposition/equivalence guarantees of :func:`population_stream`, and
the :class:`AggregatedWorkload` wiring through scenarios — including
the acceptance property of the PR: the same aggregate rate costs the
same number of events whether the population holds 10^2 or 10^6
clients, and the seeded stream is bit-identical across independently
constructed registries (the sim-vs-live identity check).
"""

import pytest

from repro.errors import ConfigError
from repro.harness.population import (
    ClassSpec,
    EnvelopeSpec,
    PopulationSpec,
    ZipfSampler,
    _bounded_pareto_mean,
    bounded_pareto_params,
    population_from_dict,
    population_stream,
    population_to_dict,
    stream_digest,
)
from repro.harness.scenario import (
    BUILTIN_SCENARIOS,
    BurstSpec,
    ScenarioSpec,
    WorkloadSpec,
    run_scenario,
    spec_from_dict,
    spec_to_dict,
)
from repro.harness.workload import arrival_times
from repro.sim.rng import RngRegistry


# ----------------------------------------------------------------------
# Spec validation and dict round-trip
# ----------------------------------------------------------------------
def test_class_spec_validation():
    with pytest.raises(ConfigError, match="share"):
        ClassSpec(name="a", share=0.0)
    with pytest.raises(ConfigError, match="spacing"):
        ClassSpec(name="a", spacing="bursty")
    with pytest.raises(ConfigError, match="pareto_cap"):
        ClassSpec(name="a", spacing="pareto", pareto_cap=1.0)
    with pytest.raises(ConfigError, match="pareto_alpha"):
        ClassSpec(name="a", spacing="pareto", pareto_alpha=0.0)


def test_envelope_validation_and_interpolation():
    with pytest.raises(ConfigError, match="strictly increasing"):
        EnvelopeSpec(points=((1.0, 1.0), (1.0, 2.0)))
    with pytest.raises(ConfigError, match=">= 0"):
        EnvelopeSpec(points=((0.0, -1.0),))
    env = EnvelopeSpec(points=((0.0, 0.5), (2.0, 1.5), (4.0, 0.5)))
    assert env.max_factor == 1.5
    assert env.factor(-1.0) == 0.5   # clamps before the first knot
    assert env.factor(5.0) == 0.5    # ... and after the last
    assert env.factor(1.0) == pytest.approx(1.0)
    assert env.factor(3.0) == pytest.approx(1.0)


def test_population_spec_validation():
    with pytest.raises(ConfigError, match="clients"):
        PopulationSpec(clients=0)
    with pytest.raises(ConfigError, match="id_distribution"):
        PopulationSpec(clients=10, id_distribution="pareto")
    with pytest.raises(ConfigError, match="duplicate"):
        PopulationSpec(
            clients=10, classes=(ClassSpec(name="a"), ClassSpec(name="a"))
        )


def test_class_rates_split_by_share():
    spec = PopulationSpec(
        clients=10,
        classes=(ClassSpec(name="a", share=3.0), ClassSpec(name="b", share=1.0)),
    )
    rates = spec.class_rates(400.0)
    assert rates == {"a": 300.0, "b": 100.0}
    with pytest.raises(ConfigError):
        spec.class_rates(0.0)


def test_population_dict_round_trip():
    spec = PopulationSpec(
        clients=1000,
        id_distribution="zipf",
        zipf_s=1.3,
        classes=(
            ClassSpec(name="steady", share=2.0),
            ClassSpec(name="heavy", spacing="pareto", pareto_alpha=1.2,
                      pareto_cap=30.0),
        ),
        envelope=EnvelopeSpec(points=((0.0, 0.5), (1.0, 2.0))),
    )
    data = population_to_dict(spec)
    assert population_from_dict(data) == spec


def test_population_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown key"):
        population_from_dict({"clients": 10, "clinets": 20})
    with pytest.raises(ConfigError, match="unknown key"):
        population_from_dict(
            {"clients": 10, "classes": [{"name": "a", "spacign": "poisson"}]}
        )


# ----------------------------------------------------------------------
# Zipf sampling: O(1) memory, deterministic, bounded, skewed
# ----------------------------------------------------------------------
def test_zipf_sampler_bounds_and_determinism():
    sampler = ZipfSampler(n=1_000_000, s=1.1)
    draws_a = [sampler.sample(RngRegistry(7).stream("z")) and 0 for _ in ()]
    rng_a, rng_b = RngRegistry(7).stream("z"), RngRegistry(7).stream("z")
    a = [sampler.sample(rng_a) for _ in range(500)]
    b = [sampler.sample(rng_b) for _ in range(500)]
    assert a == b                      # deterministic per seed
    assert all(1 <= k <= 1_000_000 for k in a)
    assert draws_a == []


def test_zipf_sampler_is_skewed_toward_low_ranks():
    sampler = ZipfSampler(n=10_000, s=1.5)
    rng = RngRegistry(3).stream("z")
    draws = [sampler.sample(rng) for _ in range(4000)]
    # Mass concentrates at low ranks: for s=1.5 over 10^4 ids, ranks
    # 1-10 hold ~77% of the probability.
    low = sum(1 for k in draws if k <= 10)
    high = sum(1 for k in draws if k > 1000)
    assert low > 0.6 * len(draws)
    assert high < 0.1 * len(draws)
    assert max(set(draws), key=draws.count) == 1


def test_zipf_sampler_validation():
    with pytest.raises(ConfigError):
        ZipfSampler(n=0, s=1.0)
    with pytest.raises(ConfigError):
        ZipfSampler(n=10, s=0.0)


# ----------------------------------------------------------------------
# Bounded-Pareto gaps: the truncated mean matches the class rate
# ----------------------------------------------------------------------
@pytest.mark.parametrize("alpha", [0.8, 1.0, 1.5, 2.5])
def test_bounded_pareto_params_hit_the_requested_mean(alpha):
    mean = 0.02
    low, high = bounded_pareto_params(mean, alpha, cap=50.0)
    assert 0 < low < mean < high == 50.0 * mean
    assert _bounded_pareto_mean(low, high, alpha) == pytest.approx(mean, rel=1e-6)


def test_pareto_class_empirical_rate_is_close():
    population = PopulationSpec(
        clients=100,
        classes=(ClassSpec(name="h", spacing="pareto", pareto_alpha=1.5),),
    )
    events = list(
        population_stream(population, 500.0, 20.0, RngRegistry(11))
    )
    # 10_000 expected arrivals; heavy-tailed, so allow a wide band.
    assert 0.7 * 10_000 <= len(events) <= 1.3 * 10_000


# ----------------------------------------------------------------------
# Superposition and determinism of the merged stream
# ----------------------------------------------------------------------
def test_single_class_poisson_equals_arrival_times_bitwise():
    """No envelope: a one-class population is the plain open-loop
    stream, drawn from the same named registry stream."""
    population = PopulationSpec(clients=50)
    events = list(population_stream(population, 200.0, 2.0, RngRegistry(5)))
    expected = list(
        arrival_times(
            200.0, 2.0, "poisson", RngRegistry(5).stream("population:all")
        )
    )
    assert [t for t, _, _ in events] == expected
    assert {name for _, name, _ in events} == {"all"}


def test_merged_stream_is_sorted_union_of_class_streams():
    population = PopulationSpec(
        clients=50,
        classes=(ClassSpec(name="a", share=1.0), ClassSpec(name="b", share=1.0)),
    )
    events = list(population_stream(population, 300.0, 2.0, RngRegistry(9)))
    times = [t for t, _, _ in events]
    assert times == sorted(times)
    per_class = {
        name: [t for t, n, _ in events if n == name] for name in ("a", "b")
    }
    for name in ("a", "b"):
        expected = list(
            arrival_times(
                150.0, 2.0, "poisson",
                RngRegistry(9).stream(f"population:{name}"),
            )
        )
        assert per_class[name] == expected


def test_stream_identical_across_fresh_registries():
    """The sim-vs-live identity: two independently constructed
    registries with the same seed produce bit-identical streams."""
    population = BUILTIN_SCENARIOS["flash-crowd"].population
    a = list(population_stream(population, 200.0, 3.0, RngRegistry(21)))
    b = list(population_stream(population, 200.0, 3.0, RngRegistry(21)))
    assert a == b
    assert stream_digest(a) == stream_digest(b)
    c = list(population_stream(population, 200.0, 3.0, RngRegistry(22)))
    assert stream_digest(a) != stream_digest(c)


def test_event_count_is_independent_of_population_size():
    """The tentpole: same aggregate rate, 10^2 vs 10^6 clients —
    identical arrival times, identical event count (only the sampled
    ids differ)."""
    small = PopulationSpec(clients=100)
    huge = PopulationSpec(clients=1_000_000)
    ev_small = list(population_stream(small, 400.0, 2.0, RngRegistry(1)))
    ev_huge = list(population_stream(huge, 400.0, 2.0, RngRegistry(1)))
    assert len(ev_small) == len(ev_huge)
    assert [t for t, _, _ in ev_small] == [t for t, _, _ in ev_huge]


def test_envelope_thins_below_peak_and_stays_deterministic():
    flat = PopulationSpec(clients=10)
    surged = PopulationSpec(
        clients=10,
        envelope=EnvelopeSpec(points=((0.0, 1.0), (1.0, 0.1), (2.0, 0.1))),
    )
    base = list(population_stream(flat, 300.0, 2.0, RngRegistry(4)))
    thinned = list(population_stream(surged, 300.0, 2.0, RngRegistry(4)))
    assert len(thinned) < len(base)
    again = list(population_stream(surged, 300.0, 2.0, RngRegistry(4)))
    assert thinned == again


# ----------------------------------------------------------------------
# Scenario wiring: AggregatedWorkload end to end
# ----------------------------------------------------------------------
def _tiny_population_spec(clients: int, seed: int = 1) -> ScenarioSpec:
    return ScenarioSpec(
        name=f"pop-{clients}",
        protocol="sc",
        duration=1.0,
        drain=1.0,
        seed=seed,
        workload=WorkloadSpec(rate=200.0),
        population=PopulationSpec(clients=clients),
    )


def test_run_scenario_with_population_commits_and_digests():
    result = run_scenario(_tiny_population_spec(10_000))
    assert result.requests_issued > 0
    assert result.requests_committed > 0
    assert result.safety_ok
    assert len(result.stream_digest) == 16
    # Determinism: the digest is a pure function of the seed.
    again = run_scenario(_tiny_population_spec(10_000))
    assert again.stream_digest == result.stream_digest
    assert again.requests_committed == result.requests_committed


def test_scenario_events_flat_across_population_sizes():
    small = run_scenario(_tiny_population_spec(100))
    huge = run_scenario(_tiny_population_spec(1_000_000))
    assert small.requests_issued == huge.requests_issued
    assert small.events_processed == huge.events_processed


def test_population_spec_round_trips_through_dicts():
    for name in ("diurnal-day", "flash-crowd"):
        spec = BUILTIN_SCENARIOS[name]
        assert spec.population is not None
        assert spec_from_dict(spec_to_dict(spec)) == spec


def test_population_rejects_bursts_and_send_replies():
    with pytest.raises(ConfigError, match="bursts"):
        ScenarioSpec(
            name="bad",
            protocol="sc",
            duration=1.0,
            workload=WorkloadSpec(
                rate=10.0, bursts=(BurstSpec(at=0.1, duration=0.1, rate=10.0),)
            ),
            population=PopulationSpec(clients=10),
        )
    with pytest.raises(ConfigError, match="send_replies"):
        ScenarioSpec(
            name="bad",
            protocol="sc",
            duration=1.0,
            config=(("send_replies", True),),
            population=PopulationSpec(clients=10),
        )
