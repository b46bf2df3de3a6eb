"""Property-based tests for the arrival-stream generators."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.harness.population import PopulationSpec, population_stream
from repro.harness.workload import arrival_times
from repro.sim.rng import RngRegistry

rates = st.floats(min_value=0.5, max_value=500.0,
                  allow_nan=False, allow_infinity=False)
durations = st.floats(min_value=0.01, max_value=5.0,
                      allow_nan=False, allow_infinity=False)
starts = st.floats(min_value=0.0, max_value=10.0,
                   allow_nan=False, allow_infinity=False)
seeds = st.integers(min_value=0, max_value=2**31)
spacings = st.sampled_from(["poisson", "uniform"])


def _times(rate, duration, spacing, seed, start=0.0):
    rng = random.Random(seed) if spacing == "poisson" else None
    return list(arrival_times(rate, duration, spacing, rng, start))


@given(rates, durations, starts, seeds, spacings)
@settings(max_examples=80)
def test_arrivals_strictly_increasing(rate, duration, start, seed, spacing):
    times = _times(rate, duration, spacing, seed, start)
    assert all(b > a for a, b in zip(times, times[1:]))


@given(rates, durations, starts, seeds, spacings)
@example(100.0, 0.01, 2.0, 0, "uniform")  # 2.01 - 2.0 == 0.00999…979 < 0.01
@settings(max_examples=80)
def test_arrivals_within_half_open_window(rate, duration, start, seed, spacing):
    """The window is measured relative to ``start`` — ``arrival_times``
    stops on ``t - start >= duration`` — so in floating point an
    arrival may equal ``start + duration`` while still lying inside."""
    times = _times(rate, duration, spacing, seed, start)
    assert all(0 <= t - start < duration for t in times)


@given(rates, durations, seeds)
@settings(max_examples=50)
def test_poisson_arrivals_deterministic_per_seed(rate, duration, seed):
    assert _times(rate, duration, "poisson", seed) == \
        _times(rate, duration, "poisson", seed)


@given(rates, durations, starts, seeds)
@settings(max_examples=50)
def test_start_offset_translates_the_stream(rate, duration, start, seed):
    """``start`` shifts every arrival; it never truncates the window."""
    base = _times(rate, duration, "poisson", seed)
    shifted = _times(rate, duration, "poisson", seed, start)
    assert len(base) == len(shifted)
    assert all(
        abs((b - 0.0) - (s - start)) < 1e-9 for b, s in zip(base, shifted)
    )


def test_negative_start_rejected():
    with pytest.raises(ConfigError, match="start offset"):
        list(arrival_times(10.0, 1.0, "poisson", random.Random(1), start=-0.5))


def test_uniform_spacing_rejects_an_rng():
    with pytest.raises(ConfigError, match="takes no rng"):
        list(arrival_times(10.0, 1.0, "uniform", random.Random(1)))


def test_poisson_spacing_requires_an_rng():
    with pytest.raises(ConfigError, match="needs an rng"):
        list(arrival_times(10.0, 1.0, "poisson", None))


@given(rates, durations, seeds, st.integers(min_value=1, max_value=10**6))
@settings(max_examples=40)
def test_population_stream_monotone_and_windowed(rate, duration, seed, clients):
    population = PopulationSpec(clients=clients)
    events = list(
        population_stream(population, rate, duration, RngRegistry(seed))
    )
    times = [t for t, _, _ in events]
    assert all(b > a for a, b in zip(times, times[1:]))
    assert all(0.0 <= t < duration for t in times)
    assert all(1 <= cid <= clients for _, _, cid in events)
