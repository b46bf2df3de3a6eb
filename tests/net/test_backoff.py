"""The shared jittered-backoff policy and the retrying asyncio dial."""

from __future__ import annotations

import asyncio
import random
import socket

import pytest

from repro.net import framing
from repro.net.framing import BackoffPolicy, PeerLost


def test_delays_double_to_cap_without_jitter():
    policy = BackoffPolicy(first=0.1, cap=0.4, multiplier=2.0, jitter=0.0,
                           attempts=5)
    assert list(policy.delays()) == [0.1, 0.2, 0.4, 0.4, 0.4]


def test_jitter_stays_within_the_declared_band():
    policy = BackoffPolicy(first=0.2, cap=0.2, jitter=0.5, attempts=50)
    for delay in policy.delays(random.Random(7)):
        assert 0.1 <= delay <= 0.2


def test_budget_caps_the_sum_of_delays():
    policy = BackoffPolicy(first=0.3, cap=1.0, jitter=0.0, budget=1.0)
    delays = list(policy.delays())
    assert sum(delays) == pytest.approx(1.0)
    # The final delay is clipped to exactly the remaining budget.
    assert delays[-1] <= 1.0


def test_attempts_bound_is_exact():
    policy = BackoffPolicy(first=0.01, jitter=0.0, attempts=3)
    assert len(list(policy.delays())) == 3


def test_deterministic_with_seeded_rng():
    policy = BackoffPolicy(first=0.1, cap=1.0, jitter=0.5, attempts=6)
    a = list(policy.delays(random.Random(42)))
    b = list(policy.delays(random.Random(42)))
    assert a == b


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def test_open_connection_with_retry_exhausts_budget():
    port = _free_port()
    policy = BackoffPolicy(first=0.01, cap=0.02, jitter=0.0, budget=0.05)

    async def dial():
        with pytest.raises(PeerLost):
            await framing.open_connection_with_retry("127.0.0.1", port, policy)

    asyncio.run(dial())


def test_open_connection_with_retry_connects():
    async def scenario():
        server = await asyncio.start_server(
            lambda r, w: w.close(), "127.0.0.1", 0
        )
        host, port = server.sockets[0].getsockname()[:2]
        reader, writer = await framing.open_connection_with_retry(host, port)
        writer.close()
        server.close()
        await server.wait_closed()

    asyncio.run(scenario())
