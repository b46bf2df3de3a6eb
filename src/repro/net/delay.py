"""Message delay models.

A delay model answers: how long does a message of ``size_bytes`` spend
in flight on this link?  Models receive the current virtual time so that
fault injectors can create bounded delay surges (used to provoke the
false suspicions that distinguish SCR from SC).

For the hot send path the network resolves each ``(src, dst)`` link
into a :class:`LinkDelayStream` once and samples through it thereafter:
the stream prefetches uniform draws in chunks and evaluates the common
LAN formula closed-form, producing bit-identical delays to the
per-send ``model.sample(...)`` protocol at a fraction of the interpreter
overhead.
"""

from __future__ import annotations

import random

from repro.errors import ConfigError

# Uniform draws prefetched per refill.  Chunks are built lazily on
# first use, so links that never carry traffic draw nothing and the
# stream's k-th draw is always the underlying generator's k-th draw.
_CHUNK = 512


class DelayModel:
    """Interface: sample the in-flight time of one message."""

    def sample(self, size_bytes: int, rng: random.Random, now: float) -> float:
        raise NotImplementedError


class ConstantDelay(DelayModel):
    """Fixed delay regardless of size.  Mostly for unit tests.

    >>> ConstantDelay(0.001).sample(10_000, random.Random(0), now=0.0)
    0.001
    """

    def __init__(self, delay: float) -> None:
        if delay < 0:
            raise ConfigError(f"negative delay {delay}")
        self.delay = delay

    def sample(self, size_bytes: int, rng: random.Random, now: float) -> float:
        return self.delay


class LanDelay(DelayModel):
    """Switched-LAN model: propagation + transmission + uniform jitter.

    ``delay = propagation + size / bandwidth + U(0, jitter)``

    Defaults approximate the paper's 100 Mb/s switched Ethernet:
    ~0.1 ms propagation/switching, 12.5 MB/s, a few tens of
    microseconds of jitter.
    """

    def __init__(
        self,
        propagation: float = 100e-6,
        bandwidth_bytes_per_s: float = 12.5e6,
        jitter: float = 50e-6,
    ) -> None:
        if propagation < 0 or jitter < 0:
            raise ConfigError("propagation and jitter must be >= 0")
        if bandwidth_bytes_per_s <= 0:
            raise ConfigError("bandwidth must be > 0")
        self.propagation = propagation
        self.bandwidth = bandwidth_bytes_per_s
        self.jitter = jitter

    def sample(self, size_bytes: int, rng: random.Random, now: float) -> float:
        transmission = size_bytes / self.bandwidth
        return self.propagation + transmission + rng.uniform(0.0, self.jitter)


class SurgeableDelay(DelayModel):
    """Wraps another model and multiplies delays during surge windows.

    The fault injector uses this to make a pair's delay estimates
    temporarily inaccurate — the scenario where SCR's eventually-accurate
    assumption 3(b)(i) differs from SC's always-accurate 3(a)(i).
    """

    def __init__(self, inner: DelayModel, surge_factor: float = 10.0) -> None:
        if surge_factor < 1.0:
            raise ConfigError("surge_factor must be >= 1")
        self.inner = inner
        self.surge_factor = surge_factor
        self._surges: list[tuple[float, float, float]] = []

    def add_surge(self, start: float, end: float, factor: float | None = None) -> None:
        """Inflate delays for messages departing in ``[start, end)``.

        ``factor`` defaults to the link's ``surge_factor``; passing it
        per window lets several surges of different severity coexist
        on one link (cascading-fault scenarios).
        """
        if end <= start:
            raise ConfigError(f"empty surge window [{start}, {end})")
        if factor is not None and factor < 1.0:
            raise ConfigError("surge factor must be >= 1")
        self._surges.append(
            (start, end, self.surge_factor if factor is None else factor)
        )

    def in_surge(self, now: float) -> bool:
        """True when ``now`` falls inside any registered surge window."""
        return any(start <= now < end for start, end, _ in self._surges)

    def surge_factor_at(self, now: float) -> float:
        """The inflation applied to messages departing at ``now``
        (the largest factor among windows covering it, 1.0 outside)."""
        factors = [f for start, end, f in self._surges if start <= now < end]
        return max(factors, default=1.0)

    def sample(self, size_bytes: int, rng: random.Random, now: float) -> float:
        return self.inner.sample(size_bytes, rng, now) * self.surge_factor_at(now)


class LinkDelayStream:
    """A resolved ``(src, dst)`` link: one-call delay sampling.

    Wraps a delay model and the link's dedicated RNG stream.  For the
    dominant configurations — :class:`LanDelay`, optionally inside a
    :class:`SurgeableDelay` — the delay is computed closed-form from a
    chunk-prefetched draw buffer (one Python frame per message instead
    of three); anything else falls back to the model's own ``sample``.
    Both paths are bit-identical to calling ``model.sample(size, rng,
    now)`` per send: the buffer preserves draw order, ``jitter * u``
    equals ``rng.uniform(0.0, jitter)`` bit-for-bit, and the no-surge
    fast exit skips only a ``* 1.0``.

    Surge windows added to a wrapped :class:`SurgeableDelay` *after*
    stream creation are honoured — the surge list is consulted live.
    Replacing the model itself requires a new stream; the network
    invalidates its cache in ``set_link``.
    """

    __slots__ = (
        "model",
        "_rng",
        "_random",
        "_buf",
        "_i",
        "_fast",
        "_propagation",
        "_bandwidth",
        "_jitter",
        "_surge",
    )

    def __init__(self, model: DelayModel, rng: random.Random) -> None:
        self.model = model
        self._rng = rng
        self._random = rng.random
        self._buf: list[float] = []
        self._i = 0
        self._surge: SurgeableDelay | None = None
        inner = model
        if type(model) is SurgeableDelay:
            self._surge = model
            inner = model.inner
        # Exact type checks: a subclass may override sample(), so only
        # the stock LanDelay formula is safe to inline.
        self._fast = type(inner) is LanDelay
        if self._fast:
            self._propagation = inner.propagation
            self._bandwidth = inner.bandwidth
            self._jitter = inner.jitter

    def sample(self, size_bytes: int, now: float) -> float:
        """Delay for one message of ``size_bytes`` departing at ``now``."""
        if self._fast:
            i = self._i
            buf = self._buf
            if i >= len(buf):
                random_ = self._random
                self._buf = buf = [random_() for _ in range(_CHUNK)]
                i = 0
            self._i = i + 1
            delay = self._propagation + size_bytes / self._bandwidth + self._jitter * buf[i]
            surge = self._surge
            if surge is not None and surge._surges:
                delay *= surge.surge_factor_at(now)
            return delay
        return self.model.sample(size_bytes, self._rng, now)
