"""Message envelopes: what travels on the simulated wire."""

from __future__ import annotations

from typing import Any


class Envelope:
    """A payload in flight between two named processes.

    ``size_bytes`` is the estimated wire size (payload plus signatures);
    it drives transmission delay, marshalling cost and the byte counters
    the message-overhead comparison reads.

    A plain ``__slots__`` class rather than a dataclass: the network
    mints one per send — tens of thousands per run — and a frozen
    dataclass pays an ``object.__setattr__`` per field.  Instances are
    immutable by convention; nothing mutates an envelope in flight.
    """

    __slots__ = (
        "msg_id",
        "sender",
        "dest",
        "payload",
        "size_bytes",
        "depart_time",
        "arrive_time",
    )

    def __init__(
        self,
        msg_id: int,
        sender: str,
        dest: str,
        payload: Any,
        size_bytes: int,
        depart_time: float,
        arrive_time: float,
    ) -> None:
        self.msg_id = msg_id
        self.sender = sender
        self.dest = dest
        self.payload = payload
        self.size_bytes = size_bytes
        self.depart_time = depart_time
        self.arrive_time = arrive_time

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Envelope(msg_id={self.msg_id}, {self.sender}->{self.dest}, "
            f"{self.size_bytes}B, t={self.depart_time:.6f}->{self.arrive_time:.6f})"
        )
