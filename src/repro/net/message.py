"""Message envelopes: the view of a message in flight a hold predicate sees."""

from __future__ import annotations

from typing import Any


class Envelope:
    """A payload in flight between two named processes.

    ``size_bytes`` is the estimated wire size (payload plus signatures);
    it drives transmission delay, marshalling cost and the byte counters
    the message-overhead comparison reads.

    The network builds one only while a
    :meth:`~repro.net.network.Network.hold_matching` predicate is set:
    the predicate judges it, and a held envelope waits for
    :meth:`~repro.net.network.Network.release_held`.  Otherwise a
    message in flight is just its heap entry's arguments.  Instances
    are immutable by convention.
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
