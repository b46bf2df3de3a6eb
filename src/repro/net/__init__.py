"""Network substrate: reliable asynchronous message transport.

Models the paper's communication fabric:

* a **reliable asynchronous network** (the paper's LAN / "Internet-like"
  fabric) connecting all order processes — every message is delivered
  uncorrupted after a finite but unbounded delay, sampled from a
  configurable :mod:`delay model <repro.net.delay>`;
* a **fast reliable pair link** between the two nodes of a process pair
  (the paper uses RMI over a dedicated connection), installed with
  :func:`~repro.net.pairlink.connect_pair`.

Delivered messages are charged to the receiving node's CPU before the
actor's handler runs, which is how verification and unmarshalling costs
enter the latency measurements.
"""

from repro.net.addresses import (
    base_index,
    is_shadow,
    pair_of,
    replica_name,
    shadow_name,
)
from repro.net.delay import (
    ConstantDelay,
    DelayModel,
    LanDelay,
    SurgeableDelay,
)
from repro.net.codec import CodecError, decode, encode, encoded_size
from repro.net.message import Envelope
from repro.net.network import Network
from repro.net.pairlink import connect_pair

__all__ = [
    "CodecError",
    "ConstantDelay",
    "DelayModel",
    "Envelope",
    "LanDelay",
    "Network",
    "SurgeableDelay",
    "base_index",
    "connect_pair",
    "decode",
    "encode",
    "encoded_size",
    "is_shadow",
    "pair_of",
    "replica_name",
    "shadow_name",
]
