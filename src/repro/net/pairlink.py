"""The fast reliable link inside a process pair.

The paper connects each replica node to its shadow "by a fast reliable
network" and uses Java RMI across it.  We model it as a LAN link with
lower propagation delay and negligible jitter; RMI's per-call CPU
overhead is part of the calibration profile, not the link.
"""

from __future__ import annotations

from repro.net.delay import DelayModel
from repro.net.network import Network


def connect_pair(
    network: Network, first: str, second: str, model: DelayModel
) -> DelayModel:
    """Install a fast link in both directions between two processes.

    Returns the model so fault injectors can wrap or inspect it.
    """
    network.set_link(first, second, model)
    network.set_link(second, first, model)
    return model
