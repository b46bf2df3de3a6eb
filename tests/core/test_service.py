"""Unit tests for the replicated state machine."""

import pytest

from repro.core.messages import OrderEntry
from repro.core.service import ReplicatedStateMachine
from repro.errors import ProtocolError


def entry(seq, tag=b"\x01"):
    return OrderEntry(seq=seq, req_digest=tag * 16, client="c1", req_id=seq)


def test_apply_in_sequence():
    machine = ReplicatedStateMachine("p1")
    machine.apply(entry(1))
    machine.apply(entry(2))
    assert machine.applied_seq == 2
    assert len(machine) == 2


def test_gap_rejected():
    machine = ReplicatedStateMachine("p1")
    machine.apply(entry(1))
    with pytest.raises(ProtocolError):
        machine.apply(entry(3))


def test_replay_rejected():
    machine = ReplicatedStateMachine("p1")
    machine.apply(entry(1))
    with pytest.raises(ProtocolError):
        machine.apply(entry(1))


def test_identical_histories_give_identical_digests():
    a = ReplicatedStateMachine("p1")
    b = ReplicatedStateMachine("p2")
    for i in range(1, 6):
        a.apply(entry(i))
        b.apply(entry(i))
    assert a.state_digest() == b.state_digest()


def test_divergent_histories_give_different_digests():
    a = ReplicatedStateMachine("p1")
    b = ReplicatedStateMachine("p2")
    a.apply(entry(1, tag=b"\x01"))
    b.apply(entry(1, tag=b"\x02"))
    assert a.state_digest() != b.state_digest()


def test_digest_depends_on_order():
    a = ReplicatedStateMachine("p1")
    a.apply(entry(1, tag=b"\x01"))
    a.apply(entry(2, tag=b"\x02"))
    b = ReplicatedStateMachine("p2")
    b.apply(entry(1, tag=b"\x02"))
    b.apply(entry(2, tag=b"\x01"))
    assert a.state_digest() != b.state_digest()

