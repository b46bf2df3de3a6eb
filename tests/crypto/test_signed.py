"""Unit tests for the (doubly-)signed message wrapper."""

import pytest

from repro.crypto.schemes import MD5_RSA_1024
from repro.crypto.signed import (
    SignedMessage,
    countersign,
    sign_message,
    verify_signed,
)
from repro.crypto.signing import SimulatedSignatureProvider

NAMES = ["p1", "p1'", "p2"]


@pytest.fixture(scope="module")
def provider():
    return SimulatedSignatureProvider(MD5_RSA_1024, NAMES)


def test_single_signature_round_trip(provider):
    msg = sign_message(provider, "p1", {"seq": 1})
    assert msg.signers == ("p1",)
    assert verify_signed(provider, msg)


def test_doubly_signed_round_trip(provider):
    msg = countersign(provider, "p1'", sign_message(provider, "p1", {"seq": 1}))
    assert msg.signers == ("p1", "p1'")
    assert verify_signed(provider, msg)
    assert verify_signed(provider, msg, ("p1", "p1'"))


def test_expected_signers_order_matters(provider):
    msg = countersign(provider, "p1'", sign_message(provider, "p1", {"seq": 1}))
    assert not verify_signed(provider, msg, ("p1'", "p1"))


def test_body_tampering_detected(provider):
    msg = sign_message(provider, "p1", {"seq": 1})
    forged = SignedMessage(body={"seq": 2}, signatures=msg.signatures)
    assert not verify_signed(provider, forged)


def test_countersignature_covers_first_signature(provider):
    """The second signature must break if the first is swapped."""
    original = sign_message(provider, "p1", {"seq": 1})
    doubly = countersign(provider, "p1'", original)
    other_first = sign_message(provider, "p2", {"seq": 1})
    spliced = SignedMessage(
        body=doubly.body,
        signatures=(other_first.signatures[0], doubly.signatures[1]),
    )
    assert not verify_signed(provider, spliced)


def test_signature_bytes_sum(provider):
    msg = countersign(provider, "p1'", sign_message(provider, "p1", "x"))
    assert msg.signature_bytes == 2 * 128
