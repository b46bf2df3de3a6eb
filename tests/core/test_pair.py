"""Unit tests for pair validation and fail-signal construction."""

import pytest

from repro.core.messages import OrderBatch, OrderEntry
from repro.core.pair import (
    DEFER,
    INVALID,
    VALID,
    batches_equal,
    build_fail_signal,
    fail_signal_pair_rank,
    validate_order_batch,
)
from repro.core.requests import ClientRequest
from repro.crypto.dealer import TrustedDealer, fail_signal_body
from repro.crypto.schemes import MD5_RSA_1024
from repro.crypto.signed import SignedMessage, sign_message
from repro.crypto.signing import Signature


@pytest.fixture
def provider():
    dealer = TrustedDealer(MD5_RSA_1024)
    return dealer.provision(["p1", "p1'", "p2", "p2'"])


def pending_for(requests):
    return {r.key: r for r in requests}


def batch_for(requests, first_seq=1, rank=1, digest_name="md5"):
    entries = tuple(
        OrderEntry(
            seq=first_seq + i,
            req_digest=r.digest_under(digest_name),
            client=r.client,
            req_id=r.req_id,
        )
        for i, r in enumerate(requests)
    )
    return OrderBatch(rank=rank, batch_id=1, entries=entries)


def test_valid_batch_passes():
    requests = [ClientRequest("c1", i) for i in range(1, 4)]
    batch = batch_for(requests)
    verdict = validate_order_batch(batch, 1, pending_for(requests), "md5")
    assert verdict.verdict == VALID


def test_wrong_first_seq_invalid():
    requests = [ClientRequest("c1", 1)]
    batch = batch_for(requests, first_seq=5)
    verdict = validate_order_batch(batch, 1, pending_for(requests), "md5")
    assert verdict.verdict == INVALID


def test_digest_mismatch_invalid():
    requests = [ClientRequest("c1", 1, payload=b"real")]
    tampered = ClientRequest("c1", 1, payload=b"fake")
    batch = batch_for([tampered])
    verdict = validate_order_batch(batch, 1, pending_for(requests), "md5")
    assert verdict.verdict == INVALID
    assert "digest mismatch" in verdict.reason


def test_unknown_request_defers():
    known = [ClientRequest("c1", 1)]
    unknown = ClientRequest("c9", 42)
    batch = batch_for(known + [unknown])
    verdict = validate_order_batch(batch, 1, pending_for(known), "md5")
    assert verdict.verdict == DEFER
    assert verdict.missing == (("c9", 42),)


def test_non_consecutive_seqs_invalid():
    requests = [ClientRequest("c1", 1), ClientRequest("c1", 2)]
    entries = (
        OrderEntry(1, requests[0].digest_under("md5"), "c1", 1),
        OrderEntry(3, requests[1].digest_under("md5"), "c1", 2),
    )
    batch = OrderBatch(rank=1, batch_id=1, entries=entries)
    verdict = validate_order_batch(batch, 1, pending_for(requests), "md5")
    assert verdict.verdict == INVALID


def test_empty_batch_invalid():
    batch = OrderBatch(rank=1, batch_id=1, entries=())
    assert validate_order_batch(batch, 1, {}, "md5").verdict == INVALID


def test_batches_equal_semantics():
    requests = [ClientRequest("c1", 1)]
    a = batch_for(requests)
    b = OrderBatch(rank=a.rank, batch_id=99, entries=a.entries)  # id differs
    assert batches_equal(a, b)
    c = batch_for(requests, rank=2)
    assert not batches_equal(a, c)


def test_fail_signal_round_trip(provider):
    dealer = TrustedDealer(MD5_RSA_1024)
    blanks = dealer.issue_fail_signal_blanks(provider, 1, "p1", "p1'")
    body, sig = blanks["p1"]  # p1 holds a blank pre-signed by p1'
    signed = build_fail_signal(provider, "p1", body, sig)
    assert fail_signal_pair_rank(provider, signed) == 1


def test_fail_signal_rejects_single_signature(provider):
    body = fail_signal_body(1, "p1'")
    singly = sign_message(provider, "p1'", body)
    assert fail_signal_pair_rank(provider, singly) is None


def test_fail_signal_rejects_wrong_pair_members(provider):
    dealer = TrustedDealer(MD5_RSA_1024)
    blanks = dealer.issue_fail_signal_blanks(provider, 1, "p1", "p1'")
    body, sig = blanks["p1"]
    # p2 (not p1) countersigns: the chain is p1' then p2 — not a pair.
    signed = build_fail_signal(provider, "p2", body, sig)
    assert fail_signal_pair_rank(provider, signed) is None


def test_fail_signal_rejects_mismatched_pair_index(provider):
    body = fail_signal_body(2, "p1'")  # claims pair 2 but signer is pair 1
    sig = provider.sign("p1'", b"irrelevant")
    signed = SignedMessage(body=body, signatures=(sig, provider.sign("p1", b"x")))
    assert fail_signal_pair_rank(provider, signed) is None


def test_fail_signal_rejects_forged_signature(provider):
    body = fail_signal_body(1, "p1'")
    forged = Signature(signer="p1'", scheme=MD5_RSA_1024.name, value=bytes(128))
    own = provider.sign("p1", b"anything2")
    signed = SignedMessage(body=body, signatures=(forged, own))
    assert fail_signal_pair_rank(provider, signed) is None
