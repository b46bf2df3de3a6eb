"""Property tests for the fast canonical encoder.

:mod:`repro.crypto.canon` must be byte-identical to the reference
``_jsonable`` construction (kept in ``tests/crypto/oracle.py`` as the
oracle) for **every registered message class** — including nested
``SignedMessage`` chains, ``bytes`` fields and tuple fields — and its
per-object memo must be a pure accelerator: structurally equal but
distinct objects encode identically, warm or cold.
"""

import copy
from dataclasses import dataclass

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.bft.messages import (
    BftNewView,
    BftViewChange,
    Commit,
    PrePrepare,
    Prepare,
    PreparedProof,
)
from repro.core.checkpoint import Checkpoint
from repro.core.messages import (
    Ack,
    BackLog,
    CatchUpReply,
    CatchUpRequest,
    CommitProof,
    Heartbeat,
    NewView,
    OrderBatch,
    OrderEntry,
    PairForward,
    PairProposal,
    PairStartProposal,
    PairStatusUp,
    Start,
    StartSupport,
    SupportBundle,
    Unwilling,
    ViewChange,
    payload_size,
)
from repro.core.replies import Reply
from repro.core.requests import ClientRequest
from repro.crypto.canon import encode_canonical, strip_memo
from repro.crypto.dealer import FailSignalBody, TrustedDealer
from repro.crypto.schemes import MD5_RSA_1024
from repro.crypto.signed import countersign, sign_message
from repro.crypto.signing import SimulatedSignatureProvider
from repro.net.codec import registry
from repro.net.framing import LEN, decode_frame, encode_frame
from tests.crypto.oracle import reference_canonical_bytes

provider = SimulatedSignatureProvider(MD5_RSA_1024, ["p1", "p1'", "p2", "p2'"])

names = st.sampled_from(["p1", "p1'", "p2", "p2'"])
clients = st.sampled_from(["c1", "c2", "c9"])
digests = st.binary(min_size=16, max_size=16)
seqs = st.integers(min_value=1, max_value=10**6)


@st.composite
def order_batches(draw):
    first = draw(seqs)
    entries = tuple(
        OrderEntry(
            seq=first + i,
            req_digest=draw(digests),
            client=draw(clients),
            req_id=draw(seqs),
        )
        for i in range(draw(st.integers(min_value=1, max_value=8)))
    )
    return OrderBatch(
        rank=draw(st.integers(min_value=1, max_value=5)),
        batch_id=draw(st.integers(min_value=-100, max_value=10**6)),
        entries=entries,
    )


@st.composite
def signed_batches(draw):
    """Singly- or doubly-signed batches: the paper's signature chains."""
    signed = sign_message(provider, draw(names), draw(order_batches()))
    if draw(st.booleans()):
        return countersign(provider, draw(names), signed)
    return signed


@st.composite
def commit_proofs(draw):
    order = draw(signed_batches())
    ackers = draw(st.lists(names, min_size=1, max_size=3, unique=True))
    acks = tuple(
        sign_message(provider, acker, Ack(acker=acker, order=order))
        for acker in ackers
    )
    return CommitProof(order=order, acks=acks, quorum=3)


def assert_matches_reference(value):
    fast = encode_canonical(value)
    assert fast == reference_canonical_bytes(value)
    # Second encoding (memo now warm) must not change a byte.
    assert encode_canonical(value) == fast
    # Nor must the no-memo encoder the perf ledger's cold row times
    # (a deepcopy would carry the memos along).
    strip_memo(value)
    assert encode_canonical(value) == fast


@given(signed_batches())
def test_signed_chain_matches_reference(signed):
    assert_matches_reference(signed)


@given(commit_proofs())
@settings(max_examples=40)
def test_commit_proof_matches_reference(proof):
    assert_matches_reference(proof)


@given(st.lists(signed_batches(), max_size=3), seqs)
@settings(max_examples=40)
def test_backlog_bearing_messages_match_reference(backlog, seq):
    backlog = tuple(backlog)
    for message in (
        Start(new_rank=2, start_seq=seq, new_backlog=backlog),
        NewView(view=3, new_rank=2, start_seq=seq, new_backlog=backlog),
        CatchUpReply(replier="p2", orders=backlog),
    ):
        assert_matches_reference(message)


@given(clients, seqs, st.binary(max_size=64))
def test_client_request_matches_reference(client, req_id, payload):
    request = ClientRequest(client=client, req_id=req_id, payload=payload,
                            size_bytes=max(64, len(payload)))
    assert_matches_reference(request)


@given(
    st.recursive(
        st.one_of(
            st.none(),
            st.booleans(),
            st.integers(min_value=-(10**12), max_value=10**12),
            st.floats(allow_nan=False),
            st.text(max_size=40),
            st.binary(max_size=24),
        ),
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.tuples(inner, inner),
            st.dictionaries(st.text(max_size=8), inner, max_size=4),
            st.dictionaries(st.integers(min_value=0, max_value=99), inner,
                            max_size=4),
        ),
        max_leaves=25,
    )
)
@settings(max_examples=150)
def test_plain_containers_match_reference(value):
    """Arbitrary JSON-able containers (the signing_bytes wrapper shape)."""
    assert_matches_reference(value)


def sample_instances() -> list:
    """At least one representative instance per registered message
    class — the wire vocabulary the encoder must cover."""
    dealer = TrustedDealer(MD5_RSA_1024, seed=9)
    blank_body, blank_sig = dealer.issue_fail_signal_blanks(
        provider, 0, "p1", "p1'"
    )["p1"]
    fail_signal = countersign(
        provider, "p1",
        sign_message(provider, "p1'", blank_body),
    )
    entries = tuple(
        OrderEntry(seq=i, req_digest=bytes(range(16)), client="c1", req_id=i)
        for i in range(1, 5)
    )
    batch = OrderBatch(rank=1, batch_id=3, entries=entries)
    order = countersign(provider, "p1'", sign_message(provider, "p1", batch))
    ack = sign_message(provider, "p2", Ack(acker="p2", order=order))
    proof = CommitProof(order=order, acks=(ack,), quorum=3)
    backlog = BackLog(
        sender="p2",
        new_rank=2,
        fail_signal=fail_signal,
        max_committed=proof,
        uncommitted=(order,),
    )
    signed_backlog = sign_message(provider, "p2", backlog)
    start = Start(new_rank=2, start_seq=5, new_backlog=(order,))
    signed_start = sign_message(provider, "p2", start)
    support = StartSupport(
        supporter="p2'", new_rank=2, signature=blank_sig
    )
    pre_prepare = sign_message(
        provider, "p1", PrePrepare(view=0, seq=1, batch=batch)
    )
    prepare = sign_message(
        provider, "p2",
        Prepare(view=0, seq=1, batch_digest=bytes(16), replica="p2"),
    )
    prepared = PreparedProof(pre_prepare=pre_prepare, prepares=(prepare,))
    bft_vc = sign_message(
        provider, "p2",
        BftViewChange(new_view=1, replica="p2", last_committed=1,
                      committed_proof=proof, prepared=(prepared,)),
    )
    return [
        ClientRequest(client="c1", req_id=1, payload=b"\x00\xff", size_bytes=64),
        blank_sig,
        order,
        blank_body,
        Checkpoint(process="p1", seq=4, state_digest=bytes(range(32))),
        Reply(replier="p1", client="c1", req_id=1, seq=1,
              result_digest=bytes(range(16))),
        entries[0],
        batch,
        ack.body,
        proof,
        backlog,
        start,
        support,
        SupportBundle(new_rank=2, tuples=(support,)),
        CatchUpRequest(requester="p2", first_seq=1, last_seq=4),
        CatchUpReply(replier="p2", orders=(order,)),
        ViewChange(sender="p2", view=1, max_committed=proof,
                   uncommitted=(order,)),
        Unwilling(sender="p1", view=1, fail_signal=fail_signal),
        NewView(view=1, new_rank=2, start_seq=5, new_backlog=(order,)),
        PairProposal(order=order),
        PairStartProposal(start=signed_start, backlogs=(signed_backlog,)),
        PairForward(original_sender="p1", payload=order, size_hint=512),
        Heartbeat(sender="p1", nonce=7),
        PairStatusUp(sender="p1", since=1.25),
        pre_prepare.body,
        prepare.body,
        Commit(view=0, seq=1, batch_digest=bytes(16), replica="p2"),
        prepared,
        bft_vc.body,
        BftNewView(new_view=1, view_changes=(bft_vc,),
                   pre_prepares=(pre_prepare,)),
    ]


def test_every_registered_message_class_matches_reference():
    """The codec registry is the closed list of wire classes; each one
    must encode byte-identically on the fast path, cold and warm."""
    instances = sample_instances()
    covered = {type(obj).__name__ for obj in instances}
    assert covered >= set(registry()), sorted(set(registry()) - covered)
    for obj in instances:
        assert_matches_reference(obj)


def test_structurally_equal_distinct_objects_encode_identically():
    """Cache correctness: the memo is keyed on identity, so a warm
    original and a cold structural twin must yield the same bytes."""
    for obj in sample_instances():
        warm = encode_canonical(obj)        # memoises on `obj`
        twin = copy.deepcopy(obj)           # distinct identity, equal value
        assert encode_canonical(twin) == warm == encode_canonical(obj)


def test_memo_never_caches_through_mutable_fields():
    """A frozen dataclass over a mutable container must re-encode after
    mutation — the memo only covers deeply immutable subtrees."""

    @dataclass(frozen=True)
    class Holder:
        items: list

    holder = Holder(items=[1, 2])
    before = encode_canonical(holder)
    holder.items.append(3)
    after = encode_canonical(holder)
    assert before != after
    assert after == reference_canonical_bytes(holder)


def test_every_registered_message_class_ships_its_fields_only():
    """A frame carries a message's fields and none of what the sender
    derived from them; the receiver's canonical bytes match the
    sender's because it encodes the same fields."""
    for obj in sample_instances():
        warm = encode_canonical(obj)
        payload_size(obj)
        frame = encode_frame(obj)
        for derived in (b"_canon_fragment_", b"_digest_cache_", b"_payload_size_"):
            assert derived not in frame, (type(obj).__name__, derived)
        received = decode_frame(frame[LEN.size:])
        assert received == obj
        assert encode_canonical(received) == warm
