"""Signed-message wrapper: single and sequential (doubly-) signatures.

The paper's **doubly-signed** construction (Section 3): signature ``i``
covers the canonical bytes of ``(body, signatures[0..i-1])``, so a
countersignature vouches for both the content and the signature(s)
before it.  The trusted dealer, the order protocols and the BFT
baseline all share this wrapper.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any

from repro.crypto.canon import FieldsOnly, encode_canonical, memoized_fragment
from repro.crypto.signing import Signature, SignatureProvider
from repro.errors import VerificationError


@dataclass(frozen=True)
class SignedMessage(FieldsOnly):
    """A body plus one or more signatures applied in sequence."""

    body: Any
    signatures: tuple[Signature, ...]

    @property
    def signers(self) -> tuple[str, ...]:
        return tuple(sig.signer for sig in self.signatures)

    @property
    def signature_bytes(self) -> int:
        return sum(sig.size_bytes for sig in self.signatures)

    def __reduce__(self):
        # Wire shape: the body, then one primitive row per signature.
        rows = tuple([(s.signer, s.scheme, s.value) for s in self.signatures])
        return signed_message, (self.body, rows)


def signed_message(body: Any, rows: tuple) -> SignedMessage:
    """Rebuild a :class:`SignedMessage` from its wire form
    ``(body, ((signer, scheme, value), ...))``."""
    return SignedMessage(body, tuple([Signature(*row) for row in rows]))


def _signing_bytes_uncached(body: Any, prior: tuple[Signature, ...]) -> bytes:
    return encode_canonical(
        {"body": body, "prior": [(s.signer, s.value) for s in prior]}
    )


# Signing bytes are pure in (body, prior) and the same prefix is
# re-encoded by every sign / countersign / verify along a signature
# chain (a doubly-signed order is verified at each receiver), so a
# bounded cache removes most encodings.  Keyed on object *identity*
# (never equality: Python's `True == 1 == 1.0` would alias entries for
# values that encode differently) and written only when the canonical
# encoder certified the body deeply immutable, so an entry can neither
# alias nor go stale.  Entries hold the keyed objects, keeping their
# ids valid for the entry's lifetime -- so the bound is also how many
# whole message graphs log truncation cannot free.  Reuse distance is
# one batch's sign -> countersign -> verify fan-out; 512 covers it.
_SIGNING_CACHE_MAX = 512
_signing_cache: OrderedDict[tuple[int, ...], tuple] = OrderedDict()


def signing_cache_size() -> int:
    """Entries (each pinning one signed body) the cache holds now."""
    return len(_signing_cache)


def signing_bytes(body: Any, prior: tuple[Signature, ...]) -> bytes:
    """Canonical bytes covered by the next signature over ``body``."""
    key = (id(body), *(id(s) for s in prior))
    entry = _signing_cache.get(key)
    if entry is not None:
        _signing_cache.move_to_end(key)
        return entry[2]
    data = _signing_bytes_uncached(body, prior)
    if memoized_fragment(body) is not None:
        _signing_cache[key] = (body, tuple(prior), data)
        if len(_signing_cache) > _SIGNING_CACHE_MAX:
            _signing_cache.popitem(last=False)
    return data


def sign_message(provider: SignatureProvider, signer: str, body: Any) -> SignedMessage:
    """Create a singly-signed message."""
    signature = provider.sign(signer, signing_bytes(body, ()))
    return SignedMessage(body=body, signatures=(signature,))


def countersign(
    provider: SignatureProvider, signer: str, message: SignedMessage
) -> SignedMessage:
    """Add the next signature in sequence (endorsement)."""
    signature = provider.sign(signer, signing_bytes(message.body, message.signatures))
    return SignedMessage(body=message.body, signatures=(*message.signatures, signature))


def verify_signed(
    provider: SignatureProvider,
    message: SignedMessage,
    expected_signers: tuple[str, ...] | None = None,
) -> bool:
    """Check every signature in sequence.

    ``expected_signers``, when given, must match the signature chain
    exactly — used to pin a doubly-signed order to a specific pair.
    """
    if expected_signers is not None and message.signers != tuple(expected_signers):
        return False
    for i, signature in enumerate(message.signatures):
        data = signing_bytes(message.body, message.signatures[:i])
        if not provider.verify(signature, data, signature.signer):
            return False
    return True


def require_signed(
    provider: SignatureProvider,
    message: SignedMessage,
    expected_signers: tuple[str, ...] | None = None,
) -> None:
    """Raise :class:`VerificationError` unless the chain verifies."""
    if not verify_signed(provider, message, expected_signers):
        raise VerificationError(
            f"signature chain {message.signers} failed verification"
        )
