"""The trusted dealer of Assumption 2.

"We assume that a trusted dealer initializes the system and the nodes
with cryptographic keys and hash functions."  The dealer provisions a
:class:`~repro.crypto.signing.SignatureProvider` covering every process
and pre-signs the **fail-signal blanks**: Section 3.2 has each paired
process supplied, at initialisation, with a fail-signal message already
signed by its counterpart, so that emitting a doubly-signed fail-signal
requires only the local signature.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.canon import FieldsOnly
from repro.crypto.schemes import CryptoScheme
from repro.crypto.signed import signing_bytes
from repro.crypto.signing import (
    RealSignatureProvider,
    Signature,
    SignatureProvider,
    SimulatedSignatureProvider,
)
from repro.errors import ConfigError


@dataclass(frozen=True)
class FailSignalBody(FieldsOnly):
    """Content of a fail-signal blank (pre-signed by the dealer).

    ``first_signer`` is the process whose signature the dealer applied;
    the *counterpart* holds the blank and later double-signs it to emit
    the pair's fail-signal.
    """

    pair: int
    first_signer: str


def fail_signal_body(pair_index: int, first_signer: str) -> FailSignalBody:
    """Canonical content of a pre-signed fail-signal blank."""
    return FailSignalBody(pair=pair_index, first_signer=first_signer)


class TrustedDealer:
    """Provisions keys and pre-signed fail-signal blanks.

    Parameters
    ----------
    scheme:
        Crypto configuration for the deployment.
    mode:
        ``"simulated"`` (dealer-keyed MACs; the default for performance
        studies) or ``"real"`` (actual RSA/DSA).
    seed:
        Determinises key material.
    key_bits:
        Optional override of the real-mode key size (small keys make
        functional tests fast).
    """

    def __init__(
        self,
        scheme: CryptoScheme,
        mode: str = "simulated",
        seed: int = 0,
        key_bits: int | None = None,
    ) -> None:
        if mode not in ("simulated", "real"):
            raise ConfigError(f"unknown dealer mode {mode!r}")
        if mode == "real" and scheme.signature == "none":
            raise ConfigError("the plain scheme has no real signatures")
        self.scheme = scheme
        self.mode = mode
        self.seed = seed
        self.key_bits = key_bits

    def provision(self, names: list[str]) -> SignatureProvider:
        """Create the signature provider covering ``names``."""
        if len(set(names)) != len(names):
            raise ConfigError("duplicate process names in provisioning list")
        if self.mode == "simulated":
            return SimulatedSignatureProvider(self.scheme, names, seed=self.seed)
        return RealSignatureProvider(
            self.scheme, names, seed=self.seed, key_bits=self.key_bits
        )

    def issue_fail_signal_blanks(
        self, provider: SignatureProvider, pair_index: int, first: str, second: str
    ) -> dict[str, tuple[FailSignalBody, Signature]]:
        """Pre-signed fail-signal blanks for one pair.

        Returns ``{holder: (body, counterpart_signature)}`` — each pair
        member holds a blank signed by the *other* member.
        """
        blanks: dict[str, tuple[FailSignalBody, Signature]] = {}
        for holder, signer in ((first, second), (second, first)):
            body = fail_signal_body(pair_index, signer)
            signature = provider.sign(signer, signing_bytes(body, ()))
            blanks[holder] = (body, signature)
        return blanks
