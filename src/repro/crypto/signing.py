"""Signature providers: the interface protocols sign and verify through.

Two interchangeable implementations:

* :class:`RealSignatureProvider` executes the from-scratch RSA/DSA code
  — used by functional tests and the ``real_crypto`` example, where an
  actual forgery attempt must actually fail;
* :class:`SimulatedSignatureProvider` issues dealer-keyed MAC tokens —
  unforgeable by construction (a Byzantine process does not hold other
  processes' secrets), constant-time to create, and sized like the real
  scheme's signatures so wire-size accounting stays faithful.  The
  *time* cost of signing/verifying is charged separately through
  :class:`~repro.crypto.costs.CryptoCostModel`.

Both satisfy the paper's Assumption 2: a non-faulty process' signature
cannot be forged and tampering is detected.
"""

from __future__ import annotations

import hashlib
import hmac
import random
from dataclasses import dataclass

from repro.crypto import dsa, rsa
from repro.crypto.canon import FieldsOnly
from repro.crypto.keys import DsaParameters
from repro.crypto.schemes import CryptoScheme
from repro.errors import ConfigError, CryptoError


@dataclass(frozen=True)
class Signature(FieldsOnly):
    """One signature: who signed, under which scheme, and the raw value."""

    signer: str
    scheme: str
    value: bytes

    @property
    def size_bytes(self) -> int:
        return len(self.value)


class SignatureProvider:
    """Interface: sign bytes as a named process, verify claimed signatures."""

    scheme: CryptoScheme

    def sign(self, signer: str, data: bytes) -> Signature:
        """Produce ``signer``'s signature over ``data``."""
        raise NotImplementedError

    def verify(self, signature: Signature, data: bytes, claimed_signer: str) -> bool:
        """True iff ``signature`` is ``claimed_signer``'s valid signature
        over ``data`` under this provider's scheme."""
        raise NotImplementedError

    @property
    def signature_bytes(self) -> int:
        """Nominal wire size of one signature."""
        return self.scheme.signature_bytes


class SimulatedSignatureProvider(SignatureProvider):
    """Dealer-keyed MAC tokens standing in for public-key signatures.

    The provider plays the trusted dealer's key store: it holds one
    secret per process and only mints tokens when asked to sign *as*
    that process.  Byzantine actors may emit garbage
    :class:`Signature` objects, but cannot mint a token that verifies
    for a victim's name — matching the unforgeability assumption.
    """

    def __init__(self, scheme: CryptoScheme, names: list[str], seed: int = 0) -> None:
        self.scheme = scheme
        self._secrets = {
            name: hashlib.sha256(f"dealer/{seed}/{name}".encode()).digest()
            for name in names
        }

    def _token(self, name: str, data: bytes) -> bytes:
        secret = self._secrets[name]
        mac = hmac.new(secret, data, hashlib.sha256).digest()
        width = max(self.scheme.signature_bytes, len(mac))
        return (mac * (width // len(mac) + 1))[:width]

    def sign(self, signer: str, data: bytes) -> Signature:
        if signer not in self._secrets:
            raise CryptoError(f"no key provisioned for {signer!r}")
        return Signature(
            signer=signer, scheme=self.scheme.name, value=self._token(signer, data)
        )

    def verify(self, signature: Signature, data: bytes, claimed_signer: str) -> bool:
        if signature.signer != claimed_signer:
            return False
        if signature.scheme != self.scheme.name:
            return False
        if claimed_signer not in self._secrets:
            return False
        return hmac.compare_digest(signature.value, self._token(claimed_signer, data))


class RealSignatureProvider(SignatureProvider):
    """Actual RSA/DSA signatures using the from-scratch implementations.

    Key generation is deterministic in ``seed``.  ``key_bits`` may be
    reduced below the scheme's nominal size to keep test key generation
    fast (the scheme's nominal size is still used for wire accounting).
    """

    def __init__(
        self,
        scheme: CryptoScheme,
        names: list[str],
        seed: int = 0,
        key_bits: int | None = None,
        dsa_params: DsaParameters | None = None,
    ) -> None:
        if scheme.signature not in ("rsa", "dsa"):
            raise ConfigError(f"real provider needs rsa or dsa, got {scheme.signature!r}")
        self.scheme = scheme
        bits = key_bits if key_bits is not None else scheme.key_bits
        rng = random.Random(seed)
        self._keys: dict[str, object] = {}
        if scheme.signature == "rsa":
            for name in names:
                self._keys[name] = rsa.generate_keypair(bits, rng)
        else:
            if dsa_params is None:
                dsa_params = default_dsa_parameters(bits)
            self._dsa_params = dsa_params
            for name in names:
                self._keys[name] = dsa.generate_keypair(dsa_params, rng)

    def sign(self, signer: str, data: bytes) -> Signature:
        key = self._keys.get(signer)
        if key is None:
            raise CryptoError(f"no key provisioned for {signer!r}")
        if self.scheme.signature == "rsa":
            value = rsa.sign(key, data, self.scheme.digest)
        else:
            value = dsa.encode_signature(dsa.sign(key, data, self.scheme.digest))
        return Signature(signer=signer, scheme=self.scheme.name, value=value)

    def verify(self, signature: Signature, data: bytes, claimed_signer: str) -> bool:
        if signature.signer != claimed_signer:
            return False
        if signature.scheme != self.scheme.name:
            return False
        key = self._keys.get(claimed_signer)
        if key is None:
            return False
        if self.scheme.signature == "rsa":
            return rsa.verify(key.public, data, signature.value, self.scheme.digest)
        try:
            decoded = dsa.decode_signature(signature.value)
        except CryptoError:
            return False
        return dsa.verify(key.public, data, decoded, self.scheme.digest)


# ----------------------------------------------------------------------
# Precomputed DSA domain parameters
# ----------------------------------------------------------------------
# Generating fresh 1024-bit DSA parameters takes seconds of big-int
# arithmetic; deployments conventionally share fixed domain parameters.
# These were produced once by ``dsa.generate_parameters`` under seed 2006
# and are revalidated (primality of p and q, order of g) by the tests.
_DSA_PARAM_CACHE: dict[int, DsaParameters] = {}


def default_dsa_parameters(l_bits: int = 1024) -> DsaParameters:
    """Shared DSA domain parameters for the given modulus size.

    Parameters for 1024 bits are precomputed; other sizes are generated
    on first use (deterministically) and cached for the process.
    """
    params = _DSA_PARAM_CACHE.get(l_bits)
    if params is None:
        if l_bits == 1024 and _PRECOMPUTED_1024 is not None:
            params = _PRECOMPUTED_1024
        else:
            params = dsa.generate_parameters(
                l_bits, min(160, l_bits // 2), random.Random(2006)
            )
        _DSA_PARAM_CACHE[l_bits] = params
    return params


_PRECOMPUTED_1024: DsaParameters | None = DsaParameters(
    p=int(
        "f28394dfeaab9063d3e53ec64d9e60c93ca6cfa01623e7ca2be366d0e7fe5b49"
        "99c554efeb7566e9ba390c85954c0d7d3cc0e078c0e7ad560269cacb25336494"
        "84eddb66efa9a00810a4c0766c5d291946b1811c20ce067d2a49f1fb02edb849"
        "1b0a5687d86604e044fb53b95ad6a341667689e6c9364c110e8a5db0a05868f9",
        16,
    ),
    q=int("d0f172bba62eb51d8123af640675fdb9ebb0aa05", 16),
    g=int(
        "47df1d046eab7d93da259149bf21e2ba3e07a16f2eef867206dd61afd055657c"
        "8262184ffaa6a0392c80ef4596d4638bc4fcc803fb96916cf8012a3ff77d232f"
        "ac4363b278d09238cf26fb35294dac2ae3ead11b666993d1c42a1b73726beea0"
        "bc665f3ad6d02a4305ec8ef2014298ca87b2650e3c2b454a633815abd7c1f813",
        16,
    ),
)
