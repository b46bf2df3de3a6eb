"""Key containers shared by the RSA and DSA modules."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RsaPublicKey:
    """RSA public key ``(n, e)``."""

    n: int
    e: int


@dataclass(frozen=True)
class RsaKeyPair:
    """RSA key pair with CRT acceleration fields.

    ``dp = d mod (p-1)``, ``dq = d mod (q-1)``, ``qinv = q^-1 mod p``.
    """

    public: RsaPublicKey
    d: int
    p: int
    q: int
    dp: int
    dq: int
    qinv: int


@dataclass(frozen=True)
class DsaParameters:
    """DSA domain parameters ``(p, q, g)``; shared across a deployment."""

    p: int
    q: int
    g: int


@dataclass(frozen=True)
class DsaPublicKey:
    """DSA public key: domain parameters plus ``y = g^x mod p``."""

    params: DsaParameters
    y: int


@dataclass(frozen=True)
class DsaKeyPair:
    """DSA key pair (private exponent ``x``)."""

    public: DsaPublicKey
    x: int
