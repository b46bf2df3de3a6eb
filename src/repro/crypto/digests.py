"""Digest registry.

``digest(name, data)`` dispatches to :mod:`hashlib` by default: the
simulator charges digest *time* through the calibrated cost model
(:mod:`repro.crypto.costs`), so the backend computing the digest value
only has to be bit-identical and fast — a profile of a representative
sweep showed the from-scratch MD5 alone eating ~16% of harness wall
time while contributing nothing to any simulated metric.

The test suite keeps from-scratch MD5 and SHA-1 as oracles and checks
them against hashlib bit for bit.
"""

from __future__ import annotations

import hashlib

from repro.errors import CryptoError

_SIZES = {"md5": 16, "sha1": 20, "none": 8}


def digest(name: str, data: bytes) -> bytes:
    """Compute the named digest of ``data``.

    ``"none"`` is the degenerate digest used by the crash-tolerant (CT)
    baseline, which the paper runs without cryptographic techniques: a
    truncated non-cryptographic fingerprint that still lets replicas
    match requests to orders.
    """
    if name == "md5":
        return hashlib.md5(data).digest()
    if name == "sha1":
        return hashlib.sha1(data).digest()
    if name == "none":
        # Non-cryptographic: good enough to identify requests among
        # non-malicious peers, which is all CT assumes.
        return hashlib.blake2b(data, digest_size=8).digest()
    raise CryptoError(f"unknown digest {name!r}")


def digest_size(name: str) -> int:
    """Digest length in bytes for wire-size accounting."""
    try:
        return _SIZES[name]
    except KeyError:
        raise CryptoError(f"unknown digest {name!r}") from None
