"""Unit tests for the from-scratch digest oracles and the registry."""

import hashlib

import pytest

from repro.crypto.digests import digest, digest_size
from repro.errors import CryptoError
from tests.crypto.oracle import md5, md5_hex, sha1, sha1_hex

# RFC 1321 appendix A.5 test suite.
MD5_VECTORS = {
    b"": "d41d8cd98f00b204e9800998ecf8427e",
    b"a": "0cc175b9c0f1b6a831c399e269772661",
    b"abc": "900150983cd24fb0d6963f7d28e17f72",
    b"message digest": "f96b697d7cb7938d525a2f31aaf161d0",
    b"abcdefghijklmnopqrstuvwxyz": "c3fcd3d76192e4007dfb496cca67e13b",
}

# FIPS 180-1 examples.
SHA1_VECTORS = {
    b"abc": "a9993e364706816aba3e25717850c26c9cd0d89d",
    b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq":
        "84983e441c3bd26ebaae4aa1f95129e5e54670f1",
}


def test_md5_rfc_vectors():
    for message, expected in MD5_VECTORS.items():
        assert md5_hex(message) == expected


def test_sha1_fips_vectors():
    for message, expected in SHA1_VECTORS.items():
        assert sha1_hex(message) == expected


@pytest.mark.parametrize("size", [0, 1, 55, 56, 57, 63, 64, 65, 119, 120, 1000])
def test_padding_boundaries_match_hashlib(size):
    data = bytes(range(256)) * (size // 256 + 1)
    data = data[:size]
    assert md5(data) == hashlib.md5(data).digest()
    assert sha1(data) == hashlib.sha1(data).digest()


def test_registry_dispatch():
    assert digest("md5", b"abc") == hashlib.md5(b"abc").digest()
    assert digest("sha1", b"abc") == hashlib.sha1(b"abc").digest()


def test_registry_defaults_to_stdlib_backend():
    """The simulator path uses hashlib by default (digest *time* is
    charged by the cost model, so only the value matters)."""
    data = b"fast path" * 99
    assert digest("md5", data) == hashlib.md5(data).digest()
    assert digest("sha1", data) == hashlib.sha1(data).digest()


def test_registry_stdlib_mode_is_identical():
    """The from-scratch oracles and the registry are bit-identical."""
    data = b"some message" * 50
    assert md5(data) == digest("md5", data) == hashlib.md5(data).digest()
    assert sha1(data) == digest("sha1", data) == hashlib.sha1(data).digest()


def test_none_digest_is_stable_and_short():
    a = digest("none", b"payload")
    b = digest("none", b"payload")
    assert a == b
    assert len(a) == digest_size("none") == 8
    assert digest("none", b"other") != a


def test_digest_sizes():
    assert digest_size("md5") == 16
    assert digest_size("sha1") == 20


def test_unknown_digest_rejected():
    with pytest.raises(CryptoError):
        digest("sha3", b"")
    with pytest.raises(CryptoError):
        digest_size("sha3")
