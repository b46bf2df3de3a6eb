"""From-scratch crypto oracles: what ``repro.crypto`` is checked against.

Nothing in ``src/`` uses these.  ``repro.crypto`` encodes with
:func:`repro.crypto.canon.encode_canonical` and hashes with
:mod:`hashlib`; the tests compare both, bit for bit, with the
independent implementations kept here:

* :func:`reference_canonical_bytes` — the canonical format (see
  :mod:`repro.crypto.canon`'s docstring) built the obvious way, as a
  recursive ``_jsonable`` tree handed to :func:`json.dumps`;
* :func:`md5` — MD5 from RFC 1321.  The paper pairs MD5 with RSA for
  two of its three evaluated crypto configurations.  (MD5 is long
  broken for collision resistance; we reproduce the paper's 2006
  configuration, we do not endorse it.)
* :func:`sha1` — SHA-1 from FIPS 180-1, which the paper pairs with DSA
  for its third configuration.
"""

from __future__ import annotations

import dataclasses
import json
import math
import struct
from typing import Any

from repro.errors import CryptoError

# ----------------------------------------------------------------------
# Canonical encoding
# ----------------------------------------------------------------------


def _jsonable(value: Any) -> Any:
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {
            field.name: _jsonable(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
        return {"__dc__": type(value).__name__, **fields}
    if isinstance(value, bytes):
        return {"__bytes__": value.hex()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        converted = {}
        for key, item in value.items():
            if not isinstance(key, (str, int)):
                raise CryptoError(f"unencodable dict key type {type(key).__name__}")
            converted[str(key)] = _jsonable(item)
        return converted
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise CryptoError(f"unencodable value of type {type(value).__name__}")


def reference_canonical_bytes(value: Any) -> bytes:
    """The from-first-principles encoding (slow, recursive).

    :func:`repro.crypto.canon.encode_canonical` must produce exactly
    these bytes for every encodable value.
    """
    return json.dumps(
        _jsonable(value), sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


# ----------------------------------------------------------------------
# MD5 (RFC 1321) and SHA-1 (FIPS 180-1)
# ----------------------------------------------------------------------

_MASK = 0xFFFFFFFF


def _rotl(x: int, c: int) -> int:
    return ((x << c) | (x >> (32 - c))) & _MASK


_MD5_SHIFTS = (
    [7, 12, 17, 22] * 4
    + [5, 9, 14, 20] * 4
    + [4, 11, 16, 23] * 4
    + [6, 10, 15, 21] * 4
)
_MD5_SINES = [int(abs(math.sin(i + 1)) * 2**32) & _MASK for i in range(64)]

_MD5_INIT = (0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476)


def _md5_pad(length: int) -> bytes:
    """MD5 padding for a message of ``length`` bytes."""
    pad_len = (56 - (length + 1)) % 64
    return (
        b"\x80" + b"\x00" * pad_len + struct.pack("<Q", (8 * length) & 0xFFFFFFFFFFFFFFFF)
    )


def _md5_compress(state: tuple[int, int, int, int], block: bytes) -> tuple[int, int, int, int]:
    m = struct.unpack("<16I", block)
    a, b, c, d = state
    for i in range(64):
        if i < 16:
            f = (b & c) | (~b & d)
            g = i
        elif i < 32:
            f = (d & b) | (~d & c)
            g = (5 * i + 1) % 16
        elif i < 48:
            f = b ^ c ^ d
            g = (3 * i + 5) % 16
        else:
            f = c ^ (b | (~d & _MASK))
            g = (7 * i) % 16
        f = (f + a + _MD5_SINES[i] + m[g]) & _MASK
        a, d, c = d, c, b
        b = (b + _rotl(f, _MD5_SHIFTS[i])) & _MASK
    return (
        (state[0] + a) & _MASK,
        (state[1] + b) & _MASK,
        (state[2] + c) & _MASK,
        (state[3] + d) & _MASK,
    )


def md5(data: bytes) -> bytes:
    """16-byte MD5 digest of ``data``.

    >>> md5(b"abc").hex()
    '900150983cd24fb0d6963f7d28e17f72'
    """
    message = bytes(data) + _md5_pad(len(data))
    state = _MD5_INIT
    for offset in range(0, len(message), 64):
        state = _md5_compress(state, message[offset : offset + 64])
    return struct.pack("<4I", *state)


def md5_hex(data: bytes) -> str:
    """Hex-encoded MD5 digest."""
    return md5(data).hex()


_SHA1_INIT = (0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0)


def _sha1_pad(length: int) -> bytes:
    pad_len = (56 - (length + 1)) % 64
    return b"\x80" + b"\x00" * pad_len + struct.pack(">Q", 8 * length)


def _sha1_compress(state: tuple[int, ...], block: bytes) -> tuple[int, ...]:
    w = list(struct.unpack(">16I", block))
    for i in range(16, 80):
        w.append(_rotl(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1))
    a, b, c, d, e = state
    for i in range(80):
        if i < 20:
            f = (b & c) | (~b & d & _MASK)
            k = 0x5A827999
        elif i < 40:
            f = b ^ c ^ d
            k = 0x6ED9EBA1
        elif i < 60:
            f = (b & c) | (b & d) | (c & d)
            k = 0x8F1BBCDC
        else:
            f = b ^ c ^ d
            k = 0xCA62C1D6
        temp = (_rotl(a, 5) + (f & _MASK) + e + k + w[i]) & _MASK
        e, d, c, b, a = d, c, _rotl(b, 30), a, temp
    return tuple((s + v) & _MASK for s, v in zip(state, (a, b, c, d, e)))


def sha1(data: bytes) -> bytes:
    """20-byte SHA-1 digest of ``data``.

    >>> sha1(b"abc").hex()
    'a9993e364706816aba3e25717850c26c9cd0d89d'
    """
    message = bytes(data) + _sha1_pad(len(data))
    state = _SHA1_INIT
    for offset in range(0, len(message), 64):
        state = _sha1_compress(state, message[offset : offset + 64])
    return struct.pack(">5I", *state)


def sha1_hex(data: bytes) -> str:
    """Hex-encoded SHA-1 digest."""
    return sha1(data).hex()
