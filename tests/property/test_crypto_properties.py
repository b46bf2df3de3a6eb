"""Property-based tests for the cryptographic substrate."""

import hashlib
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import dsa, rsa
from repro.crypto.canon import encode_canonical
from repro.crypto.digests import digest
from repro.crypto.numtheory import egcd, is_probable_prime, modinv
from repro.crypto.schemes import MD5_RSA_1024
from repro.crypto.signing import SimulatedSignatureProvider
from tests.crypto.oracle import md5, sha1

# Shared keys: generating inside @given would dominate run time.
_RSA_KEY = rsa.generate_keypair(384, random.Random(100))
_DSA_PARAMS = dsa.generate_parameters(256, 160, random.Random(101))
_DSA_KEY = dsa.generate_keypair(_DSA_PARAMS, random.Random(102))
_PROVIDER = SimulatedSignatureProvider(MD5_RSA_1024, ["p1", "p2"])


@given(st.binary(max_size=4096))
def test_md5_matches_hashlib(data):
    assert md5(data) == hashlib.md5(data).digest()


@given(st.binary(max_size=4096))
def test_sha1_matches_hashlib(data):
    assert sha1(data) == hashlib.sha1(data).digest()


@given(st.binary(max_size=256))
@settings(max_examples=25, deadline=None)
def test_rsa_sign_verify_round_trip(message):
    signature = rsa.sign(_RSA_KEY, message, "md5")
    assert rsa.verify(_RSA_KEY.public, message, signature, "md5")


@given(st.binary(max_size=256), st.binary(min_size=1, max_size=16))
@settings(max_examples=25, deadline=None)
def test_rsa_rejects_modified_message(message, suffix):
    signature = rsa.sign(_RSA_KEY, message, "md5")
    assert not rsa.verify(_RSA_KEY.public, message + suffix, signature, "md5")


@given(st.binary(max_size=256))
@settings(max_examples=25, deadline=None)
def test_dsa_sign_verify_round_trip(message):
    signature = dsa.sign(_DSA_KEY, message, "sha1")
    assert dsa.verify(_DSA_KEY.public, message, signature, "sha1")


@given(st.binary(max_size=128), st.binary(max_size=128))
@settings(max_examples=50, deadline=None)
def test_dsa_nonce_never_reused_across_messages(a, b):
    """Nonce reuse across distinct messages leaks the DSA private key;
    the deterministic derivation must keep r values apart."""
    if a == b:
        return
    ra, _ = dsa.sign(_DSA_KEY, a, "sha1")
    rb, _ = dsa.sign(_DSA_KEY, b, "sha1")
    ha = dsa._digest_int(a, "sha1", _DSA_PARAMS.q)
    hb = dsa._digest_int(b, "sha1", _DSA_PARAMS.q)
    if ha != hb:
        assert ra != rb


@given(st.integers(min_value=2, max_value=10**6), st.integers(min_value=2, max_value=10**6))
def test_egcd_bezout(a, b):
    g, x, y = egcd(a, b)
    assert a * x + b * y == g
    assert a % g == 0 and b % g == 0


@given(st.integers(min_value=3, max_value=10**9))
def test_modinv_inverts_when_coprime(m):
    a = 2
    while egcd(a % m, m)[0] != 1:
        a += 1
    assert (a * modinv(a, m)) % m == 1


@given(st.integers(min_value=2, max_value=2**20))
def test_primality_agrees_with_trial_division(n):
    reference = n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))
    assert is_probable_prime(n) == reference


@given(st.binary(max_size=512), st.binary(max_size=512))
def test_simulated_tokens_are_message_bound(a, b):
    sig = _PROVIDER.sign("p1", a)
    assert _PROVIDER.verify(sig, a, "p1")
    if a != b:
        assert not _PROVIDER.verify(sig, b, "p1")


@given(st.binary(max_size=256))
def test_forgery_never_verifies(data):
    forged = _PROVIDER.forge("p1", data)
    assert not _PROVIDER.verify(forged, data, "p1")


_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**40), max_value=2**40)
    | st.text(max_size=20)
    | st.binary(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


@given(_VALUES)
def test_canonical_bytes_deterministic(value):
    assert encode_canonical(value) == encode_canonical(value)


@given(_VALUES, _VALUES)
def test_canonical_bytes_injective_enough(a, b):
    """Distinct values (up to int/bool aliasing and list/tuple
    equivalence, which JSON flattens deliberately) encode distinctly."""
    if encode_canonical(a) == encode_canonical(b):
        # normalise the representational aliases we accept
        def norm(v):
            if isinstance(v, bool):
                return int(v)
            if isinstance(v, (list, tuple)):
                return tuple(norm(i) for i in v)
            if isinstance(v, dict):
                return tuple(sorted((k, norm(x)) for k, x in v.items()))
            if isinstance(v, float) and v == int(v):
                return int(v)
            return v

        assert norm(a) == norm(b)


@given(st.binary(max_size=1024))
def test_digests_are_stable_across_backends(data):
    """The from-scratch oracles and the hashlib-backed registry are
    bit-identical on arbitrary input."""
    assert md5(data) == digest("md5", data)
    assert sha1(data) == digest("sha1", data)
