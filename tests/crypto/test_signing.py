"""Unit tests for signature providers (simulated and real)."""

import pytest

from repro.crypto.schemes import MD5_RSA_1024, SHA1_DSA_1024
from repro.crypto.signing import (
    RealSignatureProvider,
    Signature,
    SimulatedSignatureProvider,
)
from repro.errors import ConfigError, CryptoError

NAMES = ["p1", "p1'", "p2"]


@pytest.fixture(scope="module")
def simulated():
    return SimulatedSignatureProvider(MD5_RSA_1024, NAMES, seed=3)


@pytest.fixture(scope="module")
def real_rsa():
    return RealSignatureProvider(MD5_RSA_1024, NAMES, seed=3, key_bits=384)


@pytest.fixture(scope="module")
def real_dsa():
    return RealSignatureProvider(SHA1_DSA_1024, NAMES, seed=3, key_bits=256)


def test_simulated_round_trip(simulated):
    sig = simulated.sign("p1", b"data")
    assert simulated.verify(sig, b"data", "p1")


def test_simulated_signature_sized_like_scheme(simulated):
    sig = simulated.sign("p1", b"data")
    assert sig.size_bytes == MD5_RSA_1024.signature_bytes == 128


def test_simulated_rejects_wrong_signer(simulated):
    sig = simulated.sign("p1", b"data")
    assert not simulated.verify(sig, b"data", "p2")


def test_simulated_rejects_tampered_data(simulated):
    sig = simulated.sign("p1", b"data")
    assert not simulated.verify(sig, b"datb", "p1")


def test_simulated_forgery_never_verifies(simulated):
    # What a Byzantine process can do: fabricate a signature object
    # without the victim's secret.
    forged = Signature(signer="p1", scheme=MD5_RSA_1024.name, value=bytes(128))
    assert forged.signer == "p1"
    assert not simulated.verify(forged, b"data", "p1")


def test_simulated_unprovisioned_signer_rejected(simulated):
    with pytest.raises(CryptoError):
        simulated.sign("intruder", b"data")
    sig = simulated.sign("p1", b"data")
    bogus = type(sig)(signer="intruder", scheme=sig.scheme, value=sig.value)
    assert not simulated.verify(bogus, b"data", "intruder")


@pytest.mark.parametrize("provider_name", ["real_rsa", "real_dsa"])
def test_real_round_trip(provider_name, request):
    provider = request.getfixturevalue(provider_name)
    sig = provider.sign("p1'", b"payload")
    assert provider.verify(sig, b"payload", "p1'")
    assert not provider.verify(sig, b"payloae", "p1'")
    assert not provider.verify(sig, b"payload", "p2")


def test_real_cross_scheme_rejected(real_rsa, real_dsa):
    sig = real_rsa.sign("p1", b"x")
    assert not real_dsa.verify(sig, b"x", "p1")


def test_real_provider_needs_signature_algorithm():
    from repro.crypto.schemes import PLAIN

    with pytest.raises(ConfigError):
        RealSignatureProvider(PLAIN, NAMES)


def test_same_seed_same_tokens():
    a = SimulatedSignatureProvider(MD5_RSA_1024, NAMES, seed=9)
    b = SimulatedSignatureProvider(MD5_RSA_1024, NAMES, seed=9)
    assert a.sign("p1", b"m").value == b.sign("p1", b"m").value


def test_different_seed_different_tokens():
    a = SimulatedSignatureProvider(MD5_RSA_1024, NAMES, seed=9)
    b = SimulatedSignatureProvider(MD5_RSA_1024, NAMES, seed=10)
    assert a.sign("p1", b"m").value != b.sign("p1", b"m").value
