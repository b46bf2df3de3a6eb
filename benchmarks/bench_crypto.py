"""Crypto substrate claim checks.

Sanity-checks the *calibrated cost model* against the paper's
qualitative claims: RSA and DSA signing cost about the same, RSA
verification is much cheaper than DSA verification, and larger RSA
keys cost more.  (The model encodes the 2006 testbed, so absolute
times are asserted only on the model, not on this machine.)  The one
check on the from-scratch big-int RSA is structural: verify is several
times cheaper than sign.
"""

import random

from repro.crypto import rsa
from repro.crypto.costs import CryptoCostModel

RSA_KEY = rsa.generate_keypair(1024, random.Random(1))
MESSAGE = b"order<c, o, D(m)>" * 8


def test_real_rsa_verify_faster_than_sign():
    """The structural asymmetry (e = 65537 vs a full-width private
    exponent) that the paper's cost argument rests on holds in the
    from-scratch implementation too."""
    import time

    def measure(fn, n=5):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        return (time.perf_counter() - t0) / n

    signature = rsa.sign(RSA_KEY, MESSAGE, "md5")
    sign_time = measure(lambda: rsa.sign(RSA_KEY, MESSAGE, "md5"))
    verify_time = measure(
        lambda: rsa.verify(RSA_KEY.public, MESSAGE, signature, "md5")
    )
    assert verify_time < sign_time / 3


def test_cost_model_matches_paper_claims():
    model = CryptoCostModel.p4_2006()
    rsa1024 = model.costs("md5-rsa1024")
    rsa1536 = model.costs("md5-rsa1536")
    dsa1024 = model.costs("sha1-dsa1024")
    # "In both the schemes the time taken to sign a given message is
    # similar" (RSA-1024 vs DSA-1024).
    assert 0.5 < rsa1024.sign / dsa1024.sign < 2.0
    # "signature verification is much faster in the RSA scheme".
    assert dsa1024.verify / rsa1024.verify > 3
    # Larger keys cost more.
    assert rsa1536.sign > rsa1024.sign
    assert rsa1536.verify > rsa1024.verify
