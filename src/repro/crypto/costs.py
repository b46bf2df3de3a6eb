"""Calibrated CPU costs of cryptographic operations.

The simulator does not execute 1024-bit RSA for every simulated message
(pure-Python big-int math would make parameter sweeps take hours);
instead protocol actors charge their node's CPU with the *time the
paper's testbed would have spent*.  The ``p4_2006`` profile encodes the
relative costs that drive the paper's findings:

* RSA and DSA **signing** times are similar (stated explicitly in
  Section 5);
* RSA **verification** is much faster than signing (small public
  exponent), while DSA verification is *slower* than DSA signing (two
  modular exponentiations) — the source of the widening SC/BFT gap in
  Figure 4(c);
* RSA-1536 costs roughly ``(1536/1024)^3 ≈ 3.4×`` RSA-1024 for private-
  key operations (cubic in modulus size), and about double for
  public-key operations.

Absolute values approximate a 2.8 GHz Pentium IV running Java 1.5 JCE
(the paper's machines); they are deliberately exposed as plain data so
studies can re-calibrate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.schemes import CryptoScheme
from repro.errors import ConfigError


@dataclass(frozen=True)
class OpCosts:
    """Per-operation CPU seconds for one crypto scheme."""

    sign: float
    verify: float
    digest_base: float
    digest_per_kb: float

    def digest_cost(self, size_bytes: int) -> float:
        """Cost of digesting ``size_bytes`` of input."""
        return self.digest_base + self.digest_per_kb * (size_bytes / 1024.0)


_ZERO = OpCosts(sign=0.0, verify=0.0, digest_base=0.0, digest_per_kb=0.0)


class CryptoCostModel:
    """Maps scheme names to :class:`OpCosts`.

    >>> model = CryptoCostModel.p4_2006()
    >>> model.costs("md5-rsa1024").verify < model.costs("sha1-dsa1024").verify
    True
    """

    def __init__(self, table: dict[str, OpCosts]) -> None:
        self._table = dict(table)

    def costs(self, scheme_name: str) -> OpCosts:
        """Costs for a scheme; the no-crypto scheme is always free."""
        if scheme_name == "plain":
            return _ZERO
        try:
            return self._table[scheme_name]
        except KeyError:
            raise ConfigError(
                f"no cost calibration for scheme {scheme_name!r}"
            ) from None

    def for_scheme(self, scheme: CryptoScheme) -> OpCosts:
        """Convenience accessor taking a scheme object."""
        return self.costs(scheme.name)

    @classmethod
    def p4_2006(cls) -> "CryptoCostModel":
        """Calibration for the paper's testbed (P4 2.8 GHz, Java 1.5)."""
        return cls(
            {
                # RSA-1024: private op ~7.5 ms; public op (e=65537) ~1 ms
                # under 2006-era Java BigInteger arithmetic.
                "md5-rsa1024": OpCosts(
                    sign=7.5e-3, verify=1.0e-3, digest_base=4e-6, digest_per_kb=9e-6
                ),
                # RSA-1536: ~3.4x private, ~2x public.
                "md5-rsa1536": OpCosts(
                    sign=25.0e-3, verify=1.8e-3, digest_base=4e-6, digest_per_kb=9e-6
                ),
                # DSA-1024: signing comparable to RSA-1024 signing; verify
                # needs two modular exponentiations (vs RSA's one with a
                # small public exponent), so it is several times slower
                # than RSA verification — the asymmetry behind Figure 4(c).
                "sha1-dsa1024": OpCosts(
                    sign=6.0e-3, verify=6.5e-3, digest_base=5e-6, digest_per_kb=11e-6
                ),
            }
        )

    @classmethod
    def free(cls) -> "CryptoCostModel":
        """All operations cost zero (functional tests, CT baseline)."""
        return cls(
            {
                "md5-rsa1024": _ZERO,
                "md5-rsa1536": _ZERO,
                "sha1-dsa1024": _ZERO,
            }
        )
