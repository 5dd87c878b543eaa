"""Adversarial certificate evasion (the §2.2 arms race, projected forward).

The paper's fingerprints already had to survive two evasions (Google
dropping the Organization entry, Meta rotating to site-specific names).
This module models the next moves a hypergiant could make against a
certificate-based detector, as scenario knobs on the scan:

* **rotating SANs** — per-server rotated, unrecognisable names on an
  otherwise legitimate certificate (trusted issuer kept, Organization
  withheld).  Every published fingerprint rule misses it.
* **shared wildcard certs** — one bland shared wildcard certificate from a
  generic CA across all evading servers of all hypergiants, so the scan
  sees an undifferentiated CDN edge.
* **cert-less QUIC** — the endpoint stops answering TCP/443 with a
  certificate at all (media over QUIC with out-of-band keys); the scan
  simply has no record for it.

Each knob is a fraction of offnet servers that adopt the evasion.  Whether
a given server evades is a pure function of ``(seed, knob, ip)`` — the
hash coin :mod:`repro.faults` uses too (:func:`repro._util.hash_coin`) —
so evasion never draws from the scan's RNG streams: certificates of
non-evading servers are byte-identical to the evasion-off run, and
raising a fraction can only grow the evading set (detection recall is
monotonically non-increasing in every knob, which
``tests/test_evasion.py`` asserts).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro._util import hash_coin, require_fraction
from repro.deployment.placement import OffnetServer
from repro.scan.certificates import TRUSTED_ISSUERS, Certificate

#: Evasion mode identifiers, in precedence order (an IP selected by several
#: knobs uses the strongest: no record beats a rewritten certificate).
CERTLESS_QUIC = "certless_quic"
SHARED_WILDCARD = "shared_wildcard"
ROTATING_SAN = "rotating_san"


def _coin(seed: int, knob: str, ip: int) -> float:
    """A uniform [0, 1) draw that is a pure function of its arguments."""
    return hash_coin(f"evasion:{seed}:{knob}:{ip}")


@dataclass(frozen=True)
class EvasionConfig:
    """Which fraction of offnet servers adopts each evasion."""

    #: Fraction of offnet servers presenting rotated, unfingerprints-able names.
    rotating_san_fraction: float = 0.0
    #: Fraction presenting the one shared generic wildcard certificate.
    shared_wildcard_fraction: float = 0.0
    #: Fraction serving cert-less QUIC only (no scan record at all).
    certless_quic_fraction: float = 0.0
    #: Keys the per-IP evasion coins (independent of the scan seed).
    seed: int = 0

    def __post_init__(self) -> None:
        require_fraction(self.rotating_san_fraction, "rotating_san_fraction")
        require_fraction(self.shared_wildcard_fraction, "shared_wildcard_fraction")
        require_fraction(self.certless_quic_fraction, "certless_quic_fraction")

    @property
    def enabled(self) -> bool:
        """Whether any knob is turned up at all."""
        return bool(
            self.rotating_san_fraction
            or self.shared_wildcard_fraction
            or self.certless_quic_fraction
        )

    def mode_for(self, ip: int) -> str | None:
        """The evasion mode server ``ip`` adopts, or None (honest cert).

        Each knob flips its own coin, so growing one fraction never
        un-selects an IP chosen by another (monotonicity per knob).
        """
        if _coin(self.seed, CERTLESS_QUIC, ip) < self.certless_quic_fraction:
            return CERTLESS_QUIC
        if _coin(self.seed, SHARED_WILDCARD, ip) < self.shared_wildcard_fraction:
            return SHARED_WILDCARD
        if _coin(self.seed, ROTATING_SAN, ip) < self.rotating_san_fraction:
            return ROTATING_SAN
        return None


def rotating_san_certificate(server: OffnetServer, seed: int) -> Certificate:
    """A legitimate but unrecognisable certificate for ``server``.

    The hypergiant keeps its real CA (the issuer check still passes, as it
    should — this is a genuine hypergiant certificate) but rotates the
    subject to a per-server opaque edge name and withholds the
    Organization, so none of the 2021/2023 fingerprint rules match.
    """
    token = hashlib.blake2b(f"rotate:{seed}:{server.ip}".encode(), digest_size=4).hexdigest()
    name = f"*.{token}.edge-{server.facility.city.iata}.example"
    issuer = TRUSTED_ISSUERS[server.hypergiant]
    return Certificate(
        subject_common_name=name,
        subject_organization=None,
        subject_alternative_names=(name.removeprefix("*."),),
        issuer_common_name=f"{issuer} Edge CA",
        issuer_organization=issuer,
    )


def shared_wildcard_certificate() -> Certificate:
    """The one bland wildcard certificate every evading server shares.

    Nothing identifies the operator: a generic cache name, no
    Organization, a generic CA.  Indistinguishable from any third-party
    CDN edge, and identical across hypergiants by construction.
    """
    return Certificate(
        subject_common_name="*.edge-cache.example",
        subject_organization=None,
        subject_alternative_names=("edge-cache.example",),
        issuer_common_name="Generic CA",
        issuer_organization="Generic Trust Services",
    )
