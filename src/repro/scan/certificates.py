"""X.509-lite certificates and hypergiant naming conventions.

Models exactly the certificate fields the paper's methodology reads: the
Subject Common Name (CN), the Subject Organization, the SubjectAltNames, and
the issuer.  Conventions are epoch-dependent, reproducing the two evasions the
paper had to work around:

* **Google**: in 2021 leaf certificates carried ``Organization = Google LLC``;
  by 2023 Google *removed the Organization entry*, so only the CN
  (``*.googlevideo.com``) identifies the serving certificate.
* **Meta**: in 2021 offnets served the same names as onnet servers
  (``*.fbcdn.net``); by 2023 Meta switched to *site-specific* names like
  ``*.fhan14-4.fna.fbcdn.net`` (han = Hanoi), so exact-match-against-onnet
  fingerprinting fails and a suffix pattern is required.

Netflix and Akamai conventions are stable across epochs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util import require
from repro.deployment.placement import OffnetServer
from repro.topology.asn import AS


@dataclass(frozen=True)
class Certificate:
    """The subset of X.509 the detection methodology inspects."""

    subject_common_name: str
    subject_organization: str | None
    subject_alternative_names: tuple[str, ...]
    issuer_common_name: str
    issuer_organization: str
    self_signed: bool = False

    def __post_init__(self) -> None:
        require(bool(self.subject_common_name), "certificate needs a CN")

    @property
    def all_names(self) -> tuple[str, ...]:
        """CN plus SANs (deduplicated, CN first)."""
        names = [self.subject_common_name]
        for san in self.subject_alternative_names:
            if san not in names:
                names.append(san)
        return tuple(names)


#: Issuer organizations each hypergiant actually uses (the methodology's
#: "other checks" include verifying a plausible CA, which defeats self-signed
#: impostors).
TRUSTED_ISSUERS: dict[str, str] = {
    "Google": "Google Trust Services LLC",
    "Netflix": "DigiCert Inc",
    "Meta": "DigiCert Inc",
    "Akamai": "Let's Encrypt",
}


def _meta_site_code(server: OffnetServer, rng: np.random.Generator) -> str:
    """Meta's 2023-era site code, e.g. ``fhan14-4`` for a Hanoi deployment.

    The leading ``f`` + IATA code of the facility's city + a small cluster
    number and machine index, matching the convention the paper reports
    (``*.fhan14-4.fna.fbcdn.net``, ``*.fbhx2-2.fna.fbcdn.net``).
    """
    iata = server.facility.city.iata
    cluster = 1 + server.facility.facility_id % 20
    machine = 1 + int(rng.integers(1, 6))
    return f"f{iata}{cluster}-{machine}"


def _offnet_certificate(hypergiant: str, epoch: str, meta_site_code: str | None = None) -> Certificate:
    """``hypergiant``'s offnet certificate convention in ``epoch``; Meta's
    2023 names carry the server's ``meta_site_code``."""
    issuer_org = TRUSTED_ISSUERS[hypergiant]
    if hypergiant == "Google":
        organization = "Google LLC" if epoch == "2021" else None
        return Certificate(
            subject_common_name="*.googlevideo.com",
            subject_organization=organization,
            subject_alternative_names=("*.c.googlevideo.com", "googlevideo.com"),
            issuer_common_name="GTS CA 1C3",
            issuer_organization=issuer_org,
        )
    if hypergiant == "Meta":
        common_name = "*.fbcdn.net" if epoch == "2021" else f"*.{meta_site_code}.fna.fbcdn.net"
        return Certificate(
            subject_common_name=common_name,
            subject_organization="Meta Platforms, Inc.",
            subject_alternative_names=(common_name.removeprefix("*."),),
            issuer_common_name="DigiCert SHA2 High Assurance Server CA",
            issuer_organization=issuer_org,
        )
    if hypergiant == "Netflix":
        return Certificate(
            subject_common_name="*.nflxvideo.net",
            subject_organization="Netflix, Inc.",
            subject_alternative_names=("nflxvideo.net",),
            issuer_common_name="DigiCert TLS RSA SHA256 2020 CA1",
            issuer_organization=issuer_org,
        )
    if hypergiant == "Akamai":
        return Certificate(
            subject_common_name="a248.e.akamai.net",
            subject_organization="Akamai Technologies, Inc.",
            subject_alternative_names=("*.akamaized.net", "*.akamaihd.net"),
            issuer_common_name="Let's Encrypt R3",
            issuer_organization=issuer_org,
        )
    raise ValueError(f"no certificate convention for hypergiant {hypergiant!r}")


_EPOCHS = ("2021", "2023")

#: The one certificate all of a hypergiant's offnets present in an epoch,
#: for every convention without a per-server field: all but Meta's 2023
#: site-coded names.  Certificates are frozen, so every server and every
#: scan shares these objects.
SHARED_OFFNET_CERTIFICATES: dict[tuple[str, str], Certificate] = {
    (hypergiant, epoch): _offnet_certificate(hypergiant, epoch)
    for hypergiant in TRUSTED_ISSUERS
    for epoch in _EPOCHS
    if (hypergiant, epoch) != ("Meta", "2023")
}


def certificate_for_server(server: OffnetServer, epoch: str, rng: np.random.Generator) -> Certificate:
    """The certificate the offnet ``server`` presents on port 443 in ``epoch``.

    ``epoch`` is ``"2021"`` or ``"2023"``; conventions differ as described in
    the module docstring.  Only Meta's 2023 site-coded certificate draws
    from ``rng``; every other one is shared (:data:`SHARED_OFFNET_CERTIFICATES`).
    """
    require(epoch in _EPOCHS, f"unknown epoch {epoch!r}")
    shared = SHARED_OFFNET_CERTIFICATES.get((server.hypergiant, epoch))
    if shared is not None:
        return shared
    site_code = _meta_site_code(server, rng) if server.hypergiant == "Meta" else None
    return _offnet_certificate(server.hypergiant, epoch, site_code)


def infrastructure_certificate(isp: AS, host_index: int) -> Certificate:
    """A mundane ISP-operated service certificate (scan background noise)."""
    domain = f"{isp.name.lower().replace('_', '-')}.example"
    return Certificate(
        subject_common_name=f"svc{host_index}.{domain}",
        subject_organization=isp.name,
        subject_alternative_names=(domain,),
        issuer_common_name="Generic CA",
        issuer_organization="Generic Trust Services",
    )


def impostor_certificate(hypergiant: str, rng: np.random.Generator) -> Certificate:
    """A self-signed certificate impersonating ``hypergiant``.

    Appliances, captive portals, and middleboxes on the real Internet present
    hypergiant names without being hypergiant servers; the methodology's
    issuer check must reject these.
    """
    names = {
        "Google": "*.googlevideo.com",
        "Meta": "*.fbcdn.net",
        "Netflix": "*.nflxvideo.net",
        "Akamai": "a248.e.akamai.net",
    }
    require(hypergiant in names, f"unknown hypergiant {hypergiant!r}")
    serial = int(rng.integers(0, 10_000))
    return Certificate(
        subject_common_name=names[hypergiant],
        subject_organization=None,
        subject_alternative_names=(),
        issuer_common_name=f"middlebox-{serial}",
        issuer_organization="Self-Signed",
        self_signed=True,
    )


def onnet_certificate(hypergiant: str, epoch: str = "2023") -> Certificate:
    """The certificate a hypergiant's *onnet* (own-AS) server presents.

    Identical in content to offnet certificates — this is the paper's point:
    ownership of the hosting IP, not the certificate, distinguishes offnet
    from onnet.
    """
    require(epoch in ("2021", "2023"), f"unknown epoch {epoch!r}")
    google_organization = "Google LLC" if epoch == "2021" else None
    conventions = {
        "Google": ("*.googlevideo.com", google_organization, "GTS CA 1C3"),
        "Meta": ("*.fbcdn.net", "Meta Platforms, Inc.", "DigiCert SHA2 High Assurance Server CA"),
        "Netflix": ("*.nflxvideo.net", "Netflix, Inc.", "DigiCert TLS RSA SHA256 2020 CA1"),
        "Akamai": ("a248.e.akamai.net", "Akamai Technologies, Inc.", "Let's Encrypt R3"),
    }
    require(hypergiant in conventions, f"unknown hypergiant {hypergiant!r}")
    common_name, organization, issuer_cn = conventions[hypergiant]
    return Certificate(
        subject_common_name=common_name,
        subject_organization=organization,
        subject_alternative_names=(),
        issuer_common_name=issuer_cn,
        issuer_organization=TRUSTED_ISSUERS[hypergiant],
    )
