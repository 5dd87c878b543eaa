"""Hypergiant certificate fingerprint rules, 2021 and 2023 editions.

The 2021 methodology (Gigis et al., SIGCOMM'21) identified hypergiant
certificates mainly via the Subject Organization (Google) or via exact
matches against names harvested from onnet servers (Meta).  The paper updates
both rules for the evasions deployed since (§2.2):

* Google: match ``CN == *.googlevideo.com`` instead of the (now absent)
  Organization entry;
* Meta: match the ``*.fbcdn.net`` suffix pattern instead of the exact onnet
  name set.

Every rule also applies the "other checks": a plausible issuer for the
hypergiant (rejecting self-signed middlebox impostors).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

from repro._util import require
from repro.scan.certificates import TRUSTED_ISSUERS, Certificate


@dataclass(frozen=True)
class FingerprintRule:
    """A predicate identifying one hypergiant's serving certificates."""

    hypergiant: str
    edition: str
    _predicate: Callable[[Certificate], bool]

    def matches(self, certificate: Certificate) -> bool:
        """Whether ``certificate`` is attributed to this hypergiant."""
        if not _issuer_plausible(certificate, self.hypergiant):
            return False
        return self._predicate(certificate)


def rule_matcher(rules: list[FingerprintRule]) -> Callable[[Certificate], str | None]:
    """``certificate -> hypergiant of the first rule that matches, or None``.

    The returned function runs ``rules`` once per distinct certificate it
    is given and remembers the answer for as long as the caller keeps it:
    most of a scan's records share a handful of certificates.
    """
    matched: dict[Certificate, str | None] = {}

    def match(certificate: Certificate) -> str | None:
        try:
            return matched[certificate]
        except KeyError:
            hypergiant = next((rule.hypergiant for rule in rules if rule.matches(certificate)), None)
            matched[certificate] = hypergiant
            return hypergiant

    return match


def _issuer_plausible(certificate: Certificate, hypergiant: str) -> bool:
    """The "other checks": a believable CA, never self-signed."""
    if certificate.self_signed:
        return False
    return certificate.issuer_organization == TRUSTED_ISSUERS[hypergiant]


_GOOGLEVIDEO_CN = "*.googlevideo.com"
_META_ONNET_NAMES = frozenset({"*.fbcdn.net", "*.facebook.com", "*.fb.com"})
_META_SUFFIX = re.compile(r"(^|\.)fbcdn\.net$")
_NETFLIX_CN = "*.nflxvideo.net"
_AKAMAI_ORG = "Akamai Technologies, Inc."


def _google_2021(certificate: Certificate) -> bool:
    """2021 rule: Organization subfield of the Subject Name."""
    return certificate.subject_organization == "Google LLC"


def _google_2023(certificate: Certificate) -> bool:
    """2023 rule: CN field matches ``*.googlevideo.com``."""
    return certificate.subject_common_name == _GOOGLEVIDEO_CN


def _meta_2021(certificate: Certificate) -> bool:
    """2021 rule: names exactly match names seen on onnet servers."""
    return any(name in _META_ONNET_NAMES for name in certificate.all_names)


def _meta_2023(certificate: Certificate) -> bool:
    """2023 rule: any name matches the ``*.fbcdn.net`` suffix pattern."""
    return any(_META_SUFFIX.search(name.removeprefix("*.")) for name in certificate.all_names)


def _netflix(certificate: Certificate) -> bool:
    """Stable rule: Netflix Organization or the nflxvideo CN."""
    return (
        certificate.subject_organization == "Netflix, Inc."
        or certificate.subject_common_name == _NETFLIX_CN
    )


def _akamai(certificate: Certificate) -> bool:
    """Stable rule: Akamai Organization entry."""
    return certificate.subject_organization == _AKAMAI_ORG


def fingerprint_rules(edition: str) -> list[FingerprintRule]:
    """The rule set for ``edition`` (``"2021"`` or ``"2023"``), one per HG.

    The 2023 edition is the paper's updated methodology; running the 2021
    edition against a 2023 scan quantifies how much footprint the evasions
    hide (the ablation in ``benchmarks/test_bench_ablations.py``).
    """
    require(edition in ("2021", "2023"), f"unknown edition {edition!r}")
    if edition == "2021":
        return [
            FingerprintRule("Google", edition, _google_2021),
            FingerprintRule("Netflix", edition, _netflix),
            FingerprintRule("Meta", edition, _meta_2021),
            FingerprintRule("Akamai", edition, _akamai),
        ]
    return [
        FingerprintRule("Google", edition, _google_2023),
        FingerprintRule("Netflix", edition, _netflix),
        FingerprintRule("Meta", edition, _meta_2023),
        FingerprintRule("Akamai", edition, _akamai),
    ]
