"""Autonomous systems: entities, roles, and registries.

The study reasons about four kinds of networks: the hypergiants (Google,
Netflix, Meta, Akamai), transit providers (including the tier-1 clique),
access ISPs (where offnets live and users sit), and IXP operators (whose
fabrics show up in traceroutes).  Ground-truth attributes that the real study
must *infer* (e.g. which facility hosts which server) are carried directly on
these objects so inference stages can be scored.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro._util import require
from repro.topology.geo import City


class ASRole(enum.Enum):
    """Business role of an autonomous system."""

    HYPERGIANT = "hypergiant"
    TIER1 = "tier1"
    TRANSIT = "transit"
    ACCESS = "access"

    @property
    def is_isp(self) -> bool:
        """Whether the AS is an "ISP" in the paper's sense (hosts offnets).

        The paper uses "ISP" for access and transit networks collectively
        ("offnet servers in access or transit networks (collectively, ISPs)").
        """
        return self in (ASRole.ACCESS, ASRole.TRANSIT)


@dataclass(eq=False)
class AS:
    """An autonomous system.

    Identity is by object (``eq=False``); ``asn`` is unique within an
    :class:`~repro.topology.generator.Internet` and used for stable ordering.
    """

    asn: int
    name: str
    role: ASRole
    country_code: str
    #: Cities where this AS has a network presence (PoPs / serving sites).
    cities: list[City] = field(default_factory=list)
    #: Estimated Internet users served (access ISPs; 0 for others).
    users: int = 0

    def __post_init__(self) -> None:
        require(self.asn > 0, "ASN must be positive")
        require(bool(self.name), "AS needs a name")
        require(self.users >= 0, "users must be >= 0")

    def __repr__(self) -> str:
        return f"AS(asn={self.asn}, name={self.name!r}, role={self.role.value})"

    @property
    def is_isp(self) -> bool:
        """Whether the paper would call this network an ISP."""
        return self.role.is_isp

    @property
    def home_city(self) -> City:
        """The AS's primary city (first in its city list)."""
        require(bool(self.cities), f"{self.name} has no cities")
        return self.cities[0]


@dataclass
class ASRegistry:
    """Indexed collection of ASes with uniqueness checks."""

    _by_asn: dict[int, AS] = field(default_factory=dict)

    def add(self, autonomous_system: AS) -> AS:
        """Register ``autonomous_system``; ASN must be unused."""
        require(autonomous_system.asn not in self._by_asn, f"duplicate ASN {autonomous_system.asn}")
        self._by_asn[autonomous_system.asn] = autonomous_system
        return autonomous_system

    def get(self, asn: int) -> AS:
        """Return the AS with number ``asn``."""
        return self._by_asn[asn]

    def __contains__(self, asn: int) -> bool:
        return asn in self._by_asn

    def __len__(self) -> int:
        return len(self._by_asn)

    def __iter__(self):
        return iter(sorted(self._by_asn.values(), key=lambda a: a.asn))

    def with_role(self, role: ASRole) -> list[AS]:
        """All ASes with ``role``, in ASN order."""
        return [a for a in self if a.role is role]

    @property
    def isps(self) -> list[AS]:
        """All access + transit networks, in ASN order."""
        return [a for a in self if a.is_isp]
