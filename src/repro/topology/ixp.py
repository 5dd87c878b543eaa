"""Internet exchange points.

An IXP is a shared layer-2 fabric in one city.  Members get a port with an
address from the fabric's prefix; traceroutes crossing the fabric show that
address, which is how the §4.2.1 methodology attributes an IXP hop to the
member ISP (via Euro-IX / PeeringDB style datasets, modelled in
:mod:`repro.traceroute.ixp_mapping`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro._util import require
from repro.topology.asn import AS
from repro.topology.geo import City
from repro.topology.prefixes import Prefix


@dataclass(eq=False)
class IXP:
    """An Internet exchange point with a member address plan."""

    ixp_id: int
    name: str
    city: City
    #: The fabric's peering LAN (addresses seen in traceroutes).
    fabric_prefix: Prefix
    _member_addresses: dict[AS, int] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        require(self.ixp_id >= 0, "ixp_id must be >= 0")

    def add_member(self, member: AS) -> int:
        """Assign ``member`` a fabric address and return it."""
        require(member not in self._member_addresses, f"{member.name} already on {self.name}")
        offset = len(self._member_addresses) + 1  # .0 reserved
        require(offset < self.fabric_prefix.size, f"{self.name} fabric prefix exhausted")
        address = self.fabric_prefix.base + offset
        self._member_addresses[member] = address
        return address

    @property
    def members(self) -> list[AS]:
        """Member ASes in ASN order."""
        return sorted(self._member_addresses, key=lambda a: a.asn)

    def is_member(self, candidate: AS) -> bool:
        """Whether ``candidate`` has a port on this fabric."""
        return candidate in self._member_addresses

    def address_of(self, member: AS) -> int:
        """The fabric address of ``member``."""
        return self._member_addresses[member]

    def owner_of_address(self, address: int) -> AS | None:
        """Ground-truth member owning ``address``, or None."""
        for member, member_address in self._member_addresses.items():
            if member_address == address:
                return member
        return None
