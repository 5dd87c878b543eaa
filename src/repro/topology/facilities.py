"""Colocation facilities and racks.

A facility is a building in one city with shared power/cooling and shared
uplinks; a rack is a position inside a facility.  The paper's central claim
is about servers from *different hypergiants* landing in the *same facility*
(anecdotally, the same rack), so facility/rack identity is the ground truth
that the latency-clustering stage tries to recover and against which
correlated-risk scenarios (§3.3) are defined.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._util import require
from repro.topology.asn import AS
from repro.topology.geo import City


@dataclass(eq=False)
class Rack:
    """A rack position within a facility."""

    rack_id: int
    facility: "Facility"

    def __repr__(self) -> str:
        return f"Rack({self.facility.name}#{self.rack_id})"


@dataclass(eq=False)
class Facility:
    """A colocation facility.

    ``operator`` is the ISP whose deployments it serves (facilities may be
    third-party buildings in reality; what matters for the model is which
    ISP's offnets can land there).  ``lat``/``lon`` jitter the city centre by
    a few kilometres so intra-city facilities are distinguishable by latency
    geometry, matching the validation result that clustering can separate
    multiple facilities in one metro area.
    """

    facility_id: int
    name: str
    city: City
    operator: AS
    lat: float
    lon: float
    #: Extra per-facility serialisation delay (ms) on the shared uplink,
    #: a stable latency signature that helps separate same-city facilities.
    uplink_delay_ms: float = 0.0
    _racks: list[Rack] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        require(self.facility_id >= 0, "facility_id must be >= 0")
        require(self.uplink_delay_ms >= 0, "uplink_delay_ms must be >= 0")

    def __repr__(self) -> str:
        return f"Facility({self.name!r}, city={self.city.name!r}, op={self.operator.name!r})"

    def new_rack(self) -> Rack:
        """Add a rack and return it."""
        rack = Rack(len(self._racks), self)
        self._racks.append(rack)
        return rack

    @property
    def racks(self) -> list[Rack]:
        """All racks created so far."""
        return list(self._racks)


def jittered_coordinates(
    city: City, rng: np.random.Generator, max_offset_km: float = 15.0
) -> tuple[float, float]:
    """Coordinates near ``city`` with a uniform offset up to ``max_offset_km``.

    Used to scatter facilities across a metro area.  The offset is small
    enough that a facility remains unambiguously "in" its city for geohint
    validation, but large enough (default up to 15 km, i.e. ~0.15 ms RTT) to
    give distinct facilities distinct latency signatures.
    """
    require(max_offset_km >= 0, "max_offset_km must be >= 0")
    # ~111 km per degree latitude; shrink longitude by cos(lat).
    offset_km = rng.uniform(0, max_offset_km)
    bearing = rng.uniform(0, 2 * np.pi)
    dlat = offset_km * np.cos(bearing) / 111.0
    cos_lat = max(0.1, np.cos(np.radians(city.lat)))
    dlon = offset_km * np.sin(bearing) / (111.0 * cos_lat)
    lat = float(np.clip(city.lat + dlat, -90.0, 90.0))
    lon = float((city.lon + dlon + 180.0) % 360.0 - 180.0)
    return lat, lon
