"""Deterministic base-RTT model between vantage points and facilities.

The minimum RTT between a vantage point and a server is propagation delay
over an inflated great-circle path, plus the server facility's uplink
serialisation delay.  Path inflation is a stable property of the (vantage
city, facility city) pair — real Internet paths between two metros follow
the same physical routes — drawn deterministically from a hash so that:

* two servers in the *same facility* share identical base RTTs from every
  vantage point (the signal OPTICS clusters on);
* two facilities in the same city differ by their uplink delays and their
  few-km coordinate offsets (sub-millisecond but consistent — what lets the
  technique "differentiat[e] between multiple facilities in a city");
* facilities in different cities differ by milliseconds.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro._util import (
    EARTH_RADIUS_M,
    FIBRE_LIGHT_SPEED_M_S,
    great_circle_m,
    haversine_m,
    lat_cos,
    propagation_rtt_ms,
    require,
)
from repro.mlab.vantage import VantagePoint
from repro.topology.facilities import Facility

#: Bounds for metro-pair path inflation (literature: typically 1.5-2.5x).
MIN_INFLATION = 1.4
MAX_INFLATION = 2.2


def path_inflation(vp_city_iata: str, facility_city_iata: str, seed: int) -> float:
    """Stable path-inflation factor for a metro pair.

    Hash-derived (CRC32), so independent of call order and of the RNG
    streams used elsewhere.
    """
    key = f"{seed}:{min(vp_city_iata, facility_city_iata)}:{max(vp_city_iata, facility_city_iata)}"
    fraction = (zlib.crc32(key.encode()) % 10_000) / 10_000.0
    return MIN_INFLATION + fraction * (MAX_INFLATION - MIN_INFLATION)


def base_rtt_ms(vp: VantagePoint, facility: Facility, seed: int) -> float:
    """Minimum (uncongested) RTT between ``vp`` and a server in ``facility``."""
    distance = great_circle_m(vp.lat, vp.lon, facility.lat, facility.lon)
    inflation = path_inflation(vp.city.iata, facility.city.iata, seed)
    return propagation_rtt_ms(distance, inflation) + facility.uplink_delay_ms


def base_rtt_matrix(
    vps: list[VantagePoint], facilities: list[Facility], seed: int
) -> np.ndarray:
    """Base RTTs, shape ``(len(vps), len(facilities))``.

    Every entry equals :func:`base_rtt_ms` bit for bit: the haversine's
    per-endpoint cosines are computed once per vantage point and once per
    facility, and the path inflation once per city pair, all with the
    scalar ``math`` functions (numpy's SIMD trig can differ by an ulp).
    """
    require(bool(vps) and bool(facilities), "need vantage points and facilities")
    columns = [
        (f.lat, f.lon, lat_cos(f.lat), f.city.iata, f.uplink_delay_ms) for f in facilities
    ]
    inflations: dict[tuple[str, str], float] = {}
    matrix = np.empty((len(vps), len(facilities)))
    for i, vp in enumerate(vps):
        lat, lon, cos_lat, city = vp.lat, vp.lon, lat_cos(vp.lat), vp.city.iata
        row = matrix[i]
        for j, (f_lat, f_lon, f_cos, f_city, uplink_ms) in enumerate(columns):
            inflation = inflations.get((city, f_city))
            if inflation is None:
                inflation = inflations[city, f_city] = path_inflation(city, f_city, seed)
            distance = haversine_m(lat, lon, cos_lat, f_lat, f_lon, f_cos)
            row[j] = propagation_rtt_ms(distance, inflation) + uplink_ms
    return matrix


def vp_pair_floor_rtt_ms(a: VantagePoint, b: VantagePoint) -> float:
    """Absolute physical floor RTT between two vantage points.

    Uses inflation 1.0 (straight fibre on the great circle): no real path can
    beat this, which is what the Appendix-A plausibility filter exploits.
    """
    return propagation_rtt_ms(great_circle_m(a.lat, a.lon, b.lat, b.lon), 1.0)


def vp_pair_floor_matrix(vps: list[VantagePoint]) -> np.ndarray:
    """Pairwise :func:`vp_pair_floor_rtt_ms` matrix.

    Vectorised haversine over all pairs at once.  SIMD trig can differ from
    the scalar ``math``-library path by ~1 ulp (relative ~1e-16); the
    plausibility filter compares these floors against RTT sums offset by a
    0.5 ms slack, so the difference is six orders of magnitude below
    anything that could flip a decision (the golden-export tests pin the
    artifacts regardless).
    """
    lat = np.radians(np.array([vp.lat for vp in vps]))
    lon = np.radians(np.array([vp.lon for vp in vps]))
    half_dphi = (lat[None, :] - lat[:, None]) / 2.0
    half_dlambda = (lon[None, :] - lon[:, None]) / 2.0
    a = np.sin(half_dphi) ** 2 + np.cos(lat)[:, None] * np.cos(lat)[None, :] * np.sin(half_dlambda) ** 2
    distance_m = 2 * EARTH_RADIUS_M * np.arcsin(np.minimum(1.0, np.sqrt(a)))
    floor = 2.0 * (distance_m / FIBRE_LIGHT_SPEED_M_S) * 1000.0
    np.fill_diagonal(floor, 0.0)
    return floor
