"""Offnet server placement into ISP facilities and racks.

The placement mirrors the operational story the paper tells in §3.1: ISPs
that host several hypergiants have strong reasons to put the servers in the
same facility (management, interconnection, cache-fill convenience), and an
operator reports same-*rack* hosting is "super common".  Akamai's deployments
are ``legacy``: they were placed before the colocation era, so they follow a
weaker colocation preference — which is the paper's own hypothesis for why
Akamai shows more partial colocation in Table 2.

Placement order is: legacy hypergiants first (they found facilities when no
other offnets existed), then the rest in descending adoption affinity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._util import make_rng, require, require_fraction, spawn_rng
from repro.deployment.eligibility import select_hosting_isps
from repro.deployment.hypergiants import DEFAULT_HYPERGIANT_PROFILES, HypergiantProfile
from repro.topology.asn import AS
from repro.topology.facilities import Facility, Rack
from repro.topology.generator import Internet


@dataclass(eq=False)
class OffnetServer:
    """One offnet cache server: ground truth for every inference stage."""

    ip: int
    hypergiant: str
    isp: AS
    facility: Facility
    rack: Rack

    def __repr__(self) -> str:
        return f"OffnetServer(ip={self.ip}, hg={self.hypergiant!r}, isp={self.isp.name!r}, fac={self.facility.name!r})"


@dataclass
class Deployment:
    """One hypergiant's offnet presence inside one ISP."""

    hypergiant: str
    isp: AS
    servers: list[OffnetServer] = field(default_factory=list)

    @property
    def facilities(self) -> list[Facility]:
        """Distinct facilities used, in facility-id order."""
        return sorted({s.facility for s in self.servers}, key=lambda f: f.facility_id)

    @property
    def site_count(self) -> int:
        """Number of distinct facilities (the paper's "sites")."""
        return len({s.facility for s in self.servers})


@dataclass
class DeploymentState:
    """A snapshot of all offnet deployments at one epoch."""

    epoch: str
    deployments: list[Deployment]
    _by_key: dict[tuple[str, int], Deployment] = field(init=False, repr=False)
    _server_by_ip: dict[int, OffnetServer] = field(init=False, repr=False)
    _servers: tuple[OffnetServer, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._by_key = {}
        self._server_by_ip = {}
        for deployment in self.deployments:
            key = (deployment.hypergiant, deployment.isp.asn)
            if key in self._by_key:
                raise ValueError(f"duplicate deployment {key}")
            self._by_key[key] = deployment
            for server in deployment.servers:
                if server.ip in self._server_by_ip:
                    raise ValueError(f"duplicate server IP {server.ip}")
                self._server_by_ip[server.ip] = server
        self._servers = tuple(self._server_by_ip[ip] for ip in sorted(self._server_by_ip))

    @property
    def servers(self) -> tuple[OffnetServer, ...]:
        """Every offnet server, in IP order (sorted once, at construction)."""
        return self._servers

    def server_at(self, ip: int) -> OffnetServer | None:
        """Ground-truth server at ``ip`` or None."""
        return self._server_by_ip.get(ip)

    def deployment_of(self, hypergiant: str, isp: AS) -> Deployment | None:
        """The deployment of ``hypergiant`` in ``isp`` or None."""
        return self._by_key.get((hypergiant, isp.asn))

    def isps_hosting(self, hypergiant: str) -> list[AS]:
        """ISPs hosting ``hypergiant``, in ASN order."""
        isps = [d.isp for d in self.deployments if d.hypergiant == hypergiant]
        return sorted(isps, key=lambda a: a.asn)

    def hypergiants_in(self, isp: AS) -> list[str]:
        """Hypergiant names present in ``isp``, sorted."""
        return sorted({d.hypergiant for d in self.deployments if d.isp is isp})

    def hosting_isps(self) -> list[AS]:
        """All ISPs hosting at least one hypergiant, in ASN order."""
        return sorted({d.isp for d in self.deployments}, key=lambda a: a.asn)

    def servers_in(self, isp: AS) -> list[OffnetServer]:
        """All offnet servers inside ``isp``, in IP order."""
        servers = [s for d in self.deployments if d.isp is isp for s in d.servers]
        return sorted(servers, key=lambda s: s.ip)


@dataclass(frozen=True)
class PlacementConfig:
    """Knobs for :func:`place_offnets`."""

    #: Probability a non-legacy hypergiant colocates a new site with the
    #: facility already hosting the most offnet servers in the ISP.
    colocation_preference: float = 0.88
    #: Same, for legacy (pre-colocation-era) hypergiants.
    legacy_colocation_preference: float = 0.40
    #: Probability an additional site beyond the first is deployed, per
    #: hypergiant (drives the §4.1 single-site fractions).
    multi_site_probability: dict[str, float] = field(
        default_factory=lambda: {"Google": 0.45, "Netflix": 0.14, "Meta": 0.38, "Akamai": 0.42}
    )
    #: Maximum sites a hypergiant deploys in one ISP.
    max_sites: int = 3
    #: Server count bounds per site (scaled by ISP size and traffic share).
    min_servers_per_site: int = 2
    max_servers_per_site: int = 40
    #: Rack capacity and the probability of squeezing into an existing rack.
    rack_capacity: int = 8
    rack_sharing_probability: float = 0.6
    #: Addresses at the start of each ISP's space reserved for infrastructure.
    reserved_low_addresses: int = 512

    def __post_init__(self) -> None:
        require_fraction(self.colocation_preference, "colocation_preference")
        require_fraction(self.legacy_colocation_preference, "legacy_colocation_preference")
        require_fraction(self.rack_sharing_probability, "rack_sharing_probability")
        require(self.max_sites >= 1, "max_sites must be >= 1")
        require(1 <= self.min_servers_per_site <= self.max_servers_per_site, "bad server bounds")
        require(self.rack_capacity >= 1, "rack_capacity must be >= 1")


class _IpAllocator:
    """Sequential per-ISP allocator inside the ISP's first prefix."""

    def __init__(self, internet: Internet, reserved_low: int) -> None:
        self._internet = internet
        self._reserved_low = reserved_low
        self._next_offset: dict[AS, int] = {}

    def allocate(self, isp: AS, count: int) -> list[int]:
        prefix = self._internet.plan.prefixes_of(isp)[0]
        offset = self._next_offset.get(isp, self._reserved_low)
        require(offset + count <= prefix.size, f"{isp.name} address space exhausted for offnets")
        self._next_offset[isp] = offset + count
        return [prefix.base + offset + i for i in range(count)]


class _RackPlanner:
    """Tracks rack occupancy per facility, allowing cross-HG rack sharing."""

    def __init__(self, capacity: int, share_probability: float, rng: np.random.Generator) -> None:
        self._capacity = capacity
        self._share_probability = share_probability
        self._rng = rng
        self._occupancy: dict[Rack, int] = {}
        self._open_racks: dict[Facility, list[Rack]] = {}

    def place(self, facility: Facility) -> Rack:
        """Pick a rack for one server in ``facility``.

        A facility's open racks stay in creation order; a rack leaves the
        list the moment it fills.
        """
        open_racks = self._open_racks.setdefault(facility, [])
        if open_racks and self._rng.random() < self._share_probability:
            rack = open_racks[0]
        else:
            rack = facility.new_rack()
            self._occupancy[rack] = 0
            open_racks.append(rack)
        self._occupancy[rack] += 1
        if self._occupancy[rack] == self._capacity:
            open_racks.remove(rack)
        return rack


#: Legacy hypergiants deploy first; then descending adoption affinity.
_PLACEMENT_ORDER: tuple[HypergiantProfile, ...] = tuple(
    sorted(DEFAULT_HYPERGIANT_PROFILES, key=lambda p: (not p.legacy_deployment, -p.adoption_affinity, p.name))
)


def _site_count(profile: HypergiantProfile, isp: AS, config: PlacementConfig, rng: np.random.Generator) -> int:
    """Number of distinct facilities the deployment will use."""
    available = len(isp.cities)  # facility count tracks city presence
    p_extra = config.multi_site_probability.get(profile.name, 0.3)
    # Bigger ISPs spread offnets across more locations.
    if isp.users > 2_000_000:
        p_extra = min(1.0, p_extra * 1.6)
    sites = 1
    while sites < min(config.max_sites, max(1, available)) and rng.random() < p_extra:
        sites += 1
    return sites


def _servers_per_site(profile: HypergiantProfile, isp: AS, config: PlacementConfig, rng: np.random.Generator) -> int:
    """Server count for one site, scaled by demand (users x traffic share)."""
    demand = isp.users * profile.traffic_share
    scale = np.clip(np.log10(max(10.0, demand)) - 2.0, 0.5, 5.0)
    mean = config.min_servers_per_site + 3.0 * scale
    count = int(rng.poisson(mean))
    return int(np.clip(count, config.min_servers_per_site, config.max_servers_per_site))


def place_offnets(
    internet: Internet,
    config: PlacementConfig | None = None,
    seed: int | np.random.Generator = 0,
    epoch: str = "2023",
) -> DeploymentState:
    """Place every hypergiant's 2023 offnet footprint onto ``internet``.

    Returns the full (latest-epoch) :class:`DeploymentState`; use
    :func:`repro.deployment.growth.build_deployment_history` to derive the
    2021 snapshot as well.
    """
    config = config or PlacementConfig()
    root = make_rng(seed)
    rng_select = spawn_rng(root, "select")
    rng_place = spawn_rng(root, "place")
    allocator = _IpAllocator(internet, config.reserved_low_addresses)
    racks = _RackPlanner(config.rack_capacity, config.rack_sharing_probability, spawn_rng(root, "racks"))

    # Offnet servers already placed per facility (for colocation preference).
    facility_load: dict[Facility, int] = {}
    deployments: list[Deployment] = []

    for profile in _PLACEMENT_ORDER:
        coloc_pref = (
            config.legacy_colocation_preference if profile.legacy_deployment else config.colocation_preference
        )
        country_totals = {c.code: c.internet_users for c in internet.world.countries}
        hosting = select_hosting_isps(internet.isps, profile, rng_select, country_totals)
        for isp in hosting:
            facilities = internet.facilities_of(isp)
            if not facilities:
                continue
            n_sites = min(_site_count(profile, isp, config, rng_place), len(facilities))
            chosen: list[Facility] = []
            for _ in range(n_sites):
                remaining = [f for f in facilities if f not in chosen]
                if not remaining:
                    break
                loaded = [f for f in remaining if facility_load.get(f, 0) > 0]
                if loaded and rng_place.random() < coloc_pref:
                    # Prefer the facility already hosting the most offnets.
                    site = max(loaded, key=lambda f: (facility_load.get(f, 0), -f.facility_id))
                else:
                    site = remaining[int(rng_place.integers(0, len(remaining)))]
                chosen.append(site)
            deployment = Deployment(hypergiant=profile.name, isp=isp)
            for site in chosen:
                n_servers = _servers_per_site(profile, isp, config, rng_place)
                ips = allocator.allocate(isp, n_servers)
                for ip in ips:
                    rack = racks.place(site)
                    deployment.servers.append(
                        OffnetServer(ip=ip, hypergiant=profile.name, isp=isp, facility=site, rack=rack)
                    )
                facility_load[site] = facility_load.get(site, 0) + n_servers
            if deployment.servers:
                deployments.append(deployment)

    return DeploymentState(epoch=epoch, deployments=deployments)
