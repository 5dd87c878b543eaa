"""Authoritative DNS with EDNS-Client-Subnet, per hypergiant.

Three steering eras are modelled, matching §3.2's history:

* ``LEGACY_DNS`` — the 2013 world: the well-known hostname (e.g.
  ``www.google.com``) resolves directly to the serving cache for the
  client's network, with ECS honoured from anyone.  The Calder et al. 2013
  mapping technique works against this.
* ``FRONTEND`` — the modern Google/Netflix/Meta world: the well-known
  hostname resolves only to onnet front-end addresses; offnet content is
  reached via *site-specific* hostnames embedded in returned pages
  (``fhan14-4.fna.fbcdn.net``), whose DNS answer is pinned by the name
  itself, independent of who asks.
* ``ECS_ALLOWLIST`` — the Akamai world: DNS steering still exists, but ECS
  is honoured only from allow-listed resolvers; everyone else gets an
  answer for the *resolver's* network.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro._util import require
from repro.deployment.placement import DeploymentState
from repro.steering.policy import SteeringPolicy
from repro.topology.asn import AS
from repro.topology.generator import Internet


class SteeringMode(enum.Enum):
    """How the hypergiant maps clients to caches."""

    LEGACY_DNS = "legacy_dns"
    FRONTEND = "frontend"
    ECS_ALLOWLIST = "ecs_allowlist"


@dataclass(frozen=True)
class DnsQuery:
    """A resolution request as the authority sees it."""

    qname: str
    resolver_ip: int
    #: Client subnet carried via ECS (an address standing for the /24), or
    #: None when the resolver does not send ECS.
    ecs_client_ip: int | None = None


@dataclass(frozen=True)
class DnsResponse:
    """The answer set for a query."""

    qname: str
    answers: tuple[int, ...]
    #: Whether ECS influenced the answer (echoed scope, loosely).
    ecs_used: bool = False


def site_hostname(hypergiant: str, facility_id: int, city_iata: str) -> str:
    """The site-specific content hostname for one deployment site.

    Follows each hypergiant's real naming style (§2.2 / §3.2):
    ``*.fna.fbcdn.net`` for Meta, ``*.nflxvideo.net`` for Netflix,
    ``*.c.googlevideo.com`` for Google.
    """
    cluster = 1 + facility_id % 20
    if hypergiant == "Meta":
        return f"f{city_iata}{cluster}-1.fna.fbcdn.net"
    if hypergiant == "Netflix":
        return f"ipv4-c{cluster:03d}-{city_iata}001-isp.1.oca.nflxvideo.net"
    if hypergiant == "Google":
        return f"rr{cluster}---sn-{city_iata}{facility_id % 7}.c.googlevideo.com"
    if hypergiant == "Akamai":
        return f"a{cluster}-{city_iata}.deploy.akamaitechnologies.com"
    raise ValueError(f"no hostname convention for {hypergiant!r}")


@dataclass
class DnsAuthority:
    """One hypergiant's authoritative DNS."""

    hypergiant: str
    mode: SteeringMode
    internet: Internet
    policy: SteeringPolicy
    well_known_hostname: str
    #: Onnet front-end addresses returned in FRONTEND mode.
    frontend_ips: tuple[int, ...] = ()
    #: Resolver addresses whose ECS is honoured in ECS_ALLOWLIST mode.
    ecs_allowlist: frozenset[int] = frozenset()
    _site_records: dict[str, tuple[int, ...]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        require(bool(self.well_known_hostname), "well_known_hostname required")
        if self.mode is SteeringMode.FRONTEND:
            require(bool(self.frontend_ips), "FRONTEND mode needs front-end addresses")
        # Site-specific names resolve to the site's servers for everyone.
        self._site_records = {}
        state = self.policy.state
        for deployment in state.deployments:
            if deployment.hypergiant != self.hypergiant:
                continue
            by_facility: dict[int, list[int]] = {}
            for server in deployment.servers:
                by_facility.setdefault(server.facility.facility_id, []).append(server.ip)
            for facility_id, ips in by_facility.items():
                facility = next(
                    s.facility for s in deployment.servers if s.facility.facility_id == facility_id
                )
                name = site_hostname(self.hypergiant, facility_id, facility.city.iata)
                self._site_records[name] = tuple(sorted(ips))

    # -- helpers ---------------------------------------------------------------

    def site_hostnames_for(self, isp: AS) -> list[str]:
        """The site hostnames serving ``isp``'s users (what pages embed)."""
        decision = self.policy.decisions.get((self.hypergiant, isp.asn))
        if decision is None or decision.deployment is None:
            return []
        names = []
        for facility in decision.deployment.facilities:
            names.append(site_hostname(self.hypergiant, facility.facility_id, facility.city.iata))
        return sorted(set(names))

    def _client_network(self, query: DnsQuery) -> tuple[AS | None, bool]:
        """(the network the answer is computed for, whether ECS was used)."""
        if query.ecs_client_ip is not None:
            if self.mode is SteeringMode.LEGACY_DNS:
                return self.internet.plan.owner_of(query.ecs_client_ip), True
            if self.mode is SteeringMode.ECS_ALLOWLIST and query.resolver_ip in self.ecs_allowlist:
                return self.internet.plan.owner_of(query.ecs_client_ip), True
        return self.internet.plan.owner_of(query.resolver_ip), False

    def _serving_ips_for(self, network: AS | None) -> tuple[int, ...]:
        if network is None:
            return ()
        decision = self.policy.decisions.get((self.hypergiant, network.asn))
        if decision is None or decision.deployment is None:
            return ()
        return tuple(sorted(s.ip for s in decision.deployment.servers))

    # -- resolution ---------------------------------------------------------------

    def resolve(self, query: DnsQuery) -> DnsResponse:
        """Answer ``query`` according to the steering mode."""
        # Site-specific names are answered identically for everyone.
        if query.qname in self._site_records:
            return DnsResponse(query.qname, self._site_records[query.qname])
        if query.qname != self.well_known_hostname:
            return DnsResponse(query.qname, ())
        if self.mode is SteeringMode.FRONTEND:
            # The page host lives onnet/cloud; no offnet is ever revealed.
            return DnsResponse(query.qname, tuple(self.frontend_ips))
        network, ecs_used = self._client_network(query)
        answers = self._serving_ips_for(network)
        if not answers:
            answers = tuple(self.frontend_ips)
        return DnsResponse(query.qname, answers, ecs_used=ecs_used)
