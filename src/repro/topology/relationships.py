"""Inter-AS business relationships and valley-free route computation.

Implements the standard Gao-Rexford routing model: every inter-AS edge is
either customer→provider or peer↔peer, routes must be valley-free, and ASes
prefer customer-learned routes over peer-learned over provider-learned,
breaking ties by AS-path length and then by lowest next-hop ASN (so the whole
simulation is deterministic).

Peer edges carry a *medium*: a private network interconnect (PNI) or an IXP
fabric; §4.2 of the paper distinguishes these when reasoning about spillover
capacity, and the traceroute engine emits IXP addresses for IXP-mediated hops.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field

from repro._util import require
from repro.topology.asn import AS


class PeeringMedium(enum.Enum):
    """How a peer↔peer edge is realised physically."""

    PNI = "pni"
    IXP = "ixp"


class RouteKind(enum.IntEnum):
    """Gao-Rexford preference classes, lower is more preferred."""

    ORIGIN = 0
    CUSTOMER = 1
    PEER = 2
    PROVIDER = 3


@dataclass(frozen=True)
class PeerEdge:
    """Metadata for a peer↔peer adjacency.

    A single AS pair may interconnect over several media at once — e.g. a
    private interconnect in one city plus ports on an IXP fabric — which is
    why ``media`` is a set.  §4.2 distinguishes the media when reasoning
    about spillover capacity, and the traceroute engine picks one medium per
    (source region, pair).
    """

    media: frozenset[PeeringMedium]
    #: IXP id when IXP is among the media, else None.
    ixp_id: int | None = None

    def __post_init__(self) -> None:
        require(bool(self.media), "peer edge needs at least one medium")
        if PeeringMedium.IXP in self.media:
            require(self.ixp_id is not None, "IXP peering needs an ixp_id")
        else:
            require(self.ixp_id is None, "PNI-only peering must not carry an ixp_id")

    @classmethod
    def pni(cls) -> "PeerEdge":
        """A private-interconnect-only peering."""
        return cls(media=frozenset({PeeringMedium.PNI}))

    @classmethod
    def ixp(cls, ixp_id: int) -> "PeerEdge":
        """An IXP-fabric-only peering."""
        return cls(media=frozenset({PeeringMedium.IXP}), ixp_id=ixp_id)

    @classmethod
    def both(cls, ixp_id: int) -> "PeerEdge":
        """PNI plus IXP ports."""
        return cls(media=frozenset({PeeringMedium.PNI, PeeringMedium.IXP}), ixp_id=ixp_id)

    @property
    def has_pni(self) -> bool:
        """Whether a private interconnect exists."""
        return PeeringMedium.PNI in self.media

    @property
    def has_ixp(self) -> bool:
        """Whether the pair peers over an IXP fabric."""
        return PeeringMedium.IXP in self.media


@dataclass
class Route:
    """A selected route: how ``source`` reaches the destination."""

    kind: RouteKind
    #: Next hop AS (None at the origin).
    next_hop: AS | None
    #: AS-path length in edges (0 at the origin).
    length: int

    @property
    def preference_key(self) -> tuple[int, int, int]:
        """Sort key: lower is better (kind, length, next-hop ASN)."""
        next_asn = self.next_hop.asn if self.next_hop is not None else 0
        return (int(self.kind), self.length, next_asn)


@dataclass
class ASGraph:
    """The inter-AS relationship graph with valley-free routing.

    Edges are added with :meth:`add_customer_provider` and :meth:`add_peering`
    and queried via the ``providers_of`` / ``customers_of`` / ``peers_of``
    accessors.  :meth:`routes_to` computes, for one destination, the route
    every AS selects (or None if unreachable), which the traceroute engine
    replays hop by hop.
    """

    _providers: dict[AS, set[AS]] = field(default_factory=dict)
    _customers: dict[AS, set[AS]] = field(default_factory=dict)
    _peers: dict[AS, dict[AS, PeerEdge]] = field(default_factory=dict)
    _route_cache: dict[int, dict[AS, Route]] = field(default_factory=dict, repr=False)

    # -- construction ------------------------------------------------------

    def add_customer_provider(self, customer: AS, provider: AS) -> None:
        """Record that ``customer`` buys transit from ``provider``."""
        require(customer is not provider, "self-loop relationship")
        require(provider not in self._providers.get(customer, set()), f"duplicate c2p {customer.asn}->{provider.asn}")
        require(customer not in self._providers.get(provider, set()), "relationship would be bidirectional c2p")
        require(provider not in self._peers.get(customer, {}), "already peers")
        self._providers.setdefault(customer, set()).add(provider)
        self._customers.setdefault(provider, set()).add(customer)
        self._route_cache.clear()

    def add_peering(self, a: AS, b: AS, edge: PeerEdge) -> None:
        """Record a settlement-free peering between ``a`` and ``b``."""
        require(a is not b, "self-loop peering")
        require(b not in self._peers.get(a, {}), f"duplicate peering {a.asn}<->{b.asn}")
        require(b not in self._providers.get(a, set()) and a not in self._providers.get(b, set()),
                "already in a transit relationship")
        self._peers.setdefault(a, {})[b] = edge
        self._peers.setdefault(b, {})[a] = edge
        self._route_cache.clear()

    # -- accessors ----------------------------------------------------------

    def providers_of(self, a: AS) -> list[AS]:
        """Transit providers of ``a``, in ASN order."""
        return sorted(self._providers.get(a, ()), key=lambda x: x.asn)

    def customers_of(self, a: AS) -> list[AS]:
        """Customers of ``a``, in ASN order."""
        return sorted(self._customers.get(a, ()), key=lambda x: x.asn)

    def peers_of(self, a: AS) -> list[AS]:
        """Settlement-free peers of ``a``, in ASN order."""
        return sorted(self._peers.get(a, ()), key=lambda x: x.asn)

    def peer_edge(self, a: AS, b: AS) -> PeerEdge:
        """The peering metadata between ``a`` and ``b``."""
        return self._peers[a][b]

    def are_peers(self, a: AS, b: AS) -> bool:
        """Whether ``a`` and ``b`` have a settlement-free peering."""
        return b in self._peers.get(a, {})

    def has_any_relationship(self, a: AS, b: AS) -> bool:
        """Whether any direct business relationship links ``a`` and ``b``."""
        return (
            self.are_peers(a, b)
            or b in self._providers.get(a, set())
            or a in self._providers.get(b, set())
        )

    def neighbors_of(self, a: AS) -> list[AS]:
        """All adjacent ASes regardless of relationship, in ASN order."""
        adjacent: set[AS] = set(self._providers.get(a, ()))
        adjacent.update(self._customers.get(a, ()))
        adjacent.update(self._peers.get(a, {}))
        return sorted(adjacent, key=lambda x: x.asn)

    def all_ases(self) -> list[AS]:
        """Every AS that appears in at least one edge, in ASN order."""
        seen: set[AS] = set()
        for mapping in (self._providers, self._customers):
            for a, others in mapping.items():
                seen.add(a)
                seen.update(others)
        for a, others in self._peers.items():
            seen.add(a)
            seen.update(others)
        return sorted(seen, key=lambda x: x.asn)

    # -- routing -------------------------------------------------------------

    def routes_to(self, destination: AS) -> dict[AS, Route]:
        """Valley-free best route from every AS to ``destination``.

        Classic three-stage computation:

        1. *customer routes*: propagate from the destination up
           customer→provider edges (each hop is learned from a customer);
        2. *peer routes*: one peer edge on top of a customer route (or the
           origin);
        3. *provider routes*: propagate down provider→customer edges from any
           AS that already has a route.

        Within each stage, routes propagate in BFS order so path lengths are
        minimal for that preference class; ties prefer the lowest next-hop ASN.
        """
        cached = self._route_cache.get(destination.asn)
        if cached is not None:
            return cached

        routes: dict[AS, Route] = {destination: Route(RouteKind.ORIGIN, None, 0)}

        # Stage 1: customer routes, BFS from destination along c2p edges.
        frontier = deque([destination])
        while frontier:
            current = frontier.popleft()
            current_route = routes[current]
            for provider in self.providers_of(current):
                candidate = Route(RouteKind.CUSTOMER, current, current_route.length + 1)
                existing = routes.get(provider)
                if existing is None or candidate.preference_key < existing.preference_key:
                    if existing is None:
                        frontier.append(provider)
                    routes[provider] = candidate

        # Stage 2: peer routes (a single peer edge atop origin/customer routes).
        customer_holders = [a for a, r in routes.items() if r.kind in (RouteKind.ORIGIN, RouteKind.CUSTOMER)]
        for holder in sorted(customer_holders, key=lambda x: x.asn):
            holder_route = routes[holder]
            for peer in self.peers_of(holder):
                candidate = Route(RouteKind.PEER, holder, holder_route.length + 1)
                existing = routes.get(peer)
                if existing is None or candidate.preference_key < existing.preference_key:
                    routes[peer] = candidate

        # Stage 3: provider routes, BFS down p2c edges from every routed AS.
        frontier = deque(sorted(routes, key=lambda a: (routes[a].length, a.asn)))
        while frontier:
            current = frontier.popleft()
            current_route = routes[current]
            for customer in self.customers_of(current):
                candidate = Route(RouteKind.PROVIDER, current, current_route.length + 1)
                existing = routes.get(customer)
                if existing is None or candidate.preference_key < existing.preference_key:
                    if existing is None or existing.kind is RouteKind.PROVIDER:
                        frontier.append(customer)
                    routes[customer] = candidate

        self._route_cache[destination.asn] = routes
        return routes

    def as_path(self, source: AS, destination: AS) -> list[AS] | None:
        """The AS-level path ``source`` uses to reach ``destination``.

        Returns None if no valley-free route exists.  The path includes both
        endpoints; a source routing to itself yields ``[source]``.
        """
        routes = self.routes_to(destination)
        if source not in routes:
            return None
        path = [source]
        current = source
        while current is not destination:
            route = routes[current]
            require(route.next_hop is not None, "non-origin route must have next hop")
            current = route.next_hop
            path.append(current)
            require(len(path) <= len(routes) + 1, "routing loop detected")
        return path
