"""Hop-by-hop traceroute simulation over the AS graph.

A traceroute follows the valley-free AS path to the destination's AS and
emits one or two router hops per AS.  The realism that matters for the
§4.2.1 inference is reproduced:

* crossing an IXP fabric shows the far side's *fabric address* (the member
  router's interface on the peering LAN), not an address from the member's
  own space;
* some ASes filter ICMP entirely, so all their hops show as ``*`` — the
  source of the paper's "only unresponsive hops separate Google and the
  ISP" ambiguity class;
* individual hops are lost with a small probability;
* when a pair interconnects over both a PNI and an IXP, different source
  regions cross different media (regional egress engineering).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from repro._util import make_rng, require, require_fraction
from repro.obs import Telemetry, ensure_telemetry
from repro.topology.asn import AS
from repro.topology.generator import Internet
from repro.topology.ixp import IXP
from repro.topology.relationships import PeeringMedium


@dataclass(frozen=True)
class TracerouteConfig:
    """Engine knobs."""

    #: Probability an AS filters ICMP on all its routers.
    icmp_filter_rate: float = 0.09
    #: Independent loss probability for an otherwise responsive hop.
    per_hop_loss: float = 0.03
    #: Probability an AS emits an extra internal hop after its entry hop.
    internal_hop_probability: float = 0.5
    #: Probability the destination host answers the final probe.
    destination_response_rate: float = 0.7
    #: Router addresses are carved from the tail of each AS's first prefix.
    router_pool_size: int = 64

    def __post_init__(self) -> None:
        require_fraction(self.icmp_filter_rate, "icmp_filter_rate")
        require_fraction(self.per_hop_loss, "per_hop_loss")
        require_fraction(self.internal_hop_probability, "internal_hop_probability")
        require_fraction(self.destination_response_rate, "destination_response_rate")
        require(self.router_pool_size >= 1, "router_pool_size must be >= 1")


@dataclass(frozen=True)
class Hop:
    """One traceroute hop; ``address`` is None for an unresponsive hop.

    ``true_asn`` is ground truth (always present, even for unresponsive
    hops) so inference stages can be scored.
    """

    address: int | None
    true_asn: int
    #: IXP whose fabric this address belongs to, if any (ground truth).
    via_ixp_id: int | None = None


@dataclass
class TraceroutePath:
    """A completed traceroute."""

    source: AS
    region: str
    destination_ip: int
    destination_asn: int | None
    hops: list[Hop] = field(default_factory=list)
    #: Whether a valley-free route to the destination AS existed.
    routable: bool = True


class TracerouteEngine:
    """Replays forwarding over an :class:`Internet` and emits hop lists."""

    def __init__(
        self,
        internet: Internet,
        config: TracerouteConfig | None = None,
        seed: int | np.random.Generator = 0,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.internet = internet
        self.config = config or TracerouteConfig()
        #: Counters and DEBUG diagnostics go to the caller's telemetry.
        self._obs = ensure_telemetry(telemetry)
        rng = make_rng(seed)
        # Stable per-AS ICMP filtering decisions (hypergiants respond: their
        # peering routers are famously visible in traceroutes).
        self._filters_icmp: dict[int, bool] = {}
        for autonomous_system in internet.registry:
            filtered = bool(rng.random() < self.config.icmp_filter_rate)
            if autonomous_system.role.name == "HYPERGIANT":
                filtered = False
            self._filters_icmp[autonomous_system.asn] = filtered
        self._ixp_by_id: dict[int, IXP] = {ixp.ixp_id: ixp for ixp in internet.ixps}
        self._loss_rng = rng

    # -- address helpers --------------------------------------------------------

    def filters_icmp(self, autonomous_system: AS) -> bool:
        """Ground truth: does this AS hide its routers from traceroute?"""
        return self._filters_icmp[autonomous_system.asn]

    def router_address(self, autonomous_system: AS, index: int) -> int:
        """The ``index``-th router address of an AS (tail of its prefix)."""
        prefix = self.internet.plan.prefixes_of(autonomous_system)[0]
        pool = min(self.config.router_pool_size, prefix.size // 4)
        return prefix.base + prefix.size - 1 - (index % pool)

    def _medium_for(self, a: AS, b: AS, region: str) -> PeeringMedium | None:
        """Which medium the (a, b) crossing uses from ``region``.

        Deterministic per (region, pair): regional egress engineering pins a
        given region's traffic to one interconnect.
        """
        if not self.internet.graph.are_peers(a, b):
            return None
        edge = self.internet.graph.peer_edge(a, b)
        if len(edge.media) == 1:
            return next(iter(edge.media))
        key = f"{region}:{min(a.asn, b.asn)}:{max(a.asn, b.asn)}"
        return PeeringMedium.IXP if zlib.crc32(key.encode()) % 2 else PeeringMedium.PNI

    # -- tracing -----------------------------------------------------------------

    def _emit(self, address: int, asn: int, via_ixp_id: int | None = None) -> Hop:
        """Wrap an address in a Hop, applying per-hop loss."""
        if self._loss_rng.random() < self.config.per_hop_loss:
            return Hop(address=None, true_asn=asn, via_ixp_id=via_ixp_id)
        return Hop(address=address, true_asn=asn, via_ixp_id=via_ixp_id)

    def trace(self, source: AS, destination_ip: int, region: str = "r0") -> TraceroutePath:
        """Traceroute from ``source`` to ``destination_ip``."""
        self._obs.count("traceroute.traces")
        destination_as = self.internet.plan.owner_of(destination_ip)
        if destination_as is None:
            self._obs.count("traceroute.unattributable")
            self._obs.logger.debug(
                "destination unattributable", ip=destination_ip, source_asn=source.asn
            )
            return TraceroutePath(source, region, destination_ip, None, [], routable=False)
        as_path = self.internet.graph.as_path(source, destination_as)
        if as_path is None:
            self._obs.count("traceroute.unroutable")
            self._obs.logger.debug(
                "no valley-free route",
                source_asn=source.asn,
                destination_asn=destination_as.asn,
            )
            return TraceroutePath(source, region, destination_ip, destination_as.asn, [], routable=False)

        hops: list[Hop] = []
        rng_extra = make_rng(zlib.crc32(f"{region}:{source.asn}:{destination_ip}".encode()))
        # Source-internal hops (e.g. the Google VM's gateway + border router).
        for index in range(2):
            if self._filters_icmp[source.asn]:
                hops.append(Hop(None, source.asn))
            else:
                hops.append(self._emit(self.router_address(source, index), source.asn))

        for previous, current in zip(as_path, as_path[1:]):
            medium = self._medium_for(previous, current, region)
            filtered = self._filters_icmp[current.asn]
            if medium is PeeringMedium.IXP:
                edge = self.internet.graph.peer_edge(previous, current)
                ixp = self._ixp_by_id[edge.ixp_id]
                entry_address = ixp.address_of(current) if ixp.is_member(current) else None
                if entry_address is None or filtered:
                    hops.append(Hop(None, current.asn, via_ixp_id=edge.ixp_id))
                else:
                    hops.append(self._emit(entry_address, current.asn, via_ixp_id=edge.ixp_id))
            else:
                if filtered:
                    hops.append(Hop(None, current.asn))
                else:
                    hops.append(self._emit(self.router_address(current, int(rng_extra.integers(0, 8))), current.asn))
            # Optional internal hop within the current AS.
            if current is not as_path[-1] and rng_extra.random() < self.config.internal_hop_probability:
                if filtered:
                    hops.append(Hop(None, current.asn))
                else:
                    hops.append(self._emit(self.router_address(current, 8 + int(rng_extra.integers(0, 8))), current.asn))

        # The destination host itself.
        if rng_extra.random() < self.config.destination_response_rate:
            hops.append(Hop(destination_ip, destination_as.asn))
        else:
            hops.append(Hop(None, destination_as.asn))
        return TraceroutePath(source, region, destination_ip, destination_as.asn, hops)
