"""The overflow waterfall: offnet → PNI → IXP → transit → unserved.

When demand for a hypergiant's content exceeds what its offnets in the ISP
can serve, the excess crosses interdomain boundaries: first any dedicated
PNI, then shared paths (the ISP's IXP port, then transit).  Shared links are
modelled with fair-share congestion — when offered load exceeds capacity,
every flow on the link (including background, non-hypergiant traffic) is
throttled proportionally, which is exactly the §4.3 collateral-damage
mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro._util import require
from repro.capacity.demand import DemandModel
from repro.capacity.isolation import IsolationPolicy, allocate
from repro.capacity.links import IspCapacityPlan
from repro.topology.generator import Internet


@dataclass
class HourlyFlow:
    """Where one hypergiant's demand in one ISP was served at one hour."""

    hypergiant: str
    demand_gbps: float
    offnet_gbps: float = 0.0
    pni_gbps: float = 0.0
    ixp_gbps: float = 0.0
    transit_gbps: float = 0.0

    @property
    def interdomain_gbps(self) -> float:
        """Everything that crossed an interdomain boundary."""
        return self.pni_gbps + self.ixp_gbps + self.transit_gbps

    @property
    def served_gbps(self) -> float:
        """Total served (offnet + interdomain)."""
        return self.offnet_gbps + self.interdomain_gbps

    @property
    def unserved_gbps(self) -> float:
        """Demand that found no capacity (congested away)."""
        return max(0.0, self.demand_gbps - self.served_gbps)


@dataclass
class SpilloverReport:
    """One ISP-hour: per-hypergiant flows plus shared-link accounting."""

    isp_asn: int
    hour: int
    flows: dict[str, HourlyFlow] = field(default_factory=dict)
    ixp_utilization: float = 0.0
    transit_utilization: float = 0.0
    #: Background (non-hypergiant) traffic throttled on shared links, Gbps.
    background_collateral_gbps: float = 0.0

    @property
    def total_offnet_gbps(self) -> float:
        """Offnet-served volume across hypergiants."""
        return sum(f.offnet_gbps for f in self.flows.values())

    @property
    def total_interdomain_gbps(self) -> float:
        """Interdomain volume across hypergiants."""
        return sum(f.interdomain_gbps for f in self.flows.values())

    @property
    def total_unserved_gbps(self) -> float:
        """Unserved volume across hypergiants."""
        return sum(f.unserved_gbps for f in self.flows.values())

    @property
    def congested(self) -> bool:
        """Whether any shared link ran above capacity this hour."""
        return self.ixp_utilization > 1.0 or self.transit_utilization > 1.0


@dataclass
class SpilloverModel:
    """Computes :class:`SpilloverReport` for ISP-hours under a capacity plan.

    ``policy`` selects the shared-link allocation discipline; the default
    FAIR_SHARE is today's Internet, the alternatives are the §6 isolation
    mitigations (see :mod:`repro.capacity.isolation`).
    """

    internet: Internet
    demand: DemandModel
    plans: dict[int, IspCapacityPlan]
    policy: IsolationPolicy = IsolationPolicy.FAIR_SHARE

    def report(
        self,
        asn: int,
        hour: int,
        demand_multipliers: dict[str, float] | None = None,
        offnet_utilization_cap: float = 1.0,
    ) -> SpilloverReport:
        """One ISP's spillover picture at ``hour``.

        ``demand_multipliers`` scales each hypergiant's demand (surge
        events); missing entries default to 1.0.  ``offnet_utilization_cap``
        is the operating point offnets are steered to: healthy operation
        targets < 1.0 (operators keep headroom for fills and failover),
        crisis operation runs to 1.0 — the §4.1 COVID analysis contrasts the
        two.
        """
        require(0.0 < offnet_utilization_cap <= 1.0, "offnet_utilization_cap must be in (0, 1]")
        require(asn in self.plans, f"no capacity plan for ASN {asn}")
        plan = self.plans[asn]
        isp = plan.isp
        multipliers = demand_multipliers or {}
        report = SpilloverReport(isp_asn=asn, hour=hour)

        residual_after_pni: dict[str, float] = {}
        for hypergiant in sorted(plan.offnet_sites):
            multiplier = multipliers.get(hypergiant, 1.0)
            demand_gbps = self.demand.hypergiant_demand_gbps(isp, hypergiant, hour) * multiplier
            flow = HourlyFlow(hypergiant=hypergiant, demand_gbps=demand_gbps)
            eligible = self.demand.offnet_eligible_gbps(isp, hypergiant, hour) * multiplier
            usable = plan.offnet_capacity_gbps(hypergiant) * offnet_utilization_cap
            flow.offnet_gbps = min(eligible, usable)
            interdomain = demand_gbps - flow.offnet_gbps
            pni = plan.pni.get(hypergiant)
            if pni is not None:
                flow.pni_gbps = min(interdomain, pni.capacity_gbps)
            residual_after_pni[hypergiant] = interdomain - flow.pni_gbps
            report.flows[hypergiant] = flow

        background = self.demand.background_peering_gbps(isp, hour)
        # IXP stage: only hypergiants actually peering with the ISP over an
        # IXP fabric can shift overflow there.
        ixp_wanted: dict[str, float] = {}
        if plan.ixp_port is not None:
            for hypergiant, residual in residual_after_pni.items():
                if residual <= 0:
                    continue
                hypergiant_as = self.internet.hypergiant_as(hypergiant)
                if self.internet.graph.are_peers(isp, hypergiant_as) and self.internet.graph.peer_edge(
                    isp, hypergiant_as
                ).has_ixp:
                    ixp_wanted[hypergiant] = residual
            background_ixp = background * 0.4
            granted, collateral, utilization = allocate(
                self.policy, ixp_wanted, background_ixp, plan.ixp_port.capacity_gbps
            )
            for hypergiant, volume in granted.items():
                report.flows[hypergiant].ixp_gbps = volume
            report.ixp_utilization = utilization
            report.background_collateral_gbps += collateral

        # Transit stage: the path of last resort for everything left.
        transit_wanted = {
            hypergiant: residual - report.flows[hypergiant].ixp_gbps
            for hypergiant, residual in residual_after_pni.items()
            if residual - report.flows[hypergiant].ixp_gbps > 1e-12
        }
        background_transit = background * (0.6 if plan.ixp_port is not None else 1.0)
        granted, collateral, utilization = allocate(
            self.policy, transit_wanted, background_transit, plan.transit.capacity_gbps
        )
        for hypergiant, volume in granted.items():
            report.flows[hypergiant].transit_gbps = volume
        report.transit_utilization = utilization
        report.background_collateral_gbps += collateral
        return report

    def daily_reports(
        self, asn: int, demand_multipliers: dict[str, float] | None = None
    ) -> list[SpilloverReport]:
        """All 24 hourly reports for one ISP, offnets run to capacity."""
        return [self.report(asn, hour, demand_multipliers) for hour in range(24)]
