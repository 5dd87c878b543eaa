"""Failure and surge events (§3.3 / §4.1's risk scenarios).

Events mutate a *copy* of the capacity plans (availability) and/or provide
demand multipliers.  The three families the paper worries about:

* **DemandSurge** — flash crowds, COVID-style lockdowns, DoS load;
* **FacilityOutage** — the headline correlated-risk event: power/cooling
  failure takes down *every* hypergiant's offnets in the facility at once;
* **HypergiantSiteFailures** — a bad software update rolling out across one
  hypergiant's offnet fleet, taking down a fraction of its sites everywhere
  (which then stresses the shared spillover paths of *other* hypergiants at
  colocated facilities).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from repro._util import make_rng, require, require_fraction, require_positive
from repro.capacity.links import IspCapacityPlan


@dataclass(frozen=True)
class DemandSurge:
    """Scale demand for some hypergiants (all ISPs, or a subset)."""

    multiplier: float
    hypergiants: tuple[str, ...]
    #: Restrict to these ASNs (None = everywhere).
    asns: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        require_positive(self.multiplier, "multiplier")
        require(bool(self.hypergiants), "surge needs at least one hypergiant")


@dataclass(frozen=True)
class FacilityOutage:
    """A whole facility loses power/cooling/uplink."""

    facility_id: int


@dataclass(frozen=True)
class HypergiantSiteFailures:
    """A fraction of one hypergiant's sites fail everywhere (bad update)."""

    hypergiant: str
    failure_fraction: float
    seed: int = 0

    def __post_init__(self) -> None:
        require_fraction(self.failure_fraction, "failure_fraction")


@dataclass
class Scenario:
    """A bundle of events applied together."""

    name: str
    surges: list[DemandSurge] = field(default_factory=list)
    facility_outages: list[FacilityOutage] = field(default_factory=list)
    site_failures: list[HypergiantSiteFailures] = field(default_factory=list)

    def demand_multipliers(self, asn: int) -> dict[str, float]:
        """Combined surge multipliers for one ISP."""
        multipliers: dict[str, float] = {}
        for surge in self.surges:
            if surge.asns is not None and asn not in surge.asns:
                continue
            for hypergiant in surge.hypergiants:
                multipliers[hypergiant] = multipliers.get(hypergiant, 1.0) * surge.multiplier
        return multipliers

    def apply_to_plans(self, plans: dict[int, IspCapacityPlan]) -> dict[int, IspCapacityPlan]:
        """Return plans with event-driven availability applied (deep copy)."""
        damaged = copy.deepcopy(plans)
        outage_ids = {outage.facility_id for outage in self.facility_outages}
        for plan in damaged.values():
            for sites in plan.offnet_sites.values():
                for site in sites:
                    if site.facility_id in outage_ids:
                        site.availability = 0.0
        for failure in self.site_failures:
            rng = make_rng(failure.seed)
            for asn in sorted(damaged):
                for site in damaged[asn].offnet_sites.get(failure.hypergiant, ()):
                    if rng.random() < failure.failure_fraction:
                        site.availability = 0.0
        return damaged


def facility_outage_scenario(facility_id: int) -> Scenario:
    """The §3.3 correlated-risk event: one shared facility goes dark."""
    return Scenario(name=f"facility-{facility_id}-outage", facility_outages=[FacilityOutage(facility_id)])


def bad_update_scenario(hypergiant: str, failure_fraction: float = 0.5, seed: int = 0) -> Scenario:
    """A bad software update hits one hypergiant's offnet fleet."""
    return Scenario(
        name=f"{hypergiant.lower()}-bad-update",
        site_failures=[HypergiantSiteFailures(hypergiant, failure_fraction, seed)],
    )
