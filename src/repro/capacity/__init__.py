"""Offnet capacity, spillover, and cascading-failure modelling (§4).

§4 argues three things: offnets run near capacity (§4.1), dedicated peering
is missing or undersized (§4.2), and spillover onto shared IXP/transit links
causes collateral damage (§4.3).  This package turns that argument into a
runnable model: diurnal demand (:mod:`repro.capacity.demand`),
capacity objects for offnet sites, PNIs, IXP ports and transit
(:mod:`repro.capacity.links`), the overflow waterfall
(:mod:`repro.capacity.spillover`), failure/surge events
(:mod:`repro.capacity.events`), and cascade propagation with collateral
-damage accounting (:mod:`repro.capacity.cascade`).
"""

from repro.capacity.cascade import CascadeReport, simulate_cascade
from repro.capacity.demand import DemandModel, DiurnalProfile
from repro.capacity.events import DemandSurge, FacilityOutage, HypergiantSiteFailures, Scenario
from repro.capacity.flashcrowd import FacilityUplink, FlashCrowdEvent, colocated_vs_dispersed, simulate_flash_crowd
from repro.capacity.isolation import IsolationPolicy
from repro.capacity.links import IspCapacityPlan, build_capacity_plan
from repro.capacity.spillover import HourlyFlow, SpilloverModel, SpilloverReport
from repro.capacity.upgrades import UpgradeConfig, simulate_upgrade_cycle

__all__ = [
    "CascadeReport",
    "DemandModel",
    "DemandSurge",
    "DiurnalProfile",
    "FacilityOutage",
    "FacilityUplink",
    "FlashCrowdEvent",
    "HourlyFlow",
    "HypergiantSiteFailures",
    "IsolationPolicy",
    "IspCapacityPlan",
    "Scenario",
    "SpilloverModel",
    "SpilloverReport",
    "UpgradeConfig",
    "build_capacity_plan",
    "colocated_vs_dispersed",
    "simulate_cascade",
    "simulate_flash_crowd",
    "simulate_upgrade_cycle",
]
