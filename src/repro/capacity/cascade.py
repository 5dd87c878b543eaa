"""Cascade simulation: events → spillover → collateral damage.

Runs a scenario against a baseline, ISP by ISP and hour by hour, and
aggregates the §4.3 story: how much traffic failed over to shared paths,
which shared links congested, how much background (other-service) traffic
was throttled as collateral, and how many users sit behind a congested or
under-served ISP.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro._util import require
from repro.capacity.demand import DemandModel
from repro.capacity.events import Scenario
from repro.capacity.links import IspCapacityPlan
from repro.capacity.spillover import SpilloverModel, SpilloverReport
from repro.obs import Telemetry, ensure_telemetry
from repro.population.users import PopulationDataset
from repro.topology.generator import Internet


@dataclass
class IspOutcome:
    """Baseline-vs-scenario comparison for one ISP over a day."""

    asn: int
    users: int
    baseline_offnet_gbph: float
    scenario_offnet_gbph: float
    baseline_interdomain_gbph: float
    scenario_interdomain_gbph: float
    scenario_unserved_gbph: float
    congested_hours: int
    collateral_gbph: float

    @property
    def offnet_change(self) -> float:
        """Relative change of offnet-served volume (e.g. +0.2 = +20 %)."""
        if self.baseline_offnet_gbph == 0:
            return 0.0
        return self.scenario_offnet_gbph / self.baseline_offnet_gbph - 1.0

    @property
    def interdomain_ratio(self) -> float:
        """Scenario-to-baseline interdomain volume ratio."""
        if self.baseline_interdomain_gbph == 0:
            return float("inf") if self.scenario_interdomain_gbph > 0 else 1.0
        return self.scenario_interdomain_gbph / self.baseline_interdomain_gbph


@dataclass
class CascadeReport:
    """Aggregated scenario outcome."""

    scenario_name: str
    outcomes: dict[int, IspOutcome] = field(default_factory=dict)

    @property
    def total_collateral_gbph(self) -> float:
        """Background traffic throttled across all ISPs (Gbps-hours)."""
        return sum(o.collateral_gbph for o in self.outcomes.values())

    @property
    def congested_isp_asns(self) -> list[int]:
        """ISPs that saw at least one congested shared-link hour."""
        return sorted(asn for asn, o in self.outcomes.items() if o.congested_hours > 0)

    def affected_users(self) -> int:
        """Users behind ISPs with congestion or unserved demand."""
        return sum(
            o.users
            for o in self.outcomes.values()
            if o.congested_hours > 0 or o.scenario_unserved_gbph > 0
        )

    def aggregate_offnet_change(self) -> float:
        """Fleet-wide relative change in offnet-served volume."""
        baseline = sum(o.baseline_offnet_gbph for o in self.outcomes.values())
        scenario = sum(o.scenario_offnet_gbph for o in self.outcomes.values())
        return scenario / baseline - 1.0 if baseline else 0.0

    def aggregate_interdomain_ratio(self) -> float:
        """Fleet-wide scenario/baseline interdomain volume ratio."""
        baseline = sum(o.baseline_interdomain_gbph for o in self.outcomes.values())
        scenario = sum(o.scenario_interdomain_gbph for o in self.outcomes.values())
        if baseline == 0:
            return float("inf") if scenario > 0 else 1.0
        return scenario / baseline


def _day_totals(reports: list[SpilloverReport]) -> tuple[float, float, float, int, float]:
    offnet = sum(r.total_offnet_gbps for r in reports)
    interdomain = sum(r.total_interdomain_gbps for r in reports)
    unserved = sum(r.total_unserved_gbps for r in reports)
    congested_hours = sum(1 for r in reports if r.congested)
    collateral = sum(r.background_collateral_gbps for r in reports)
    return offnet, interdomain, unserved, congested_hours, collateral


def simulate_cascade(
    internet: Internet,
    demand: DemandModel,
    plans: dict[int, IspCapacityPlan],
    scenario: Scenario,
    population: PopulationDataset,
    asns: list[int] | None = None,
    telemetry: Telemetry | None = None,
) -> CascadeReport:
    """Run ``scenario`` against its baseline over a full day.

    ``asns`` restricts the simulation (default: every planned ISP).  Both
    sides run offnets to capacity; §4.1's COVID analysis, which contrasts
    a healthy operating point with a crisis one, is
    :func:`repro.experiments.section41_capacity.run_covid_experiment`.

    With ``telemetry``, each hourly round is accounted: ``cascade.rounds``,
    ``cascade.congested_rounds``, per-round overloaded shared links
    (``cascade.overloaded_links_per_round``), and per-ISP collateral.
    """
    if asns is None:
        asns = sorted(plans)
    require(all(asn in plans for asn in asns), "unknown ASN in cascade scope")
    obs = ensure_telemetry(telemetry)

    baseline_model = SpilloverModel(internet=internet, demand=demand, plans=plans)
    damaged_plans = scenario.apply_to_plans(plans)
    scenario_model = SpilloverModel(internet=internet, demand=demand, plans=damaged_plans)

    report = CascadeReport(scenario_name=scenario.name)
    with obs.span("cascade", scenario=scenario.name, isps=len(asns)):
        for asn in asns:
            baseline_reports = baseline_model.daily_reports(asn)
            scenario_reports = scenario_model.daily_reports(asn, scenario.demand_multipliers(asn))
            base_offnet, base_inter, _, _, _ = _day_totals(baseline_reports)
            scen_offnet, scen_inter, scen_unserved, congested, collateral = _day_totals(scenario_reports)
            if obs.metrics.enabled:
                obs.count("cascade.rounds", len(scenario_reports))
                obs.count("cascade.congested_rounds", congested)
                for hourly in scenario_reports:
                    overloaded = int(hourly.ixp_utilization > 1.0) + int(hourly.transit_utilization > 1.0)
                    obs.observe("cascade.overloaded_links_per_round", overloaded)
                obs.observe("cascade.collateral_gbph", collateral)
            report.outcomes[asn] = IspOutcome(
                asn=asn,
                users=population.users_of(asn),
                baseline_offnet_gbph=base_offnet,
                scenario_offnet_gbph=scen_offnet,
                baseline_interdomain_gbph=base_inter,
                scenario_interdomain_gbph=scen_inter,
                scenario_unserved_gbph=scen_unserved,
                congested_hours=congested,
                collateral_gbph=collateral,
            )
        obs.count("cascade.isps_simulated", len(asns))
        obs.log(
            "cascade simulated",
            scenario=scenario.name,
            isps=len(asns),
            congested_isps=len(report.congested_isp_asns),
        )
    return report
