"""Tests for demand, capacity plans, spillover, events, and cascades."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.capacity.cascade import simulate_cascade
from repro.capacity.demand import DemandModel, DiurnalProfile
from repro.capacity.events import (
    DemandSurge,
    Scenario,
    bad_update_scenario,
    facility_outage_scenario,
)
from repro.capacity.isolation import IsolationPolicy, allocate
from repro.capacity.links import (
    IXP_PORT_TIERS,
    ProvisioningConfig,
    build_capacity_plan,
    _pick_port_tier,
)
from repro.capacity.spillover import SpilloverModel
from repro.population.users import build_population_dataset


@pytest.fixture(scope="module")
def demand():
    return DemandModel()


@pytest.fixture(scope="module")
def plans(small_internet, state23, demand):
    return build_capacity_plan(small_internet, state23, demand, seed=11)


@pytest.fixture(scope="module")
def model(small_internet, demand, plans):
    return SpilloverModel(small_internet, demand, plans)


@pytest.fixture(scope="module")
def population(small_internet):
    return build_population_dataset(small_internet)


class TestDiurnal:
    def test_peak_normalised(self):
        assert max(DiurnalProfile().hourly) == 1.0

    def test_trough_before_dawn(self):
        profile = DiurnalProfile()
        assert min(profile.hourly) == profile.at(3) or min(profile.hourly) == profile.at(4)

    def test_evening_peak(self):
        profile = DiurnalProfile()
        assert profile.at(20) == 1.0

    def test_wraps_around(self):
        profile = DiurnalProfile()
        assert profile.at(24) == profile.at(0)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            DiurnalProfile(hourly=(1.0,) * 23)


class TestDemand:
    def test_scales_with_users(self, small_internet, demand):
        isps = sorted(small_internet.access_isps, key=lambda i: i.users)
        assert demand.total_peak_gbps(isps[-1]) > demand.total_peak_gbps(isps[0])

    def test_hypergiant_split_by_traffic_share(self, small_internet, demand):
        isp = small_internet.access_isps[0]
        google = demand.hypergiant_peak_gbps(isp, "Google")
        netflix = demand.hypergiant_peak_gbps(isp, "Netflix")
        assert google / netflix == pytest.approx(0.21 / 0.09)

    def test_anecdote_scale(self, small_internet, demand):
        # §2.1: an ISP of ~2M users sees ~tens of Gbps per hypergiant.
        isp = min(small_internet.access_isps, key=lambda i: abs(i.users - 2_000_000))
        peak = demand.hypergiant_peak_gbps(isp, "Google")
        assert 10 < peak < 120

    def test_offnet_eligible_below_total(self, small_internet, demand):
        isp = small_internet.access_isps[0]
        for hour in range(24):
            assert demand.offnet_eligible_gbps(isp, "Google", hour) <= demand.hypergiant_demand_gbps(
                isp, "Google", hour
            )

    def test_background_is_remainder(self, small_internet, demand):
        isp = small_internet.access_isps[0]
        total = demand.total_peak_gbps(isp)
        hypergiant_peak = sum(
            demand.hypergiant_peak_gbps(isp, hg) for hg in ("Google", "Netflix", "Meta", "Akamai")
        )
        assert demand.background_peering_gbps(isp, 20) == pytest.approx(total - hypergiant_peak)


class TestCapacityPlan:
    def test_every_hosting_isp_planned(self, plans, state23):
        assert set(plans) == {i.asn for i in state23.hosting_isps()}

    def test_offnet_sites_match_deployment_facilities(self, plans, state23):
        for asn, plan in plans.items():
            for hypergiant, sites in plan.offnet_sites.items():
                deployment = state23.deployment_of(hypergiant, plan.isp)
                truth = {f.facility_id for f in deployment.facilities}
                assert {s.facility_id for s in sites} == truth

    def test_offnet_capacity_has_headroom(self, plans, demand):
        for plan in list(plans.values())[:30]:
            for hypergiant in plan.offnet_sites:
                capacity = plan.offnet_capacity_gbps(hypergiant)
                expected_peak = demand.offnet_eligible_gbps(plan.isp, hypergiant, 20)
                assert capacity == pytest.approx(expected_peak * 1.2, rel=1e-6)

    def test_pni_only_where_graph_has_pni(self, small_internet, plans):
        for plan in plans.values():
            for hypergiant in plan.pni:
                hg_as = small_internet.hypergiant_as(hypergiant)
                assert small_internet.graph.are_peers(plan.isp, hg_as)
                assert small_internet.graph.peer_edge(plan.isp, hg_as).has_pni

    def test_ixp_port_tiers(self, plans):
        for plan in plans.values():
            if plan.ixp_port is not None:
                assert plan.ixp_port.capacity_gbps in IXP_PORT_TIERS

    def test_pick_port_tier(self):
        assert _pick_port_tier(5) == 10.0
        assert _pick_port_tier(50) == 100.0
        assert _pick_port_tier(10_000) == IXP_PORT_TIERS[-1]

    def test_some_pnis_undersized(self, plans, demand):
        # §4.2.2: a substantial minority of PNIs cannot carry normal peaks.
        ratios = []
        for plan in plans.values():
            for hypergiant, pni in plan.pni.items():
                peak_total = demand.hypergiant_peak_gbps(plan.isp, hypergiant)
                peak_eligible = demand.offnet_eligible_gbps(plan.isp, hypergiant, 20)
                interdomain = peak_total - min(plan.offnet_capacity_gbps(hypergiant), peak_eligible)
                ratios.append(interdomain / pni.capacity_gbps)
        overloaded = sum(1 for r in ratios if r > 1.0) / len(ratios)
        assert 0.1 < overloaded < 0.6

    def test_sites_in_facility(self, plans, state23):
        plan = next(iter(plans.values()))
        hypergiant = next(iter(plan.offnet_sites))
        facility_id = plan.offnet_sites[hypergiant][0].facility_id
        assert plan.offnet_sites[hypergiant][0] in plan.sites_in_facility(facility_id)

    def test_provisioning_validation(self):
        with pytest.raises(ValueError):
            ProvisioningConfig(offnet_headroom=0.0)


class TestFairShare:
    """The spillover model's default shared-link discipline."""

    def test_no_congestion_grants_all(self):
        granted, collateral, utilization = allocate(IsolationPolicy.FAIR_SHARE, {"a": 5.0}, 2.0, 10.0)
        assert granted == {"a": 5.0} and collateral == 0.0 and utilization == 0.7

    def test_congestion_throttles_proportionally(self):
        granted, collateral, utilization = allocate(
            IsolationPolicy.FAIR_SHARE, {"a": 6.0, "b": 6.0}, 8.0, 10.0
        )
        assert utilization == 2.0
        assert granted["a"] == pytest.approx(3.0)
        assert collateral == pytest.approx(4.0)

    def test_zero_capacity(self):
        granted, collateral, utilization = allocate(IsolationPolicy.FAIR_SHARE, {"a": 1.0}, 1.0, 0.0)
        assert granted["a"] == 0.0 and collateral == 1.0

    @given(
        st.dictionaries(st.sampled_from(["a", "b", "c"]), st.floats(0, 100), min_size=1),
        st.floats(0, 100),
        st.floats(0.1, 100),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_served_never_exceeds_capacity_or_demand(self, wanted, background, capacity):
        granted, collateral, _ = allocate(IsolationPolicy.FAIR_SHARE, wanted, background, capacity)
        assert sum(granted.values()) + (background - collateral) <= capacity * (1 + 1e-9) or (
            sum(wanted.values()) + background <= capacity
        )
        for name, volume in granted.items():
            assert volume <= wanted[name] * (1 + 1e-9)
        assert 0 <= collateral <= background * (1 + 1e-9)


class TestSpillover:
    def test_flow_conservation(self, model, plans):
        for asn in list(plans)[:20]:
            report = model.report(asn, 20)
            for flow in report.flows.values():
                assert flow.served_gbps <= flow.demand_gbps * (1 + 1e-9)
                assert flow.unserved_gbps >= 0

    def test_offnet_preferred_over_interdomain(self, model, plans, demand):
        for asn in list(plans)[:20]:
            report = model.report(asn, 3)  # overnight trough: no pressure
            for hypergiant, flow in report.flows.items():
                eligible = demand.offnet_eligible_gbps(plans[asn].isp, hypergiant, 3)
                capacity = plans[asn].offnet_capacity_gbps(hypergiant)
                assert flow.offnet_gbps == pytest.approx(min(eligible, capacity))

    def test_surge_multiplier_scales_demand(self, model, plans):
        asn = next(iter(plans))
        base = model.report(asn, 20)
        surged = model.report(asn, 20, {"Netflix": 2.0})
        if "Netflix" in base.flows:
            assert surged.flows["Netflix"].demand_gbps == pytest.approx(
                2 * base.flows["Netflix"].demand_gbps
            )

    def test_utilization_cap_reduces_offnet(self, model, plans):
        asn = next(iter(plans))
        full = model.report(asn, 20, offnet_utilization_cap=1.0)
        capped = model.report(asn, 20, offnet_utilization_cap=0.5)
        assert capped.total_offnet_gbps <= full.total_offnet_gbps

    def test_ixp_stage_requires_ixp_peering(self, small_internet, model, plans):
        for asn in list(plans)[:30]:
            report = model.report(asn, 20)
            for hypergiant, flow in report.flows.items():
                if flow.ixp_gbps > 0:
                    hg_as = small_internet.hypergiant_as(hypergiant)
                    assert small_internet.graph.peer_edge(plans[asn].isp, hg_as).has_ixp

    def test_invalid_cap_rejected(self, model, plans):
        with pytest.raises(ValueError):
            model.report(next(iter(plans)), 0, offnet_utilization_cap=0.0)

    def test_unknown_asn_rejected(self, model):
        with pytest.raises(ValueError):
            model.report(1, 0)


class TestEventsAndCascade:
    def test_facility_outage_zeroes_sites(self, plans, state23):
        facility_id = state23.servers[0].facility.facility_id
        scenario = facility_outage_scenario(facility_id)
        damaged = scenario.apply_to_plans(plans)
        for plan in damaged.values():
            for site in plan.sites_in_facility(facility_id):
                assert site.usable_gbps == 0.0

    def test_outage_leaves_originals_untouched(self, plans, state23):
        facility_id = state23.servers[0].facility.facility_id
        facility_outage_scenario(facility_id).apply_to_plans(plans)
        for plan in plans.values():
            for sites in plan.offnet_sites.values():
                for site in sites:
                    assert site.availability == 1.0

    def test_bad_update_hits_one_hypergiant_only(self, plans):
        scenario = bad_update_scenario("Netflix", failure_fraction=1.0)
        damaged = scenario.apply_to_plans(plans)
        for plan in damaged.values():
            for hypergiant, sites in plan.offnet_sites.items():
                for site in sites:
                    if hypergiant == "Netflix":
                        assert site.availability == 0.0
                    else:
                        assert site.availability == 1.0

    def test_surge_multipliers_compose(self):
        scenario = Scenario(
            name="x",
            surges=[
                DemandSurge(1.5, ("Netflix",)),
                DemandSurge(2.0, ("Netflix",), asns=(1,)),
            ],
        )
        assert scenario.demand_multipliers(1)["Netflix"] == pytest.approx(3.0)
        assert scenario.demand_multipliers(2)["Netflix"] == pytest.approx(1.5)

    def test_covid_cascade_shape(self, small_internet, demand, state23, population):
        constrained = build_capacity_plan(
            small_internet, state23, demand, ProvisioningConfig(offnet_headroom=0.62), seed=11
        )
        asns = [i.asn for i in state23.isps_hosting("Netflix")][:25]
        lockdown = Scenario(name="covid-lockdown", surges=[DemandSurge(1.58, ("Netflix",))])
        report = simulate_cascade(small_internet, demand, constrained, lockdown, population, asns=asns)
        # Offnets bounded below the surge, interdomain grows (the
        # aggregate dilutes across all hypergiants; the Netflix-specific
        # paper numbers are asserted in test_experiments).
        assert report.aggregate_offnet_change() < 0.58
        assert report.aggregate_interdomain_ratio() > 1.0

    def test_facility_outage_cascade_causes_collateral(
        self, small_internet, demand, plans, state23, population
    ):
        facility_hgs = {}
        for server in state23.servers:
            facility_hgs.setdefault(server.facility.facility_id, set()).add(server.hypergiant)
        facility_id = max(facility_hgs, key=lambda f: len(facility_hgs[f]))
        owner_asn = next(
            s.isp.asn for s in state23.servers if s.facility.facility_id == facility_id
        )
        report = simulate_cascade(
            small_internet,
            demand,
            plans,
            facility_outage_scenario(facility_id),
            population,
            asns=[owner_asn],
        )
        outcome = report.outcomes[owner_asn]
        assert outcome.scenario_offnet_gbph < outcome.baseline_offnet_gbph
        assert outcome.interdomain_ratio > 1.0
        assert report.affected_users() > 0

    def test_baseline_scenario_identical_without_events(
        self, small_internet, demand, plans, population
    ):
        empty = Scenario(name="noop")
        asns = sorted(plans)[:5]
        report = simulate_cascade(small_internet, demand, plans, empty, population, asns=asns)
        for outcome in report.outcomes.values():
            assert outcome.offnet_change == pytest.approx(0.0)
            assert outcome.interdomain_ratio == pytest.approx(1.0)
