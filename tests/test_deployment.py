"""Tests for hypergiant profiles, eligibility, placement, and growth."""

import numpy as np
import pytest

from repro._util import make_rng
from repro.deployment.eligibility import adoption_probability, meets_demand_threshold, select_hosting_isps
from repro.deployment.growth import build_deployment_history, derive_earlier_state, growth_percent
from repro.deployment.hypergiants import (
    DEFAULT_HYPERGIANT_PROFILES,
    HypergiantProfile,
    profile_by_name,
)
from repro.deployment.placement import DeploymentState, PlacementConfig, place_offnets


class TestProfiles:
    def test_four_defaults(self):
        assert {p.name for p in DEFAULT_HYPERGIANT_PROFILES} == {"Google", "Netflix", "Meta", "Akamai"}

    def test_lookup(self):
        assert profile_by_name("Google").traffic_share == pytest.approx(0.21)

    def test_lookup_unknown(self):
        with pytest.raises(KeyError):
            profile_by_name("Cloudflare")

    def test_servable_share_arithmetic(self):
        # The paper's §3.2 sums: Google 21% x 80% = ~17%, Netflix 9% x 95% = ~9%.
        assert profile_by_name("Google").servable_traffic_share == pytest.approx(0.168, abs=0.001)
        assert profile_by_name("Netflix").servable_traffic_share == pytest.approx(0.0855, abs=0.001)

    def test_paper_growth_ratios(self):
        assert profile_by_name("Google").footprint_2021_ratio == pytest.approx(3810 / 4697)
        assert profile_by_name("Akamai").footprint_2021_ratio == 1.0

    def test_only_akamai_is_legacy(self):
        legacy = [p.name for p in DEFAULT_HYPERGIANT_PROFILES if p.legacy_deployment]
        assert legacy == ["Akamai"]

    def test_validation(self):
        with pytest.raises(ValueError):
            HypergiantProfile("X", 1.5, 0.5, 0.5, 1.0, 1000)


class TestEligibility:
    def test_threshold(self, small_internet):
        profile = profile_by_name("Akamai")
        small = next(i for i in small_internet.isps if i.users < profile.min_isp_users)
        assert not meets_demand_threshold(small, profile)
        assert adoption_probability(small, profile) == 0.0

    def test_restricted_market_blocks(self, small_internet):
        profile = profile_by_name("Google")
        cn_isps = [i for i in small_internet.access_isps if i.country_code == "CN"]
        assert cn_isps, "world model must include Chinese ISPs"
        for isp in cn_isps:
            assert adoption_probability(isp, profile) == 0.0

    def test_probability_grows_with_size(self, small_internet):
        profile = profile_by_name("Netflix")
        eligible = [i for i in small_internet.access_isps if meets_demand_threshold(i, profile)]
        eligible.sort(key=lambda i: i.users)
        assert adoption_probability(eligible[-1], profile) >= adoption_probability(eligible[0], profile)

    def test_probability_capped(self, small_internet):
        profile = profile_by_name("Google")
        assert all(
            adoption_probability(isp, profile) <= 0.97 for isp in small_internet.access_isps
        )

    def test_selection_deterministic(self, small_internet):
        profile = profile_by_name("Meta")
        a = select_hosting_isps(small_internet.isps, profile, make_rng(5))
        b = select_hosting_isps(small_internet.isps, profile, make_rng(5))
        assert [x.asn for x in a] == [x.asn for x in b]


class TestPlacement:
    def test_servers_have_unique_ips(self, state23):
        ips = [s.ip for s in state23.servers]
        assert len(ips) == len(set(ips))

    def test_server_ips_inside_hosting_isp(self, small_internet, state23):
        for server in state23.servers[:500]:
            assert small_internet.plan.owner_of(server.ip) is server.isp

    def test_facility_belongs_to_isp(self, state23):
        for server in state23.servers[:500]:
            assert server.facility.operator is server.isp

    def test_rack_in_facility(self, state23):
        for server in state23.servers[:500]:
            assert server.rack.facility is server.facility

    def test_rack_sharing_across_hypergiants_exists(self, state23):
        # The operator anecdote: same-rack colocation is "super common".
        shared = set()
        by_rack = {}
        for server in state23.servers:
            by_rack.setdefault(server.rack, set()).add(server.hypergiant)
        shared = [hgs for hgs in by_rack.values() if len(hgs) >= 2]
        assert shared

    def test_colocation_is_common(self, state23):
        multi = 0
        coloc = 0
        for isp in state23.hosting_isps():
            if len(state23.hypergiants_in(isp)) < 2:
                continue
            multi += 1
            facilities = {}
            for server in state23.servers_in(isp):
                facilities.setdefault(server.facility, set()).add(server.hypergiant)
            if any(len(hgs) >= 2 for hgs in facilities.values()):
                coloc += 1
        assert multi > 0
        # The paper: 81-95% of multi-HG ISPs colocate.
        assert coloc / multi > 0.8

    def test_deployment_lookup(self, state23):
        isp = state23.isps_hosting("Google")[0]
        deployment = state23.deployment_of("Google", isp)
        assert deployment is not None
        assert deployment.site_count >= 1
        assert deployment.facilities

    def test_server_at(self, state23):
        server = state23.servers[0]
        assert state23.server_at(server.ip) is server
        assert state23.server_at(1) is None

    def test_duplicate_deployment_rejected(self, state23):
        deployment = state23.deployments[0]
        with pytest.raises(ValueError):
            DeploymentState(epoch="x", deployments=[deployment, deployment])

    def test_placement_config_validation(self):
        with pytest.raises(ValueError):
            PlacementConfig(colocation_preference=1.5)
        with pytest.raises(ValueError):
            PlacementConfig(max_sites=0)

    def test_reserved_low_addresses(self, small_internet, state23):
        config = PlacementConfig()
        for server in state23.servers[:300]:
            prefix = small_internet.plan.prefixes_of(server.isp)[0]
            assert server.ip >= prefix.base + config.reserved_low_addresses

    def test_legacy_placed_first_colocates_less(self, small_internet):
        # Akamai (legacy) should have a lower fully-colocated rate than
        # Meta/Netflix at ground truth level across several seeds.
        def full_coloc_rate(state, hypergiant):
            full = total = 0
            for isp in state.isps_hosting(hypergiant):
                if len(state.hypergiants_in(isp)) < 2:
                    continue
                facility_hgs = {}
                for server in state.servers_in(isp):
                    facility_hgs.setdefault(server.facility, set()).add(server.hypergiant)
                own = [s.facility for s in state.servers_in(isp) if s.hypergiant == hypergiant]
                colocated = sum(1 for f in own if len(facility_hgs[f] - {hypergiant}) > 0)
                total += 1
                full += colocated == len(own)
            return full / total if total else 0.0

        rates_akamai = []
        rates_meta = []
        for seed in (1, 2, 3):
            state = place_offnets(small_internet, seed=seed)
            rates_akamai.append(full_coloc_rate(state, "Akamai"))
            rates_meta.append(full_coloc_rate(state, "Meta"))
        assert np.mean(rates_akamai) < np.mean(rates_meta)


class TestGrowth:
    def test_epochs_present(self, history):
        assert set(history.epochs) == {"2021", "2023"}

    def test_monotone_growth(self, history):
        for hypergiant in ("Google", "Netflix", "Meta", "Akamai"):
            before = {i.asn for i in history.state("2021").isps_hosting(hypergiant)}
            after = {i.asn for i in history.state("2023").isps_hosting(hypergiant)}
            assert before <= after

    def test_growth_percent_matches_ratios(self, history):
        # Growth is ratio-driven by construction; allow rounding slack.
        assert growth_percent(history, "Google") == pytest.approx(23.2, abs=2.0)
        assert growth_percent(history, "Netflix") == pytest.approx(37.4, abs=2.5)
        assert growth_percent(history, "Meta") == pytest.approx(16.9, abs=2.0)
        assert growth_percent(history, "Akamai") == pytest.approx(0.0, abs=0.01)

    def test_early_adopters_skew_large(self, small_internet):
        # The 2021 subset samples large ISPs preferentially; assert the
        # tendency across seeds and hypergiants (a single draw is noisy).
        wins = trials = 0
        for seed in (11, 12, 13):
            history = build_deployment_history(small_internet, seed=seed)
            for hypergiant in ("Google", "Netflix", "Meta"):
                kept = history.state("2021").isps_hosting(hypergiant)
                all_hosts = history.state("2023").isps_hosting(hypergiant)
                dropped = [i for i in all_hosts if i not in kept]
                if not kept or not dropped:
                    continue
                trials += 1
                wins += np.mean([i.users for i in kept]) > np.mean([i.users for i in dropped])
        assert trials >= 5
        assert wins / trials > 0.5

    def test_derive_earlier_state_full_ratio(self, state23):
        assert profile_by_name("Akamai").footprint_2021_ratio == 1.0
        earlier = derive_earlier_state(state23, seed=0)
        assert len(earlier.isps_hosting("Akamai")) == len(state23.isps_hosting("Akamai"))

    def test_history_deterministic(self, small_internet):
        a = build_deployment_history(small_internet, seed=4)
        b = build_deployment_history(small_internet, seed=4)
        assert [d.isp.asn for d in a.state("2021").deployments] == [
            d.isp.asn for d in b.state("2021").deployments
        ]


@pytest.fixture(scope="module")
def epoch_series(small_internet):
    """The 2017-2023 trajectory anchors run through the timeline, one state per year."""
    from repro.deployment.growth import DEFAULT_EPOCH_TRAJECTORIES
    from repro.timeline import TimelineSpec, build_timeline

    spec = TimelineSpec(start="2017Q1", end="2023Q1", anchors=DEFAULT_EPOCH_TRAJECTORIES, seed=3)
    timeline = build_timeline(small_internet, spec)
    return {year: timeline.state_at(f"{year}Q1") for year in ("2017", "2019", "2021", "2023")}


class TestEpochSeries:
    def test_cohosting_rises_through_time(self, epoch_series):
        counts = []
        for epoch in sorted(epoch_series):
            state = epoch_series[epoch]
            counts.append(
                sum(1 for isp in state.hosting_isps() if len(state.hypergiants_in(isp)) >= 2)
            )
        assert counts == sorted(counts)

    def test_akamai_flat_others_ramp(self, epoch_series):
        def count(hg, epoch):
            return len(epoch_series[epoch].isps_hosting(hg))

        akamai_growth = count("Akamai", "2023") / max(1, count("Akamai", "2017"))
        meta_growth = count("Meta", "2023") / max(1, count("Meta", "2017"))
        assert akamai_growth < 1.2
        assert meta_growth > 2.0


class TestEpochOrdering:
    """Satellite regression: calendar-aware epoch labels (not lexicographic)."""

    def test_parse_yearly_and_quarterly(self):
        from repro.deployment.growth import parse_epoch_label

        assert parse_epoch_label("2021") == (2021, 0)
        assert parse_epoch_label("2024Q3") == (2024, 3)
        assert parse_epoch_label("2024Q1") == (2024, 1)

    @pytest.mark.parametrize("label", ["", "21Q1", "2024Q5", "2024Q0", "2024q3", "someday", "2024-Q3"])
    def test_unparseable_labels_rejected(self, label):
        from repro.deployment.growth import parse_epoch_label

        with pytest.raises(ValueError, match="unparseable epoch label"):
            parse_epoch_label(label)

    def test_epoch_key_orders_mixed_labels(self):
        from repro.deployment.growth import parse_epoch_label

        labels = ["2024Q3", "2023", "2024", "2023Q4", "2025Q1"]
        assert sorted(labels, key=parse_epoch_label) == ["2023", "2023Q4", "2024", "2024Q3", "2025Q1"]
