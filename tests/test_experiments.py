"""Shape tests for every experiment (paper-artifact) module.

These are the reproduction assertions: the synthetic Internet will not hit
the paper's absolute numbers, but who-wins / roughly-what-factor / where the
crossovers fall must hold.  All run on the shared small-scenario study.
"""

import pytest

from repro.experiments.figure1 import PAPER_FULL_K4_COUNTRIES, figure1_panels, run_figure1
from repro.experiments.figure2 import run_figure2
from repro.experiments.scenarios import SMALL_SCENARIO, cached_study, scenario_by_name
from repro.experiments.section32 import run_section32
from repro.experiments.section41_capacity import (
    PAPER_COVID_DEMAND_MULTIPLIER,
    run_covid_experiment,
    run_section41,
)
from repro.experiments.section42_peering import run_pni_headroom, run_section42
from repro.experiments.section43_collateral import most_shared_facility, run_section43
from repro.experiments.table1 import PAPER_GROWTH_PERCENT, run_table1
from repro.experiments.table2 import run_table2
from repro.core.colocation import ColocationBucket
from repro.traceroute.peering import PeeringEvidence


@pytest.fixture(scope="module")
def study(small_study):
    return small_study


class TestTable1:
    def test_growth_ordering_matches_paper(self, study):
        result = run_table1(study)
        assert result.growth_ranking() == ["Netflix", "Google", "Meta", "Akamai"]

    def test_growth_percentages_close(self, study):
        result = run_table1(study)
        for hypergiant, paper_value in PAPER_GROWTH_PERCENT.items():
            assert result.growth_percent(hypergiant) == pytest.approx(paper_value, abs=5.0)

    def test_google_largest_footprint(self, study):
        result = run_table1(study)
        counts = {hg: result.counts[hg]["2023"] for hg in result.counts}
        assert counts["Google"] == max(counts.values())

    def test_akamai_static(self, study):
        result = run_table1(study)
        assert result.counts["Akamai"]["2021"] == result.counts["Akamai"]["2023"]

    def test_render(self, study):
        assert "paper growth" in run_table1(study).render()


class TestFigure1:
    def test_panels_nested(self, study):
        result = run_figure1(study)
        assert (
            result.majority_country_count(2)
            >= result.majority_country_count(3)
            >= result.majority_country_count(4)
        )

    def test_many_countries_majority_at_k2(self, study):
        result = run_figure1(study)
        assert result.majority_country_count(2) > 20

    def test_k4_countries_exist_in_world(self, study):
        for code in PAPER_FULL_K4_COUNTRIES:
            assert study.internet.world.country(code)

    def test_render_has_all_countries(self, study):
        result = run_figure1(study)
        text = result.render()
        assert "US" in text and "MN" in text

    def test_panels_grow_from_2021_to_2023(self, study):
        # Monotone growth: every country's >=2-HG user fraction is
        # no smaller in 2023 than in 2021.
        panels_2021 = figure1_panels(study.inventories["2021"], study.population)
        panels_2023 = figure1_panels(study.inventories["2023"], study.population)
        for code, frac in panels_2021[2].fraction_by_country.items():
            assert panels_2023[2].fraction(code) >= frac - 1e-12


class TestTable2:
    def test_colocation_widespread_at_every_setting(self, study):
        result = run_table2(study)
        for xi in study.config.xis:
            for hypergiant in ("Google", "Netflix", "Meta", "Akamai"):
                # Most multi-HG ISPs colocate at least some offnets (paper:
                # the 0% column never exceeds 25%).
                table = result.tables[xi]
                none = table.percentage(hypergiant, ColocationBucket.NONE)
                assert none < 0.45

    def test_conservative_clustering_reports_more_full_colocation(self, study):
        result = run_table2(study)
        fuller = sum(
            result.full_colocation(hg, 0.9) >= result.full_colocation(hg, 0.1)
            for hg in ("Google", "Netflix", "Meta", "Akamai")
        )
        assert fuller >= 3

    def test_majority_colocation_common(self, study):
        result = run_table2(study)
        for hypergiant in ("Google", "Netflix", "Meta", "Akamai"):
            assert result.majority_colocation(hypergiant, 0.9) > 0.4


class TestFigure2:
    def test_coverage_headlines_shape(self, study):
        result = run_figure2(study)
        assert 0.5 < result.coverage["hosting"] < 0.95  # paper: 76%
        assert result.coverage["analyzable"] <= result.coverage["hosting"]

    def test_quarter_share_facilities_common(self, study):
        low, high = run_figure2(study).share25_range()
        assert high > 0.5  # paper: 71-82%
        assert low <= high

    def test_four_hg_facilities_exist(self, study):
        low, high = run_figure2(study).four_hg_range()
        assert high > 0.0

    def test_ccdf_starts_at_one(self, study):
        result = run_figure2(study)
        _, tail = result.ccdf(0.9)
        assert tail[0] == pytest.approx(1.0)


class TestSection32:
    def test_cohosting_majority(self, study):
        result = run_section32(study)
        assert result.cohosting_fraction(2) > 0.5  # paper: 61%

    def test_cohosting_monotone(self, study):
        result = run_section32(study)
        assert result.cohosting[1] >= result.cohosting[2] >= result.cohosting[3] >= result.cohosting[4]

    def test_validation_mostly_single_city(self, study):
        result = run_section32(study)
        for summary in result.validations.values():
            assert summary.consistent_fraction > 0.6


class TestSection41:
    def test_single_site_fractions_substantial(self, study):
        result = run_section41(study, covid_sample=15)
        # §4.1: for every hypergiant a large share of ISPs have only one
        # site, so spillover must cross interdomain boundaries.
        for hypergiant in ("Google", "Netflix", "Meta", "Akamai"):
            low, high = result.single_site_range(hypergiant)
            assert high > 0.3

    def test_netflix_most_single_sited(self, study):
        result = run_section41(study, covid_sample=15)
        netflix_high = result.single_site_range("Netflix")[1]
        for other in ("Google", "Meta", "Akamai"):
            assert netflix_high >= result.single_site_range(other)[1] - 0.05

    def test_covid_experiment_shape(self, study):
        covid = run_covid_experiment(study, sample=25)
        # Demand +58% but offnets bounded: growth far below the surge.
        assert 0.05 < covid.offnet_change < 0.40
        assert covid.offnet_change < PAPER_COVID_DEMAND_MULTIPLIER - 1.0
        # Interdomain more than doubles.
        assert covid.interdomain_ratio > 2.0
        # Offnets were the majority path before the surge.
        assert 0.5 < covid.baseline_offnet_share < 0.9


class TestSection42:
    @pytest.fixture(scope="class")
    def result(self, study):
        return run_section42(study, n_regions=4)

    def test_no_evidence_class_largest_or_close(self, result):
        # Paper: 48.4% no evidence, 38.2% peer, 13.3% possible.
        peer = result.fraction(PeeringEvidence.PEER)
        none = result.fraction(PeeringEvidence.NO_EVIDENCE)
        possible = result.fraction(PeeringEvidence.POSSIBLE_PEER)
        assert possible < peer
        assert possible < none
        assert 0.2 < peer < 0.65
        assert 0.25 < none < 0.7

    def test_ixp_fractions_shape(self, result):
        # Paper: 62.2% via IXP at least once, 42.5% IXP-only.
        assert result.inference.ixp_at_least_once_fraction() > 0.3
        assert result.inference.ixp_only_fraction() > 0.15

    def test_inference_reliable(self, result):
        assert result.precision > 0.99
        assert result.recall > 0.7

    def test_pni_headroom_shape(self, study):
        headroom = run_pni_headroom(study)
        # §4.2.2: a substantial minority of PNIs overloaded at normal peak;
        # ~10% see demand at 2x capacity.
        google = headroom["Google"]
        assert google.n_pnis > 5
        assert 0.1 < google.overloaded_fraction < 0.65
        meta = headroom["Meta"]
        assert 0.0 <= meta.twice_overloaded_fraction < 0.35


class TestSection43:
    @pytest.fixture(scope="class")
    def result(self, study):
        return run_section43(study, sample=15)

    def test_outage_facility_is_multi_hypergiant(self, result):
        assert len(result.outage_hypergiants) >= 2

    def test_outage_causes_congestion_and_collateral(self, result):
        assert result.facility_outage.congested_isp_asns
        assert result.facility_outage.total_collateral_gbph > 0
        assert result.facility_outage.affected_users() > 0

    def test_bad_update_causes_spillover(self, result):
        assert result.bad_update.aggregate_interdomain_ratio() > 1.0

    def test_most_shared_facility_truth(self, study):
        facility_id, hypergiants = most_shared_facility(study)
        state = study.history.state("2023")
        truth = {
            s.hypergiant for s in state.servers if s.facility.facility_id == facility_id
        }
        assert truth == set(hypergiants)


class TestScenarios:
    def test_lookup(self):
        assert scenario_by_name("small") is SMALL_SCENARIO

    def test_cached_study_is_cached(self):
        assert cached_study("small") is cached_study("small")


class TestSection21:
    def test_anecdote_shape(self, study):
        from repro.experiments.section21_anecdote import (
            PAPER_OFFNET_FRACTIONS,
            run_section21,
        )

        result = run_section21(study)
        assert result.split
        for hypergiant in result.split:
            assert result.offnet_fraction(hypergiant) == pytest.approx(
                PAPER_OFFNET_FRACTIONS[hypergiant], abs=0.15
            )
        assert result.offnet_total > 2 * result.interdomain_total
        assert "interdomain Gbps" in result.render()


class TestSection32Longitudinal:
    def test_cohosting_increased_since_2021(self, study):
        from repro.experiments.section32 import run_section32

        result = run_section32(study)
        # §3.1: "This change ... suggest[s] that multi-hypergiant hosting
        # will continue to increase over time."
        for k in (2, 3, 4):
            assert result.cohosting_increased(k)

    def test_2021_counts_below_2023(self, study):
        from repro.experiments.section32 import run_section32

        result = run_section32(study)
        for k in (1, 2, 3, 4):
            assert result.cohosting_2021[k] <= result.cohosting[k]


class TestDispersalCounterfactual:
    def test_dispersal_reduces_concentration_but_not_sharing(self, study):
        from repro.experiments.counterfactual_dispersal import run_dispersal_counterfactual

        result = run_dispersal_counterfactual(study)
        assert (
            result.dispersed.mean_best_facility_share
            <= result.status_quo.mean_best_facility_share
        )
        # The pigeonhole effect: most multi-HG ISPs still share a facility.
        assert result.dispersed.shared_facility_fraction > 0.5
        assert "pigeonhole" in result.render()

    def test_outcome_fields_populated(self, study):
        from repro.experiments.counterfactual_dispersal import run_dispersal_counterfactual

        result = run_dispersal_counterfactual(study)
        for outcome in (result.status_quo, result.dispersed):
            assert outcome.outage_hypergiants >= 2
            assert outcome.outage_interdomain_ratio > 1.0
