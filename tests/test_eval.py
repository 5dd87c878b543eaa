"""repro.eval: scorecards, regress-fail accuracy floors, differential stability.

Covers the tentpole contracts:

* each stage's score matches a direct call to the underlying scorer;
* scoring against an incomplete facility map raises ``KeyError`` naming
  the first missing IP (the ``SiteClustering.label_of`` convention);
* the committed ``benchmarks/BENCH_accuracy.json`` floors hold on a fresh
  small-scenario scorecard, and a deliberately injected misclassification
  trips the gate;
* scorecard JSON is byte-stable across the serial and pool backends and
  1/2/4 workers (the ``tests/test_parallel_equivalence.py`` discipline).
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from repro.clustering.sites import ClusteringConfig, SiteClustering
from repro.core.pipeline import StudyConfig, run_study
from repro.eval import (
    build_scorecard,
    check_accuracy,
    clustering_truth_labels,
    compare_to_floors,
    derive_floors,
    score_isp_clustering,
)
from repro.parallel import ParallelConfig
from repro.scan.detection import DetectionScore, score_detection
from repro.topology.generator import InternetConfig

BASELINE_PATH = Path(__file__).parent.parent / "benchmarks" / "BENCH_accuracy.json"


@pytest.fixture(scope="module")
def scorecard(small_study):
    """The small scenario scored once per module (the peering stage costs)."""
    return build_scorecard(small_study, scenario="small")


class TestScorecard:
    def test_detection_matches_direct_scoring(self, small_study, scorecard):
        for epoch, inventory in small_study.inventories.items():
            direct = score_detection(inventory, small_study.history.state(epoch))
            assert scorecard.detection[epoch] == direct

    def test_clustering_covers_every_xi_and_isp(self, small_study, scorecard):
        assert set(scorecard.clustering) == set(small_study.config.xis)
        for xi, stage in scorecard.clustering.items():
            assert stage.n_isps == len(small_study.clusterings[xi])
            assert 0.0 <= stage.pooled_rand <= 1.0
            assert 0.0 <= stage.homogeneity <= 1.0
            assert 0.0 <= stage.completeness <= 1.0

    def test_rdns_counts_are_consistent(self, scorecard):
        rdns = scorecard.rdns
        assert rdns.n_servers >= rdns.n_with_ptr >= rdns.n_located
        assert rdns.n_located >= rdns.n_metro_correct >= rdns.n_city_correct
        assert rdns.n_wrong_stale <= rdns.n_located - rdns.n_metro_correct

    def test_f1_is_between_precision_and_recall(self, scorecard):
        for score in (*scorecard.detection.values(), *scorecard.traceroute.values()):
            low, high = sorted((score.precision, score.recall))
            assert low <= score.f1 <= high or (low == 0.0 and score.f1 == 0.0)

    def test_aggregate_is_the_mean_of_stage_headlines(self, scorecard):
        headlines = scorecard.stage_headlines
        assert scorecard.aggregate == pytest.approx(sum(headlines.values()) / len(headlines))
        assert 0.0 < scorecard.aggregate <= 1.0

    def test_flat_metrics_name_every_stage(self, scorecard):
        names = scorecard.flat_metrics()
        for prefix in ("detection.2023.", "clustering.xi=", "rdns.", "traceroute.Google."):
            assert any(name.startswith(prefix) for name in names), prefix
        assert "aggregate" in names

    def test_canonical_json_shape(self, scorecard):
        document = json.loads(scorecard.canonical_json())
        assert document["format"] == "repro-scorecard-v1"
        assert document["scenario"] == "small"
        assert set(document["detection"]) == {"2021", "2023"}
        assert scorecard.canonical_json().endswith("\n")

    def test_study_helper_builds_the_same_scorecard(self, small_study, scorecard):
        assert small_study.scorecard(scenario="small").canonical_json() == (
            scorecard.canonical_json()
        )


class TestTruthLabelErgonomics:
    """Satellite: missing-IP inputs fail loudly, naming the first offender."""

    def _clustering(self):
        return SiteClustering(
            ips=[10, 20, 30], labels=np.array([0, 0, -1]), config=ClusteringConfig(xi=0.5)
        )

    def test_missing_ip_raises_keyerror_naming_it(self):
        with pytest.raises(KeyError, match=r"IP 20 has no ground-truth facility"):
            clustering_truth_labels(self._clustering(), {10: 7, 30: 8})

    def test_first_missing_ip_is_named(self):
        with pytest.raises(KeyError, match=r"IP 10 "):
            clustering_truth_labels(self._clustering(), {})

    def test_complete_map_yields_aligned_labels(self):
        labels = clustering_truth_labels(self._clustering(), {10: 7, 20: 7, 30: 8})
        assert labels.tolist() == [7, 7, 8]

    def test_perfect_clustering_scores_perfectly(self):
        score = score_isp_clustering(1, self._clustering(), {10: 7, 20: 7, 30: 8})
        assert score.rand == 1.0
        assert score.n_pure_clusters == score.n_clusters == 1
        assert score.n_intact_facilities == score.n_multi_ip_facilities == 1

    def test_merged_facilities_lower_the_score(self):
        merged = {10: 7, 20: 8, 30: 9}  # the predicted pair straddles facilities
        score = score_isp_clustering(1, self._clustering(), merged)
        assert score.rand < 1.0
        assert score.n_pure_clusters == 0


@pytest.mark.eval
class TestAccuracyGate:
    def test_committed_baseline_holds_on_a_fresh_scorecard(self, scorecard):
        result = check_accuracy(BASELINE_PATH, scorecard=scorecard)
        assert result.passed, result.render()
        assert "accuracy check passed" in result.render()

    def test_injected_misclassification_trips_the_gate(self, scorecard):
        """Half the 2023 true positives become false positives: the fixture's
        deliberate misclassification must fail the committed floors."""
        honest = scorecard.detection["2023"]
        flipped = honest.true_positives // 2
        corrupted = dataclasses.replace(
            scorecard,
            detection={
                **scorecard.detection,
                "2023": DetectionScore(
                    true_positives=honest.true_positives - flipped,
                    false_positives=honest.false_positives + flipped,
                    false_negatives=honest.false_negatives,
                ),
            },
        )
        result = check_accuracy(BASELINE_PATH, scorecard=corrupted)
        assert not result.passed
        tripped = {check.metric for check in result.regressions}
        assert "detection.2023.precision" in tripped
        assert "REGRESSION" in result.render() and "FAILED" in result.render()

    def test_committed_baseline_documents_evasion_degradation(self):
        document = json.loads(BASELINE_PATH.read_text(encoding="utf-8"))
        assert document["format"] == "repro-accuracy-v1"
        honest_recall = document["measured"]["detection"]["2023"]["recall"]
        assert len(document["evasion"]) == 3
        for name, degraded in document["evasion"].items():
            assert degraded["detection"]["2023"]["recall"] < honest_recall, name

    def test_floors_sit_below_their_measured_values(self, scorecard):
        floors = derive_floors(scorecard, slack=0.05)
        measured = scorecard.flat_metrics()
        assert floors  # per-stage floors exist
        for metric, floor in floors.items():
            assert floor <= measured[metric]
            assert measured[metric] - floor <= 0.06  # slack + rounding

    def test_vanished_metric_fails_the_check(self, scorecard):
        result = compare_to_floors(
            {"bogus.metric": 0.5}, scorecard, BASELINE_PATH, "small"
        )
        assert not result.passed
        assert "MISSING" in result.render()

    def test_missing_baseline_raises(self, scorecard, tmp_path):
        with pytest.raises(ValueError, match="no accuracy baseline"):
            check_accuracy(tmp_path / "nope.json", scorecard=scorecard)

    def test_malformed_baseline_raises(self, scorecard, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "something-else"}), encoding="utf-8")
        with pytest.raises(ValueError, match="not an accuracy baseline"):
            check_accuracy(path, scorecard=scorecard)


def _compact_config(parallel: ParallelConfig) -> StudyConfig:
    """The compact full-pipeline study from tests/test_parallel_equivalence."""
    return StudyConfig(
        internet=InternetConfig(seed=5, n_access_isps=25, n_ixps=8),
        n_vantage_points=10,
        seed=5,
        parallel=parallel,
    )


def _compact_scorecard_json(parallel: ParallelConfig) -> str:
    study = run_study(_compact_config(parallel))
    return build_scorecard(study, scenario="compact", peering_regions=2).canonical_json()


class TestDifferentialScorecard:
    """Satellite: scorecards are byte-stable across backends and workers."""

    @pytest.fixture(scope="class")
    def serial_json(self):
        return _compact_scorecard_json(ParallelConfig())

    def test_serial_rerun_is_byte_identical(self, serial_json):
        assert _compact_scorecard_json(ParallelConfig()) == serial_json

    @pytest.mark.parallel
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_process_backend_matches_serial(self, serial_json, workers):
        from repro.parallel import shutdown_pools

        try:
            process = _compact_scorecard_json(ParallelConfig(backend="pool", workers=workers))
        finally:
            shutdown_pools()
        assert process == serial_json
