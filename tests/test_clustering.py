"""Tests for the trimmed distance, OPTICS, xi extraction, and site driver."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.clustering.distance import (
    PAIR_CHUNK_FLOATS,
    pairwise_trimmed_manhattan,
    trimmed_manhattan,
)
from repro.clustering.optics import optics_order
from repro.clustering.sites import (
    ClusteringConfig,
    cluster_isp_offnets,
    pair_confusion_counts,
    rand_index,
)
from repro.obs import Telemetry, aggregate_stages
from repro.clustering.xi import XiCluster, extract_xi_clusters, xi_labels

from tests.oracles import pair_confusion_counts_reference


def two_blob_columns(n_a=6, n_b=6, separation=10.0, noise=0.05, n_vps=30, seed=0):
    """Latency columns for two well-separated facilities."""
    rng = np.random.default_rng(seed)
    base_a = rng.uniform(10, 100, size=n_vps)
    base_b = base_a + separation
    columns = np.empty((n_vps, n_a + n_b))
    for j in range(n_a):
        columns[:, j] = base_a + rng.normal(0, noise, n_vps)
    for j in range(n_b):
        columns[:, n_a + j] = base_b + rng.normal(0, noise, n_vps)
    return columns


class TestTrimmedManhattan:
    def test_identical_vectors_zero(self):
        a = np.arange(10.0)
        assert trimmed_manhattan(a, a) == 0.0

    def test_constant_offset(self):
        a = np.zeros(10)
        b = np.full(10, 3.0)
        assert trimmed_manhattan(a, b, trim_fraction=0.0) == pytest.approx(3.0)

    def test_trimming_drops_outliers(self):
        a = np.zeros(10)
        b = np.zeros(10)
        b[0] = 100.0  # one detoured vantage point
        assert trimmed_manhattan(a, b, trim_fraction=0.2) == 0.0
        assert trimmed_manhattan(a, b, trim_fraction=0.0) == pytest.approx(10.0)

    def test_nan_entries_skipped(self):
        a = np.array([1.0, np.nan, 3.0, 4.0])
        b = np.array([1.0, 2.0, np.nan, 5.0])
        assert trimmed_manhattan(a, b, trim_fraction=0.0) == pytest.approx(0.5)

    def test_too_few_common_vps_is_nan(self):
        a = np.array([1.0, np.nan])
        b = np.array([np.nan, 2.0])
        assert np.isnan(trimmed_manhattan(a, b))

    def test_pairwise_symmetric_zero_diagonal(self):
        columns = two_blob_columns()
        matrix = pairwise_trimmed_manhattan(columns)
        np.testing.assert_array_equal(matrix, matrix.T)
        np.testing.assert_array_equal(np.diag(matrix), np.zeros(columns.shape[1]))

    @given(
        st.integers(0, 2**31 - 1),
        st.floats(0.0, 0.4),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_metric_like(self, seed, trim):
        rng = np.random.default_rng(seed)
        a, b = rng.uniform(0, 50, 20), rng.uniform(0, 50, 20)
        d_ab = trimmed_manhattan(a, b, trim)
        assert d_ab >= 0
        assert d_ab == pytest.approx(trimmed_manhattan(b, a, trim))

    @pytest.mark.parametrize("trim", [1.0, 1.5, -0.1, float("nan")])
    @pytest.mark.parametrize(
        "build",
        [
            lambda trim: ClusteringConfig(trim_fraction=trim),
            lambda trim: trimmed_manhattan(np.zeros(5), np.arange(5.0), trim),
            lambda trim: pairwise_trimmed_manhattan(np.zeros((5, 3)), trim),
        ],
        ids=["ClusteringConfig", "trimmed_manhattan", "pairwise_trimmed_manhattan"],
    )
    def test_trim_fraction_must_keep_a_vantage_point(self, build, trim):
        """At trim_fraction 1 no vantage point is kept, so there is no mean:
        every entry point rejects it, naming the value."""
        message = rf"trim_fraction must be in \[0, 1\), got {re.escape(repr(trim))}"
        with pytest.raises(ValueError, match=message):
            build(trim)

    @pytest.mark.parametrize("holes", [False, True])
    @pytest.mark.parametrize("n_vps", [163, 6])
    def test_entry_does_not_depend_on_chunking(self, n_vps, holes):
        """An entry has the same bits whether its pair shares a chunk with
        thousands of others or is the only pair; the mirror is exact."""
        chunk = PAIR_CHUNK_FLOATS // n_vps
        n_ips = next(n for n in range(2, 10_000) if n * (n - 1) // 2 > 3 * chunk)
        rng = np.random.default_rng(n_vps)
        columns = rng.uniform(5.0, 150.0, size=(n_vps, n_ips))
        if holes:
            columns[rng.random((n_vps, n_ips)) < 0.1] = np.nan
            columns[1:, 0] = np.nan  # a column no pair can measure
        matrix = pairwise_trimmed_manhattan(columns)
        assert matrix.tobytes() == matrix.T.copy().tobytes()
        rows, cols = np.triu_indices(n_ips, k=1)
        edges = [p for c in range(1, 4) for p in (c * chunk - 1, c * chunk)]
        picks = edges + [0, rows.size - 1] + rng.integers(0, rows.size, size=40).tolist()
        for pair in picks:
            i, j = int(rows[pair]), int(cols[pair])
            alone = pairwise_trimmed_manhattan(columns[:, [i, j]])[0, 1]
            assert np.array(matrix[i, j]).tobytes() == np.array(alone).tobytes(), (i, j)
        assert np.isnan(matrix[0, 1:]).all() == holes


class TestOptics:
    def test_ordering_is_permutation(self):
        columns = two_blob_columns()
        distances = pairwise_trimmed_manhattan(columns)
        result = optics_order(distances)
        assert sorted(result.ordering.tolist()) == list(range(columns.shape[1]))

    def test_core_distance_min_pts_2_is_nearest_neighbor(self):
        distances = np.array(
            [
                [0.0, 1.0, 5.0],
                [1.0, 0.0, 4.0],
                [5.0, 4.0, 0.0],
            ]
        )
        result = optics_order(distances, min_pts=2)
        np.testing.assert_allclose(result.core_distance, [1.0, 1.0, 4.0])

    def test_two_blobs_stay_contiguous_in_ordering(self):
        columns = two_blob_columns(n_a=5, n_b=5)
        distances = pairwise_trimmed_manhattan(columns)
        result = optics_order(distances)
        groups = [0 if p < 5 else 1 for p in result.ordering]
        # One switch between groups: ordering visits one blob then the other.
        switches = sum(1 for a, b in zip(groups, groups[1:]) if a != b)
        assert switches == 1

    def test_reachability_jump_between_blobs(self):
        columns = two_blob_columns(separation=20.0)
        distances = pairwise_trimmed_manhattan(columns)
        result = optics_order(distances)
        finite = result.reachability[np.isfinite(result.reachability)]
        assert finite.max() > 10 * np.median(finite)

    def test_rejects_min_pts_1(self):
        with pytest.raises(ValueError):
            optics_order(np.zeros((3, 3)), min_pts=1)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            optics_order(np.zeros((2, 3)))

    def test_nan_treated_as_disconnected(self):
        distances = np.array(
            [
                [0.0, 0.1, np.nan],
                [0.1, 0.0, np.nan],
                [np.nan, np.nan, 0.0],
            ]
        )
        result = optics_order(distances)
        # Point 2 is unreachable: its reachability stays inf at its position.
        position = list(result.ordering).index(2)
        assert not np.isfinite(result.reachability[position])


class TestXiExtraction:
    def test_single_valley(self):
        # High - low plateau - high: one cluster over the valley.
        reachability = np.array([np.inf, 10.0, 0.1, 0.1, 0.1, 0.1, 10.0, 10.0])
        clusters = extract_xi_clusters(reachability, xi=0.5)
        assert clusters
        widest = max(clusters, key=lambda c: c.size)
        assert widest.start <= 2 and widest.end >= 5

    def test_flat_plot_is_one_cluster(self):
        # All points mutually close: one facility, one cluster.
        reachability = np.array([np.inf] + [1.0] * 10)
        clusters = extract_xi_clusters(reachability, xi=0.5)
        labels = xi_labels(len(reachability), clusters)
        assert (labels == labels[0]).all() and labels[0] >= 0

    def test_two_valleys_two_clusters(self):
        reachability = np.array(
            [np.inf, 0.1, 0.1, 0.1, 20.0, 0.1, 0.1, 0.1]
        )
        clusters = extract_xi_clusters(reachability, xi=0.5)
        labels = xi_labels(len(reachability), clusters)
        # Both halves get (different) labels.
        assert labels[1] >= 0 and labels[6] >= 0
        assert labels[1] != labels[6]

    def test_higher_xi_needs_steeper_cliffs(self):
        # A moderate (2.5x) interior bump splits the set at xi=0.4 but is
        # invisible at xi=0.9 (which demands 10x cliffs).
        reachability = np.array([np.inf, 1.0, 1.0, 1.0, 2.5, 1.0, 1.0, 1.0])

        def n_clusters(xi):
            clusters = extract_xi_clusters(reachability, xi=xi)
            labels = xi_labels(len(reachability), clusters)
            return len({label for label in labels if label >= 0})

        assert n_clusters(0.4) > n_clusters(0.9) == 1

    def test_min_cluster_size_respected(self):
        reachability = np.array([np.inf, 10.0, 0.1, 10.0, 10.0])
        clusters = extract_xi_clusters(reachability, xi=0.5, min_cluster_size=3)
        assert all(c.size >= 3 for c in clusters)

    def test_xi_validation(self):
        with pytest.raises(ValueError):
            extract_xi_clusters(np.array([1.0]), xi=0.0)

    def test_labels_nested_clusters_keep_first(self):
        clusters = [XiCluster(2, 4), XiCluster(0, 9)]
        labels = xi_labels(10, clusters)
        assert labels[3] == 0
        assert labels[0] == -1  # outer cluster overlaps, skipped


class TestSiteDriver:
    def test_two_facilities_recovered(self):
        columns = two_blob_columns(n_a=6, n_b=6, separation=10.0)
        ips = list(range(12))
        (clustering,) = cluster_isp_offnets(columns, ips, [ClusteringConfig(xi=0.5)])
        truth = np.array([0] * 6 + [1] * 6)
        assert rand_index(clustering.labels, truth) > 0.9

    def test_single_ip_is_noise(self):
        (clustering,) = cluster_isp_offnets(np.zeros((5, 1)), [99], [ClusteringConfig()])
        assert clustering.noise_ips == [99]
        assert clustering.site_count == 1

    def test_empty(self):
        (clustering,) = cluster_isp_offnets(np.zeros((5, 0)), [], [ClusteringConfig()])
        assert clustering.clusters == []
        assert clustering.site_count == 0

    def test_site_count_counts_noise_as_sites(self):
        columns = two_blob_columns(n_a=6, n_b=1, separation=50.0)
        (clustering,) = cluster_isp_offnets(columns, list(range(7)), [ClusteringConfig(xi=0.5)])
        # The lone far IP cannot form a cluster of 2: it is its own site.
        assert clustering.site_count >= 2

    def test_label_of(self):
        columns = two_blob_columns(n_a=4, n_b=4)
        (clustering,) = cluster_isp_offnets(columns, list(range(8)), [ClusteringConfig(xi=0.5)])
        for ip in range(8):
            assert clustering.label_of(ip) == clustering.labels[ip]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ClusteringConfig(xi=1.0)
        with pytest.raises(ValueError):
            ClusteringConfig(min_pts=1)

    def test_misaligned_inputs_rejected(self):
        with pytest.raises(ValueError):
            cluster_isp_offnets(np.zeros((5, 3)), [1, 2], [ClusteringConfig()])

    def test_label_of_unknown_ip_names_the_ip(self):
        columns = two_blob_columns(n_a=4, n_b=4)
        (clustering,) = cluster_isp_offnets(columns, list(range(8)), [ClusteringConfig(xi=0.5)])
        with pytest.raises(KeyError, match="IP 404 is not a target"):
            clustering.label_of(404)


class TestClusteringAtEveryXi:
    XIS = (0.1, 0.5, 0.9)

    def test_one_call_equals_one_call_per_xi(self):
        """Clustering at every xi in one call changes only *when* the
        shared work happens, never the labels (IPs listed out of order)."""
        columns = two_blob_columns(n_a=6, n_b=6)
        ips = [int(ip) for ip in np.random.default_rng(0).permutation(12)]
        configs = [ClusteringConfig(xi=xi) for xi in self.XIS]
        together = cluster_isp_offnets(columns, ips, configs)
        assert [clustering.config for clustering in together] == configs
        for config, clustering in zip(configs, together):
            (alone,) = cluster_isp_offnets(columns, ips, [config])
            assert np.array_equal(clustering.labels, alone.labels)

    def test_distances_and_ordering_computed_once(self):
        columns = two_blob_columns(n_a=5, n_b=5)
        telemetry = Telemetry.capture()
        cluster_isp_offnets(
            columns, list(range(10)), [ClusteringConfig(xi=xi) for xi in self.XIS], telemetry=telemetry
        )
        metrics = telemetry.metrics
        assert metrics.counter("cluster.distance_matrices_computed") == 1
        assert metrics.counter("cluster.optics_runs") == 1
        stages = aggregate_stages(telemetry)
        assert stages["cluster.distance"]["count"] == stages["cluster.optics"]["count"] == 1
        assert stages["cluster.xi"]["count"] == len(self.XIS)

    @pytest.mark.parametrize("other", [{"trim_fraction": 0.4}, {"min_pts": 3}, {"spike_factor": 9.0}])
    def test_configs_may_differ_only_in_xi(self, other):
        configs = [ClusteringConfig(xi=0.1), ClusteringConfig(xi=0.9, **other)]
        with pytest.raises(ValueError, match="differ only in xi"):
            cluster_isp_offnets(two_blob_columns(n_a=4, n_b=4), list(range(8)), configs)

    def test_needs_a_config(self):
        with pytest.raises(ValueError, match="at least one"):
            cluster_isp_offnets(two_blob_columns(n_a=4, n_b=4), list(range(8)), [])


class TestPairConfusionVectorized:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_reference_on_random_labelings(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        a = rng.integers(-1, 4, size=n)
        b = rng.integers(-1, 4, size=n)
        assert pair_confusion_counts(a, b) == pair_confusion_counts_reference(a, b)

    def test_all_noise(self):
        labels = np.array([-1, -1, -1])
        assert pair_confusion_counts(labels, labels) == pair_confusion_counts_reference(
            labels, labels
        )

    def test_counts_cover_every_pair(self):
        rng = np.random.default_rng(7)
        a = rng.integers(-1, 3, size=25)
        b = rng.integers(-1, 3, size=25)
        assert sum(pair_confusion_counts(a, b)) == 25 * 24 // 2


class TestRandIndex:
    def test_identical_labelings(self):
        labels = np.array([0, 0, 1, 1])
        assert rand_index(labels, labels) == 1.0

    def test_disjoint_labelings(self):
        a = np.array([0, 0, 0, 0])
        b = np.array([0, 1, 2, 3])
        assert rand_index(a, b) == 0.0

    def test_noise_points_are_singletons(self):
        a = np.array([-1, -1])
        b = np.array([0, 0])
        together, a_only, b_only, apart = pair_confusion_counts(a, b)
        assert (together, a_only, b_only, apart) == (0, 0, 1, 0)

    @given(st.lists(st.integers(-1, 3), min_size=2, max_size=12))
    @settings(max_examples=30, deadline=None)
    def test_property_bounded_and_reflexive(self, raw):
        labels = np.array(raw)
        assert rand_index(labels, labels) == 1.0
        other = np.roll(labels, 1)
        assert 0.0 <= rand_index(labels, other) <= 1.0
