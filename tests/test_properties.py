"""Cross-cutting property-based tests (hypothesis) on the core algorithms.

These complement the per-module unit tests with invariants that must hold
for *any* input: clustering invariance under input order and scale, distance-matrix
consistency between the reference and vectorised implementations, xi label
structure, and spike-split soundness.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.clustering.distance import pairwise_trimmed_manhattan, trimmed_manhattan
from repro.clustering.optics import optics_order
from repro.clustering.sites import (
    ClusteringConfig,
    cluster_isp_offnets,
    pair_confusion_counts,
    rand_index,
)
from repro.clustering.xi import XiCluster, extract_xi_clusters, split_clusters_on_spikes, xi_labels

from tests.oracles import (
    optics_order_reference,
    pair_confusion_counts_reference,
    pairwise_trimmed_manhattan_reference,
)


@st.composite
def latency_columns(draw):
    """Random (n_vps, n_ips) latency columns with optional NaN holes."""
    n_vps = draw(st.integers(3, 20))
    n_ips = draw(st.integers(2, 10))
    seed = draw(st.integers(0, 2**31 - 1))
    nan_rate = draw(st.floats(0.0, 0.2))
    rng = np.random.default_rng(seed)
    columns = rng.uniform(1.0, 200.0, size=(n_vps, n_ips))
    columns[rng.random((n_vps, n_ips)) < nan_rate] = np.nan
    return columns


class TestDistanceEquivalence:
    @given(latency_columns(), st.floats(0.0, 0.45))
    @settings(max_examples=60, deadline=None)
    def test_vectorised_matches_reference(self, columns, trim):
        fast = pairwise_trimmed_manhattan(columns, trim)
        n = columns.shape[1]
        for i in range(n):
            assert fast[i, i] == 0.0
            for j in range(i + 1, n):
                reference = trimmed_manhattan(columns[:, i], columns[:, j], trim)
                if np.isnan(reference):
                    assert np.isnan(fast[i, j])
                else:
                    assert fast[i, j] == pytest.approx(reference, abs=1e-9)
                assert fast[i, j] == fast[j, i] or (np.isnan(fast[i, j]) and np.isnan(fast[j, i]))


@st.composite
def symmetric_distances(draw):
    """Random symmetric distance matrices stressing the OPTICS edge cases.

    Quantized values force reachability *ties* (the heap's lexicographic
    pop must match the reference argmin's first-occurrence tie-break), NaN
    holes exercise unconnectable pairs, and zeroing whole off-diagonal
    blocks creates disconnected components (outer-loop restarts).
    """
    n = draw(st.integers(2, 16))
    seed = draw(st.integers(0, 2**31 - 1))
    n_values = draw(st.integers(1, 6))  # tiny value alphabet => many ties
    nan_rate = draw(st.floats(0.0, 0.5))
    split = draw(st.integers(0, n))  # NaN wall => disconnected components
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.5, 20.0, size=n_values)
    upper = values[rng.integers(0, n_values, size=(n, n))]
    upper[rng.random((n, n)) < nan_rate] = np.nan
    matrix = np.triu(upper, k=1)
    matrix = matrix + matrix.T
    if 0 < split < n:
        matrix[:split, split:] = np.nan
        matrix[split:, :split] = np.nan
    np.fill_diagonal(matrix, 0.0)
    return matrix


class TestOpticsImplementationEquivalence:
    """The heap frontier must be bit-equal to the reference scan — the
    determinism contract the clustering artifacts rest on."""

    @given(symmetric_distances(), st.integers(2, 4))
    @settings(max_examples=80, deadline=None)
    def test_heap_is_bit_equal_to_reference(self, distances, min_pts):
        heap = optics_order(distances, min_pts)
        reference = optics_order_reference(distances, min_pts)
        assert np.array_equal(heap.ordering, reference.ordering)
        # Exact float equality, including the inf exploration starts.
        assert np.array_equal(heap.reachability, reference.reachability)
        assert np.array_equal(heap.core_distance, reference.core_distance)

    @given(latency_columns(), st.floats(0.05, 0.45))
    @settings(max_examples=40, deadline=None)
    def test_heap_is_bit_equal_on_real_distance_matrices(self, columns, trim):
        distances = pairwise_trimmed_manhattan(columns, trim)
        heap = optics_order(distances)
        reference = optics_order_reference(distances)
        assert np.array_equal(heap.ordering, reference.ordering)
        assert np.array_equal(heap.reachability, reference.reachability)


class TestPairConfusionEquivalence:
    @given(st.lists(st.integers(-1, 5), min_size=1, max_size=40), st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_vectorised_matches_loop(self, raw, shuffle_seed):
        a = np.array(raw)
        b = np.random.default_rng(shuffle_seed).permutation(a)
        assert pair_confusion_counts(a, b) == pair_confusion_counts_reference(a, b)


class TestDistanceTriangleEquivalence:
    @given(latency_columns(), st.floats(0.0, 0.45))
    @settings(max_examples=30, deadline=None)
    def test_triangle_blocks_match_reference_loop(self, columns, trim):
        """The mirrored-triangle matrix against the per-pair loop, whole
        matrices at once (the element-wise case lives in
        TestDistanceEquivalence)."""
        fast = pairwise_trimmed_manhattan(columns, trim)
        reference = pairwise_trimmed_manhattan_reference(columns, trim)
        assert np.allclose(fast, reference, atol=1e-9, equal_nan=True)
        assert np.array_equal(fast, fast.T, equal_nan=True)


class TestOpticsInvariances:
    @given(
        st.integers(0, 2**31 - 1),
        st.integers(0, 2**31 - 1),
        st.integers(3, 8),
        st.integers(3, 8),
    )
    # Inside one facility, reachabilities sit at jitter scale, and the
    # ratio-based xi rule can count a rise from 0.015 to 0.034 ms as steep.
    # Where that rise falls in the OPTICS ordering depends on the order the
    # points are visited, so cluster_isp_offnets visits them in IP order:
    # the same (IP, column) set gets the same labels whatever order the
    # caller lists it in.  Each pinned example cuts a facility or drops its
    # tail to noise (Rand 0.67-0.86) when the points are visited in caller
    # order instead.
    @example(data_seed=20455020, perm_seed=1, n_a=4, n_b=3)
    @example(data_seed=1484627254, perm_seed=1300054756, n_a=3, n_b=7)
    @example(data_seed=256805448, perm_seed=2072534084, n_a=3, n_b=7)
    @example(data_seed=1617404021, perm_seed=1025787207, n_a=3, n_b=5)
    @settings(max_examples=40, deadline=None)
    def test_permutation_invariance_on_separated_structure(self, data_seed, perm_seed, n_a, n_b):
        """Shuffling the input points must not change the grouping.

        The property is invariance under input order: the labels are a
        function of the set of (IP, column) pairs.  It is not stability
        under noise, which the accuracy benches measure against ground
        truth.
        """
        rng = np.random.default_rng(data_seed)
        n_vps = 20
        base_a = rng.uniform(10, 100, n_vps)
        base_b = base_a + 25.0
        columns = np.empty((n_vps, n_a + n_b))
        for j in range(n_a):
            columns[:, j] = base_a + rng.normal(0, 0.05, n_vps)
        for j in range(n_b):
            columns[:, n_a + j] = base_b + rng.normal(0, 0.05, n_vps)
        n = n_a + n_b
        configs = [ClusteringConfig(xi=0.5)]
        (base,) = cluster_isp_offnets(columns, list(range(n)), configs)

        permutation = np.random.default_rng(perm_seed).permutation(n)
        (shuffled,) = cluster_isp_offnets(
            columns[:, permutation], [int(p) for p in permutation], configs
        )
        labels_shuffled = np.empty(n, dtype=int)
        for position, point in enumerate(permutation):
            labels_shuffled[point] = shuffled.labels[position]
        assert rand_index(base.labels, labels_shuffled) == 1.0

    @given(latency_columns(), st.floats(0.5, 50.0))
    @settings(max_examples=40, deadline=None)
    def test_scale_invariance(self, columns, scale):
        """xi extraction is ratio-based: scaling all latencies is a no-op."""
        n = columns.shape[1]
        configs = [ClusteringConfig(xi=0.5)]
        (base,) = cluster_isp_offnets(columns, list(range(n)), configs)
        (scaled,) = cluster_isp_offnets(columns * scale, list(range(n)), configs)
        assert rand_index(base.labels, scaled.labels) == pytest.approx(1.0)

    @given(latency_columns())
    @settings(max_examples=40, deadline=None)
    def test_ordering_is_permutation_and_reachability_non_negative(self, columns):
        distances = pairwise_trimmed_manhattan(columns)
        result = optics_order(distances)
        assert sorted(result.ordering.tolist()) == list(range(columns.shape[1]))
        finite = result.reachability[np.isfinite(result.reachability)]
        assert (finite >= 0).all()

    @given(latency_columns())
    @settings(max_examples=40, deadline=None)
    def test_first_position_has_infinite_reachability(self, columns):
        distances = pairwise_trimmed_manhattan(columns)
        result = optics_order(distances)
        assert not np.isfinite(result.reachability[0])


@st.composite
def reachability_plots(draw):
    n = draw(st.integers(2, 25))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    plot = rng.uniform(0.01, 10.0, size=n)
    plot[0] = np.inf
    return plot


class TestXiProperties:
    @given(reachability_plots(), st.floats(0.05, 0.95))
    @settings(max_examples=60, deadline=None)
    def test_clusters_within_bounds(self, plot, xi):
        clusters = extract_xi_clusters(plot, xi)
        for cluster in clusters:
            assert 0 <= cluster.start <= cluster.end < len(plot)
            assert cluster.size >= 2

    @given(reachability_plots(), st.floats(0.05, 0.95))
    @settings(max_examples=60, deadline=None)
    def test_labels_are_contiguous_intervals(self, plot, xi):
        clusters = extract_xi_clusters(plot, xi)
        labels = xi_labels(len(plot), clusters)
        for label in set(labels) - {-1}:
            positions = np.flatnonzero(labels == label)
            assert positions[-1] - positions[0] + 1 == len(positions)

    @given(reachability_plots(), st.floats(1.5, 20.0))
    @settings(max_examples=60, deadline=None)
    def test_spike_split_never_grows_clusters(self, plot, factor):
        clusters = extract_xi_clusters(plot, 0.3)
        split = split_clusters_on_spikes(plot, clusters, spike_factor=factor)
        covered_before = {p for c in clusters for p in range(c.start, c.end + 1)}
        covered_after = {p for c in split for p in range(c.start, c.end + 1)}
        assert covered_after <= covered_before

    def test_spike_split_idempotent_on_clean_plot(self):
        plot = np.array([np.inf, 1.0, 1.0, 1.0, 1.0])
        clusters = [XiCluster(0, 4)]
        once = split_clusters_on_spikes(plot, clusters)
        twice = split_clusters_on_spikes(plot, once)
        assert once == twice == clusters
