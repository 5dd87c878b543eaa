"""Cross-cutting property-based tests (hypothesis) on the core algorithms.

These complement the per-module unit tests with invariants that must hold
for *any* input: clustering invariance under input order and scale, distance-matrix
consistency between the reference and vectorised implementations, xi label
structure, spike-split soundness, and rack placement, probe selection,
the spike split and Table 2's colocated fraction against their references.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.clustering import distance
from repro.clustering.distance import pairwise_trimmed_manhattan, trimmed_manhattan
from repro.clustering.optics import optics_order
from repro.clustering.sites import (
    ClusteringConfig,
    SiteClustering,
    cluster_isp_offnets,
    pair_confusion_counts,
    rand_index,
)
from repro.clustering.xi import XiCluster, extract_xi_clusters, split_clusters_on_spikes, xi_labels
from repro.core.colocation import colocated_fraction
from repro.deployment.placement import _RackPlanner
from repro.mlab.pings import PingConfig, Probes, draw_probes, ping_rtts
from repro.topology.asn import AS, ASRole
from repro.topology.facilities import Facility
from repro.topology.geo import City

from tests.oracles import (
    RackPlannerReference,
    colocated_fraction_reference,
    optics_order_reference,
    pair_confusion_counts_reference,
    pairwise_trimmed_manhattan_reference,
    ping_rtts_reference,
    split_clusters_on_spikes_reference,
    trimmed_sum_reference,
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

    Quantized values force reachability *ties* (the frontier's argmin
    must match the reference argmin's first-occurrence tie-break), NaN
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
    """The dense frontier must be bit-equal to the reference scan — the
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


class TestTrimmedSumEquivalence:
    @given(
        st.integers(2, 200),
        st.integers(2, 24),
        st.floats(0.0, 0.9),
        st.one_of(st.none(), st.integers(1, 300)),
        st.integers(0, 2**31 - 1),
    )
    # One pair, alone in its block; 3 IPs in three one-pair chunks; 10 IPs
    # (45 pairs) in chunks of 4 whose last holds one pair; the shipped
    # chunk size at 200 vantage points (327 pairs) across four chunks.
    @example(n_vps=163, n_ips=2, trim=0.2, chunk_pairs=None, seed=0)
    @example(n_vps=2, n_ips=3, trim=0.0, chunk_pairs=1, seed=1)
    @example(n_vps=40, n_ips=10, trim=0.2, chunk_pairs=4, seed=2)
    @example(n_vps=200, n_ips=50, trim=0.2, chunk_pairs=None, seed=3)
    @settings(max_examples=60, deadline=None)
    def test_nan_free_matrix_is_bit_equal_to_sequential_sums(self, n_vps, n_ips, trim, chunk_pairs, seed):
        """On NaN-free columns every entry is the ascending sequential sum
        of the pair's kept entries over ``kept``, whatever block the pair
        is summed in: the shipped chunk size (``None``) or ``chunk_pairs``
        pairs per block."""
        rng = np.random.default_rng(seed)
        columns = rng.uniform(1.0, 200.0, size=(n_vps, n_ips))
        # Quantised columns: equal latencies, zero and tied discrepancies.
        columns[:, rng.random(n_ips) < 0.3] = np.round(columns[:, :1], 0)
        floats = distance.PAIR_CHUNK_FLOATS if chunk_pairs is None else chunk_pairs * n_vps
        with mock.patch.object(distance, "PAIR_CHUNK_FLOATS", floats):
            fast = pairwise_trimmed_manhattan(columns, trim)
        assert fast.tobytes() == trimmed_sum_reference(columns, trim).tobytes()


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


def _facilities(count: int) -> list[Facility]:
    """``count`` fresh facilities of one operator, without racks."""
    city = City("Hanoi", "VN", 21.0, 105.8, "han")
    operator = AS(64500, "isp", ASRole.ACCESS, "VN", cities=[city])
    return [Facility(index, f"fac{index}", city, operator, city.lat, city.lon) for index in range(count)]


class TestRackPlannerEquivalence:
    @given(
        st.integers(1, 8),
        st.floats(0.0, 1.0),
        st.lists(st.integers(0, 4), max_size=120),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_same_racks_and_stream_as_reference(self, capacity, share, sequence, seed):
        """Keeping each facility's open racks, and dropping a rack once it
        fills, picks the racks the per-call rebuild picks and draws the
        same share coins."""
        fast_rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        fast, reference = _RackPlanner(capacity, share, fast_rng), RackPlannerReference(capacity, share, reference_rng)
        fast_facilities, reference_facilities = _facilities(5), _facilities(5)
        picked = [fast.place(fast_facilities[index]) for index in sequence]
        expected = [reference.place(reference_facilities[index]) for index in sequence]
        assert [(r.facility.facility_id, r.rack_id) for r in picked] == [
            (r.facility.facility_id, r.rack_id) for r in expected
        ]
        assert fast_rng.bit_generator.state == reference_rng.bit_generator.state


class TestPingSelectionEquivalence:
    @given(
        st.integers(1, 60),
        st.integers(2, 10),
        st.data(),
        st.sampled_from(["second_smallest", "min", "median"]),
        st.floats(0.0, 1.0),
        st.floats(0.0, 0.5),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=80, deadline=None)
    @pytest.mark.filterwarnings("ignore:All-NaN slice:RuntimeWarning")
    def test_same_bits_as_sorted_reference(self, n, pings, data, aggregation, loss, nan_rate, seed):
        """Selecting the two smallest answered probes, and counting the
        answers, gives the bits the full sort gives."""
        min_responses = data.draw(st.integers(2, pings))
        config = PingConfig(
            pings_per_target=pings,
            loss_probability=loss,
            min_responses=min_responses,
            aggregation=aggregation,
        )
        rng = np.random.default_rng(seed)
        base = rng.uniform(0.5, 250.0, n)
        base[rng.random(n) < nan_rate] = np.nan
        probes = Probes(*(np.empty((n, pings)) for _ in range(3)))
        draw_probes(rng, *probes)
        copies = Probes(*(array.copy() for array in probes))
        expected = ping_rtts_reference(base, config, copies)
        measured = ping_rtts(base, config, probes)
        assert measured.tobytes() == expected.tobytes()


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


@st.composite
def spiky_plots(draw):
    """Reachability plots with interior infs and a tiny value alphabet
    (tied values, ties with the threshold), and arbitrary clusters on them:
    odd- and even-length interiors, nested and overlapping intervals."""
    n = draw(st.integers(2, 30))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    alphabet = np.append(rng.choice([0.0, 0.5, 1.0, 2.0, 2.5, 5.0, 10.0, 12.5], size=4), np.inf)
    plot = alphabet[rng.integers(0, alphabet.size, size=n)]
    plot[0] = np.inf
    n_clusters = draw(st.integers(0, 4))
    clusters = []
    for _ in range(n_clusters):
        start = draw(st.integers(0, n - 1))
        clusters.append(XiCluster(start, draw(st.integers(start, n - 1))))
    return plot, clusters


class TestSpikeSplitEquivalence:
    @given(spiky_plots(), st.sampled_from([1.5, 2.0, 2.5, 5.0, 9.0]), st.integers(2, 4))
    @example(
        plot_and_clusters=(np.array([np.inf, 1.0, 3.0, 2.0, 10.0, 1.0]), [XiCluster(0, 5)]),
        factor=5.0,
        min_cluster_size=2,
    )
    @settings(max_examples=80, deadline=None)
    def test_same_clusters_as_reference(self, plot_and_clusters, factor, min_cluster_size):
        """The median of the finite interior, taken as np.median takes it,
        splits at the same positions as the numpy-scalar loop."""
        plot, clusters = plot_and_clusters
        assert split_clusters_on_spikes(plot, clusters, factor, min_cluster_size) == (
            split_clusters_on_spikes_reference(plot, clusters, factor, min_cluster_size)
        )


class TestColocatedFractionEquivalence:
    @given(
        st.lists(
            st.tuples(st.integers(-1, 4), st.sampled_from(["Google", "Meta", "Netflix", None])),
            min_size=1,
            max_size=30,
        ),
        st.sampled_from(["Google", "Meta", "Netflix", "Akamai"]),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_same_fraction_as_reference(self, rows, hypergiant, seed):
        """Noise labels, IPs missing from ``hypergiant_of_ip`` (``None``)
        and a hypergiant absent from the clustering (Akamai): one pass
        gives the fraction the per-label sets give."""
        ips = np.random.default_rng(seed).permutation(10 * len(rows))[: len(rows)].tolist()
        clustering = SiteClustering(
            ips=ips, labels=np.array([label for label, _ in rows]), config=ClusteringConfig()
        )
        hypergiant_of_ip = {ip: owner for ip, (_, owner) in zip(ips, rows) if owner is not None}
        expected = colocated_fraction_reference(clustering, hypergiant_of_ip, hypergiant)
        assert colocated_fraction(clustering, hypergiant_of_ip, hypergiant) == expected
