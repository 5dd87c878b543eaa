"""Per-ISP site clustering: the §3.2 / Appendix-A driver.

Given the filtered latency matrix of one ISP's offnet IPs, compute the
trimmed-Manhattan distance matrix, run OPTICS, extract xi clusters, and
return the site assignment.  IPs not assigned to any cluster are treated as
"not colocated" (Appendix A: "OPTICS will not assign an IP address to a
cluster if no address is within a short distance, in which case we consider
the offnet as not colocated").

The study clusters every ISP at *several* xi settings, but neither the
distance matrix (a function of the columns and ``trim_fraction``) nor the
OPTICS ordering (additionally of ``min_pts``) depends on xi, so one
:func:`cluster_isp_offnets` call takes all of them and computes both once.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from repro._util import require
from repro.clustering.distance import pairwise_trimmed_manhattan, require_trim_fraction
from repro.clustering.optics import optics_order
from repro.clustering.xi import extract_xi_clusters, split_clusters_on_spikes, xi_labels
from repro.obs import Telemetry, ensure_telemetry


@dataclass(frozen=True)
class ClusteringConfig:
    """Parameters of the per-ISP clustering (paper's Appendix A)."""

    xi: float = 0.1
    min_pts: int = 2
    trim_fraction: float = 0.2
    #: Interior reachability spikes beyond this multiple of the cluster's
    #: median split the cluster (see
    #: :func:`repro.clustering.xi.split_clusters_on_spikes`).
    spike_factor: float = 5.0

    def __post_init__(self) -> None:
        require(0.0 < self.xi < 1.0, "xi must be in (0, 1)")
        require(self.min_pts >= 2, "min_pts must be >= 2")
        require_trim_fraction(self.trim_fraction)
        require(self.spike_factor > 1.0, "spike_factor must be > 1")


@dataclass
class SiteClustering:
    """The inferred sites of one ISP's offnets."""

    ips: list[int]
    #: Cluster label per IP, aligned with ``ips``; -1 = not colocated.
    labels: np.ndarray
    config: ClusteringConfig
    _clusters: dict[int, list[int]] = field(init=False, repr=False)
    _position_of: dict[int, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        require(self.labels.shape == (len(self.ips),), "labels must align with ips")
        self._clusters = {}
        self._position_of = {}
        for position, (ip, label) in enumerate(zip(self.ips, self.labels.tolist())):
            # setdefault keeps the first occurrence, like list.index did.
            self._position_of.setdefault(ip, position)
            if label >= 0:
                self._clusters.setdefault(label, []).append(ip)

    @property
    def clusters(self) -> list[list[int]]:
        """Clustered IPs, one (sorted) list per cluster, by label order."""
        return [sorted(self._clusters[label]) for label in sorted(self._clusters)]

    @property
    def noise_ips(self) -> list[int]:
        """IPs OPTICS did not place in any cluster, sorted."""
        return sorted(ip for ip, label in zip(self.ips, self.labels.tolist()) if label < 0)

    def label_of(self, ip: int) -> int:
        """Cluster label of ``ip`` (-1 if unclustered).

        Raises :class:`KeyError` naming the IP when it was not a clustering
        target.
        """
        try:
            position = self._position_of[ip]
        except KeyError:
            raise KeyError(
                f"IP {ip} is not a target of this clustering "
                f"({len(self.ips)} clustered IPs; see SiteClustering.ips)"
            ) from None
        return int(self.labels[position])

    @property
    def site_count(self) -> int:
        """Number of inferred sites: clusters plus unclustered singletons.

        §4.1 counts an ISP's offnet "sites" for one hypergiant this way; an
        unclustered IP is its own site.
        """
        return len(self._clusters) + len(self.noise_ips)


def cluster_isp_offnets(
    columns: np.ndarray,
    ips: list[int],
    configs: Sequence[ClusteringConfig],
    telemetry: Telemetry | None = None,
) -> list[SiteClustering]:
    """Cluster one ISP's offnet IPs from their latency columns, per config.

    ``columns`` has shape ``(n_vps, len(ips))``.  Returns one
    :class:`SiteClustering` per entry of ``configs``, in order.  The
    configs may differ only in ``xi``: the distance matrix and the OPTICS
    ordering are computed once and only the xi extraction runs per config.

    The points are clustered in IP order and the labels come back aligned
    with the caller's ``ips``, so the result is a function of the set of
    (IP, column) pairs: listing them in another order changes no label.
    That is invariance under input order, not stability under noise — on
    jitter-scale reachabilities the ratio-based xi rule still decides
    where a facility ends.  A single IP is one *unclustered* IP (OPTICS
    semantics with min_pts = 2).
    """
    configs = list(configs)
    require(bool(configs), "need at least one clustering config")
    first = configs[0]
    require(
        all(replace(config, xi=first.xi) == first for config in configs),
        "clustering configs may differ only in xi",
    )
    require(columns.shape[1] == len(ips), "columns must align with ips")
    obs = ensure_telemetry(telemetry)
    n = len(ips)
    if n < 2:
        if n == 1:
            obs.count("cluster.singleton_isps")
        return [
            SiteClustering(ips=list(ips), labels=np.full(n, -1, dtype=int), config=config)
            for config in configs
        ]
    order = np.argsort(np.asarray(ips), kind="stable")
    with obs.span("cluster.distance"):
        distances = pairwise_trimmed_manhattan(columns[:, order], first.trim_fraction)
    obs.count("cluster.distance_matrices_computed")
    with obs.span("cluster.optics"):
        result = optics_order(distances, first.min_pts, telemetry=telemetry)
    # Caller position of the point at each OPTICS position.
    positions = order[result.ordering]
    clusterings = []
    for config in configs:
        with obs.span("cluster.xi"):
            clusters = extract_xi_clusters(result.reachability, config.xi, config.min_pts)
            clusters = split_clusters_on_spikes(
                result.reachability, clusters, config.spike_factor, config.min_pts
            )
            labels = np.full(n, -1, dtype=int)
            labels[positions] = xi_labels(n, clusters)
        clustering = SiteClustering(ips=list(ips), labels=labels, config=config)
        if obs.metrics.enabled:
            obs.count("cluster.clusters_found", len(clustering.clusters))
            obs.count("cluster.noise_ips", len(clustering.noise_ips))
            obs.observe("cluster.sites_per_isp", clustering.site_count)
        clusterings.append(clustering)
    return clusterings


def _pairs_within(counts: np.ndarray) -> int:
    """Sum of C(count, 2) over a vector of group sizes."""
    counts = counts.astype(np.int64)
    return int((counts * (counts - 1) // 2).sum())


def pair_confusion_counts(
    labels_a: np.ndarray, labels_b: np.ndarray
) -> tuple[int, int, int, int]:
    """Pairwise agreement counts between two labelings (for Rand index).

    Noise labels (-1) are treated as singleton clusters unique to each point.
    Returns ``(both_together, a_only, b_only, both_apart)`` over all pairs.

    Counting math instead of the O(n²) pair loop (kept as the test oracle
    in ``tests/oracles.py``): "together in a" pairs are ΣC(size, 2) over
    a's non-noise clusters, "together in both" the same sum over the joint
    (a, b) label intersection cells, and the remaining buckets follow by
    inclusion-exclusion over C(n, 2).
    """
    require(labels_a.shape == labels_b.shape, "labelings must align")
    labels_a = np.asarray(labels_a)
    labels_b = np.asarray(labels_b)
    n = int(labels_a.shape[0])
    total = n * (n - 1) // 2

    clustered_a = labels_a >= 0
    clustered_b = labels_b >= 0
    together_a = _pairs_within(np.unique(labels_a[clustered_a], return_counts=True)[1])
    together_b = _pairs_within(np.unique(labels_b[clustered_b], return_counts=True)[1])

    both_clustered = clustered_a & clustered_b
    # Dense joint codes: a pair is together in both labelings iff both
    # points share the same (label_a, label_b) cell and neither is noise.
    codes_a = np.unique(labels_a[both_clustered], return_inverse=True)[1]
    codes_b = np.unique(labels_b[both_clustered], return_inverse=True)[1]
    joint = codes_a * (codes_b.max() + 1 if codes_b.size else 1) + codes_b
    both_together = _pairs_within(np.unique(joint, return_counts=True)[1])

    a_only = together_a - both_together
    b_only = together_b - both_together
    both_apart = total - together_a - together_b + both_together
    return both_together, a_only, b_only, both_apart


def rand_index(labels_a: np.ndarray, labels_b: np.ndarray) -> float:
    """Rand index in [0, 1] between two labelings (1 = identical grouping)."""
    together, a_only, b_only, apart = pair_confusion_counts(labels_a, labels_b)
    total = together + a_only + b_only + apart
    return (together + apart) / total if total else 1.0
