"""Xi cluster extraction from an OPTICS reachability plot.

Implements the steep-area method of the OPTICS paper (Ankerst et al. §4.3):
a cluster is a steep-down area followed by a steep-up area, where "steep" is
relative to the parameter xi — a point is xi-steep downward when the next
reachability is at least a factor (1 - xi) lower.  Small xi (0.1) accepts
gentle valleys as clusters (more, larger clusters → the paper's permissive
bound on colocation); large xi (0.9) demands near-cliffs (only unmistakable
clusters → the conservative bound).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro._util import require, require_fraction


@dataclass(frozen=True)
class XiCluster:
    """A cluster as a closed interval of ordering positions."""

    start: int
    end: int

    @property
    def size(self) -> int:
        """Number of points in the cluster."""
        return self.end - self.start + 1


def _extend_region(steep: np.ndarray, mild_opposite: np.ndarray, start: int, min_pts: int) -> int:
    """End index of the maximal steep region beginning at ``start``.

    A region may contain up to ``min_pts`` consecutive non-steep points as
    long as they do not move in the opposite direction.
    """
    n = steep.shape[0]
    non_steep_run = 0
    end = start
    index = start
    while index < n:
        if steep[index]:
            non_steep_run = 0
            end = index
        elif not mild_opposite[index]:
            non_steep_run += 1
            if non_steep_run > min_pts:
                break
        else:
            break
        index += 1
    return end


def _filter_steep_down_areas(
    areas: list[dict], mib: float, xi_complement: float, reachability: np.ndarray
) -> list[dict]:
    """Drop areas invalidated by ``mib``; update the survivors' mib values."""
    if np.isinf(mib):
        return []
    kept = [area for area in areas if mib <= reachability[area["start"]] * xi_complement]
    for area in kept:
        area["mib"] = max(area["mib"], mib)
    return kept


def extract_xi_clusters(
    reachability: np.ndarray,
    xi: float,
    min_pts: int = 2,
    min_cluster_size: int | None = None,
) -> list[XiCluster]:
    """All xi-clusters of a reachability plot, as ordering intervals.

    The returned list may be hierarchical (nested intervals);
    :func:`xi_labels` flattens it to a partition.
    """
    require_fraction(xi, "xi")
    require(0.0 < xi < 1.0, "xi must be strictly between 0 and 1")
    if min_cluster_size is None:
        min_cluster_size = min_pts
    reachability = np.asarray(reachability, dtype=float)
    n = reachability.shape[0]
    if n < min_cluster_size:
        return []
    plot = np.hstack([reachability, [np.inf]])
    xi_complement = 1.0 - xi

    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = plot[:-1] / plot[1:]
        steep_up = ratio <= xi_complement
        steep_down = ratio >= 1.0 / xi_complement
        upward = ratio < 1.0
        downward = ratio > 1.0

    steep_down_areas: list[dict] = []
    clusters: list[XiCluster] = []
    index = 0
    mib = 0.0
    for steep_index in np.flatnonzero(steep_up | steep_down):
        steep_index = int(steep_index)
        if steep_index < index:
            continue
        mib = max(mib, float(np.max(plot[index : steep_index + 1])))
        if steep_down[steep_index]:
            steep_down_areas = _filter_steep_down_areas(steep_down_areas, mib, xi_complement, plot)
            area_start = steep_index
            area_end = _extend_region(steep_down, upward, area_start, min_pts)
            steep_down_areas.append({"start": area_start, "end": area_end, "mib": 0.0})
            index = area_end + 1
            mib = float(plot[index])
        else:
            steep_down_areas = _filter_steep_down_areas(steep_down_areas, mib, xi_complement, plot)
            up_start = steep_index
            up_end = _extend_region(steep_up, downward, up_start, min_pts)
            index = up_end + 1
            mib = float(plot[index])
            found: list[XiCluster] = []
            for area in steep_down_areas:
                cluster_start = area["start"]
                cluster_end = min(up_end, n - 1)
                # SC2: the region between D and U must stay below mib limits.
                if plot[up_end + 1] * xi_complement < area["mib"]:
                    continue
                # Definition 11, condition 4: align the shallower side.
                down_max = plot[area["start"]]
                up_level = plot[up_end + 1]
                if down_max * xi_complement >= up_level:
                    # Down side is deeper: trim its start to the up level.
                    while cluster_start < area["end"] and plot[cluster_start + 1] > up_level:
                        cluster_start += 1
                elif up_level * xi_complement >= down_max:
                    # Up side is higher: trim its end down to the down level.
                    while cluster_end > up_start and plot[cluster_end] < down_max:
                        cluster_end -= 1
                if cluster_end - cluster_start + 1 < min_cluster_size:
                    continue
                if cluster_start > area["end"] or cluster_end < up_start:
                    continue
                found.append(XiCluster(cluster_start, cluster_end))
            # Smaller (later-starting) clusters first, so the flattening in
            # xi_labels keeps the most specific cluster per point.
            found.reverse()
            clusters.extend(found)
    return clusters


def split_clusters_on_spikes(
    reachability: np.ndarray,
    clusters: list[XiCluster],
    spike_factor: float = 5.0,
    min_cluster_size: int = 2,
) -> list[XiCluster]:
    """Split clusters at interior reachability spikes.

    The plain xi extraction can glue a distant straggler onto a dense
    cluster when the plot starts at infinity (there is no steep-down edge
    *inside* the data to cut on).  A position whose reachability exceeds
    ``spike_factor`` times the cluster's median interior reachability is an
    unmistakable boundary: everything from there on is a different site.
    Fragments smaller than ``min_cluster_size`` are dropped (their points
    revert to noise, i.e. "not colocated").
    """
    require(spike_factor > 1.0, "spike_factor must be > 1")
    plot = reachability.tolist()
    result: list[XiCluster] = []
    for cluster in clusters:
        finite = sorted(filter(math.isfinite, plot[cluster.start + 1 : cluster.end + 1]))
        if not finite:
            result.append(cluster)
            continue
        # np.median's arithmetic: the middle value, or the mean of the two.
        middle = len(finite) // 2
        median = finite[middle] if len(finite) % 2 else (finite[middle - 1] + finite[middle]) / 2
        threshold = spike_factor * max(median, 1e-12)
        segment_start = cluster.start
        for position in range(cluster.start + 1, cluster.end + 1):
            value = plot[position]
            if not math.isfinite(value) or value > threshold:
                if position - segment_start >= min_cluster_size:
                    result.append(XiCluster(segment_start, position - 1))
                segment_start = position
        if cluster.end + 1 - segment_start >= min_cluster_size:
            result.append(XiCluster(segment_start, cluster.end))
    return result


def xi_labels(n_points: int, clusters: list[XiCluster]) -> np.ndarray:
    """Flatten (possibly nested) clusters to per-ordering-position labels.

    Position ``i`` gets the label of the first cluster in ``clusters`` whose
    interval it falls in and that does not overlap an already-labelled
    region; unlabelled positions get -1 (noise / not colocated).  Note the
    labels are per *ordering position*; map through ``ordering`` to get
    per-point labels.
    """
    labels = np.full(n_points, -1, dtype=int)
    next_label = 0
    for cluster in clusters:
        segment = labels[cluster.start : cluster.end + 1]
        if (segment != -1).any():
            continue
        labels[cluster.start : cluster.end + 1] = next_label
        next_label += 1
    return labels
