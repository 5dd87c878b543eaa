"""OPTICS ordering (Ankerst, Breunig, Kriegel, Sander — SIGMOD'99).

Works directly on a precomputed distance matrix (the latency-vector
distances), with an unbounded generating radius (eps = inf), which is the
exact setting the colocation study needs: no a-priori number or size of
clusters.  The output is the cluster-ordering with reachability and core
distances, consumed by the xi extraction in :mod:`repro.clustering.xi`.

The ordering loop keeps a lazy-deletion binary heap of
``(reachability, point_id)`` candidates instead of scanning every
unprocessed point for the argmin at each step, and records each point's
reachability at the moment it is popped, so no replay pass is needed.
The original scan-and-replay loop lives on as the test oracle
(``tests/oracles.py``); the property tests prove the two bit-equal on
adversarial inputs: the heap pops in ``(reachability, id)`` order, which
is exactly the scan's "smallest reachability, ties by smallest id" rule,
and every float written comes from the same ``np.maximum(core, row)``
expression.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro._util import require
from repro.obs import Telemetry, ensure_telemetry


@dataclass
class OpticsResult:
    """The OPTICS cluster-ordering of a point set."""

    #: Point indices in visit order.
    ordering: np.ndarray
    #: Reachability of each point *in ordering position order* (inf for the
    #: first point of each connected exploration).
    reachability: np.ndarray
    #: Core distance per point (indexed by point id, not ordering position).
    core_distance: np.ndarray

    @property
    def n_points(self) -> int:
        """Number of points ordered."""
        return int(self.ordering.shape[0])


def optics_order(
    distances: np.ndarray,
    min_pts: int = 2,
    telemetry: Telemetry | None = None,
) -> OpticsResult:
    """Compute the OPTICS ordering of points given a distance matrix.

    ``distances`` is a symmetric ``(n, n)`` matrix; NaN entries are treated
    as "unconnectable" (infinite distance).  ``min_pts`` counts the point
    itself, matching the common (sklearn) convention — the paper's
    ``n_min = 2`` therefore means "a cluster can be as small as two
    addresses", i.e. the core distance is the nearest-neighbour distance.

    With ``telemetry``, the finite reachability values of the ordering feed
    the ``cluster.optics_reachability_ms`` histogram (metrics are recorded
    once per call, after the ordering loop — never inside it).
    """
    distances = np.asarray(distances, dtype=float)
    require(distances.ndim == 2 and distances.shape[0] == distances.shape[1], "need a square matrix")
    require(min_pts >= 2, "min_pts must be >= 2")
    n = distances.shape[0]
    working = np.where(np.isnan(distances), np.inf, distances)

    # Core distance: distance to the (min_pts)-th nearest point counting the
    # point itself; with min_pts=2 that is the nearest other point.
    core = np.full(n, np.inf)
    if n >= min_pts:
        sorted_rows = np.sort(working, axis=1)  # column 0 is the self-distance 0
        core = sorted_rows[:, min_pts - 1]

    ordering, reachability = _order_heap(working, core)

    obs = ensure_telemetry(telemetry)
    if obs.metrics.enabled:
        obs.count("cluster.optics_runs")
        obs.count("cluster.optics_points_ordered", n)
        for value in reachability[np.isfinite(reachability)]:
            obs.observe("cluster.optics_reachability_ms", float(value))
    return OpticsResult(
        ordering=ordering,
        reachability=reachability,
        core_distance=core,
    )


def _order_heap(working: np.ndarray, core: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Heap-frontier ordering loop: returns ``(ordering, reachability)``.

    A lazy-deletion heap holds ``(reachability, point_id)`` candidates;
    entries are pushed only on strict improvement, so reachabilities only
    ever shrink and a popped entry is current iff its value still matches
    ``reach_by_point``.  Popping in ``(reachability, id)`` order reproduces
    the reference's "argmin, first occurrence wins" tie-break exactly, and
    recording ``reach_by_point`` at pop time *is* the
    reachability-at-selection the reference recovers by replaying.
    """
    n = working.shape[0]
    ordering = np.empty(n, dtype=int)
    reachability = np.full(n, np.inf)
    reach_by_point = np.full(n, np.inf)
    processed = np.zeros(n, dtype=bool)
    heap: list[tuple[float, int]] = []
    position = 0

    for start in range(n):
        if processed[start]:
            continue
        # Begin a new exploration at the unprocessed point with smallest id
        # (deterministic); its reachability is still inf at this moment —
        # a restart only happens when every unprocessed point is at inf.
        current = start
        while True:
            processed[current] = True
            ordering[position] = current
            reachability[position] = reach_by_point[current]
            position += 1
            if np.isfinite(core[current]):
                new_reach = np.maximum(core[current], working[current])
                improved = np.flatnonzero(~processed & (new_reach < reach_by_point))
                if improved.size:
                    reach_by_point[improved] = new_reach[improved]
                    for value, index in zip(new_reach[improved].tolist(), improved.tolist()):
                        heapq.heappush(heap, (value, index))
            current = -1
            while heap:
                value, index = heapq.heappop(heap)
                if not processed[index] and value == reach_by_point[index]:
                    current = index
                    break
            if current < 0:
                break  # frontier exhausted: restart from the outer loop
    return ordering, reachability
