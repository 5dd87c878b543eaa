"""OPTICS ordering (Ankerst, Breunig, Kriegel, Sander — SIGMOD'99).

Works directly on a precomputed distance matrix (the latency-vector
distances), with an unbounded generating radius (eps = inf), which is the
exact setting the colocation study needs: no a-priori number or size of
clusters.  The output is the cluster-ordering with reachability and core
distances, consumed by the xi extraction in :mod:`repro.clustering.xi`.

The ordering loop keeps a dense frontier, every unprocessed point's best
reachability so far, so each step is three whole-array operations (new
reachabilities, a minimum into the frontier, an argmin).  It records each
point's reachability when it is selected, so no replay pass is needed.
The original scan-and-replay loop lives on as the test oracle
(``tests/oracles.py``); the property tests prove the two bit-equal on
adversarial inputs: ``argmin`` returns the first of equal minima, which
is exactly the scan's "smallest reachability, ties by smallest id" rule,
and every float written comes from the same ``np.maximum(core, row)``
expression.
"""

from __future__ import annotations

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

    ordering, reachability = _order_frontier(working, core)

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


def _order_frontier(working: np.ndarray, core: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense-frontier ordering loop: returns ``(ordering, reachability)``.

    ``frontier`` holds each unprocessed point's reachability and inf for
    processed points, and the minimum that lowers it skips processed
    points, so they stay at inf.  Its ``argmin`` is the unprocessed point
    with the smallest reachability, ties to the smallest id; when that
    minimum is inf the exploration is exhausted and the next one starts at
    the smallest unprocessed id with reachability inf, as in the reference.
    """
    n = working.shape[0]
    ordering = np.empty(n, dtype=int)
    reachability = np.empty(n)
    frontier = np.full(n, np.inf)
    unprocessed = np.ones(n, dtype=bool)
    cores = core.tolist()
    current = 0
    for position in range(n):
        ordering[position] = current
        reachability[position] = frontier[current]
        frontier[current] = np.inf
        unprocessed[current] = False
        if cores[current] < np.inf:
            new_reach = np.maximum(cores[current], working[current])
            np.minimum(frontier, new_reach, out=frontier, where=unprocessed)
        current = int(frontier.argmin())
        if frontier[current] == np.inf:
            current = int(unprocessed.argmax())
    return ordering, reachability
