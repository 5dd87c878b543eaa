"""Reference implementations the optimized kernels are tested against.

Each function here is the plain, slow form of a kernel in ``src/repro``:
a per-pair or per-column loop, a full sort where the kernel selects, a
per-call rebuild where it keeps state, or the original O(n²)-per-step
scan.  No pipeline code calls them.  The property tests, the
equivalence tests and ``benchmarks/test_bench_clustering.py`` compare
the shipped kernels with these, and ``tests/test_parallel_equivalence.py`` patches
:func:`order_reference` into :mod:`repro.clustering.optics` to show the
reference OPTICS loop exports the golden bytes end to end.
"""

from __future__ import annotations

import numpy as np

from repro._util import require, require_fraction
from repro.clustering.distance import trimmed_manhattan
from repro.clustering.optics import OpticsResult
from repro.mlab.pings import PingConfig, Probes
from repro.mlab.vantage import VantagePoint
from repro.topology.facilities import Facility, Rack

# -- OPTICS ------------------------------------------------------------------


def optics_order_reference(distances: np.ndarray, min_pts: int = 2) -> OpticsResult:
    """:func:`repro.clustering.optics.optics_order` on the reference loop."""
    distances = np.asarray(distances, dtype=float)
    n = distances.shape[0]
    working = np.where(np.isnan(distances), np.inf, distances)
    core = np.full(n, np.inf)
    if n >= min_pts:
        core = np.sort(working, axis=1)[:, min_pts - 1]
    ordering, reachability = order_reference(working, core)
    return OpticsResult(ordering=ordering, reachability=reachability, core_distance=core)


def order_reference(working: np.ndarray, core: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Drop-in for ``repro.clustering.optics._order_heap``: scan, then replay."""
    ordering = _order_reference(working, core)
    return ordering, _reorder_reachability(working, core, ordering)


def _order_reference(working: np.ndarray, core: np.ndarray) -> np.ndarray:
    """The original O(n²)-per-restart ordering loop (reference)."""
    n = working.shape[0]
    ordering = np.empty(n, dtype=int)
    reachability_by_point = np.full(n, np.inf)
    processed = np.zeros(n, dtype=bool)
    position = 0

    for start in range(n):
        if processed[start]:
            continue
        # Begin a new exploration at the unprocessed point with smallest id
        # (deterministic), reachability undefined (inf).
        current = start
        while current is not None:
            processed[current] = True
            ordering[position] = current
            position += 1
            if np.isfinite(core[current]):
                # Update reachabilities of unprocessed points.
                new_reach = np.maximum(core[current], working[current])
                mask = ~processed
                improved = mask & (new_reach < reachability_by_point)
                reachability_by_point[improved] = new_reach[improved]
            # Next: unprocessed point with smallest reachability (ties by id);
            # if all remaining are inf, fall back to the outer loop.
            remaining = np.flatnonzero(~processed)
            if remaining.size == 0:
                current = None
                break
            best = remaining[np.argmin(reachability_by_point[remaining])]
            if not np.isfinite(reachability_by_point[best]):
                current = None  # disconnected: restart from the outer loop
            else:
                current = int(best)
    return ordering


def _reorder_reachability(working: np.ndarray, core: np.ndarray, ordering: np.ndarray) -> np.ndarray:
    """Replay the ordering to produce reachability per ordering position.

    Replaying (rather than reusing the mutated array from the main loop)
    guarantees the reported reachability is the value each point had *when it
    was selected*, which is what the xi extraction consumes.
    """
    n = ordering.shape[0]
    reachability = np.full(n, np.inf)
    best = np.full(n, np.inf)
    seen = np.zeros(n, dtype=bool)
    for position, point in enumerate(ordering):
        reachability[position] = best[point]
        seen[point] = True
        if np.isfinite(core[point]):
            candidate = np.maximum(core[point], working[point])
            improved = ~seen & (candidate < best)
            best[improved] = candidate[improved]
    return reachability


# -- distances -----------------------------------------------------------------


def pairwise_trimmed_manhattan_reference(
    columns: np.ndarray, trim_fraction: float = 0.2
) -> np.ndarray:
    """Per-pair loop over :func:`trimmed_manhattan` — the reference matrix.

    Quadratic in Python and therefore orders of magnitude slower than
    :func:`repro.clustering.distance.pairwise_trimmed_manhattan` at paper
    scale.

    Note the per-pair mean sums only the *kept* prefix while the vectorised
    path divides a cumulative sum — mathematically equal but not bitwise, so
    equivalence tests compare with a tight tolerance rather than ``==``.
    """
    require_fraction(trim_fraction, "trim_fraction")
    columns = np.asarray(columns, dtype=float)
    require(columns.ndim == 2, "columns must be (n_vps, n_ips)")
    n_ips = columns.shape[1]
    matrix = np.zeros((n_ips, n_ips))
    for i in range(n_ips):
        for j in range(i + 1, n_ips):
            matrix[i, j] = matrix[j, i] = trimmed_manhattan(
                columns[:, i], columns[:, j], trim_fraction
            )
    return matrix


# -- clustering agreement ----------------------------------------------------------


def pair_confusion_counts_reference(
    labels_a: np.ndarray, labels_b: np.ndarray
) -> tuple[int, int, int, int]:
    """The O(n²) pair loop behind :func:`repro.clustering.sites.pair_confusion_counts`."""
    require(labels_a.shape == labels_b.shape, "labelings must align")
    n = labels_a.shape[0]
    both_together = a_only = b_only = both_apart = 0
    for i in range(n):
        for j in range(i + 1, n):
            together_a = labels_a[i] >= 0 and labels_a[i] == labels_a[j]
            together_b = labels_b[i] >= 0 and labels_b[i] == labels_b[j]
            if together_a and together_b:
                both_together += 1
            elif together_a:
                a_only += 1
            elif together_b:
                b_only += 1
            else:
                both_apart += 1
    return both_together, a_only, b_only, both_apart


# -- Appendix-A plausibility filter ------------------------------------------------


def implausible_for_single_location(
    rtts: np.ndarray, vps: list[VantagePoint], floor: np.ndarray, slack_ms: float
) -> bool:
    """Speed-of-light check: can one location explain this RTT vector?

    For a single location x, ``rtt_i + rtt_j >= floor(i, j)`` must hold for
    all vantage pairs (the two probe paths, chained, must cover the
    inter-vantage distance).  We check the strongest constraints: the
    closest vantage point against all others.

    Per-IP reference for ``repro.mlab.matrix._implausible_mask``, which
    batches the same decision over blocks of columns.
    """
    valid = np.flatnonzero(~np.isnan(rtts))
    if valid.size < 2:
        return False
    closest = valid[np.argmin(rtts[valid])]
    sums = rtts[closest] + rtts[valid]
    return bool((sums + slack_ms < floor[closest, valid]).any())


# -- probe aggregation ---------------------------------------------------------------


def ping_rtts_reference(
    base_rtts_ms: np.ndarray,
    config: PingConfig,
    probes: Probes,
    drop_mask: np.ndarray | None = None,
) -> np.ndarray:
    """:func:`repro.mlab.pings.ping_rtts` on pre-drawn ``probes``, through a
    full sort of each target's samples: ranks 0 and 1 of the sorted row,
    and too few answers read off a NaN at rank ``min_responses - 1``."""
    base = np.asarray(base_rtts_ms, dtype=float)
    floor = base[:, None]
    samples = probes.queueing * config.queueing_mean_ms + floor + probes.noise * config.noise_std_ms
    samples = np.maximum(samples, floor)
    samples[probes.loss < config.loss_probability] = np.nan
    samples.sort(axis=1)  # NaNs sort last
    if config.aggregation == "median":
        with np.errstate(all="ignore"):
            measured = np.nanmedian(samples, axis=1)
    else:
        measured = samples[:, 0 if config.aggregation == "min" else 1].copy()
    measured[np.isnan(samples[:, config.min_responses - 1])] = np.nan
    if drop_mask is not None:
        measured[drop_mask] = np.nan
    return measured


# -- rack placement -----------------------------------------------------------------


class RackPlannerReference:
    """``repro.deployment.placement._RackPlanner`` rebuilding a facility's
    open-rack list from the occupancy table on every call."""

    def __init__(self, capacity: int, share_probability: float, rng: np.random.Generator) -> None:
        self._capacity = capacity
        self._share_probability = share_probability
        self._rng = rng
        self._occupancy: dict[Rack, int] = {}
        self._open_racks: dict[Facility, list[Rack]] = {}

    def place(self, facility: Facility) -> Rack:
        open_racks = [r for r in self._open_racks.get(facility, []) if self._occupancy[r] < self._capacity]
        self._open_racks[facility] = open_racks
        if open_racks and self._rng.random() < self._share_probability:
            rack = open_racks[0]
        else:
            rack = facility.new_rack()
            self._occupancy[rack] = 0
            self._open_racks.setdefault(facility, []).append(rack)
        self._occupancy[rack] += 1
        return rack
