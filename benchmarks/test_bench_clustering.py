"""Clustering hot-path bench: one call per ISP, dense-frontier OPTICS, same bytes.

One large synthetic ISP (scaled past paper scale: 500+ offnet IPs measured
from 163 vantage points) clustered at both xi settings, three ways:

* **reference** — the unoptimized oracles from ``tests/oracles.py``: the
  per-pair ``trimmed_manhattan`` loop and the O(n²)-per-step reference
  OPTICS scan, recomputed for every xi.  This is the differential-harness
  baseline the acceptance criterion's >= 3x speedup is measured against.
* **unshared** — the optimized kernels (triangle-mirrored distance matrix,
  dense-frontier OPTICS), one ``cluster_isp_offnets`` call per xi: every xi
  recomputes both.
* **optimized** — the shipped pipeline path: one ``cluster_isp_offnets``
  call at every xi, which computes the distance matrix and the OPTICS
  ordering once.

All three must produce identical labels; the snapshot lands in
``BENCH_clustering.json`` with the host's ``cpu_count``.

The workload's columns have 3 % NaN holes, so it times the distance
kernel's NaN branch (a ``cumsum`` over each chunk's kept prefix), not the
NaN-free branch the study's analyzable ISPs take; that branch is timed by
``bench/run.py``'s ``clustering.pairwise_trimmed_manhattan`` probe.

Smoke mode (``REPRO_BENCH_SMOKE=1``, used by the CI ``bench-smoke`` job)
shrinks the workload, skips the snapshot write, and — the point of the job —
fails if the three variants' labels diverge or the shipped call computes
the ISP's distance matrix or OPTICS ordering more than once.

Run with ``PYTHONPATH=src python -m pytest benchmarks/test_bench_clustering.py -s``.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro._util import format_table
from repro.clustering.sites import ClusteringConfig, cluster_isp_offnets
from repro.clustering.xi import extract_xi_clusters, split_clusters_on_spikes, xi_labels
from repro.obs import Telemetry
from repro.parallel import usable_cpu_count

from benchmarks.conftest import emit
from tests.oracles import optics_order_reference, pairwise_trimmed_manhattan_reference

SNAPSHOT_PATH = Path(__file__).parent / "BENCH_clustering.json"

#: Acceptance bar: the shipped path must beat the reference implementations
#: by at least this factor at the scaled workload.
MIN_SPEEDUP = 3.0

XIS = (0.1, 0.9)


def _smoke() -> bool:
    return bool(os.environ.get("REPRO_BENCH_SMOKE"))


def _large_isp_columns(n_ips: int, n_vps: int = 163, n_sites: int = 25, seed: int = 11):
    """Latency columns for one ISP hosting ``n_ips`` offnets in ``n_sites``
    facilities — same generative shape as the study's latency model (shared
    per-site base RTT plus small per-measurement noise, a few NaN holes)."""
    rng = np.random.default_rng(seed)
    site_base = rng.uniform(10.0, 150.0, size=(n_vps, n_sites))
    site_of = rng.integers(0, n_sites, size=n_ips)
    columns = site_base[:, site_of] + rng.normal(0.0, 0.05, size=(n_vps, n_ips))
    columns[rng.random((n_vps, n_ips)) < 0.03] = np.nan
    return columns, list(range(n_ips))


def _reference_labels(columns: np.ndarray, config: ClusteringConfig) -> np.ndarray:
    """The clustering tail driven by the two kept reference kernels."""
    n = columns.shape[1]
    distances = pairwise_trimmed_manhattan_reference(columns, config.trim_fraction)
    result = optics_order_reference(distances, config.min_pts)
    clusters = extract_xi_clusters(result.reachability, config.xi, config.min_pts)
    clusters = split_clusters_on_spikes(
        result.reachability, clusters, config.spike_factor, config.min_pts
    )
    labels = np.full(n, -1, dtype=int)
    labels[result.ordering] = xi_labels(n, clusters)
    return labels


def _time(callable_, repeats: int) -> tuple[float, object]:
    best, value = float("inf"), None
    for _ in range(repeats):
        started = time.perf_counter()
        value = callable_()
        best = min(best, time.perf_counter() - started)
    return best, value


def test_bench_clustering_snapshot():
    smoke = _smoke()
    n_ips = 80 if smoke else 520
    repeats = 1 if smoke else 3
    columns, ips = _large_isp_columns(n_ips)

    def reference_pass():
        return [_reference_labels(columns, ClusteringConfig(xi=xi)) for xi in XIS]

    configs = [ClusteringConfig(xi=xi) for xi in XIS]

    def unshared_pass():
        return [cluster_isp_offnets(columns, ips, [config])[0].labels for config in configs]

    def optimized_pass():
        return [clustering.labels for clustering in cluster_isp_offnets(columns, ips, configs)]

    optimized_s, optimized = _time(optimized_pass, repeats)
    unshared_s, unshared = _time(unshared_pass, repeats)
    reference_s, reference = _time(reference_pass, 1)

    # Identical artifacts: every variant assigns every IP the same site.
    for xi, ref, fast, shipped in zip(XIS, reference, unshared, optimized):
        assert np.array_equal(ref, fast), f"unshared labels diverged at xi={xi}"
        assert np.array_equal(ref, shipped), f"shipped labels diverged at xi={xi}"

    # Smoke guard: one call computes the ISP's distance matrix and OPTICS
    # ordering once, whatever the number of xi settings.
    telemetry = Telemetry.capture()
    cluster_isp_offnets(columns, ips, configs, telemetry=telemetry)
    assert telemetry.metrics.counter("cluster.distance_matrices_computed") == 1
    assert telemetry.metrics.counter("cluster.optics_runs") == 1

    speedup_vs_reference = reference_s / optimized_s
    speedup_vs_unshared = unshared_s / optimized_s
    rows = [
        ["reference (per-pair loop + scan OPTICS)", round(reference_s, 3), "baseline"],
        ["unshared (fast kernels, one call per xi)", round(unshared_s, 3), f"{reference_s / unshared_s:.1f}x"],
        ["optimized (one call at every xi, shipped path)", round(optimized_s, 3), f"{speedup_vs_reference:.1f}x"],
    ]
    emit(
        f"clustering hot path ({n_ips} IPs x 163 VPs, xis={XIS}, best of {repeats})",
        format_table(["variant", "wall s", "vs reference"], rows),
    )

    if smoke:
        return  # tiny workload: timings are noise, snapshot stays untouched

    assert speedup_vs_reference >= MIN_SPEEDUP, (
        f"optimized clustering is only {speedup_vs_reference:.2f}x the reference "
        f"(need >= {MIN_SPEEDUP}x at {n_ips} IPs)"
    )
    snapshot = {
        "bench": "clustering-hot-path",
        "format": "repro-bench-v1",
        "cpu_count": usable_cpu_count(),
        "workload": {"n_ips": n_ips, "n_vps": 163, "n_sites": 25, "xis": list(XIS)},
        "identical_labels": True,
        "min_speedup": MIN_SPEEDUP,
        "runs": {
            "reference_s": round(reference_s, 3),
            "unshared_s": round(unshared_s, 3),
            "optimized_s": round(optimized_s, 3),
        },
        "speedup_vs_reference": round(speedup_vs_reference, 2),
        "speedup_vs_unshared": round(speedup_vs_unshared, 2),
    }
    SNAPSHOT_PATH.write_text(json.dumps(snapshot, indent=2) + "\n")
