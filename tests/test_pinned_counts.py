"""Exact, deterministic counts of two pinned workloads.

* The small scenario's counters: the Appendix-A filter funnel (7,250
  offnets considered, 5,579 analyzable), the §3.2 clustering counts (392
  clusters over 101 ISPs), and the scan, detect and campaign sizes
  upstream of them.
* The stage-store counters of the timeline bench's six-quarter walk
  (``benchmarks/test_bench_timeline.py``): the cross-epoch reuse behind
  the Table-1 growth series.

A drift here is a behaviour change, not noise.  Some counts come from
float artifacts (``cluster.clusters_found``,
``filters.ips_dropped_implausible``), so both tests are pinned to the
numpy line the golden export digest was captured under.
"""

from __future__ import annotations

from repro.experiments.scenarios import scenario_by_name
from repro.obs import Telemetry
from repro.store import StageStore
from repro.timeline import build_substrate

from benchmarks.test_bench_timeline import PINNED_TIMELINE, walk_incremental
from tests.conftest import _require_golden_numpy

SMALL_SCENARIO_COUNTERS = {
    "campaign.lossy_isps": 30,
    "campaign.measurements": 290000,
    "campaign.shard_measurements": 290000,
    "campaign.shards_executed": 114,
    "campaign.split_location_targets": 51,
    "campaign.target_ips": 7250,
    "campaign.unresponsive_targets": 297,
    "campaign.vantage_points": 40,
    "cluster.clusters_found": 392,
    "cluster.distance_matrices_computed": 101,
    "cluster.isps_analyzed": 101,
    "cluster.noise_ips": 4034,
    "cluster.optics_points_ordered": 5579,
    "cluster.optics_runs": 101,
    "clustering.shards_executed": 51,
    "deployment.epochs": 2,
    "deployment.servers_2023": 7401,
    "detect.offnets_found": 13515,
    "detect.onnet_or_unattributable": 400,
    "detect.records_matched": 13915,
    "detect.records_scanned": 14998,
    "filters.ips_analyzable": 5579,
    "filters.ips_considered": 7250,
    "filters.ips_dropped_implausible": 30,
    "filters.ips_dropped_low_coverage_isp": 1344,
    "filters.ips_dropped_unresponsive": 297,
    "filters.ips_kept": 6923,
    "filters.isps_analyzable": 101,
    "filters.isps_considered": 131,
    "filters.isps_dropped_low_coverage": 30,
    "scan.hosts_probed": 15272,
    "scan.offnet_nonresponders": 274,
    "scan.offnet_servers": 13789,
    "scan.records": 14998,
    "topology.isps": 175,
    "topology.ixps": 25,
}

TIMELINE_STAGE_COUNTERS = {
    "cluster.hits": 595,
    "cluster.misses": 149,
    "cluster.writes": 149,
    "detect.hits": 1754,
    "detect.misses": 367,
    "detect.writes": 367,
    "epoch.writes": 5,
}


def test_small_scenario_counters():
    _require_golden_numpy()
    with Telemetry.capture() as telemetry:
        scenario_by_name("small").run(telemetry=telemetry)
    counters = telemetry.metrics.counters
    assert {name: counters.get(name) for name in SMALL_SCENARIO_COUNTERS} == SMALL_SCENARIO_COUNTERS


def test_timeline_stage_counters(tmp_path):
    _require_golden_numpy()
    store = StageStore(tmp_path)
    walk_incremental(build_substrate(PINNED_TIMELINE), store)
    assert dict(store.counters) == TIMELINE_STAGE_COUNTERS
