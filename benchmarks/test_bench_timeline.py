"""Timeline bench: incremental recomputation vs full rerun.

Runs the pinned timeline workload (:data:`PINNED_TIMELINE`, a six-quarter
monotone timeline on a compact Internet) three ways: a full uncached
series, an incremental series walked with a warm stage store
(:func:`walk_incremental`), and the newest epoch alone, cold and against
the warm store.  The test cross-checks that the cached and uncached legs
produce **byte-identical** rows, asserts the newest epoch's incremental
computation beats its cold computation by :data:`TARGET_SPEEDUP`, and only
then writes the timings plus per-stage cache counters to
``BENCH_timeline.json``.  The exact counter values are pinned in tier-1
(``tests/test_pinned_counts.py``), which walks the same workload.

Run with ``PYTHONPATH=src python -m pytest benchmarks/test_bench_timeline.py -s``.
"""

from __future__ import annotations

import json
import tempfile
import time
from pathlib import Path

import pytest

from repro._util import format_table
from repro.parallel import usable_cpu_count
from repro.store import StageStore
from repro.timeline import (
    TimelineConfig,
    TimelineSpec,
    TimelineSubstrate,
    build_substrate,
    compute_epoch,
    epoch_stage_key,
)
from repro.topology.generator import InternetConfig

from benchmarks.conftest import emit

SNAPSHOT_PATH = Path(__file__).parent / "BENCH_timeline.json"

#: Computing the newest epoch against a warm stage store must beat a cold
#: (uncached) computation of the same epoch by at least this factor.
TARGET_SPEEDUP = 3.0

#: The bench workload: six quarters on a 40-ISP Internet, 24 vantage points.
PINNED_TIMELINE = TimelineConfig(
    internet=InternetConfig(seed=5, n_access_isps=40, n_ixps=16),
    spec=TimelineSpec(start="2022Q1", end="2023Q2", seed=3),
    n_vantage_points=24,
    seed=7,
)


def walk_incremental(
    substrate: TimelineSubstrate, store: StageStore
) -> tuple[list[dict], float, float]:
    """The incremental series against one store: ``(rows, prefix_s, last_s)``.

    The predecessor quarters are walked in order, each row checkpointed,
    warming the store with their stage artifacts; then the newest quarter,
    never computed before, is timed alone, so only genuine cross-epoch
    reuse can speed it up.
    """
    quarters = substrate.config.spec.quarters
    started = time.perf_counter()
    rows = []
    for quarter in quarters[:-1]:
        row = compute_epoch(substrate, quarter, store)
        store.put("epoch", epoch_stage_key(substrate.config, quarter), row)
        rows.append(row)
    prefix_s = time.perf_counter() - started
    started = time.perf_counter()
    rows.append(compute_epoch(substrate, quarters[-1], store))
    return rows, prefix_s, time.perf_counter() - started


def fresh_timeline_snapshot() -> dict:
    """Run the bench workload fresh and return its ``BENCH_timeline.json`` snapshot."""
    substrate = build_substrate(PINNED_TIMELINE)
    quarters = PINNED_TIMELINE.spec.quarters
    with tempfile.TemporaryDirectory() as tmp:
        store = StageStore(tmp)
        incremental_rows, prefix_s, incremental_last_s = walk_incremental(substrate, store)
        counters = dict(store.counters)
    started = time.perf_counter()
    full_rows = [compute_epoch(substrate, quarter, None) for quarter in quarters]
    full_series_s = time.perf_counter() - started
    started = time.perf_counter()
    full_last = compute_epoch(substrate, quarters[-1], None)
    full_last_s = time.perf_counter() - started
    identical = json.dumps(incremental_rows, sort_keys=True) == json.dumps(
        full_rows, sort_keys=True
    ) and json.dumps(incremental_rows[-1], sort_keys=True) == json.dumps(full_last, sort_keys=True)
    return {
        "bench": "timeline-incremental",
        "format": "repro-bench-v1",
        "cpu_count": usable_cpu_count(),
        "n_quarters": len(quarters),
        "identical_rows": identical,
        "target_incremental_speedup": TARGET_SPEEDUP,
        "incremental_speedup": round(full_last_s / incremental_last_s, 3) if incremental_last_s > 0 else float("inf"),
        "runs": [
            {"leg": "full-series", "seconds": round(full_series_s, 3)},
            {"leg": "incremental-series", "seconds": round(prefix_s + incremental_last_s, 3)},
            {"leg": "full-last-epoch", "seconds": round(full_last_s, 3)},
            {"leg": "incremental-last-epoch", "seconds": round(incremental_last_s, 3)},
        ],
        "counters": {name: counters[name] for name in sorted(counters)},
    }


@pytest.mark.timeline
def test_bench_timeline_snapshot():
    snapshot = fresh_timeline_snapshot()
    counters = snapshot["counters"]
    rows = [[run["leg"], run["seconds"]] for run in snapshot["runs"]]
    emit(
        f"timeline incremental-vs-full timings "
        f"({snapshot['n_quarters']} quarters, speedup {snapshot['incremental_speedup']}x)",
        format_table(["leg", "seconds"], rows)
        + "\n"
        + format_table(
            ["counter", "value"], [[name, counters[name]] for name in sorted(counters)]
        ),
    )

    assert snapshot["identical_rows"], "incremental rows diverged from the full rerun"
    # Cross-epoch reuse must actually fire: under monotone growth most
    # deployments and many ISP offnet sets are unchanged quarter over
    # quarter, so the detect and cluster caches see real hits.
    assert counters.get("detect.hits", 0) > 0, "no detect-stage reuse across epochs"
    assert counters.get("cluster.hits", 0) > 0, "no cluster-stage reuse across epochs"
    # A cluster hit short-circuits the measure stage entirely, so there
    # must be fewer measure computations than cluster lookups.
    assert counters.get("measure.misses", 0) <= counters.get("cluster.misses", 1)
    assert snapshot["incremental_speedup"] >= TARGET_SPEEDUP, (
        f"incremental newest-epoch computation only {snapshot['incremental_speedup']}x "
        f"faster than cold (floor {TARGET_SPEEDUP}x)"
    )

    # Written only once every assertion held, so a failing run never
    # replaces the committed snapshot with a number below the floor.
    SNAPSHOT_PATH.write_text(json.dumps(snapshot, indent=2) + "\n")
