"""Parallel-execution bench: serial vs persistent-pool wall time.

Runs the small scenario under the serial backend and the persistent
``pool`` backend at 2 and 4 workers, cross-checks that every run exports
**byte-identical** archives, and writes the timings to
``BENCH_parallel.json`` in the ``repro-bench-v1`` trajectory format.
Each run's flight-recorder summary rides along: per worker utilization,
queue-wait share, per-shard payload bytes (each submission carries only
its own shard's slice of the stage's arrays), and per-stage pool
identity/restarts — the *why* behind every wall time.

The JSON records the host's CPU count: the speedup assertion (pool
backend, 4 workers, >= ``TARGET_SPEEDUP_4W``) only arms when the hardware
can physically deliver parallelism (>= 4 usable cores); on smaller hosts
``hardware_limited`` is set and the numbers are still committed so the
trajectory stays honest about where they came from — with the payload
records standing in as proof that the fast path was exercised.

Smoke mode (``REPRO_BENCH_SMOKE=1``, used by the CI ``parallel-check``
job) runs a trimmed grid, skips the timing gate and the snapshot write,
and *asserts the dispatch is structurally sound*: no submission may carry
more than its own shard (the largest payload stays below a tenth of the
RTT matrix's bytes) and the pool backend must reuse one pool across both
fan-out stages.

Run with ``PYTHONPATH=src python -m pytest benchmarks/test_bench_parallel.py -s``.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path

import pytest

from repro._util import format_table
from repro.experiments.scenarios import scenario_by_name
from repro.io.archive import save_archive
from repro.obs import Telemetry
from repro.parallel import ParallelConfig, process_backend_available, shutdown_pools

from benchmarks.conftest import emit

SNAPSHOT_PATH = Path(__file__).parent / "BENCH_parallel.json"

#: (backend, workers) grid the bench sweeps.
RUNS = (("serial", 1), ("pool", 2), ("pool", 4))

#: Trimmed grid for smoke mode: structure checks, not timings.
SMOKE_RUNS = (("serial", 1), ("pool", 2))

#: Wall-time speedup the 4-worker persistent-pool run must reach on
#: capable hardware.
TARGET_SPEEDUP_4W = 2.0


def _smoke() -> bool:
    return bool(os.environ.get("REPRO_BENCH_SMOKE"))


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _time_run(backend: str, workers: int, export_dir: Path) -> dict:
    telemetry = Telemetry.capture()
    parallel = ParallelConfig(backend=backend, workers=workers)
    started = time.perf_counter()
    study = scenario_by_name("small").run(telemetry=telemetry, parallel=parallel)
    total_s = time.perf_counter() - started
    save_archive(study, export_dir)
    digest = hashlib.sha256()
    for path in sorted(export_dir.iterdir()):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    campaign = telemetry.tracer.find("ping_campaign")
    clustering = telemetry.tracer.find("clustering")
    return {
        "backend": backend,
        # The *resolved* count (ParallelConfig resolves "auto" on
        # construction, so what lands here is what actually ran).
        "workers": parallel.workers,
        "total_s": round(total_s, 3),
        "campaign_s": round(campaign.duration_s, 3),
        "clustering_s": round(clustering.duration_s, 3),
        "parallel_stages_s": round(campaign.duration_s + clustering.duration_s, 3),
        "archive_sha256": digest.hexdigest(),
        "matrix_bytes": study.matrix.rtt_ms.nbytes,
        # Flight-view forensics: per-worker utilization, queue-wait
        # share, payload bytes, pool identity, stragglers.
        "flight": telemetry.flight.to_json(),
    }


def _assert_fast_path_active(run: dict) -> None:
    """The structural claims behind the numbers: own-slice payloads, pool reused."""
    flight = run["flight"]
    payload = flight["payload"]
    assert payload["measured_shards"] > 0
    assert payload["max_bytes"] < run["matrix_bytes"] / 10, (
        f"{run['backend']}/{run['workers']}w: max shard payload {payload['max_bytes']}B "
        f"against a {run['matrix_bytes']}B RTT matrix — a submission carries more "
        "than its own shard"
    )
    pools = flight["pools"]
    assert {"campaign", "clustering"} <= set(pools)
    if run["backend"] == "pool":
        assert pools["campaign"]["persistent"] and pools["clustering"]["persistent"]
        assert pools["campaign"]["pool"] == pools["clustering"]["pool"], (
            "pool backend built distinct pools per stage — persistence broken"
        )


def test_bench_parallel_snapshot(tmp_path):
    if not process_backend_available():
        pytest.skip("worker-pool backend unavailable on this host")

    grid = SMOKE_RUNS if _smoke() else RUNS
    try:
        runs = [
            _time_run(backend, workers, tmp_path / f"{backend}-{workers}")
            for backend, workers in grid
        ]
    finally:
        shutdown_pools()

    # Every run must have flight-recorded its shards, and every parallel
    # run must prove the fast path was structurally active.
    for run in runs:
        assert run["flight"]["shards"] > 0, (
            f"{run['backend']}/{run['workers']}w recorded no shard flights"
        )
        if run["backend"] != "serial":
            _assert_fast_path_active(run)

    # Differential cross-check: every backend/worker combination exported
    # the same bytes (the equivalence harness proves this per-file; here it
    # guards the benchmark itself against comparing different work).
    digests = {run["archive_sha256"] for run in runs}
    assert len(digests) == 1, "backends exported different artifacts"

    if _smoke():
        emit(
            "parallel bench smoke",
            "fast path active: own-slice payloads, persistent pool reused "
            f"across stages ({len(runs)} runs, identical artifacts)",
        )
        return

    serial = runs[0]
    cpus = _usable_cpus()
    speedups = {
        f"speedup_{run['backend']}_{run['workers']}w": round(
            serial["parallel_stages_s"] / run["parallel_stages_s"], 3
        )
        for run in runs
        if run["backend"] != "serial"
    }
    # The headline number the gate below arms on.
    speedup_4w = speedups.get("speedup_pool_4w")
    snapshot = {
        "bench": "parallel-small",
        "format": "repro-bench-v1",
        "scenario": "small",
        "cpu_count": cpus,
        "identical_artifacts": True,
        "target_speedup_4w": TARGET_SPEEDUP_4W,
        "speedup_4w": speedup_4w,
        "hardware_limited": cpus < 4,
        "runs": [
            {key: value for key, value in run.items() if key != "archive_sha256"}
            for run in runs
        ],
        **speedups,
    }
    SNAPSHOT_PATH.write_text(json.dumps(snapshot, indent=2) + "\n")

    rows = [
        [run["backend"], run["workers"], run["total_s"], run["parallel_stages_s"]]
        for run in runs
    ]
    emit(
        f"parallel backend wall times ({cpus} usable CPUs)",
        format_table(["backend", "workers", "total s", "campaign+clustering s"], rows),
    )

    if cpus >= 4:
        assert speedup_4w >= TARGET_SPEEDUP_4W, (
            f"pool-backend 4-worker speedup {speedup_4w}x below "
            f"{TARGET_SPEEDUP_4W}x on a {cpus}-core host"
        )
