"""Tests for the content-addressed study store (``repro.store``)."""

import json
import shutil

import numpy as np
import pytest

from repro.core.pipeline import StudyConfig, run_study
from repro.io.archive import save_archive
from repro.obs import MetricsRegistry
from repro.parallel import ParallelConfig
from repro.store import StudyStore, config_fingerprint, study_key
from repro.topology.generator import InternetConfig

from tests.conftest import deflate_latency_npz
from tests.test_parallel_equivalence import _content_digest

pytestmark = pytest.mark.store


def _tiny_config(seed: int = 3, **overrides) -> StudyConfig:
    return StudyConfig(
        internet=InternetConfig(seed=seed, n_access_isps=40, n_ixps=20),
        n_vantage_points=24,
        seed=seed,
        **overrides,
    )


@pytest.fixture(scope="module")
def tiny_study():
    return run_study(_tiny_config())


def _n_detections(study) -> float:
    return float(len(study.latest_inventory))


@pytest.fixture()
def store(tmp_path):
    return StudyStore(tmp_path / "store", metrics=MetricsRegistry())


def _archive_digest(directory):
    import hashlib

    digest = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


class TestKeys:
    def test_fingerprint_is_stable(self):
        assert config_fingerprint(_tiny_config()) == config_fingerprint(_tiny_config())
        assert study_key(_tiny_config()) == study_key(_tiny_config())

    def test_fingerprint_sees_every_field(self):
        base = _tiny_config()
        assert config_fingerprint(base) != config_fingerprint(_tiny_config(seed=4))
        assert config_fingerprint(base) != config_fingerprint(_tiny_config(xis=(0.5,)))

    def test_backend_changes_fingerprint_but_not_study_key(self):
        """backend/workers never change artifacts, so the content address
        normalises them away — while the full fingerprint still differs."""
        serial = _tiny_config()
        process = _tiny_config(parallel=ParallelConfig(backend="pool", workers=4))
        assert config_fingerprint(serial) != config_fingerprint(process)
        assert study_key(serial) == study_key(process)

    def test_study_key_ignores_every_parallel_config_field(self):
        """Every ParallelConfig field is execution-only, so none of them
        reaches the content address."""
        key = study_key(_tiny_config())
        for parallel in (
            ParallelConfig(backend="pool"),
            ParallelConfig(workers=3),
            ParallelConfig(shard_timeout_s=5.0),
        ):
            assert study_key(_tiny_config(parallel=parallel)) == key


class TestStoreRoundTrip:
    def test_miss_then_hit(self, store, tiny_study):
        config = _tiny_config()
        assert store.get(config) is None
        store.put(tiny_study)
        assert store.contains(config)
        rehydrated = store.get(config)
        assert rehydrated is not None
        assert store.metrics.counter("store.hits") == 1
        assert store.metrics.counter("store.misses") == 1

    def test_rehydrated_study_exports_identical_archive(self, store, tiny_study, tmp_path):
        """The acceptance property: a store hit is indistinguishable from a
        fresh run at the artifact level."""
        store.put(tiny_study)
        rehydrated = store.get(_tiny_config())
        save_archive(tiny_study, tmp_path / "fresh")
        save_archive(rehydrated, tmp_path / "warm")
        assert _archive_digest(tmp_path / "fresh") == _archive_digest(tmp_path / "warm")

    def test_rehydrated_views_match(self, store, tiny_study):
        store.put(tiny_study)
        rehydrated = store.get(_tiny_config())
        np.testing.assert_array_equal(rehydrated.matrix.rtt_ms, tiny_study.matrix.rtt_ms)
        assert rehydrated.hypergiant_of_ip == tiny_study.hypergiant_of_ip
        assert rehydrated.campaign.analyzable_isp_asns == tiny_study.campaign.analyzable_isp_asns
        for xi in tiny_study.config.xis:
            assert rehydrated.colocation_table(xi).row_percentages(
                "Google"
            ) == tiny_study.colocation_table(xi).row_percentages("Google")

    def test_put_is_idempotent(self, store, tiny_study):
        key = store.put(tiny_study)
        assert store.put(tiny_study) == key
        assert store.stats().entries == 1
        assert store.metrics.counter("store.writes") == 1

    def test_different_config_misses(self, store, tiny_study):
        store.put(tiny_study)
        assert store.get(_tiny_config(seed=4)) is None

    def test_entry_with_deflated_latency_is_a_hit(self, store, tiny_study, tmp_path):
        """Entries written while ``latency.npz`` was deflated still verify
        and hit, and rehydrate to what a cold run exports."""
        key = store.put(tiny_study)
        deflate_latency_npz(store.entry_path(key))
        rehydrated = store.get(_tiny_config())
        assert rehydrated is not None
        assert store.metrics.counter("store.hits") == 1
        assert store.metrics.counter("store.corruptions") == 0
        save_archive(tiny_study, tmp_path / "cold")
        save_archive(rehydrated, tmp_path / "warm")
        assert _content_digest(tmp_path / "warm") == _content_digest(tmp_path / "cold")


class TestCorruption:
    def test_truncated_file_quarantines_and_misses(self, store, tiny_study):
        key = store.put(tiny_study)
        victim = store.entry_path(key) / "latency.npz"
        victim.write_bytes(victim.read_bytes()[:100])
        assert store.get(_tiny_config()) is None
        assert store.metrics.counter("store.corruptions") == 1
        assert not store.contains_key(key)
        quarantined = list((store.root / "quarantine").iterdir())
        assert len(quarantined) == 1
        assert (quarantined[0] / "quarantine_reason.txt").exists()

    def test_recompute_after_quarantine(self, store, tiny_study):
        key = store.put(tiny_study)
        (store.entry_path(key) / "isps.csv").write_text("garbage")
        assert store.get(_tiny_config()) is None
        store.put(tiny_study)
        assert store.get(_tiny_config()) is not None

    def test_injected_corruption_trips_the_digest_check(self, tmp_path, tiny_study):
        """A ``store.load`` corrupt fault poisons the entry's bytes on disk,
        so the ordinary verify-quarantine-recompute path takes over."""
        from repro.faults import FaultPlan, FaultSpec

        faults = FaultPlan(
            seed=1, specs=(FaultSpec(site="store.load", kind="corrupt", rate=1.0),)
        )
        store = StudyStore(tmp_path / "store", metrics=MetricsRegistry(), faults=faults)
        key = store.put(tiny_study)
        assert store.get(_tiny_config()) is None
        assert store.metrics.counter("store.corruptions") == 1
        assert not store.contains_key(key)
        assert len(list((store.root / "quarantine").iterdir())) == 1

    def test_injected_transient_load_error_is_retried(self, tmp_path, tiny_study):
        from repro.faults import FaultPlan, FaultSpec
        from repro.resilience import RetryPolicy

        faults = FaultPlan(
            seed=1,
            specs=(FaultSpec(site="store.load", kind="error", rate=1.0, fail_attempts=1),),
        )
        store = StudyStore(
            tmp_path / "store",
            metrics=MetricsRegistry(),
            faults=faults,
            retry=RetryPolicy(max_attempts=2),
        )
        store.put(tiny_study)
        assert store.get(_tiny_config()) is not None
        assert store.metrics.counter("store.retries") == 1
        assert store.metrics.counter("store.corruptions") == 0

    def test_exhausted_load_error_degrades_to_miss_without_quarantine(
        self, tmp_path, tiny_study
    ):
        """An injected load error is an execution failure, not bad bytes:
        the entry must survive for the next (healthy) reader."""
        from repro.faults import FaultPlan, FaultSpec

        faults = FaultPlan(
            seed=1, specs=(FaultSpec(site="store.load", kind="error", rate=1.0),)
        )
        store = StudyStore(tmp_path / "store", metrics=MetricsRegistry(), faults=faults)
        key = store.put(tiny_study)
        assert store.get(_tiny_config()) is None
        assert store.metrics.counter("store.load_failures") == 1
        assert store.contains_key(key)  # not quarantined
        healthy = StudyStore(tmp_path / "store", metrics=MetricsRegistry())
        assert healthy.get(_tiny_config()) is not None

    def test_rehydration_error_propagates_and_keeps_the_entry(
        self, store, tiny_study, monkeypatch
    ):
        """Verified bytes are not corrupt: a failure replaying the pipeline
        around them is a bug to surface, not a reason to quarantine."""
        import repro.store.store as store_module

        def failing_run_study(config, telemetry=None, precomputed=None):
            if precomputed is not None:
                raise ValueError("rehydration failed")
            return run_study(config, telemetry=telemetry)

        key = store.put(tiny_study)
        monkeypatch.setattr(store_module, "run_study", failing_run_study)
        with pytest.raises(ValueError, match="rehydration failed"):
            store.get(_tiny_config())
        assert store.contains_key(key)
        assert store.metrics.counter("store.corruptions") == 0


class TestDegradedStudies:
    def test_degraded_study_is_never_persisted(self, tmp_path):
        """A study that lost shards is an execution accident, not the
        config's artifact: put() must refuse it so rehydration never
        serves degraded data under a clean key."""
        from repro.faults import FaultPlan, FaultSpec
        from repro.resilience import ErrorBudget, ResilienceConfig, RetryPolicy

        faults = FaultPlan(
            seed=13, specs=(FaultSpec(site="campaign.shard", kind="crash", rate=0.2),)
        )
        degraded = run_study(
            _tiny_config(
                faults=faults,
                resilience=ResilienceConfig(
                    retry=RetryPolicy(max_attempts=2),
                    fallback_in_process=False,
                    budget=ErrorBudget(shard_loss_fraction=1.0),
                ),
            )
        )
        assert degraded.coverage.shards_lost > 0
        store = StudyStore(tmp_path / "store", metrics=MetricsRegistry())
        key = store.put(degraded)
        assert not store.contains_key(key)
        assert store.stats().entries == 0
        assert store.metrics.counter("store.degraded_skipped") == 1


class TestQuarantineGc:
    def _quarantine_n(self, store, tiny_study, n):
        for _ in range(n):
            key = store.put(tiny_study)
            (store.entry_path(key) / "isps.csv").write_text("garbage")
            assert store.get(_tiny_config()) is None

    def test_gc_prunes_quarantine_by_count(self, store, tiny_study):
        self._quarantine_n(store, tiny_study, 3)
        quarantine = store.root / "quarantine"
        assert len(list(quarantine.iterdir())) == 3
        store.gc(max_quarantine_entries=1)
        assert len(list(quarantine.iterdir())) == 1
        assert store.metrics.counter("store.quarantine_pruned") == 2

    def test_gc_prunes_quarantine_by_age(self, store, tiny_study):
        import os
        import time

        self._quarantine_n(store, tiny_study, 2)
        quarantine = store.root / "quarantine"
        entries = sorted(quarantine.iterdir())
        stale = time.time() - 3600
        os.utime(entries[0], (stale, stale))
        store.gc(max_quarantine_age_s=60.0)
        survivors = list(quarantine.iterdir())
        assert survivors == [entries[1]]

    def test_gc_prunes_oldest_first(self, store, tiny_study):
        import os
        import time

        self._quarantine_n(store, tiny_study, 3)
        quarantine = store.root / "quarantine"
        entries = sorted(quarantine.iterdir(), key=lambda e: e.name)
        # Pin distinct mtimes so the eviction order is unambiguous.
        base = time.time() - 100
        for offset, entry in enumerate(entries):
            os.utime(entry, (base + offset, base + offset))
        store.gc(max_quarantine_entries=2)
        survivors = set(quarantine.iterdir())
        assert survivors == set(entries[1:])

    def test_gc_without_quarantine_dir_is_a_noop(self, store, tiny_study):
        store.put(tiny_study)
        assert store.gc(max_quarantine_entries=1) == []
        assert store.stats().entries == 1


class TestFaultAwareKeys:
    def test_transient_faults_normalise_out_of_the_key(self):
        """Transient faults are retried away without an artifact trace, so
        a chaos-tested study may serve (and fill) the clean cache slot."""
        from repro.faults import FaultPlan, FaultSpec
        from repro.resilience import ResilienceConfig

        transient = FaultPlan(
            seed=9,
            specs=(FaultSpec(site="campaign.shard", kind="crash", rate=0.5, fail_attempts=1),),
        )
        chaotic = _tiny_config(faults=transient, resilience=ResilienceConfig())
        assert study_key(chaotic) == study_key(_tiny_config())
        assert config_fingerprint(chaotic) != config_fingerprint(_tiny_config())

    def test_store_load_faults_normalise_out_of_the_key(self):
        from repro.faults import FaultPlan, FaultSpec

        plan = FaultPlan(seed=9, specs=(FaultSpec(site="store.load", kind="error"),))
        assert study_key(_tiny_config(faults=plan)) == study_key(_tiny_config())

    def test_permanent_data_faults_stay_in_the_key(self):
        """Permanent drops genuinely change artifacts: a degraded-coverage
        study must never collide with the clean content address."""
        from repro.faults import FaultPlan, FaultSpec

        plan = FaultPlan(seed=9, specs=(FaultSpec(site="mlab.ping", kind="drop", rate=0.1),))
        assert study_key(_tiny_config(faults=plan)) != study_key(_tiny_config())

    def test_shard_timeout_and_resilience_are_execution_only(self):
        from repro.resilience import ResilienceConfig, RetryPolicy

        timed = _tiny_config(parallel=ParallelConfig(shard_timeout_s=30.0))
        hardened = _tiny_config(resilience=ResilienceConfig(retry=RetryPolicy(max_attempts=5)))
        assert study_key(timed) == study_key(_tiny_config())
        assert study_key(hardened) == study_key(_tiny_config())


class TestGcAndIndex:
    def test_lru_eviction_order(self, tmp_path, tiny_study):
        store = StudyStore(tmp_path / "store", metrics=MetricsRegistry())
        studies = [tiny_study, run_study(_tiny_config(seed=4)), run_study(_tiny_config(seed=5))]
        keys = [store.put(study) for study in studies]
        # Touch the oldest so it becomes most recently used.
        assert store.get(_tiny_config(seed=3)) is not None
        evicted = store.gc(max_entries=2)
        assert evicted == [keys[1]]
        assert store.contains_key(keys[0]) and store.contains_key(keys[2])
        assert store.metrics.counter("store.evictions") == 1

    def test_max_bytes_bound(self, tmp_path, tiny_study):
        store = StudyStore(tmp_path / "store", metrics=MetricsRegistry())
        store.put(tiny_study)
        store.put(run_study(_tiny_config(seed=4)))
        evicted = store.gc(max_bytes=store.stats().total_bytes - 1)
        assert len(evicted) == 1
        assert store.stats().entries == 1

    def test_lru_order_survives_fresh_instances(self, tmp_path, tiny_study):
        """Recency lives in the entries' mtimes, not in any one instance."""
        root = tmp_path / "store"
        first = StudyStore(root, metrics=MetricsRegistry())
        key_a = first.put(tiny_study)
        key_b = first.put(run_study(_tiny_config(seed=4)))
        assert StudyStore(root, metrics=MetricsRegistry()).get(_tiny_config()) is not None
        assert StudyStore(root, metrics=MetricsRegistry()).gc(max_entries=1) == [key_b]
        assert first.contains_key(key_a)

    def test_crash_debris_in_tmp_is_inert(self, store, tiny_study):
        key = store.put(tiny_study)
        debris = store.root / "tmp" / "deadbeef.1234.abcd"
        debris.mkdir(parents=True)
        (debris / "manifest.json").write_text("{}")
        assert store.keys() == [key]
        assert store.get(_tiny_config()) is not None

    @pytest.mark.parametrize("kind", ["study", "stage"])
    def test_gc_reaps_debris_of_exited_writers_only(self, tmp_path, tiny_study, kind):
        """A writer killed mid-put leaves its staging behind; gc reclaims it
        once the writer is gone, and never touches a live writer's."""
        import os
        import subprocess
        import sys

        from repro.store import StageStore, stage_key

        if kind == "study":
            store = StudyStore(tmp_path / "store", metrics=MetricsRegistry())
            store.put(tiny_study)
        else:
            store = StageStore(tmp_path / "store", metrics=MetricsRegistry())
            store.put("epoch", stage_key("epoch", {"i": 0}), {"row": 0})
        exited = subprocess.Popen([sys.executable, "-c", "pass"])
        assert exited.wait(timeout=60) == 0
        dead = store.root / "tmp" / f"{'ab' * 32}.{exited.pid}.deadbeef"
        live = store.root / "tmp" / f"{'cd' * 32}.{os.getpid()}.cafef00d"
        for debris in (dead, live):
            debris.parent.mkdir(parents=True, exist_ok=True)
            if kind == "study":
                debris.mkdir()
                (debris / "latency.npz").write_bytes(b"\0" * 4096)
            else:
                debris.write_text("{}")
        before = store.stats()
        assert store.gc() == []
        assert not dead.exists()
        assert live.exists()
        assert store.stats() == before

    @pytest.mark.parametrize(
        "bound",
        ["max_entries", "max_bytes", "max_age_s", "max_quarantine_entries", "max_quarantine_age_s"],
    )
    def test_negative_bound_is_refused_before_any_eviction(self, tmp_path, bound):
        """A negative bound is a mistake, not one every entry exceeds: gc
        names it and evicts nothing, quarantine included."""
        from repro.store import StageStore, stage_key

        store = StageStore(tmp_path / "store", metrics=MetricsRegistry())
        keys = [stage_key("epoch", {"i": i}) for i in range(4)]
        for i, key in enumerate(keys):
            store.put("epoch", key, {"row": i})
        store._quarantine(keys[3])
        quarantined = sorted(store.quarantine_dir.iterdir())
        with pytest.raises(ValueError, match=f"^{bound} must be >= 0"):
            store.gc(**{bound: -1})
        assert sorted(store.keys()) == sorted(keys[:3])
        assert sorted(store.quarantine_dir.iterdir()) == quarantined


class TestCachedStudyKeying:
    def test_same_name_different_backend_does_not_collide(self):
        """Regression: the memo used to key on the scenario *name* alone, so
        a scenario variant differing only in execution config collided."""
        from repro.experiments.scenarios import SMALL_SCENARIO, cached_study

        variant = SMALL_SCENARIO.__class__(
            name=SMALL_SCENARIO.name,
            config=StudyConfig(
                internet=SMALL_SCENARIO.config.internet,
                n_vantage_points=SMALL_SCENARIO.config.n_vantage_points,
                seed=SMALL_SCENARIO.config.seed,
                parallel=ParallelConfig(backend="pool", workers=2),
            ),
            n_traceroute_regions=SMALL_SCENARIO.n_traceroute_regions,
            capacity_sample=SMALL_SCENARIO.capacity_sample,
        )
        assert config_fingerprint(variant.config) != config_fingerprint(SMALL_SCENARIO.config)
        baseline = cached_study("small")
        from repro.parallel import process_backend_available, shutdown_pools

        if not process_backend_available():
            pytest.skip("worker-pool backend unavailable")
        try:
            other = cached_study(variant)
        finally:
            shutdown_pools()
        assert other is not baseline
        assert other.config.parallel.backend == "pool"
        assert baseline.config.parallel.backend == "serial"
        # Both now memoised independently.
        assert cached_study(variant) is other
        assert cached_study("small") is baseline

    def test_cached_study_delegates_to_store(self, tmp_path):
        """A fresh process-memory cache plus a warm store -> rehydration, no
        pipeline rerun (observable through the store hit counter)."""
        from repro.experiments import scenarios

        registry = MetricsRegistry()
        store = StudyStore(tmp_path / "store", metrics=registry)
        scenario = scenarios.StudyScenario(
            name="tiny-store-test",
            config=_tiny_config(),
            n_traceroute_regions=2,
            capacity_sample=10,
        )
        first = scenarios.cached_study(scenario, store=store)
        assert registry.counter("store.writes") == 1
        # Simulate a new process: drop only the memory layer.
        scenarios._STUDY_CACHE.pop(config_fingerprint(scenario.config))
        second = scenarios.cached_study(scenario, store=store)
        assert registry.counter("store.hits") == 1
        np.testing.assert_array_equal(first.matrix.rtt_ms, second.matrix.rtt_ms)


class TestCountsReachTheRun:
    """Stores a campaign opens count into the run's telemetry bundle, on
    every backend (a pool worker's counts merge back with its shard)."""

    @pytest.fixture(
        params=["serial", pytest.param("pool", marks=pytest.mark.parallel)]
    )
    def parallel(self, request):
        if request.param == "serial":
            yield ParallelConfig()
            return
        from repro.parallel import process_backend_available, shutdown_pools

        if not process_backend_available():
            pytest.skip("worker-pool backend unavailable")
        try:
            yield ParallelConfig(backend="pool", workers=2)
        finally:
            shutdown_pools()

    def test_timeline_stage_hits(self, parallel, tmp_path):
        from dataclasses import replace

        from repro.obs import Telemetry, Tracer
        from repro.store import StageStore
        from repro.timeline import run_timeline

        from tests.test_timeline import _tiny_config as _tiny_timeline

        config = replace(_tiny_timeline(start="2022Q1", end="2022Q3"), parallel=parallel)
        store = StageStore(tmp_path / "stages")
        run_timeline(config, store=store, max_epochs=1)
        telemetry = Telemetry(tracer=Tracer(), metrics=MetricsRegistry())
        report = run_timeline(config, store=store, telemetry=telemetry)
        assert report.cache_hits == 1
        metrics = telemetry.metrics
        # The second quarter reuses the first's unchanged ISPs whatever
        # order the cells run in.
        assert metrics.counter("stage.cluster.hits") > 0
        assert metrics.counter("stage.epoch.hits") == 1
        assert metrics.counter("stage.epoch.writes") == 2

    def test_sweep_store_hits(self, parallel, tmp_path):
        from repro.obs import Telemetry, Tracer
        from repro.sweep import MetricSpec, ParameterGrid, run_campaign

        grid = ParameterGrid.of(_tiny_config(), {"seed,internet.seed": [3, 4]})
        metrics = (MetricSpec("detections", _n_detections, 1.0, 1e9, "n/a"),)
        store = StudyStore(tmp_path / "store")
        cold = Telemetry(tracer=Tracer(), metrics=MetricsRegistry())
        run_campaign(grid, metrics, store=store, parallel=parallel, telemetry=cold)
        replay = Telemetry(tracer=Tracer(), metrics=MetricsRegistry())
        run_campaign(grid, metrics, store=store, parallel=parallel, telemetry=replay)
        assert cold.metrics.counter("store.misses") == 2
        assert cold.metrics.counter("store.writes") == 2
        assert replay.metrics.counter("store.hits") == 2
        assert replay.metrics.counter("store.misses") == 0
