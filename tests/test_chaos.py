"""The chaos differential harness: fault injection meets the resilience layer.

Two headline claims, proven differentially against a fault-free reference
run of the same config:

1. **Transient faults are artifact-inert.**  A plan that crashes every
   campaign shard once and injects one retryable error per clustering
   shard produces *byte-identical* exports once the resilience layer has
   retried everything away — on the serial backend and on the persistent
   pool at 1, 2, and 4 workers.  Retries must never consume measurement RNG
   draws, shift shard boundaries, or reorder merges.

2. **Permanent faults degrade gracefully and honestly.**  A plan that
   permanently drops measurements makes ``run_study`` *complete* (no
   crash), with a :class:`~repro.resilience.CoverageReport` whose per-site
   losses equal the injected losses exactly — the degradation is
   accounted, not silent.

Marked ``chaos`` so CI can run the harness as its own job
(``pytest -m chaos``); the cases also run in tier-1 because they share
the compact full-pipeline config of ``tests/test_parallel_equivalence.py``.
"""

from __future__ import annotations

import dataclasses
import hashlib
from pathlib import Path

import numpy as np
import pytest

from repro.core.pipeline import Study, StudyConfig, run_study
from repro.faults import FaultPlan, FaultSpec
from repro.io.archive import save_archive
from repro.obs import Telemetry
from repro.parallel import ParallelConfig
from repro.resilience import ErrorBudget, ResilienceConfig, RetryPolicy
from repro.topology.generator import InternetConfig

pytestmark = pytest.mark.chaos

#: Every campaign shard crashes its worker once; every clustering shard
#: raises one retryable error.  All transient: one retry clears each.
TRANSIENT_PLAN = FaultPlan(
    seed=99,
    specs=(
        FaultSpec(site="campaign.shard", kind="crash", rate=1.0, fail_attempts=1),
        FaultSpec(site="clustering.shard", kind="error", rate=1.0, fail_attempts=1),
    ),
)

#: Permanent data loss on every measurement surface (rates chosen so each
#: site loses a visible few percent on the compact config).
PERMANENT_PLAN = FaultPlan(
    seed=41,
    specs=(
        FaultSpec(site="mlab.ping", kind="drop", rate=0.08),
        FaultSpec(site="scan.record", kind="drop", rate=0.03),
        FaultSpec(site="rdns.lookup", kind="drop", rate=0.03),
    ),
)


def _config(
    faults: FaultPlan | None = None,
    resilience: ResilienceConfig | None = None,
    parallel: ParallelConfig | None = None,
) -> StudyConfig:
    """The compact full-pipeline config the equivalence harness uses."""
    return StudyConfig(
        internet=InternetConfig(seed=5, n_access_isps=25, n_ixps=8),
        n_vantage_points=10,
        seed=5,
        parallel=parallel or ParallelConfig(),
        faults=faults,
        resilience=resilience,
    )


def _archive_digests(study: Study, directory: Path) -> dict[str, str]:
    save_archive(study, directory)
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.iterdir())
    }


@pytest.fixture(scope="module")
def clean_study() -> Study:
    """The fault-free reference run."""
    return run_study(_config())


@pytest.fixture(scope="module")
def clean_digests(clean_study, tmp_path_factory) -> dict[str, str]:
    """The fault-free reference export."""
    return _archive_digests(clean_study, tmp_path_factory.mktemp("clean"))


class TestTransientFaultsAreInert:
    def test_serial_retries_to_identical_bytes(self, clean_digests, tmp_path):
        telemetry = Telemetry.capture()
        study = run_study(
            _config(faults=TRANSIENT_PLAN, resilience=ResilienceConfig()),
            telemetry=telemetry,
        )
        assert study.coverage.complete
        assert _archive_digests(study, tmp_path / "chaos") == clean_digests
        # Every campaign + clustering shard was retried exactly once.
        assert telemetry.metrics.counter("resilience.retries") > 0
        assert telemetry.metrics.counter("resilience.quarantined_shards") == 0

    @pytest.mark.parallel
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_pool_worker_kill_mid_campaign_recovers_identically(
        self, clean_digests, tmp_path, workers
    ):
        """Killing a persistent-pool worker mid-campaign (os._exit in the
        child via the injected crash) rebuilds the pool *in place*, requeues
        the dead worker's shards, and still exports byte-identical
        artifacts — and the flight recorder shows one pool identity with a
        non-zero restart count rather than a parade of fresh pools."""
        from repro.parallel import shutdown_pools

        telemetry = Telemetry.capture()
        try:
            study = run_study(
                _config(
                    faults=TRANSIENT_PLAN,
                    resilience=ResilienceConfig(),
                    parallel=ParallelConfig(backend="pool", workers=workers),
                ),
                telemetry=telemetry,
            )
        finally:
            shutdown_pools()
        assert study.coverage.complete
        assert _archive_digests(study, tmp_path / f"pool-w{workers}") == clean_digests
        assert telemetry.metrics.counter("resilience.worker_crashes") >= 1
        assert telemetry.metrics.counter("resilience.requeues") >= 1
        pools = telemetry.flight.pools
        assert pools["campaign"]["persistent"]
        # Same handle across stages, crash counted as a restart on it.
        assert pools["campaign"]["pool"] == pools["clustering"]["pool"]
        assert pools["clustering"]["restarts"] >= 1

    def test_transient_store_load_fault_is_retried(self, clean_digests, tmp_path):
        """A store entry whose first load fails rehydrates on retry, and the
        rehydrated study exports the clean bytes."""
        from repro.obs import MetricsRegistry
        from repro.store import StudyStore

        store = StudyStore(tmp_path / "store")
        key = store.put(run_study(_config()))
        faults = FaultPlan(
            seed=3, specs=(FaultSpec(site="store.load", kind="error", rate=1.0, fail_attempts=1),)
        )
        registry = MetricsRegistry()
        flaky = StudyStore(
            tmp_path / "store",
            faults=faults,
            retry=RetryPolicy(max_attempts=2),
            metrics=registry,
        )
        study = flaky.get(_config())
        assert study is not None
        assert registry.counter("store.retries") == 1
        assert _archive_digests(study, tmp_path / "rehydrated") == clean_digests
        assert key in flaky.keys()


class TestPermanentFaultsDegradeGracefully:
    @pytest.fixture(scope="class")
    def degraded(self) -> tuple[Study, Telemetry]:
        telemetry = Telemetry.capture()
        study = run_study(_config(faults=PERMANENT_PLAN), telemetry=telemetry)
        return study, telemetry

    def test_study_completes_with_degraded_coverage(self, degraded):
        study, _ = degraded
        assert not study.coverage.complete
        assert study.coverage.lost("mlab.pings") > 0
        assert study.coverage.lost("scan.records") > 0
        assert study.coverage.lost("rdns.lookups") > 0

    def test_ping_losses_match_the_fire_set_exactly(self, degraded):
        """Ping drops have no upstream filter, so the coverage row must
        equal the plan's recomputed fire-set to the unit."""
        study, _ = degraded
        n_ips = len(study.matrix.ips)
        expected = sum(PERMANENT_PLAN.fires_ever("mlab.ping", i) for i in range(n_ips))
        assert expected > 0
        assert study.coverage.entries["mlab.pings"] == (expected, n_ips)
        assert len(study.matrix.unmeasured_ips) == expected
        # Dropped IPs surface as all-NaN latency columns (the methodology's
        # own unresponsive IPs add more NaN columns, so subset not equality).
        all_nan = np.isnan(study.matrix.rtt_ms).all(axis=0)
        for i in range(n_ips):
            if PERMANENT_PLAN.fires_ever("mlab.ping", i):
                assert all_nan[i]

    def test_scan_losses_match_applied_injections_exactly(self, degraded):
        """Scan drops apply only to servers that responded, so the ledger
        must equal the injector's applied count (telemetry) and stay under
        the plan's per-epoch fire-set bound."""
        study, telemetry = degraded
        scan_lost, scan_total = study.coverage.entries["scan.records"]
        assert scan_lost == telemetry.metrics.counter("faults.scan_records_dropped")
        epochs = sorted(study.inventories)
        assert scan_total == sum(len(study.history.state(e).servers) for e in epochs)
        upper_bound = sum(
            PERMANENT_PLAN.fires_ever("scan.record", i)
            for e in epochs
            for i in range(len(study.history.state(e).servers))
        )
        assert 0 < scan_lost <= upper_bound

    def test_rdns_losses_match_a_clean_run_differentially(self, degraded, clean_study):
        """Exact differential: the chaos run's PTR records are the clean
        run's minus precisely the fire-set, and the ledger counts the
        difference."""
        study, _ = degraded
        servers = study.history.state("2023").servers
        fired_ips = {
            server.ip
            for index, server in enumerate(servers)
            if PERMANENT_PLAN.fires_ever("rdns.lookup", index)
        }
        clean_ips = set(clean_study.ptr.records)
        assert set(study.ptr.records) == clean_ips - fired_ips
        expected_lost = len(clean_ips & fired_ips)
        assert expected_lost > 0
        assert study.coverage.entries["rdns.lookups"] == (expected_lost, len(servers))

    def test_resilience_metrics_surface_in_snapshot(self, degraded):
        _, telemetry = degraded
        gauges = telemetry.metrics.gauges
        assert "resilience.coverage_lost_shards" in gauges

    def test_coverage_lands_in_report_and_manifest(self, degraded, tmp_path):
        from repro.io.archive import ArchiveManifest, load_archive
        from repro.report import build_report

        study, _ = degraded
        section = build_report(study, sections=("cov",))
        assert "DEGRADED" in section
        save_archive(study, tmp_path / "degraded")
        manifest = load_archive(tmp_path / "degraded").manifest
        losses = {site: lost for site, lost, _total in manifest.coverage}
        assert losses["mlab.pings"] == study.coverage.lost("mlab.pings")

    def test_permanent_shard_loss_respects_budget(self):
        """A permanently-crashing campaign shard quarantines under a
        permissive budget (coverage accounted) and aborts under the
        default zero budget."""
        from repro.resilience import ShardQuarantinedError

        faults = FaultPlan(
            seed=13, specs=(FaultSpec(site="campaign.shard", kind="crash", rate=0.2),)
        )
        telemetry = Telemetry.capture()
        tolerant = ResilienceConfig(
            retry=RetryPolicy(max_attempts=2),
            fallback_in_process=False,
            budget=ErrorBudget(shard_loss_fraction=1.0),
        )
        study = run_study(_config(faults=faults, resilience=tolerant), telemetry=telemetry)
        lost, total = study.coverage.entries["campaign.shards"]
        assert lost == sum(faults.fires_ever("campaign.shard", i) for i in range(total))
        assert lost >= 1
        assert study.coverage.shards_lost == lost
        assert telemetry.metrics.counter("resilience.quarantined_shards") == lost
        # The lost shards' IPs are all-NaN but the study still renders.
        assert np.isnan(study.matrix.rtt_ms).any()
        with pytest.raises(ShardQuarantinedError):
            run_study(_config(faults=faults, resilience=ResilienceConfig()))


class TestDisabledInjectionIsFree:
    def test_no_faults_no_resilience_is_byte_identical(self, clean_digests, tmp_path):
        """The supervised code paths collapse to the plain fast path when
        disabled: a second clean run reproduces the reference bytes."""
        study = run_study(_config())
        assert study.coverage.complete
        assert _archive_digests(study, tmp_path / "again") == clean_digests

    def test_fault_config_with_empty_plan_is_inert(self, clean_digests, tmp_path):
        study = run_study(_config(faults=FaultPlan(seed=1, specs=())))
        assert _archive_digests(study, tmp_path / "empty") == clean_digests
