"""Kill-and-resume guarantees for timeline campaigns.

Mirrors ``tests/test_sweep_resume.py`` for the longitudinal engine: kill
a campaign mid-epoch (serial and pool backends), resume it against
the same stage store, and (a) only the remaining epochs are computed
(visible through the report's hit/miss provenance and the store status),
(b) the final series report is **byte-identical** to an uninterrupted
campaign's — including the written report file.
"""

import json
from dataclasses import replace

import pytest

from repro.faults import FaultPlan, FaultSpec, WorkerCrashError
from repro.parallel import ParallelConfig, process_backend_available, shutdown_pools
from repro.resilience import ErrorBudget, ResilienceConfig, RetryPolicy
from repro.store import StageStore
from repro.timeline import TimelineConfig, TimelineSpec, run_timeline, timeline_status
from repro.topology.generator import InternetConfig

pytestmark = [pytest.mark.timeline, pytest.mark.store]

N_EPOCHS = 3


def _config(parallel: ParallelConfig | None = None) -> TimelineConfig:
    return TimelineConfig(
        internet=InternetConfig(seed=5, n_access_isps=30, n_ixps=12),
        spec=TimelineSpec(start="2022Q1", end="2022Q3", seed=3),
        n_vantage_points=20,
        parallel=parallel if parallel is not None else ParallelConfig(),
        seed=7,
    )


def _report_bytes(report) -> bytes:
    return json.dumps(report.to_json(), sort_keys=True).encode()


class _AbortAfter:
    """Serial epoch hook that kills the campaign after ``n`` epochs."""

    def __init__(self, n: int):
        self.n = n
        self.seen = 0

    def __call__(self, result) -> None:
        self.seen += 1
        if self.seen >= self.n:
            raise KeyboardInterrupt("simulated operator abort")


def _resume_roundtrip(parallel: ParallelConfig | None, tmp_path, k: int = 1) -> None:
    config = _config(parallel)

    # Interrupted campaign: only the first k epochs complete.
    store = StageStore(tmp_path / "store")
    partial = run_timeline(config, store=store, max_epochs=k)
    assert partial.cache_misses == k
    assert timeline_status(config, store).n_done == k

    # Resume: the k stored epochs are hits, the rest run exactly once.
    resumed = run_timeline(config, store=store)
    assert resumed.cache_hits == k
    assert resumed.cache_misses == N_EPOCHS - k
    assert timeline_status(config, store).n_pending == 0

    # Replay: everything is durable, nothing recomputes.
    replay = run_timeline(config, store=store)
    assert replay.cache_hits == N_EPOCHS
    assert replay.cache_misses == 0

    # Uninterrupted reference in a pristine store: identical report bytes.
    reference = run_timeline(config, store=StageStore(tmp_path / "fresh-store"))
    assert _report_bytes(resumed) == _report_bytes(reference)
    assert _report_bytes(replay) == _report_bytes(reference)
    resumed_path = resumed.write(tmp_path / "resumed.json")
    reference_path = reference.write(tmp_path / "reference.json")
    assert resumed_path.read_bytes() == reference_path.read_bytes()


class TestResumeSerial:
    def test_interrupt_resume_replay(self, tmp_path):
        _resume_roundtrip(None, tmp_path, k=1)

    def test_abort_mid_campaign_via_hook(self, tmp_path):
        """A hard abort (exception mid-dispatch) still leaves completed
        epochs durable, and the resume recomputes only the remainder."""
        config = _config()
        store = StageStore(tmp_path / "store")
        with pytest.raises(KeyboardInterrupt):
            run_timeline(config, store=store, epoch_hook=_AbortAfter(2))
        assert timeline_status(config, store).n_done == 2

        resumed = run_timeline(config, store=store)
        assert resumed.cache_hits == 2
        assert resumed.cache_misses == 1

        reference = run_timeline(config, store=StageStore(tmp_path / "fresh-store"))
        assert _report_bytes(resumed) == _report_bytes(reference)

    def test_storeless_campaign_never_reports_hits(self, tmp_path):
        report = run_timeline(_config(), store=None)
        assert report.cache_hits == 0
        assert report.cache_misses == N_EPOCHS

    def test_status_without_runs_is_all_pending(self, tmp_path):
        config = _config()
        status = timeline_status(config, StageStore(tmp_path / "store"))
        assert status.n_done == 0
        assert status.n_pending == N_EPOCHS
        assert "pending: 2022Q1" in status.render()


def _crash_plan(n_epochs: int) -> FaultPlan:
    """A plan whose timeline.shard crash spares epoch 0 but kills a later one.

    Searched deterministically over seeds, so the test never depends on a
    magic constant staying lucky across hash changes.
    """
    spec = FaultSpec(site="timeline.shard", kind="crash", rate=0.5)
    for seed in range(200):
        plan = FaultPlan(seed=seed, specs=(spec,))
        fires = [plan.fires_ever("timeline.shard", i) for i in range(n_epochs)]
        if not fires[0] and any(fires[1:]):
            return plan
    raise AssertionError("no seed under 200 produced the wanted fire pattern")


class TestCrashResume:
    def test_worker_crash_mid_campaign_then_clean_resume(self, tmp_path):
        """An epoch's shard crashes mid-campaign (injected via repro.faults,
        no resilience layer), the campaign dies, but every completed epoch
        is durable — and the resumed, fault-free campaign's report is
        byte-identical to an uninterrupted reference."""
        config = _config()
        plan = _crash_plan(N_EPOCHS)
        store = StageStore(tmp_path / "store")
        with pytest.raises(WorkerCrashError):
            run_timeline(replace(config, faults=plan), store=store)
        survived = timeline_status(config, store).n_done
        assert 1 <= survived < N_EPOCHS  # epoch 0 landed, the crash epoch did not

        resumed = run_timeline(config, store=store)
        assert resumed.cache_hits == survived
        assert resumed.cache_misses == N_EPOCHS - survived
        assert resumed.n_lost == 0

        reference = run_timeline(config, store=StageStore(tmp_path / "fresh-store"))
        assert _report_bytes(resumed) == _report_bytes(reference)

    def test_lost_epoch_degrades_then_resume_heals(self, tmp_path):
        """With the resilience layer and a permissive budget, a permanently
        crashing epoch becomes a ``status="lost"`` row instead of killing
        the campaign; lost epochs are never persisted, so a later clean
        run computes them and restores the reference report."""
        config = _config()
        plan = _crash_plan(N_EPOCHS)
        resilience = ResilienceConfig(
            retry=RetryPolicy(max_attempts=2),
            fallback_in_process=False,
            budget=ErrorBudget(shard_loss_fraction=1.0),
        )
        store = StageStore(tmp_path / "store")
        degraded = run_timeline(
            replace(config, faults=plan, resilience=resilience), store=store
        )
        assert degraded.n_lost >= 1
        assert len(degraded.epochs) == N_EPOCHS
        lost = [epoch for epoch in degraded.epochs if epoch.status == "lost"]
        assert all(epoch.row == {} for epoch in lost)
        assert "LOST" in degraded.render()
        assert timeline_status(config, store).n_done == N_EPOCHS - len(lost)

        healed = run_timeline(config, store=store)
        assert healed.n_lost == 0
        assert healed.cache_misses == len(lost)
        reference = run_timeline(config, store=StageStore(tmp_path / "fresh-store"))
        assert _report_bytes(healed) == _report_bytes(reference)


@pytest.mark.parallel
class TestResumeProcess:
    @pytest.fixture(autouse=True)
    def _cold_pools(self):
        try:
            yield
        finally:
            shutdown_pools()

    def test_interrupt_resume_replay(self, tmp_path):
        if not process_backend_available():
            pytest.skip("worker-pool backend unavailable")
        _resume_roundtrip(ParallelConfig(backend="pool", workers=2), tmp_path, k=1)

    def test_serial_and_process_resumes_interchange(self, tmp_path):
        """A store written by a serial run must be readable by a pool
        resume (and vice versa): the content address normalises the
        execution backend away."""
        if not process_backend_available():
            pytest.skip("worker-pool backend unavailable")
        config = _config()
        store = StageStore(tmp_path / "store")
        run_timeline(config, store=store, max_epochs=1)  # serial
        resumed = run_timeline(
            replace(config, parallel=ParallelConfig(backend="pool", workers=2)), store=store
        )
        assert resumed.cache_hits == 1
        assert resumed.cache_misses == N_EPOCHS - 1
