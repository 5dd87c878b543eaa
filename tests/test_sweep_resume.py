"""Kill-and-resume guarantees for sweep campaigns.

The acceptance property of this subsystem: interrupt a campaign after k
of n cells, resume it against the same store, and (a) only the n-k
remaining cells are computed (visible through store hit/miss counters),
(b) the final report is byte-identical to an uninterrupted campaign's.
"""

import json

import pytest

from repro.core.pipeline import StudyConfig
from repro.faults import FaultPlan, FaultSpec, WorkerCrashError
from repro.parallel import ParallelConfig, process_backend_available, shutdown_pools
from repro.resilience import ErrorBudget, ResilienceConfig, RetryPolicy
from repro.store import StudyStore
from repro.sweep import MetricSpec, ParameterGrid, run_campaign
from repro.topology.generator import InternetConfig

pytestmark = pytest.mark.store


def _n_detections(study) -> float:
    return float(len(study.latest_inventory))


METRICS = (MetricSpec("detections", _n_detections, 1.0, 1e9, "n/a"),)


def _grid(n_cells: int = 3) -> ParameterGrid:
    base = StudyConfig(
        internet=InternetConfig(seed=3, n_access_isps=40, n_ixps=20),
        n_vantage_points=24,
        seed=3,
    )
    return ParameterGrid.of(base, {"seed,internet.seed": list(range(3, 3 + n_cells))})


def _report_bytes(report) -> bytes:
    return json.dumps(report.to_json(), sort_keys=True).encode()


class _AbortAfter:
    """Serial cell hook that kills the campaign after ``n`` cells."""

    def __init__(self, n: int):
        self.n = n
        self.seen = 0

    def __call__(self, result) -> None:
        self.seen += 1
        if self.seen >= self.n:
            raise KeyboardInterrupt("simulated operator abort")


def _resume_roundtrip(parallel: ParallelConfig | None, tmp_path, k: int = 1) -> None:
    grid = _grid(3)

    # Interrupted campaign: only the first k cells complete.
    store = StudyStore(tmp_path / "store")
    partial_report = run_campaign(grid, METRICS, store=store, parallel=parallel, max_cells=k)
    assert partial_report.cache_misses == k
    assert store.stats().entries == k

    # Resume: the k stored cells are hits, the n-k rest run exactly once.
    resumed = run_campaign(grid, METRICS, store=store, parallel=parallel)
    assert resumed.cache_hits == k
    assert resumed.cache_misses == grid.n_cells - k
    assert store.stats().entries == grid.n_cells

    # Replay: everything is now durable, nothing recomputes.
    replay = run_campaign(grid, METRICS, store=store, parallel=parallel)
    assert replay.cache_hits == grid.n_cells
    assert replay.cache_misses == 0

    # Uninterrupted reference in a pristine store: identical report bytes.
    reference = run_campaign(
        grid, METRICS, store=StudyStore(tmp_path / "fresh-store"), parallel=parallel
    )
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
        cells durable, and the resume recomputes only the remainder."""
        grid = _grid(3)
        store = StudyStore(tmp_path / "store")
        with pytest.raises(KeyboardInterrupt):
            run_campaign(grid, METRICS, store=store, cell_hook=_AbortAfter(2))
        assert store.stats().entries == 2

        resumed = run_campaign(grid, METRICS, store=store)
        assert resumed.cache_hits == 2
        assert resumed.cache_misses == 1

        reference = run_campaign(grid, METRICS, store=StudyStore(tmp_path / "fresh-store"))
        assert _report_bytes(resumed) == _report_bytes(reference)

    def test_storeless_campaign_never_reports_hits(self, tmp_path):
        grid = _grid(2)
        report = run_campaign(grid, METRICS)
        assert report.cache_hits == 0
        assert report.cache_misses == 2


def _crash_plan(n_cells: int) -> FaultPlan:
    """A plan whose sweep.shard crash spares cell 0 but kills a later one.

    Searched deterministically over seeds, so the test never depends on a
    magic constant staying lucky across hash changes.
    """
    spec = FaultSpec(site="sweep.shard", kind="crash", rate=0.5)
    for seed in range(200):
        plan = FaultPlan(seed=seed, specs=(spec,))
        fires = [plan.fires_ever("sweep.shard", i) for i in range(n_cells)]
        if not fires[0] and any(fires[1:]):
            return plan
    raise AssertionError("no seed under 200 produced the wanted fire pattern")


class TestCrashResume:
    def test_worker_crash_mid_campaign_then_clean_resume(self, tmp_path):
        """Satellite case: a cell's worker crashes mid-shard (injected via
        repro.faults, no resilience layer), the campaign dies, but every
        completed cell is durable — and the resumed, fault-free campaign's
        report is byte-identical to an uninterrupted reference."""
        grid = _grid(3)
        plan = _crash_plan(grid.n_cells)
        store = StudyStore(tmp_path / "store")
        with pytest.raises(WorkerCrashError):
            run_campaign(grid, METRICS, store=store, faults=plan)
        survived = store.stats().entries
        assert 1 <= survived < grid.n_cells  # cell 0 landed, the crash cell did not

        resumed = run_campaign(grid, METRICS, store=store)
        assert resumed.cache_hits == survived
        assert resumed.cache_misses == grid.n_cells - survived
        assert resumed.n_failed == 0

        reference = run_campaign(grid, METRICS, store=StudyStore(tmp_path / "fresh-store"))
        assert _report_bytes(resumed) == _report_bytes(reference)

    def test_permanent_cell_fault_degrades_then_resume_heals(self, tmp_path):
        """With the resilience layer and a permissive budget, a permanently
        crashing cell becomes a ``status="failed"`` row instead of killing
        the campaign; failed cells are never persisted, so a later clean
        run computes them and restores the reference report."""
        grid = _grid(3)
        plan = _crash_plan(grid.n_cells)
        resilience = ResilienceConfig(
            retry=RetryPolicy(max_attempts=2),
            fallback_in_process=False,
            budget=ErrorBudget(shard_loss_fraction=1.0),
        )
        store = StudyStore(tmp_path / "store")
        degraded = run_campaign(grid, METRICS, store=store, faults=plan, resilience=resilience)
        assert degraded.n_failed >= 1
        assert len(degraded.cells) == grid.n_cells
        failed = [cell for cell in degraded.cells if cell.status == "failed"]
        assert all(cell.values == {} for cell in failed)
        assert "FAILED" in degraded.render()
        assert store.stats().entries == grid.n_cells - len(failed)

        healed = run_campaign(grid, METRICS, store=store)
        assert healed.n_failed == 0
        assert healed.cache_misses == len(failed)
        reference = run_campaign(grid, METRICS, store=StudyStore(tmp_path / "fresh-store"))
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
        parallel = ParallelConfig(backend="pool", workers=2)
        _resume_roundtrip(parallel, tmp_path, k=1)

    def test_serial_and_process_resumes_interchange(self, tmp_path):
        """A store written by a serial run must be readable by a pool
        resume (and vice versa): the content address normalises the
        execution backend away."""
        if not process_backend_available():
            pytest.skip("worker-pool backend unavailable")
        grid = _grid(2)
        store = StudyStore(tmp_path / "store")
        run_campaign(grid, METRICS, store=store, max_cells=1)  # serial
        resumed = run_campaign(
            grid, METRICS, store=store, parallel=ParallelConfig(backend="pool", workers=2)
        )
        assert resumed.cache_hits == 1
        assert resumed.cache_misses == 1
