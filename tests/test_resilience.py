"""Tests for :mod:`repro.resilience`: retry policy, supervision, budgets.

The executor-level cases drive :func:`repro.parallel.run_sharded` with a
deterministic :class:`~repro.faults.FaultPlan` and assert the supervision
behaviour directly: transient faults are retried to success, exhausted
shards are quarantined into :class:`ShardLoss` sentinels, budgets gate
whether a stage survives its losses, and — the regression that motivated
``ParallelConfig.shard_timeout_s`` — a hung worker cannot stall a study
forever.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
import textwrap
import time
from concurrent.futures import Future
from pathlib import Path
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.faults import (
    FatalFaultError,
    FaultPlan,
    FaultSpec,
    TransientFaultError,
    WorkerCrashError,
)
from repro.obs import Telemetry
from repro.parallel import ParallelConfig, Shard, ShardPlan, run_sharded, shutdown_pools
from repro.resilience import (
    CoverageReport,
    ErrorBudget,
    ResilienceConfig,
    RetryPolicy,
    ShardLoss,
    ShardQuarantinedError,
    ShardTimeoutError,
    call_with_retry,
    is_retryable,
    jitter_rng,
)


# Module-level so the pool backend can pickle them.
def _sum_shard(shard: Shard, telemetry) -> int:
    return sum(shard.items)


def _slow_shard(shard: Shard, telemetry) -> int:
    time.sleep(30.0)
    return sum(shard.items)


class TestRetryPolicy:
    def test_defaults(self):
        policy = RetryPolicy()
        assert policy.max_attempts == 3
        assert policy.base_delay_s == 0.0

    def test_validation(self):
        for kwargs in (
            {"max_attempts": 0},
            {"base_delay_s": -1.0},
            {"backoff": 0.5},
            {"jitter": 1.5},
        ):
            with pytest.raises(ValueError):
                RetryPolicy(**kwargs)

    def test_retries_left(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.retries_left(0)
        assert policy.retries_left(1)
        assert not policy.retries_left(2)
        assert not RetryPolicy(max_attempts=1).retries_left(0)

    def test_exponential_backoff_with_ceiling(self):
        policy = RetryPolicy(base_delay_s=1.0, backoff=2.0, max_delay_s=3.0)
        assert policy.delay_s(0) == 1.0
        assert policy.delay_s(1) == 2.0
        assert policy.delay_s(2) == 3.0  # capped
        assert policy.delay_s(10) == 3.0

    def test_jitter_is_deterministic(self):
        policy = RetryPolicy(base_delay_s=1.0, jitter=0.5)
        a = policy.delay_s(1, jitter_rng("stage", 3))
        b = policy.delay_s(1, jitter_rng("stage", 3))
        assert a == b
        assert policy.delay_s(1) <= a <= policy.delay_s(1) * 1.5


class TestClassification:
    def test_retryable_errors(self):
        for error in (
            TransientFaultError("x"),
            WorkerCrashError("x"),
            ShardTimeoutError("x"),
            TimeoutError("x"),
            ConnectionError("x"),
        ):
            assert is_retryable(error)

    def test_fatal_errors(self):
        for error in (FatalFaultError("x"), ValueError("x"), RuntimeError("x")):
            assert not is_retryable(error)


class TestCallWithRetry:
    def test_succeeds_after_transient_failures(self):
        attempts: list[int] = []

        def flaky(attempt: int) -> str:
            attempts.append(attempt)
            if attempt < 2:
                raise TransientFaultError("not yet")
            return "ok"

        assert call_with_retry(flaky, RetryPolicy(max_attempts=3)) == "ok"
        assert attempts == [0, 1, 2]

    def test_exhaustion_raises_last_error(self):
        def always(attempt: int) -> None:
            raise TransientFaultError(f"attempt {attempt}")

        with pytest.raises(TransientFaultError, match="attempt 1"):
            call_with_retry(always, RetryPolicy(max_attempts=2))

    def test_fatal_error_propagates_immediately(self):
        calls: list[int] = []

        def fatal(attempt: int) -> None:
            calls.append(attempt)
            raise FatalFaultError("permanent")

        with pytest.raises(FatalFaultError):
            call_with_retry(fatal, RetryPolicy(max_attempts=5))
        assert calls == [0]

    def test_on_retry_hook_and_sleep(self):
        seen: list[tuple[int, str]] = []
        slept: list[float] = []

        def flaky(attempt: int) -> int:
            if attempt == 0:
                raise TransientFaultError("once")
            return attempt

        result = call_with_retry(
            flaky,
            RetryPolicy(max_attempts=2, base_delay_s=0.25),
            on_retry=lambda attempt, error: seen.append((attempt, type(error).__name__)),
            sleep=slept.append,
        )
        assert result == 1
        assert seen == [(0, "TransientFaultError")]
        assert slept == [0.25]


class TestErrorBudget:
    def test_zero_budget_rejects_any_loss(self):
        budget = ErrorBudget()
        assert budget.allows(0, 10)
        assert not budget.allows(1, 10)

    def test_fractional_budget(self):
        budget = ErrorBudget(shard_loss_fraction=0.2)
        assert budget.allows(2, 10)
        assert not budget.allows(3, 10)
        assert not budget.allows(1, 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ErrorBudget(shard_loss_fraction=1.5)


class TestCoverageReport:
    def test_accumulates_and_totals(self):
        report = CoverageReport()
        report.record("mlab.pings", 3, 100)
        report.record("mlab.pings", 2, 50)
        report.record("scan.records", 0, 10)
        assert report.entries["mlab.pings"] == (5, 150)
        assert report.lost("mlab.pings") == 5
        assert report.total("mlab.pings") == 150
        assert report.fraction_lost("mlab.pings") == pytest.approx(5 / 150)
        assert not report.complete

    def test_shards_lost_counts_only_shard_sites(self):
        report = CoverageReport()
        report.record("mlab.pings", 7, 100)
        assert report.shards_lost == 0
        report.record("campaign.shards", 2, 10)
        report.record("clustering.shards", 1, 5)
        assert report.shards_lost == 3

    def test_json_round_trip(self):
        report = CoverageReport()
        report.record("rdns.lookups", 1, 9)
        clone = CoverageReport.from_json(report.to_json())
        assert clone.entries == report.entries

    def test_render_mentions_verdict(self):
        report = CoverageReport()
        report.record("scan.records", 0, 10)
        assert "complete" in report.render()
        report.record("scan.records", 1, 0)
        assert "DEGRADED" in report.render()


def _plan(n: int = 12, chunk: int = 3) -> ShardPlan:
    return ShardPlan.of(list(range(n)), chunk_size=chunk)


class TestSerialSupervision:
    def test_transient_fault_is_retried_to_success(self):
        faults = FaultPlan(
            seed=1,
            specs=(FaultSpec(site="parallel.shard", kind="error", rate=1.0, fail_attempts=1),),
        )
        telemetry = Telemetry.capture()
        results = run_sharded(
            _sum_shard,
            _plan(),
            telemetry=telemetry,
            faults=faults,
            resilience=ResilienceConfig(),
        )
        assert results == [sum(s.items) for s in _plan().shards()]
        assert telemetry.metrics.counter("resilience.retries") == 4

    def test_without_resilience_the_fault_propagates(self):
        faults = FaultPlan(
            seed=1, specs=(FaultSpec(site="parallel.shard", kind="error", rate=1.0),)
        )
        with pytest.raises(TransientFaultError):
            run_sharded(_sum_shard, _plan(), faults=faults)

    def test_permanent_fault_exhausts_and_quarantines(self):
        faults = FaultPlan(
            seed=1, specs=(FaultSpec(site="parallel.shard", kind="crash", rate=1.0),)
        )
        resilience = ResilienceConfig(
            retry=RetryPolicy(max_attempts=2), budget=ErrorBudget(shard_loss_fraction=1.0)
        )
        telemetry = Telemetry.capture()
        results = run_sharded(
            _sum_shard, _plan(), telemetry=telemetry, faults=faults, resilience=resilience
        )
        assert all(isinstance(result, ShardLoss) for result in results)
        assert results[0].attempts == 2
        assert "WorkerCrashError" in results[0].error
        assert telemetry.metrics.counter("resilience.quarantined_shards") == 4

    def test_budget_zero_aborts_on_any_loss(self):
        faults = FaultPlan(
            seed=1, specs=(FaultSpec(site="parallel.shard", kind="error", rate=1.0, fatal=True),)
        )
        with pytest.raises(ShardQuarantinedError, match="over its error budget"):
            run_sharded(_sum_shard, _plan(), faults=faults, resilience=ResilienceConfig())

    def test_stage_alias_targets_one_label_only(self):
        faults = FaultPlan(
            seed=1, specs=(FaultSpec(site="campaign.shard", kind="error", rate=1.0, fatal=True),)
        )
        # The clustering label never consults campaign.shard: no faults.
        assert run_sharded(_sum_shard, _plan(), label="clustering", faults=faults) == [
            sum(s.items) for s in _plan().shards()
        ]
        with pytest.raises(FatalFaultError):
            run_sharded(_sum_shard, _plan(), label="campaign", faults=faults)

    def test_serial_hang_respects_timeout_emulation(self):
        faults = FaultPlan(
            seed=1,
            specs=(FaultSpec(site="parallel.shard", kind="hang", rate=1.0, hang_s=60.0),),
        )
        config = ParallelConfig(shard_timeout_s=0.2)
        start = time.monotonic()
        with pytest.raises(ShardTimeoutError):
            run_sharded(_sum_shard, _plan(), config, faults=faults)
        # The serial emulation raises instead of actually sleeping 60s.
        assert time.monotonic() - start < 5.0

    def test_disabled_injection_is_inert(self):
        plain = run_sharded(_sum_shard, _plan())
        supervised = run_sharded(_sum_shard, _plan(), resilience=ResilienceConfig())
        assert plain == supervised == [sum(s.items) for s in _plan().shards()]


@pytest.mark.parallel
class TestProcessSupervision:
    CONFIG = ParallelConfig(backend="pool", workers=2)

    @pytest.fixture(autouse=True)
    def _cold_pools(self):
        try:
            yield
        finally:
            shutdown_pools()

    def test_worker_crash_is_requeued_to_success(self):
        faults = FaultPlan(
            seed=3,
            specs=(FaultSpec(site="parallel.shard", kind="crash", rate=0.6, fail_attempts=1),),
        )
        telemetry = Telemetry.capture()
        results = run_sharded(
            _sum_shard,
            _plan(),
            self.CONFIG,
            telemetry=telemetry,
            faults=faults,
            resilience=ResilienceConfig(),
        )
        assert results == [sum(s.items) for s in _plan().shards()]
        assert telemetry.metrics.counter("resilience.worker_crashes") >= 1

    def test_process_results_match_serial_under_faults(self):
        faults = FaultPlan(
            seed=5,
            specs=(FaultSpec(site="parallel.shard", kind="error", rate=0.5, fail_attempts=1),),
        )
        resilience = ResilienceConfig()
        serial = run_sharded(_sum_shard, _plan(), faults=faults, resilience=resilience)
        process = run_sharded(
            _sum_shard, _plan(), self.CONFIG, faults=faults, resilience=resilience
        )
        assert serial == process

    def test_hung_worker_cannot_stall_the_stage(self):
        """Satellite regression: a shard that hangs is detected by the
        per-shard timeout, its pool is abandoned, and the stage completes
        via requeue/fallback instead of blocking forever."""
        faults = FaultPlan(
            seed=7,
            specs=(
                FaultSpec(site="parallel.shard", kind="hang", rate=0.4, hang_s=120.0, fail_attempts=1),
            ),
        )
        config = ParallelConfig(backend="pool", workers=2, shard_timeout_s=1.0)
        telemetry = Telemetry.capture()
        start = time.monotonic()
        results = run_sharded(
            _sum_shard,
            _plan(8, 2),
            config,
            telemetry=telemetry,
            faults=faults,
            resilience=ResilienceConfig(),
        )
        elapsed = time.monotonic() - start
        assert results == [sum(s.items) for s in _plan(8, 2).shards()]
        assert elapsed < 60.0  # far below the 120s injected hang
        assert telemetry.metrics.counter("resilience.timeouts") >= 1

    def test_genuinely_hung_task_times_out_via_fallback_quarantine(self):
        """A task that hangs for real (no fault plan) is caught by the
        timeout and quarantined once its attempts and the in-process
        fallback are exhausted — the study-level stall guard."""
        config = ParallelConfig(backend="pool", workers=1, shard_timeout_s=0.5)
        resilience = ResilienceConfig(
            retry=RetryPolicy(max_attempts=1),
            fallback_in_process=False,
            budget=ErrorBudget(shard_loss_fraction=1.0),
        )
        start = time.monotonic()
        results = run_sharded(
            _slow_shard, ShardPlan.of([1, 2], chunk_size=2), config, resilience=resilience
        )
        assert time.monotonic() - start < 20.0
        assert len(results) == 1 and isinstance(results[0], ShardLoss)

    def test_rebuild_kills_hung_workers_before_exit(self):
        """A rebuilt pool's hung workers are killed, not abandoned: a
        process that recovered from a 60 s hang exits long before the hang
        would have ended (interpreter exit joins every pool worker)."""
        script = textwrap.dedent(
            """
            from repro.faults import FaultPlan, FaultSpec
            from repro.parallel import ParallelConfig, ShardPlan, run_sharded
            from repro.resilience import ResilienceConfig
            from tests.test_resilience import _sum_shard

            faults = FaultPlan(seed=1, specs=(FaultSpec(
                site="parallel.shard", kind="hang", rate=1.0, hang_s=60.0, fail_attempts=1),))
            config = ParallelConfig(backend="pool", workers=2, shard_timeout_s=0.5)
            plan = ShardPlan.of([1, 2, 3, 4], chunk_size=2)
            print(run_sharded(_sum_shard, plan, config, faults=faults, resilience=ResilienceConfig()))
            """
        )
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
        start = time.monotonic()
        try:
            done = subprocess.run(
                [sys.executable, "-c", script], cwd=root, env=env, capture_output=True,
                text=True, timeout=30,
            )
        except subprocess.TimeoutExpired:
            pytest.fail("the process waited out its hung pool workers at exit")
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["[3,", "7]"]
        assert time.monotonic() - start < 30.0

    def test_losses_count_only_attempts_that_ran(self):
        """A loss's ``attempts`` counts the in-process fallback only when
        it ran: with the fallback off, pool and serial losses agree."""
        faults = FaultPlan(
            seed=1, specs=(FaultSpec(site="parallel.shard", kind="error", rate=1.0),)
        )
        resilience = ResilienceConfig(
            retry=RetryPolicy(max_attempts=1),
            fallback_in_process=False,
            budget=ErrorBudget(shard_loss_fraction=1.0),
        )
        plan = ShardPlan.of(range(4), chunk_size=2)
        serial = run_sharded(_sum_shard, plan, faults=faults, resilience=resilience)
        pool = run_sharded(_sum_shard, plan, self.CONFIG, faults=faults, resilience=resilience)
        assert [loss.attempts for loss in pool] == [loss.attempts for loss in serial] == [1, 1]
        with_fallback = dataclasses.replace(resilience, fallback_in_process=True)
        pool = run_sharded(_sum_shard, plan, self.CONFIG, faults=faults, resilience=with_fallback)
        assert [loss.attempts for loss in pool] == [2, 2]


class _SubmitBreaksPool:
    """Pool stand-in whose ``submit`` raises ``BrokenProcessPool`` on the
    first call after the lease and after the first rebuild — a worker that
    died between ``wait()`` and the next submit — and otherwise runs the
    task inline."""

    def __init__(self) -> None:
        self.restarts = 0
        self._fresh = True

    def submit(self, fn, *args):
        if self._fresh and self.restarts < 2:
            self._fresh = False
            raise BrokenProcessPool("a worker died before this submit")
        self._fresh = False
        future: Future = Future()
        future.set_result(fn(*args))
        return future

    def rebuild(self) -> None:
        self.restarts += 1
        self._fresh = True

    def info(self) -> dict:
        return {"pool": "stub", "workers": 2, "restarts": self.restarts, "persistent": True}


class TestSubmitTimeBreak:
    def test_broken_pool_at_submit_rebuilds_and_requeues(self, monkeypatch):
        """A pool that breaks at submit is rebuilt and the unsubmitted shard
        requeued uncharged, so the stage completes without a retry policy."""
        import repro.parallel.executor as executor

        stub = _SubmitBreaksPool()
        monkeypatch.setattr(executor, "get_pool", lambda workers, start_method: stub)
        telemetry = Telemetry.capture()
        results = run_sharded(
            _sum_shard,
            _plan(),
            ParallelConfig(backend="pool", workers=2),
            telemetry=telemetry,
            label="stage",
        )
        assert results == run_sharded(_sum_shard, _plan())
        assert telemetry.flight.pools["stage"]["stage_restarts"] == 2
        assert telemetry.metrics.counter("resilience.worker_crashes") == 2
