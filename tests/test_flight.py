"""Tests for the executor flight view (repro.obs.flight) over shard spans."""

import pytest

from repro.obs import Telemetry
from repro.obs.flight import (
    MIN_SHARDS_FOR_STRAGGLERS,
    STRAGGLER_FACTOR,
    FlightView,
    ShardFlight,
)
from repro.obs.trace import Span, Tracer


def _shard_span(
    label: str,
    shard: int,
    worker: str | None = None,
    execute_s: float = 0.1,
    started_s: float = 0.0,
    attempt: int | None = 0,
    **attributes,
) -> Span:
    """A finished ``<label>.shard`` span as an executor leaves it."""
    attributes["shard"] = shard
    if worker is not None:
        attributes["worker"] = worker
    if attempt is not None:
        attributes["attempt"] = attempt
    return Span.from_json(
        {
            "name": f"{label}.shard",
            "start_ms": 1000.0 * started_s,
            "duration_ms": 1000.0 * execute_s,
            "attributes": attributes,
        }
    )


def _view(*spans: Span) -> FlightView:
    tracer = Tracer()
    tracer.roots = list(spans)
    return FlightView(tracer)


def _uniform(label: str, n: int, execute_s: float = 0.1) -> list[Span]:
    return [
        _shard_span(
            label, i, worker=f"pid-{i % 2}", execute_s=execute_s, started_s=i * execute_s,
            queue_wait_ms=10.0,
        )
        for i in range(n)
    ]


class TestShardFlight:
    def test_finished_and_json(self):
        flight = ShardFlight(
            label="campaign",
            shard=3,
            worker="pid-7",
            queue_wait_s=0.05,
            execute_s=0.2,
            attempt=1,
            started_s=1.0,
        )
        assert flight.finished_s == pytest.approx(1.2)
        data = flight.to_json()
        assert data == {
            "label": "campaign",
            "shard": 3,
            "worker": "pid-7",
            "queue_wait_ms": 50.0,
            "execute_ms": 200.0,
            "attempt": 1,
            "payload_bytes": 0,
        }


class TestFlightRecorder:
    """The view's records and derived forensics, from hand-built spans.

    The class keeps the name of the recorder the view replaced, so these
    test ids stay the same.
    """

    def test_record_clamps_negative_times(self):
        # A worker whose clock puts its start before the submission (clock
        # skew between processes) gets a zero queue wait, not a negative one.
        from repro.parallel.executor import _merge_worker_snapshot

        telemetry = Telemetry(tracer=Tracer())
        snapshot = {
            "spans": [{"name": "x.shard", "duration_ms": 100.0, "attributes": {"shard": 0}}],
            "worker": {"pid": 7, "wall_origin": 1000.0},
        }
        with telemetry.span("x.fanout"):
            _merge_worker_snapshot(telemetry, snapshot, 1000.5, 0, 0)
        (record,) = telemetry.flight.records
        assert record.queue_wait_s == 0.0
        assert record.execute_s == pytest.approx(0.1)
        assert record.worker == "pid-7"

    def test_labels_first_seen_order(self):
        view = _view(_shard_span("b", 0), _shard_span("a", 0), _shard_span("b", 1))
        assert view.labels() == ["b", "a"]

    def test_makespan_from_timeline(self):
        view = _view(
            _shard_span("x", 0, execute_s=0.3, started_s=1.0),
            _shard_span("x", 1, execute_s=0.5, started_s=1.2),
        )
        assert view.makespan_s() == pytest.approx(0.7)  # 1.0 .. 1.7
        assert _view().makespan_s() == 0.0

    def test_worker_utilization(self):
        # Two workers over a 1 s makespan: one busy 0.8 s, one 0.4 s.
        view = _view(
            _shard_span("x", 0, worker="pid-1", execute_s=0.8, started_s=0.0),
            _shard_span("x", 1, worker="pid-2", execute_s=0.4, started_s=0.6),
        )
        stats = view.worker_utilization()
        assert set(stats) == {"pid-1", "pid-2"}
        assert stats["pid-1"]["utilization"] == pytest.approx(0.8)
        assert stats["pid-2"]["utilization"] == pytest.approx(0.4)
        assert stats["pid-1"]["shards"] == 1

    def test_stragglers_flagged_over_factor_times_median(self):
        assert STRAGGLER_FACTOR == 3.0
        view = _view(
            *_uniform("campaign", 6, execute_s=0.1),
            _shard_span("campaign", 6, worker="pid-0", execute_s=0.5),
        )
        assert [f.shard for f in view.stragglers()] == [6]

    def test_small_stages_never_flagged(self):
        view = _view(
            *_uniform("tiny", MIN_SHARDS_FOR_STRAGGLERS - 2, execute_s=0.01),
            _shard_span("tiny", 99, execute_s=10.0),
        )
        # 3 shards total: below the minimum, so even a 1000x outlier stays unflagged.
        assert view.stragglers() == []

    def test_zero_median_stage_skipped(self):
        assert _view(*_uniform("instant", 5, execute_s=0.0)).stragglers() == []

    def test_queue_wait_fraction(self):
        view = _view(_shard_span("x", 0, execute_s=3.0, queue_wait_ms=1000.0))
        assert view.queue_wait_fraction() == pytest.approx(0.25)
        assert _view().queue_wait_fraction() == 0.0

    def test_to_json_summary_shape(self):
        data = _view(*_uniform("campaign", 5)).to_json()
        assert data["shards"] == 5
        assert set(data) == {
            "shards",
            "makespan_s",
            "queue_wait_fraction",
            "workers",
            "payload",
            "pools",
            "stragglers",
        }
        assert set(data["workers"]) == {"pid-0", "pid-1"}

    def test_payload_stats_rollup(self):
        view = _view(
            _shard_span("x", 0, worker="pid-1", payload_bytes=100),
            _shard_span("x", 1, worker="pid-1", payload_bytes=300),
            _shard_span("x", 2, worker="fallback"),  # never serialized
        )
        assert view.payload_stats() == {
            "measured_shards": 2,
            "total_bytes": 400,
            "max_bytes": 300,
        }
        assert "max 0.3 KiB/shard over 2 submissions" in view.render()

    def test_set_pool_lands_in_json_and_render(self):
        fanout = Span.from_json(
            {
                "name": "campaign.fanout",
                "attributes": {
                    "backend": "pool",
                    "n_shards": 1,
                    "pool": "pool-1-0",
                    "workers": 2,
                    "restarts": 0,
                    "persistent": True,
                    "stages_served": 1,
                    "stage_restarts": 0,
                },
            }
        )
        fanout.children = [_shard_span("campaign", 0, worker="pid-1")]
        view = _view(fanout)
        assert view.to_json()["pools"] == {
            "campaign": {
                "pool": "pool-1-0",
                "workers": 2,
                "restarts": 0,
                "stages_served": 1,
                "persistent": True,
                "stage_restarts": 0,
            }
        }
        assert "pool campaign: pool-1-0" in view.render()

    def test_render(self):
        view = _view(
            *_uniform("campaign", 6, execute_s=0.1),
            _shard_span("campaign", 6, worker="pid-0", execute_s=0.9),
        )
        text = view.render()
        assert "worker" in text and "utilization" in text
        assert "STRAGGLER campaign[6] on pid-0" in text
        assert "queue-wait share" in text
        assert _view().render() == "no shard flights recorded"

    def test_render_without_stragglers(self):
        assert "stragglers: none" in _view(_shard_span("x", 0)).render()

    def test_only_completed_shard_spans_are_records(self):
        view = _view(
            _shard_span("x", 0, attempt=None),  # closed by an exception
            _shard_span("x", 0, attempt=1),
            Span.from_json({"name": "x.fanout", "attributes": {"shard": 0, "attempt": 0}}),
        )
        (record,) = view.records
        assert (record.label, record.attempt, record.worker) == ("x", 1, "serial")


class TestNullFlightRecorder:
    """The disabled bundle's view: no spans, so nothing to report."""

    def test_inert(self):
        from repro.obs import NULL_TELEMETRY

        flight = NULL_TELEMETRY.flight
        assert not flight.enabled
        assert flight.records == []
        assert flight.labels() == []
        assert flight.pools == {}
        assert flight.worker_utilization() == {}
        assert flight.stragglers() == []
        assert flight.to_json()["shards"] == 0
        assert flight.render() == "no shard flights recorded"


def _double_shard(shard, telemetry):
    return sum(shard.items) * 2


class _FailsFirstCall:
    """A shard task that raises a retryable error inside its span once."""

    def __init__(self) -> None:
        self.calls = 0

    def __call__(self, shard, telemetry):
        self.calls += 1
        if self.calls == 1:
            from repro.faults import TransientFaultError

            raise TransientFaultError("first attempt fails mid-shard")
        return sum(shard.items)


class TestExecutorIntegration:
    def test_serial_executor_records_flights(self):
        import io

        from repro.parallel import SerialExecutor, Shard

        telemetry = Telemetry.capture(stream=io.StringIO())
        shards = [Shard(index=i, items=(i,)) for i in range(5)]
        results = SerialExecutor().map_shards(_double_shard, shards, telemetry, "double")
        assert results == [0, 2, 4, 6, 8]
        records = telemetry.flight.records
        assert len(records) == 5
        assert all(r.worker == "serial" and r.attempt == 0 for r in records)
        assert telemetry.flight.labels() == ["double"]

    def test_disabled_telemetry_records_nothing(self):
        from repro.obs import NULL_TELEMETRY
        from repro.parallel import SerialExecutor, Shard

        SerialExecutor().map_shards(
            _double_shard, [Shard(index=0, items=(1,))], NULL_TELEMETRY, "noop"
        )
        assert NULL_TELEMETRY.flight.records == []

    @pytest.mark.parametrize(
        "backend", ["serial", pytest.param("pool", marks=pytest.mark.parallel)]
    )
    def test_one_record_per_completed_shard_span(self, backend):
        from repro.parallel import ParallelConfig, ShardPlan, run_sharded, shutdown_pools

        telemetry = Telemetry(tracer=Tracer())
        try:
            run_sharded(
                _double_shard,
                ShardPlan.of(range(10), chunk_size=2),
                ParallelConfig(backend=backend, workers=2),
                telemetry=telemetry,
                label="stage",
            )
        finally:
            shutdown_pools()
        spans = [
            span for root in telemetry.tracer.roots for span in root.walk()
            if span.name == "stage.shard"
        ]
        records = telemetry.flight.records
        assert len(records) == len(spans) == 5
        for record, span in zip(records, spans):
            assert record.execute_s == span.duration_s
            assert record.started_s == span.start_s
        workers = {record.worker for record in records}
        if backend == "serial":
            assert workers == {"serial"}
        else:
            assert all(worker.startswith("pid-") for worker in workers)

    def test_retried_shard_leaves_one_record(self):
        from repro.parallel import ShardPlan, run_sharded
        from repro.resilience import ResilienceConfig

        telemetry = Telemetry(tracer=Tracer())
        results = run_sharded(
            _FailsFirstCall(),
            ShardPlan.of(range(3), chunk_size=3),
            telemetry=telemetry,
            label="stage",
            resilience=ResilienceConfig(),
        )
        assert results == [3]
        assert len(telemetry.tracer.find("stage.fanout").children) == 2  # failed + retried
        (record,) = telemetry.flight.records
        assert record.attempt == 1

    @pytest.mark.parallel
    def test_pool_fallback_shard_reported_as_fallback(self):
        from repro.faults import FaultPlan, FaultSpec
        from repro.parallel import ParallelConfig, ShardPlan, run_sharded, shutdown_pools
        from repro.resilience import ResilienceConfig, RetryPolicy

        faults = FaultPlan(
            seed=1,
            specs=(FaultSpec(site="parallel.shard", kind="error", rate=1.0, fail_attempts=1),),
        )
        telemetry = Telemetry(tracer=Tracer())
        try:
            results = run_sharded(
                _double_shard,
                ShardPlan.of(range(4), chunk_size=2),
                ParallelConfig(backend="pool", workers=2),
                telemetry=telemetry,
                label="stage",
                faults=faults,
                resilience=ResilienceConfig(retry=RetryPolicy(max_attempts=1)),
            )
        finally:
            shutdown_pools()
        assert results == [2, 10]
        records = sorted(telemetry.flight.records, key=lambda r: r.shard)
        assert [(r.shard, r.worker, r.attempt) for r in records] == [
            (0, "fallback", 1),
            (1, "fallback", 1),
        ]
        assert telemetry.flight.pools["stage"]["pool"]
