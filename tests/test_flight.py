"""Tests for the executor flight recorder (repro.parallel.flight)."""

import pytest

from repro.parallel.flight import (
    MIN_SHARDS_FOR_STRAGGLERS,
    NULL_FLIGHT,
    FlightRecorder,
    NullFlightRecorder,
    ShardFlight,
)


def _record_uniform(recorder: FlightRecorder, label: str, n: int, execute_s: float = 0.1) -> None:
    for i in range(n):
        recorder.record(
            label,
            shard=i,
            worker=f"pid-{i % 2}",
            queue_wait_s=0.01,
            execute_s=execute_s,
            started_s=i * execute_s,
        )


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
            "shm": False,
        }


class TestFlightRecorder:
    def test_record_clamps_negative_times(self):
        recorder = FlightRecorder()
        recorder.record("x", 0, "w", queue_wait_s=-0.5, execute_s=-1.0)
        assert recorder.records[0].queue_wait_s == 0.0
        assert recorder.records[0].execute_s == 0.0

    def test_labels_first_seen_order(self):
        recorder = FlightRecorder()
        recorder.record("b", 0, "w", 0.0, 0.1)
        recorder.record("a", 0, "w", 0.0, 0.1)
        recorder.record("b", 1, "w", 0.0, 0.1)
        assert recorder.labels() == ["b", "a"]

    def test_makespan_from_timeline(self):
        recorder = FlightRecorder()
        recorder.record("x", 0, "w", 0.0, execute_s=0.3, started_s=1.0)
        recorder.record("x", 1, "w", 0.0, execute_s=0.5, started_s=1.2)
        assert recorder.makespan_s() == pytest.approx(0.7)  # 1.0 .. 1.7
        assert FlightRecorder().makespan_s() == 0.0

    def test_worker_utilization(self):
        recorder = FlightRecorder()
        # Two workers over a 1 s makespan: one busy 0.8 s, one 0.4 s.
        recorder.record("x", 0, "pid-1", 0.0, execute_s=0.8, started_s=0.0)
        recorder.record("x", 1, "pid-2", 0.0, execute_s=0.4, started_s=0.6)
        stats = recorder.worker_utilization()
        assert set(stats) == {"pid-1", "pid-2"}
        assert stats["pid-1"]["utilization"] == pytest.approx(0.8)
        assert stats["pid-2"]["utilization"] == pytest.approx(0.4)
        assert stats["pid-1"]["shards"] == 1

    def test_stragglers_flagged_over_factor_times_median(self):
        recorder = FlightRecorder(straggler_factor=3.0)
        _record_uniform(recorder, "campaign", 6, execute_s=0.1)
        recorder.record("campaign", 6, "pid-0", 0.0, execute_s=0.5)
        flagged = recorder.stragglers()
        assert [f.shard for f in flagged] == [6]

    def test_small_stages_never_flagged(self):
        recorder = FlightRecorder()
        _record_uniform(recorder, "tiny", MIN_SHARDS_FOR_STRAGGLERS - 2, execute_s=0.01)
        recorder.record("tiny", 99, "w", 0.0, execute_s=10.0)
        # 3 shards total: below the minimum, so even a 1000x outlier stays unflagged.
        assert recorder.stragglers() == []

    def test_zero_median_stage_skipped(self):
        recorder = FlightRecorder()
        _record_uniform(recorder, "instant", 5, execute_s=0.0)
        assert recorder.stragglers() == []

    def test_queue_wait_fraction(self):
        recorder = FlightRecorder()
        recorder.record("x", 0, "w", queue_wait_s=1.0, execute_s=3.0)
        assert recorder.queue_wait_fraction() == pytest.approx(0.25)
        assert FlightRecorder().queue_wait_fraction() == 0.0

    def test_to_json_summary_shape(self):
        recorder = FlightRecorder()
        _record_uniform(recorder, "campaign", 5)
        data = recorder.to_json()
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
        recorder = FlightRecorder()
        recorder.record("x", 0, "w", 0.0, 0.1, payload_bytes=100, shm=True)
        recorder.record("x", 1, "w", 0.0, 0.1, payload_bytes=300, shm=True)
        recorder.record("x", 2, "w", 0.0, 0.1)  # unmeasured (serial fallback)
        stats = recorder.payload_stats()
        assert stats == {
            "measured_shards": 2,
            "total_bytes": 400,
            "max_bytes": 300,
            "shm_shards": 2,
        }
        assert "via shared memory" in recorder.render()

    def test_set_pool_lands_in_json_and_render(self):
        recorder = FlightRecorder()
        recorder.record("campaign", 0, "w", 0.0, 0.1)
        recorder.set_pool(
            "campaign",
            {"pool": "pool-1-0", "workers": 2, "restarts": 0, "persistent": True, "stages_served": 1},
        )
        assert recorder.to_json()["pools"]["campaign"]["pool"] == "pool-1-0"
        text = recorder.render()
        assert "pool campaign: pool-1-0" in text

    def test_render(self):
        recorder = FlightRecorder()
        _record_uniform(recorder, "campaign", 6, execute_s=0.1)
        recorder.record("campaign", 6, "pid-0", 0.0, execute_s=0.9, started_s=0.0)
        text = recorder.render()
        assert "worker" in text and "utilization" in text
        assert "STRAGGLER campaign[6] on pid-0" in text
        assert "queue-wait share" in text
        assert FlightRecorder().render() == "no shard flights recorded"

    def test_render_without_stragglers(self):
        recorder = FlightRecorder()
        recorder.record("x", 0, "w", 0.0, 0.1)
        assert "stragglers: none" in recorder.render()


class TestNullFlightRecorder:
    def test_inert(self):
        assert isinstance(NULL_FLIGHT, NullFlightRecorder)
        assert not NULL_FLIGHT.enabled
        NULL_FLIGHT.record("x", 0, "w", 0.0, 0.1)
        assert NULL_FLIGHT.records == ()
        assert NULL_FLIGHT.labels() == []
        assert NULL_FLIGHT.worker_utilization() == {}
        assert NULL_FLIGHT.stragglers() == []
        assert NULL_FLIGHT.to_json()["shards"] == 0
        assert NULL_FLIGHT.render() == "no shard flights recorded"


def _double_shard(shard, telemetry):
    return sum(shard.items) * 2


class TestExecutorIntegration:
    def test_serial_executor_records_flights(self):
        import io

        from repro.obs import Telemetry
        from repro.parallel import SerialExecutor, Shard

        telemetry = Telemetry.capture(stream=io.StringIO())
        shards = [Shard(index=i, items=(i,)) for i in range(5)]
        results = SerialExecutor().map_shards(_double_shard, shards, telemetry, "double")
        assert results == [0, 2, 4, 6, 8]
        assert len(telemetry.flight.records) == 5
        assert all(r.worker == "serial" for r in telemetry.flight.records)
        assert telemetry.flight.labels() == ["double"]
        assert telemetry.metrics.histogram("flight.execute_ms").count == 5

    def test_disabled_telemetry_records_nothing(self):
        from repro.obs import NULL_TELEMETRY
        from repro.parallel import SerialExecutor, Shard

        SerialExecutor().map_shards(
            _double_shard, [Shard(index=0, items=(1,))], NULL_TELEMETRY, "noop"
        )
        assert NULL_TELEMETRY.flight.records == ()
