"""Tests for per-stage resource profiling (repro.obs.prof) and its rollup."""

import pytest

from repro.obs import Telemetry, aggregate_stages, render_profile
from repro.obs.prof import StageProfiler, peak_rss_kb
from repro.obs.trace import Tracer


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class FakeRss:
    """A monotone high-water mark, like ru_maxrss."""

    def __init__(self) -> None:
        self.peak_kb = 1000.0

    def __call__(self) -> float:
        return self.peak_kb

    def grow(self, kb: float) -> None:
        self.peak_kb += kb


def _profiled_telemetry() -> tuple[Telemetry, FakeClock, FakeClock, FakeRss]:
    wall = FakeClock()
    cpu = FakeClock()
    rss = FakeRss()
    profiler = StageProfiler(cpu_clock=cpu, rss_reader=rss)
    telemetry = Telemetry(tracer=Tracer(clock=wall, profiler=profiler))
    return telemetry, wall, cpu, rss


class TestStageProfiler:
    def test_span_attributes_from_injected_clocks(self):
        telemetry, wall, cpu, rss = _profiled_telemetry()
        with telemetry.span("stage"):
            wall.advance(2.0)
            cpu.advance(1.5)
            rss.grow(512.0)
        span = telemetry.tracer.find("stage")
        assert span.attributes["cpu_ms"] == pytest.approx(1500.0)
        assert span.attributes["rss_peak_kb"] == pytest.approx(1512.0)
        assert span.attributes["rss_delta_kb"] == pytest.approx(512.0)

    def test_nested_spans_each_profiled(self):
        telemetry, wall, cpu, rss = _profiled_telemetry()
        with telemetry.span("outer"):
            cpu.advance(1.0)
            with telemetry.span("inner"):
                cpu.advance(0.25)
        assert telemetry.tracer.find("inner").attributes["cpu_ms"] == pytest.approx(250.0)
        assert telemetry.tracer.find("outer").attributes["cpu_ms"] == pytest.approx(1250.0)

    def test_peak_rss_positive_on_posix(self):
        assert peak_rss_kb() > 0


class TestProfileAggregation:
    def _telemetry(self) -> Telemetry:
        telemetry, wall, cpu, rss = _profiled_telemetry()
        with telemetry.span("study"):
            for _ in range(3):
                with telemetry.span("shard") as span:
                    span.set(n_items=100)
                    wall.advance(1.0)
                    cpu.advance(0.5)
        return telemetry

    def test_grouped_by_name_in_recording_order(self):
        stages = aggregate_stages(self._telemetry())
        assert list(stages) == ["study", "shard"]
        shard = stages["shard"]
        assert shard["count"] == 3
        assert shard["total_ms"] == pytest.approx(3000.0)
        assert shard["cpu_ms"] == pytest.approx(1500.0)
        assert shard["rss_peak_kb"] == pytest.approx(1000.0)
        assert shard["n_items"] == 300

    def test_derived_rates(self):
        telemetry = self._telemetry()
        with telemetry.span("instant", n_items=5):  # no wall time on the fake clock
            pass
        table = render_profile(telemetry).splitlines()[2:]  # past the header rows
        rows = {line.split()[0]: line.split() for line in table}
        # 3 shard spans: 3000 ms wall, 1500 ms CPU, 300 items.
        assert rows["shard"] == ["shard", "3", "3000.0", "1500.0", "0.50", "1000", "100.0"]
        # The study span recorded no n_items: utilization shows, throughput doesn't.
        assert rows["study"][4:] == ["0.50", "1000", "-"]
        # No wall time: neither rate is defined.
        assert rows["instant"][4:] == ["0.00", "1000", "-"]

    def test_unprofiled_trace_yields_nothing(self):
        telemetry = Telemetry(tracer=Tracer())
        with telemetry.span("bare", n_items=5):
            pass
        assert "cpu_ms" not in aggregate_stages(telemetry)["bare"]
        assert "no resource profile" in render_profile(telemetry)

    def test_render_profile_table(self):
        text = render_profile(self._telemetry())
        assert "stage" in text and "cpu util" in text and "rows/s" in text
        assert "shard" in text
