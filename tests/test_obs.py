"""Tests for the observability subsystem (repro.obs)."""

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    NULL_TELEMETRY,
    MetricsRegistry,
    NullMetrics,
    NullTracer,
    Span,
    StructuredLogger,
    Telemetry,
    Tracer,
    aggregate_stages,
    render_filter_funnel,
    render_metrics_table,
    render_span_tree,
    summarize,
    telemetry_from_json,
    telemetry_to_json,
    write_metrics_json,
)
from repro.obs.logging import INFO, WARNING


class FakeClock:
    """A controllable clock for deterministic span durations."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestTracer:
    def test_nesting(self):
        tracer = Tracer()
        with tracer.span("parent"):
            with tracer.span("child_a"):
                pass
            with tracer.span("child_b"):
                with tracer.span("grandchild"):
                    pass
        assert len(tracer.roots) == 1
        parent = tracer.roots[0]
        assert [c.name for c in parent.children] == ["child_a", "child_b"]
        assert [c.name for c in parent.children[1].children] == ["grandchild"]

    def test_durations_from_clock(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("outer"):
            clock.advance(1.0)
            with tracer.span("inner"):
                clock.advance(2.0)
            clock.advance(0.5)
        outer = tracer.find("outer")
        inner = tracer.find("inner")
        assert inner.duration_s == pytest.approx(2.0)
        assert outer.duration_s == pytest.approx(3.5)

    def test_child_durations_bounded_by_parent(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("parent"):
            for _ in range(3):
                with tracer.span("child"):
                    clock.advance(0.25)
        parent = tracer.roots[0]
        assert sum(c.duration_s for c in parent.children) <= parent.duration_s
        assert all(c.duration_s >= 0 for c in parent.children)

    def test_sequential_roots(self):
        tracer = Tracer()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert [s.name for s in tracer.roots] == ["first", "second"]

    def test_attributes_and_set(self):
        tracer = Tracer()
        with tracer.span("stage", epoch="2023") as span:
            span.set(records=42)
        assert tracer.roots[0].attributes == {"epoch": "2023", "records": 42}

    def test_span_names_and_find(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        assert tracer.span_names() == {"a", "b"}
        assert tracer.find("b").name == "b"
        assert tracer.find("missing") is None

    def test_null_tracer_records_nothing(self):
        tracer = NullTracer()
        with tracer.span("anything", key="value") as span:
            span.set(more=1)
        assert tracer.roots == ()
        assert tracer.span_names() == set()
        # Disabled mode hands out one shared span object: no per-use cost.
        assert tracer.span("x") is tracer.span("y")
        assert tracer.span("x").duration_ms == 0.0


class TestMetrics:
    def test_counter_aggregation(self):
        metrics = MetricsRegistry()
        metrics.count("scan.hosts_probed", 10)
        metrics.count("scan.hosts_probed", 5)
        metrics.count("detect.offnets_found")
        assert metrics.counter("scan.hosts_probed") == 15
        assert metrics.counter("detect.offnets_found") == 1
        assert metrics.counter("never.recorded") == 0

    def test_gauge_last_write_wins(self):
        metrics = MetricsRegistry()
        metrics.gauge("cluster.xi", 0.1)
        metrics.gauge("cluster.xi", 0.9)
        assert metrics.gauges["cluster.xi"] == 0.9

    def test_histogram_summary(self):
        metrics = MetricsRegistry()
        for value in [1.0, 2.0, 3.0, 4.0, 100.0]:
            metrics.observe("cluster.optics_reachability_ms", value)
        summary = metrics.histogram("cluster.optics_reachability_ms")
        assert summary.count == 5
        assert summary.minimum == 1.0
        assert summary.maximum == 100.0
        assert summary.mean == pytest.approx(22.0)
        assert summary.p50 == 3.0
        assert summary.total == pytest.approx(110.0)

    def test_empty_histogram(self):
        assert MetricsRegistry().histogram("nothing").count == 0
        assert summarize([]).mean == 0.0

    def test_percentiles_nearest_rank(self):
        summary = summarize([float(v) for v in range(1, 101)])
        assert summary.p50 == 50.0
        assert summary.p90 == 90.0
        assert summary.p99 == 99.0

    def test_null_metrics_noop(self):
        metrics = NullMetrics()
        metrics.count("a", 5)
        metrics.gauge("b", 1.0)
        metrics.observe("c", 2.0)
        assert metrics.counter("a") == 0
        assert metrics.histogram_names() == []
        assert metrics.to_json() == {"counters": {}, "gauges": {}, "histograms": {}}


class TestLogging:
    def test_text_mode(self):
        stream = io.StringIO()
        log = StructuredLogger("repro.test", level=INFO, stream=stream)
        log.info("scan complete", epoch="2023", records=7)
        assert stream.getvalue() == "[info] repro.test: scan complete epoch=2023 records=7\n"

    def test_json_mode(self):
        stream = io.StringIO()
        log = StructuredLogger("repro.test", level=INFO, json_mode=True, stream=stream)
        log.info("scan complete", epoch="2023", records=7)
        record = json.loads(stream.getvalue())
        assert record == {
            "level": "info",
            "logger": "repro.test",
            "event": "scan complete",
            "epoch": "2023",
            "records": 7,
        }

    def test_level_filtering(self):
        stream = io.StringIO()
        log = StructuredLogger("repro.test", level=WARNING, stream=stream)
        log.debug("dropped")
        log.info("dropped too")
        log.warning("kept")
        assert stream.getvalue().count("\n") == 1
        assert "kept" in stream.getvalue()

    def test_default_level_is_quiet(self):
        assert StructuredLogger("fresh").level == WARNING


class TestTelemetry:
    def test_capture_records_everything(self):
        telemetry = Telemetry.capture(stream=io.StringIO())
        with telemetry.span("stage"):
            telemetry.count("stage.things", 3)
            telemetry.observe("stage.sizes", 1.5)
        assert telemetry.enabled
        assert telemetry.tracer.find("stage") is not None
        assert telemetry.metrics.counter("stage.things") == 3

    def test_disabled_singleton(self):
        assert Telemetry.disabled() is NULL_TELEMETRY
        assert not NULL_TELEMETRY.enabled
        with NULL_TELEMETRY.span("stage"):
            NULL_TELEMETRY.count("x")
            NULL_TELEMETRY.observe("y", 1.0)
            NULL_TELEMETRY.log("z")
        assert NULL_TELEMETRY.tracer.roots == ()
        assert NULL_TELEMETRY.metrics.counter("x") == 0


class TestExport:
    def _sample_telemetry(self) -> Telemetry:
        clock = FakeClock()
        telemetry = Telemetry(tracer=Tracer(clock=clock))
        with telemetry.span("study", seed=0):
            with telemetry.span("scan", epoch="2023"):
                clock.advance(0.1)
            telemetry.count("scan.hosts_probed", 100)
            telemetry.gauge("campaign.vantage_points", 40)
            telemetry.observe("cluster.optics_reachability_ms", 3.5)
            telemetry.observe("cluster.optics_reachability_ms", 7.0)
        return telemetry

    def test_snapshot_shape(self):
        data = telemetry_to_json(self._sample_telemetry(), name="unit")
        assert data["bench"] == "unit"
        assert data["format"] == "repro-bench-v1"
        assert data["spans"][0]["name"] == "study"
        assert data["spans"][0]["children"][0]["name"] == "scan"
        assert data["counters"]["scan.hosts_probed"] == 100
        assert data["histograms"]["cluster.optics_reachability_ms"]["count"] == 2

    def test_json_round_trip(self, tmp_path):
        telemetry = self._sample_telemetry()
        path = write_metrics_json(telemetry, tmp_path / "m.json", name="unit", include_values=True)
        loaded = telemetry_from_json(json.loads(path.read_text()))
        assert loaded.tracer.span_names() == telemetry.tracer.span_names()
        assert loaded.tracer.find("scan").duration_ms == pytest.approx(
            telemetry.tracer.find("scan").duration_ms
        )
        assert loaded.tracer.find("scan").attributes == {"epoch": "2023"}
        assert loaded.metrics.counters == telemetry.metrics.counters
        assert loaded.metrics.gauges == telemetry.metrics.gauges
        assert loaded.metrics.histogram_values(
            "cluster.optics_reachability_ms"
        ) == telemetry.metrics.histogram_values("cluster.optics_reachability_ms")
        # And the re-export is identical: a true round trip.
        assert telemetry_to_json(loaded, "unit", include_values=True) == telemetry_to_json(
            telemetry, "unit", include_values=True
        )

    def test_renderings(self):
        telemetry = self._sample_telemetry()
        tree = render_span_tree(telemetry.tracer)
        assert "study" in tree and "scan" in tree and "ms" in tree
        table = render_metrics_table(telemetry.metrics)
        assert "scan.hosts_probed" in table and "counter" in table
        assert render_filter_funnel(telemetry.metrics) == "no filter metrics recorded"

    def test_empty_renderings(self):
        assert render_span_tree(Tracer()) == "no spans recorded"
        assert render_metrics_table(MetricsRegistry()) == "no metrics recorded"


class TestPipelineInstrumentation:
    @pytest.fixture(scope="class")
    def traced_pair(self):
        """One tiny study run traced, one untraced, same config."""
        from repro.core.pipeline import StudyConfig, run_study
        from repro.topology.generator import InternetConfig

        config = StudyConfig(
            internet=InternetConfig(seed=3, n_access_isps=25, n_ixps=8),
            n_vantage_points=10,
            seed=3,
        )
        telemetry = Telemetry.capture(stream=io.StringIO())
        return run_study(config, telemetry=telemetry), run_study(config), telemetry

    def test_all_stages_have_spans(self, traced_pair):
        _, _, telemetry = traced_pair
        names = telemetry.tracer.span_names()
        for stage in ("topology", "deployment", "scan", "detect", "ping_campaign", "filters", "clustering"):
            assert stage in names, f"missing span for stage {stage!r}"

    def test_funnel_counters_recorded(self, traced_pair):
        _, _, telemetry = traced_pair
        metrics = telemetry.metrics
        considered = metrics.counter("filters.ips_considered")
        assert considered > 0
        assert (
            metrics.counter("filters.ips_kept")
            + metrics.counter("filters.ips_dropped_unresponsive")
            + metrics.counter("filters.ips_dropped_implausible")
            == considered
        )
        assert metrics.counter("filters.ips_analyzable") == metrics.counter(
            "filters.ips_kept"
        ) - metrics.counter("filters.ips_dropped_low_coverage_isp")
        assert metrics.counter("scan.hosts_probed") > 0
        assert metrics.counter("detect.offnets_found") > 0
        assert metrics.counter("cluster.isps_analyzed") > 0

    def test_tracing_preserves_determinism(self, traced_pair):
        traced, untraced, _ = traced_pair
        assert np.array_equal(traced.matrix.rtt_ms, untraced.matrix.rtt_ms, equal_nan=True)
        assert traced.matrix.ips == untraced.matrix.ips
        assert traced.inventories["2023"].detections == untraced.inventories["2023"].detections
        assert traced.inventories["2021"].detections == untraced.inventories["2021"].detections
        assert traced.campaign.ips_by_isp == untraced.campaign.ips_by_isp
        assert traced.campaign.unresponsive_ips == untraced.campaign.unresponsive_ips
        assert traced.campaign.implausible_ips == untraced.campaign.implausible_ips
        for xi in traced.clusterings:
            for asn in traced.clusterings[xi]:
                assert np.array_equal(
                    traced.clusterings[xi][asn].labels, untraced.clusterings[xi][asn].labels
                )
        assert traced.ptr.records == untraced.ptr.records
        assert traced.telemetry is not None and untraced.telemetry is None

    def test_study_attaches_telemetry(self, traced_pair):
        traced, _, telemetry = traced_pair
        assert traced.telemetry is telemetry

    def test_span_tree_renders_for_study(self, traced_pair):
        _, _, telemetry = traced_pair
        tree = render_span_tree(telemetry.tracer)
        assert tree.startswith("study")
        funnel = render_filter_funnel(telemetry.metrics)
        assert "analyzable" in funnel

    def test_optics_reachability_histogram(self, traced_pair):
        _, _, telemetry = traced_pair
        summary = telemetry.metrics.histogram("cluster.optics_reachability_ms")
        assert summary.count > 0
        assert summary.minimum >= 0.0

    def test_per_isp_timings(self, traced_pair):
        """Every analyzable ISP lands one ``cluster.isp`` span, clustered at
        every xi in that one call; a multi-IP ISP runs OPTICS once."""
        _, _, telemetry = traced_pair
        metrics = telemetry.metrics
        stages = aggregate_stages(telemetry)
        assert stages["cluster.isp"]["count"] == metrics.counter("cluster.isps_analyzed")
        assert stages["cluster.isp"]["count"] == (
            metrics.counter("cluster.optics_runs") + int(metrics.counter("cluster.singleton_isps"))
        )

    def test_one_distance_matrix_and_ordering_per_isp(self, traced_pair):
        """With two xi settings, every multi-IP ISP computes its distance
        matrix and OPTICS ordering once and extracts clusters twice."""
        traced, _, telemetry = traced_pair
        metrics = telemetry.metrics
        computed = metrics.counter("cluster.distance_matrices_computed")
        assert computed > 0
        assert metrics.counter("cluster.optics_runs") == computed
        stages = aggregate_stages(telemetry)
        assert stages["cluster.distance"]["count"] == computed
        assert stages["cluster.optics"]["count"] == computed
        assert stages["cluster.xi"]["count"] == len(traced.config.xis) * computed
        assert stages["filters.plausibility"]["count"] == 1


class TestCascadeInstrumentation:
    def test_cascade_metrics(self, small_study):
        from repro.capacity.cascade import simulate_cascade
        from repro.capacity.demand import DemandModel
        from repro.capacity.events import facility_outage_scenario
        from repro.capacity.links import build_capacity_plan
        from repro.experiments.section43_collateral import most_shared_facility

        facility_id, _ = most_shared_facility(small_study)
        state = small_study.history.state("2023")
        demand = DemandModel(traffic=small_study.traffic)
        plans = build_capacity_plan(small_study.internet, state, demand, seed=11)
        owner_asns = sorted(
            {s.isp.asn for s in state.servers if s.facility.facility_id == facility_id}
        )
        telemetry = Telemetry.capture(stream=io.StringIO())
        report = simulate_cascade(
            small_study.internet,
            demand,
            plans,
            facility_outage_scenario(facility_id),
            small_study.population,
            asns=owner_asns,
            telemetry=telemetry,
        )
        assert telemetry.metrics.counter("cascade.isps_simulated") == len(owner_asns)
        assert telemetry.metrics.counter("cascade.rounds") == 24 * len(owner_asns)
        assert telemetry.metrics.counter("cascade.congested_rounds") == sum(
            o.congested_hours for o in report.outcomes.values()
        )
        assert telemetry.metrics.histogram("cascade.overloaded_links_per_round").count == 24 * len(
            owner_asns
        )
        assert telemetry.tracer.find("cascade") is not None


class TestTracerouteLogging:
    def test_engine_counts_traces(self, small_internet):
        from repro.traceroute.engine import TracerouteEngine

        telemetry = Telemetry.capture(stream=io.StringIO())
        engine = TracerouteEngine(small_internet, seed=1, telemetry=telemetry)
        google = small_internet.hypergiant_as("Google")
        target = small_internet.plan.prefixes_of(small_internet.access_isps[0])[0].base + 7
        path = engine.trace(google, target)
        assert path.routable
        assert telemetry.metrics.counter("traceroute.traces") == 1

    def test_engine_logs_unattributable(self, small_internet):
        from repro.traceroute.engine import TracerouteEngine

        buffer = io.StringIO()
        telemetry = Telemetry.capture(log_level="debug", stream=buffer)
        engine = TracerouteEngine(small_internet, seed=1, telemetry=telemetry)
        google = small_internet.hypergiant_as("Google")
        path = engine.trace(google, 1)  # address owned by nobody
        assert not path.routable
        assert "destination unattributable" in buffer.getvalue()


class TestTelemetryCaptureRestore:
    """``restore`` (or leaving the ``with`` block) closes the bundle's
    event stream, exactly once."""

    def test_context_manager_restores_and_closes_stream(self):
        from repro.obs.stream import EventStream

        buffer = io.StringIO()
        with Telemetry.capture(log_level="debug", events=EventStream(buffer)) as telemetry:
            telemetry.emit("inside")
        lines = [json.loads(line) for line in buffer.getvalue().splitlines()]
        assert lines[-1]["event"] == "stream_end"

    def test_restore_is_idempotent(self):
        from repro.obs.stream import EventStream

        buffer = io.StringIO()
        telemetry = Telemetry.capture(log_level="debug", events=EventStream(buffer))
        telemetry.restore()
        telemetry.restore()
        events = [json.loads(line)["event"] for line in buffer.getvalue().splitlines()]
        assert events.count("stream_end") == 1

    def test_capture_carries_flight_recorder(self):
        telemetry = Telemetry.capture(stream=io.StringIO())
        assert telemetry.flight.enabled
        assert not NULL_TELEMETRY.flight.enabled

    def test_profile_capture_attaches_profiler(self):
        with Telemetry.capture(profile=True, stream=io.StringIO()) as telemetry:
            with telemetry.span("stage"):
                pass
        span = telemetry.tracer.find("stage")
        assert "cpu_ms" in span.attributes and "rss_peak_kb" in span.attributes


class TestCompactSnapshot:
    def _telemetry(self) -> Telemetry:
        clock = FakeClock()
        telemetry = Telemetry(tracer=Tracer(clock=clock))
        with telemetry.span("study"):
            for _ in range(3):
                with telemetry.span("shard"):
                    clock.advance(0.1)
            telemetry.count("filters.ips_kept", 42)
            telemetry.observe("cluster.optics_reachability_ms", 5.0)
        return telemetry

    def test_aggregates_by_stage_name(self):
        from repro.obs import aggregate_stages

        stages = aggregate_stages(self._telemetry())
        assert list(stages) == ["study", "shard"]
        assert stages["shard"]["count"] == 3
        assert stages["shard"]["total_ms"] == pytest.approx(300.0)
        assert stages["shard"]["mean_ms"] == pytest.approx(100.0)
        assert stages["shard"]["max_ms"] == pytest.approx(100.0)

    def test_compact_shape_has_no_raw_dumps(self):
        from repro.obs import COMPACT_SCHEMA, compact_snapshot

        snapshot = compact_snapshot(self._telemetry(), name="unit")
        assert snapshot["schema"] == COMPACT_SCHEMA
        assert snapshot["format"] == "repro-bench-v1"
        assert "spans" not in snapshot  # aggregated, not dumped
        assert "values" not in snapshot["histograms"]["cluster.optics_reachability_ms"]
        assert snapshot["counters"]["filters.ips_kept"] == 42

    def test_flight_summary_included_when_recorded(self):
        from repro.obs import compact_snapshot

        telemetry = Telemetry()
        with telemetry.span("x.shard", shard=0) as span:
            span.set(attempt=0)
        snapshot = compact_snapshot(telemetry)
        assert snapshot["flight"]["shards"] == 1
        assert "flight" not in compact_snapshot(self._telemetry())

    def test_extra_merges_into_top_level(self):
        from repro.obs import compact_snapshot

        snapshot = compact_snapshot(self._telemetry(), extra={"runs": {"total_s": 1.5}})
        assert snapshot["runs"] == {"total_s": 1.5}

    def test_write_compact_snapshot(self, tmp_path):
        from repro.obs import write_compact_snapshot

        path = write_compact_snapshot(self._telemetry(), tmp_path / "BENCH_x.json", name="x")
        data = json.loads(path.read_text(encoding="utf-8"))
        assert data["bench"] == "x" and "stages" in data


class TestChromeTrace:
    def _telemetry(self) -> Telemetry:
        clock = FakeClock()
        telemetry = Telemetry(tracer=Tracer(clock=clock))
        with telemetry.span("study", seed=1):
            clock.advance(0.5)
            with telemetry.span("scan"):
                clock.advance(0.25)
        return telemetry

    def test_structurally_valid_trace(self):
        from repro.obs import chrome_trace_json

        trace = chrome_trace_json(self._telemetry())
        assert trace["displayTimeUnit"] == "ms"
        events = trace["traceEvents"]
        assert events[0]["ph"] == "M" and events[0]["name"] == "process_name"
        spans = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in spans} == {"study", "scan"}
        for event in spans:
            assert set(event) >= {"name", "ph", "ts", "dur", "pid", "tid", "args"}

    def test_absolute_start_offsets_microseconds(self):
        from repro.obs import chrome_trace_json

        spans = {
            e["name"]: e for e in chrome_trace_json(self._telemetry())["traceEvents"] if e["ph"] == "X"
        }
        assert spans["study"]["ts"] == pytest.approx(0.0)
        assert spans["scan"]["ts"] == pytest.approx(500_000.0)  # 0.5 s in us
        assert spans["scan"]["dur"] == pytest.approx(250_000.0)

    def test_worker_attribute_becomes_tid(self):
        from repro.obs import chrome_trace_json

        telemetry = Telemetry(tracer=Tracer(clock=FakeClock()))
        with telemetry.span("fanout"):
            with telemetry.span("shard", worker="pid-7"):
                with telemetry.span("inner"):  # inherits the worker row
                    pass
        spans = {e["name"]: e for e in chrome_trace_json(telemetry)["traceEvents"] if e["ph"] == "X"}
        assert spans["fanout"]["tid"] == "main"
        assert spans["shard"]["tid"] == "pid-7"
        assert spans["inner"]["tid"] == "pid-7"
        assert "worker" not in spans["shard"]["args"]

    def test_write_chrome_trace_is_json(self, tmp_path):
        from repro.obs import write_chrome_trace

        path = write_chrome_trace(self._telemetry(), tmp_path / "trace.json")
        assert json.loads(path.read_text(encoding="utf-8"))["traceEvents"]


class TestMergeProperties:
    """Hypothesis invariants for the worker->parent telemetry merge."""

    @given(
        snapshots=st.lists(
            st.dictionaries(
                st.sampled_from(["a.x", "b.y", "c.z"]),
                st.integers(0, 1000),
                max_size=3,
            ),
            max_size=5,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_counter_merge_is_order_insensitive(self, snapshots, seed):
        import random

        shuffled = list(snapshots)
        random.Random(seed).shuffle(shuffled)
        merged_a, merged_b = MetricsRegistry(), MetricsRegistry()
        for snapshot in snapshots:
            merged_a.merge_json({"counters": snapshot})
        for snapshot in shuffled:
            merged_b.merge_json({"counters": snapshot})
        assert merged_a.counters == merged_b.counters

    @given(
        values=st.lists(st.floats(0, 100, allow_nan=False), max_size=20),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_histogram_merge_summary_order_insensitive(self, values, seed):
        import random

        shuffled = list(values)
        random.Random(seed).shuffle(shuffled)
        merged_a, merged_b = MetricsRegistry(), MetricsRegistry()
        merged_a.merge_json({"histograms": {"h": {"values": values, "count": len(values), "mean": 0}}})
        merged_b.merge_json({"histograms": {"h": {"values": shuffled, "count": len(shuffled), "mean": 0}}})
        assert merged_a.histogram("h").to_json() == merged_b.histogram("h").to_json()

    @given(
        forests=st.lists(
            st.lists(st.sampled_from(["scan", "detect", "cluster"]), max_size=4),
            max_size=5,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_adopt_is_order_stable(self, forests):
        """Consecutive adoptions append in call order: the merged root list
        is exactly the concatenation of the adopted forests."""
        tracer = Tracer()
        expected: list[str] = []
        for forest in forests:
            spans = []
            for name in forest:
                worker_tracer = Tracer()
                with worker_tracer.span(name):
                    pass
                spans.extend(worker_tracer.roots)
            tracer.adopt(spans)
            expected.extend(forest)
        assert [span.name for span in tracer.roots] == expected

    def test_adopt_under_open_span_attaches_as_children(self):
        tracer = Tracer()
        worker = Tracer()
        with worker.span("shard"):
            pass
        with tracer.span("fanout"):
            tracer.adopt(list(worker.roots))
        assert [c.name for c in tracer.roots[0].children] == ["shard"]

    def test_shift_spans_rebases_whole_trees(self):
        from repro.obs import shift_spans

        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("root"):
            clock.advance(0.2)
            with tracer.span("child"):
                clock.advance(0.1)
        shift_spans(tracer.roots, 1.5)
        assert tracer.find("root").start_s == pytest.approx(1.5)
        assert tracer.find("child").start_s == pytest.approx(1.7)
        # Durations untouched.
        assert tracer.find("child").duration_s == pytest.approx(0.1)
