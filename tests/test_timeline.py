"""Timeline engine tests: event model, stage store, and the differential harness.

The acceptance property of the incremental engine: for every epoch, the
cached (incremental) computation and a from-scratch (uncached) rerun
produce **byte-identical** series rows, and the stage-store counters
prove that cross-epoch reuse actually happened.
"""

import json

import pytest

from repro.store import STAGE_SCHEMA, StageStore, stage_key
from repro.timeline import (
    DEFAULT_TIMELINE_ANCHORS,
    DeploymentEvent,
    Timeline,
    TimelineConfig,
    TimelineSpec,
    build_substrate,
    build_timeline,
    compute_epoch,
    quarter_label,
    quarter_range,
    run_timeline,
    timeline_fingerprint,
)
from repro.timeline.events import _capacity_at, _quarter_index, _target_ratio
from repro.topology.generator import InternetConfig, generate_internet

pytestmark = pytest.mark.timeline


def _tiny_config(start="2022Q1", end="2022Q3", **kwargs) -> TimelineConfig:
    spec = kwargs.pop("spec", None) or TimelineSpec(start=start, end=end, seed=3)
    return TimelineConfig(
        internet=InternetConfig(seed=5, n_access_isps=30, n_ixps=12),
        spec=spec,
        n_vantage_points=20,
        seed=7,
        **kwargs,
    )


class TestQuarterMath:
    def test_range_inclusive(self):
        assert quarter_range("2021Q3", "2022Q2") == ("2021Q3", "2021Q4", "2022Q1", "2022Q2")

    def test_single_quarter(self):
        assert quarter_range("2023Q2", "2023Q2") == ("2023Q2",)

    def test_label_roundtrip(self):
        for label in ("2019Q1", "2024Q4", "2026Q2"):
            assert quarter_label(_quarter_index(label)) == label

    def test_yearly_bounds_rejected(self):
        with pytest.raises(ValueError, match="quarterly"):
            quarter_range("2021", "2023Q2")

    def test_reversed_bounds_rejected(self):
        with pytest.raises(ValueError, match="after"):
            quarter_range("2023Q2", "2021Q1")


class TestTimelineSpec:
    def test_defaults_span_32_quarters(self):
        assert len(TimelineSpec().quarters) == 32

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            TimelineSpec(policy="chaotic")

    def test_eviction_requires_churn(self):
        with pytest.raises(ValueError, match="churn"):
            TimelineSpec(policy="monotone", eviction_rate=0.1)

    def test_bad_anchor_ratio_rejected(self):
        with pytest.raises(ValueError, match="anchor"):
            TimelineSpec(anchors={"Google": {"2020Q1": 1.5}})

    def test_bad_anchor_label_rejected(self):
        with pytest.raises(ValueError, match="unparseable"):
            TimelineSpec(anchors={"Google": {"someday": 0.5}})

    def test_bad_edition_rejected(self):
        with pytest.raises(ValueError, match="edition"):
            TimelineSpec(edition="2019")

    def test_to_json_fills_default_anchors(self):
        assert TimelineSpec().to_json()["anchors"] == DEFAULT_TIMELINE_ANCHORS


class TestTargetRatio:
    def test_interpolates_between_anchors(self):
        anchors = {"2020Q1": 0.0, "2021Q1": 1.0}
        assert _target_ratio(anchors, "2020Q3") == pytest.approx(0.5)

    def test_clamps_outside_anchors(self):
        anchors = {"2020Q1": 0.2, "2021Q1": 0.8}
        assert _target_ratio(anchors, "2019Q1") == pytest.approx(0.2)
        assert _target_ratio(anchors, "2025Q4") == pytest.approx(0.8)

    def test_empty_anchors_mean_full(self):
        assert _target_ratio({}, "2020Q1") == 1.0


class TestCapacityRamp:
    def test_no_ramp_is_full_immediately(self):
        assert _capacity_at(10, 0, 0) == 10

    def test_linear_ramp(self):
        assert [_capacity_at(8, age, 3) for age in range(5)] == [2, 4, 6, 8, 8]

    def test_never_below_one(self):
        assert _capacity_at(1, 0, 10) == 1


class TestBuildTimeline:
    @pytest.fixture(scope="class")
    def internet(self):
        return generate_internet(InternetConfig(seed=5, n_access_isps=30, n_ixps=12))

    def test_deterministic(self, internet):
        spec = TimelineSpec(start="2022Q1", end="2022Q4", seed=3)
        first, second = build_timeline(internet, spec), build_timeline(internet, spec)
        assert [e.to_json() for e in first.events] == [e.to_json() for e in second.events]
        assert first.active == second.active

    def test_monotone_quarters_nest(self, internet):
        spec = TimelineSpec(start="2021Q1", end="2022Q4", seed=3)
        timeline = build_timeline(internet, spec)
        previous: set[int] = set()
        for quarter in timeline.quarters:
            ips = {server.ip for server in timeline.state_at(quarter).servers}
            assert previous <= ips, f"{quarter} lost servers under monotone policy"
            previous = ips

    def test_monotone_never_evicts(self, internet):
        timeline = build_timeline(internet, TimelineSpec(start="2021Q1", end="2022Q4", seed=3))
        assert all(event.kind != "evict" for event in timeline.events)

    def test_final_quarter_reaches_final_placement(self, internet):
        # The default anchors hit ratio 1.0 at 2026Q4, so a timeline
        # ending there exposes the complete final footprint; one ending
        # earlier deliberately does not (anchors are calendar-pinned).
        spec = TimelineSpec(start="2026Q1", end="2026Q4", seed=3)
        timeline = build_timeline(internet, spec)
        final_ips = {server.ip for server in timeline.final_state.servers}
        assert {server.ip for server in timeline.state_at("2026Q4").servers} == final_ips
        early = build_timeline(internet, TimelineSpec(start="2022Q1", end="2022Q4", seed=3))
        early_final = {server.ip for server in early.state_at("2022Q4").servers}
        assert early_final < {server.ip for server in early.final_state.servers}

    def test_churn_evicts_and_stays_deterministic(self, internet):
        spec = TimelineSpec(
            start="2021Q1", end="2023Q4", policy="churn", eviction_rate=0.08, seed=3
        )
        first, second = build_timeline(internet, spec), build_timeline(internet, spec)
        assert [e.to_json() for e in first.events] == [e.to_json() for e in second.events]
        assert any(event.kind == "evict" for event in first.events)

    def test_capacity_ramp_emits_capacity_events(self, internet):
        spec = TimelineSpec(start="2022Q1", end="2022Q4", capacity_ramp_quarters=3, seed=3)
        timeline = build_timeline(internet, spec)
        assert any(event.kind == "capacity" for event in timeline.events)
        # Ramped deployments still converge on the full footprint by age.
        for quarter in timeline.quarters[1:]:
            before = timeline.active_counts(timeline.quarters[0])
            now = timeline.active_counts(quarter)
            for key, n in before.items():
                assert now.get(key, 0) >= n, "capacity shrank under monotone growth"

    def test_unchanged_deployment_has_identical_servers(self, internet):
        spec = TimelineSpec(start="2022Q1", end="2022Q4", seed=3)
        timeline = build_timeline(internet, spec)
        first = {
            (d.hypergiant, d.isp.asn): [s.ip for s in d.servers]
            for d in timeline.state_at("2022Q1").deployments
        }
        second = {
            (d.hypergiant, d.isp.asn): [s.ip for s in d.servers]
            for d in timeline.state_at("2022Q2").deployments
        }
        unchanged = [
            key
            for key, ips in first.items()
            if key in second and len(second[key]) == len(ips)
        ]
        assert unchanged, "expected at least one deployment unchanged between quarters"
        for key in unchanged:
            assert second[key] == first[key]


@pytest.mark.store
class TestStageStore:
    def test_put_get_roundtrip(self, tmp_path):
        store = StageStore(tmp_path)
        key = stage_key("detect", {"x": 1})
        assert store.get("detect", key) is None
        store.put("detect", key, {"detections": [[1, "Google"]]})
        assert store.get("detect", key) == {"detections": [[1, "Google"]]}
        assert store.counter("detect", "misses") == 1
        assert store.counter("detect", "hits") == 1
        assert store.counter("detect", "writes") == 1

    def test_put_is_idempotent(self, tmp_path):
        store = StageStore(tmp_path)
        key = stage_key("epoch", {"q": "2022Q1"})
        store.put("epoch", key, {"a": 1})
        store.put("epoch", key, {"a": 1})
        assert store.counter("epoch", "writes") == 1

    def test_contains(self, tmp_path):
        store = StageStore(tmp_path)
        key = stage_key("cluster", {"k": 2})
        assert not store.contains(key)
        store.put("cluster", key, {"labels": []})
        assert store.contains(key)

    def test_corrupt_entry_is_quarantined_as_miss(self, tmp_path):
        store = StageStore(tmp_path)
        key = stage_key("measure", {"m": 3})
        store.put("measure", key, {"ips": [1, 2]})
        path = store.entry_path(key)
        path.write_text(path.read_text(encoding="utf-8").replace("1", "9"), encoding="utf-8")
        assert store.get("measure", key) is None
        assert store.counter("measure", "corruptions") == 1
        assert not path.exists(), "corrupt entry must be unlinked"

    def test_kind_mismatch_is_a_miss(self, tmp_path):
        store = StageStore(tmp_path)
        key = stage_key("detect", {"x": 1})
        store.put("detect", key, {"d": []})
        assert store.get("cluster", key) is None

    def test_keys_are_schema_versioned(self):
        assert STAGE_SCHEMA in ("repro-stage-v1",)
        assert stage_key("detect", {"x": 1}) != stage_key("measure", {"x": 1})

    def test_quarantined_entry_lands_in_quarantine_dir(self, tmp_path):
        store = StageStore(tmp_path)
        key = stage_key("measure", {"m": 3})
        store.put("measure", key, {"ips": [1, 2]})
        path = store.entry_path(key)
        path.write_text(path.read_text().replace("1", "9"))
        assert store.get("measure", key) is None
        parked = list(store.quarantine_dir.glob(f"{key}.*.json"))
        assert len(parked) == 1, "the bad bytes must survive for post-mortems"


@pytest.mark.store
class TestStageStoreGC:
    """Size/age-bounded GC + quarantine sweep (StudyStore.gc parity)."""

    def _seed(self, store, n):
        """Write n entries with strictly increasing mtimes; returns keys in age order."""
        import os
        import time

        keys = []
        base = time.time() - 1000
        for i in range(n):
            key = stage_key("epoch", {"i": i})
            store.put("epoch", key, {"row": i})
            os.utime(store.entry_path(key), (base + i, base + i))
            keys.append(key)
        return keys

    def test_evicts_oldest_beyond_max_entries(self, tmp_path):
        store = StageStore(tmp_path)
        keys = self._seed(store, 5)
        evicted = store.gc(max_entries=2)
        assert evicted == keys[:3]
        assert store.stats().entries == 2
        assert not store.contains(keys[0]) and store.contains(keys[4])
        assert store.counter("gc", "evictions") == 3

    def test_evicts_oldest_beyond_max_bytes(self, tmp_path):
        store = StageStore(tmp_path)
        keys = self._seed(store, 4)
        per_entry = store.stats().total_bytes // 4
        evicted = store.gc(max_bytes=2 * per_entry)
        assert evicted == keys[:2]
        assert store.stats().total_bytes <= 2 * per_entry

    def test_evicts_entries_past_max_age(self, tmp_path):
        store = StageStore(tmp_path)
        keys = self._seed(store, 3)  # mtimes ~1000s in the past
        fresh = stage_key("epoch", {"i": "fresh"})
        store.put("epoch", fresh, {"row": "fresh"})
        evicted = store.gc(max_age_s=500.0)
        assert sorted(evicted) == sorted(keys)
        assert store.contains(fresh)

    def test_no_bounds_is_a_noop(self, tmp_path):
        store = StageStore(tmp_path)
        self._seed(store, 3)
        assert store.gc() == []
        assert store.stats().entries == 3

    def test_quarantine_sweep_by_count_and_age(self, tmp_path):
        import os
        import time

        store = StageStore(tmp_path)
        for i in range(3):
            key = stage_key("epoch", {"i": i})
            store.put("epoch", key, {"row": i})
            path = store.entry_path(key)
            path.write_text(path.read_text().replace(":", ";", 1))
            assert store.get("epoch", key) is None  # quarantined
        parked = sorted(store.quarantine_dir.iterdir())
        assert len(parked) == 3
        base = time.time() - 1000
        for i, path in enumerate(parked):
            os.utime(path, (base + i, base + i))

        store.gc(max_quarantine_entries=2)
        assert len(list(store.quarantine_dir.iterdir())) == 2
        store.gc(max_quarantine_age_s=1.0)
        assert len(list(store.quarantine_dir.iterdir())) == 0
        assert store.counter("gc", "quarantine_pruned") == 3


class TestFingerprint:
    def test_execution_knobs_excluded(self):
        from dataclasses import replace

        from repro.parallel import ParallelConfig

        base = _tiny_config()
        tweaked = replace(base, parallel=ParallelConfig(backend="pool", workers=4))
        assert timeline_fingerprint(base) == timeline_fingerprint(tweaked)

    def test_spec_changes_fingerprint(self):
        base = _tiny_config()
        other = _tiny_config(spec=TimelineSpec(start="2022Q1", end="2022Q3", seed=4))
        assert timeline_fingerprint(base) != timeline_fingerprint(other)


class TestDifferentialHarness:
    """Incremental (cached) epoch rows == full uncached reruns, byte for byte."""

    @pytest.fixture(scope="class")
    def config(self):
        return _tiny_config(start="2022Q1", end="2022Q3")

    def test_incremental_equals_full_per_epoch(self, config, tmp_path):
        substrate = build_substrate(config)
        store = StageStore(tmp_path / "stages")
        incremental = [
            compute_epoch(substrate, quarter, store) for quarter in config.spec.quarters
        ]
        full = [compute_epoch(substrate, quarter, None) for quarter in config.spec.quarters]
        for inc_row, full_row in zip(incremental, full):
            assert json.dumps(inc_row, sort_keys=True) == json.dumps(full_row, sort_keys=True)

        # The counters prove the reuse is real, not vacuous: later epochs
        # hit the detect cache for unchanged deployments and the cluster
        # cache for ISPs whose offnet sets did not change.
        assert store.counter("detect", "hits") > 0
        assert store.counter("cluster", "hits") > 0
        # A cluster hit short-circuits measurement entirely.
        assert store.counter("measure", "misses") <= store.counter("cluster", "misses")

    def test_cached_row_roundtrips_byte_identically(self, config, tmp_path):
        from repro.timeline import epoch_stage_key

        substrate = build_substrate(config)
        store = StageStore(tmp_path / "stages")
        quarter = config.spec.quarters[0]
        fresh = compute_epoch(substrate, quarter, store)
        key = epoch_stage_key(config, quarter)
        store.put("epoch", key, fresh)
        loaded = store.get("epoch", key)
        assert json.dumps(loaded, sort_keys=True) == json.dumps(fresh, sort_keys=True)

    def test_campaign_report_matches_differential_rows(self, config, tmp_path):
        report = run_timeline(config, store=StageStore(tmp_path / "stages"))
        substrate = build_substrate(config)
        rows = [compute_epoch(substrate, quarter, None) for quarter in config.spec.quarters]
        assert [epoch.row for epoch in report.epochs] == rows
        assert report.fingerprint == timeline_fingerprint(config)

    def test_series_accessor(self, config, tmp_path):
        report = run_timeline(config, store=None)
        google = report.series("table1", "Google")
        assert len(google) == len(config.spec.quarters)
        assert all(isinstance(v, int) for v in google)
        # Monotone growth: the Table-1 ISP counts never shrink.
        assert google == sorted(google)


class TestClusterStage:
    """The cluster stage measures on a miss and stores only its outcome."""

    @pytest.fixture(scope="class")
    def config(self):
        return _tiny_config(start="2022Q1", end="2022Q3")

    @staticmethod
    def _kinds(store):
        return {key: json.loads(store.entry_path(key).read_text())["kind"] for key in store.keys()}

    def test_cold_walk_publishes_only_detect_cluster_epoch(self, config, tmp_path):
        store = StageStore(tmp_path / "stages")
        run_timeline(config, store=store)
        kinds = self._kinds(store)
        assert set(kinds.values()) == {"detect", "cluster", "epoch"}
        assert sum(kind == "epoch" for kind in kinds.values()) == len(config.spec.quarters)

    def test_corrupt_cluster_entries_are_remeasured(self, config, tmp_path):
        from repro.obs import MetricsRegistry, Telemetry, Tracer, aggregate_stages

        substrate = build_substrate(config)
        quarters = config.spec.quarters
        for quarter in quarters:
            compute_epoch(substrate, quarter, StageStore(tmp_path / "stages"))
        warm = StageStore(tmp_path / "stages")
        clusters = [key for key, kind in self._kinds(warm).items() if kind == "cluster"]
        assert clusters
        for key in clusters:
            path = warm.entry_path(key)
            path.write_text(path.read_text().replace(":", ";", 1))

        telemetry = Telemetry(tracer=Tracer(), metrics=MetricsRegistry())
        store = StageStore(tmp_path / "stages", telemetry.metrics)
        rows = [compute_epoch(substrate, quarter, store, telemetry=telemetry) for quarter in quarters]
        full = [compute_epoch(substrate, quarter, None) for quarter in quarters]
        assert json.dumps(rows, sort_keys=True) == json.dumps(full, sort_keys=True)
        assert store.counter("cluster", "corruptions") == len(clusters)
        # Every cluster miss runs a latency campaign: no stored matrix
        # stands in for the quarantined outcome.
        campaigns = aggregate_stages(telemetry)["campaign.fanout"]["count"]
        assert campaigns == store.counter("cluster", "misses")


class TestEventsInRows:
    def test_epoch_rows_report_event_counts(self, tmp_path):
        config = _tiny_config(start="2022Q1", end="2022Q2")
        substrate = build_substrate(config)
        row = compute_epoch(substrate, "2022Q1", None)
        assert row["events"] == len(substrate.timeline.events_at("2022Q1"))
        assert row["events"] > 0  # the first quarter deploys the initial footprint


class TestTimelineObjects:
    def test_event_json_shape(self):
        event = DeploymentEvent(
            quarter="2022Q1", kind="deploy", hypergiant="Google", isp_asn=64512, n_servers=9
        )
        assert event.to_json() == {
            "quarter": "2022Q1",
            "kind": "deploy",
            "hypergiant": "Google",
            "isp_asn": 64512,
            "n_servers": 9,
        }

    def test_timeline_quarters_property(self):
        internet = generate_internet(InternetConfig(seed=5, n_access_isps=30, n_ixps=12))
        timeline = build_timeline(internet, TimelineSpec(start="2022Q1", end="2022Q2", seed=1))
        assert isinstance(timeline, Timeline)
        assert timeline.quarters == ("2022Q1", "2022Q2")
