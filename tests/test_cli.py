"""Tests for the CLI and the report generator."""

import hashlib
import json

import pytest

from repro.cli import build_parser, main
from repro.report import available_sections, build_report

from tests.conftest import _require_golden_numpy

#: sha256 of the small-scenario report over every section but ``obs``
#: (which renders run timings): 14,204 characters under numpy 2.4, the
#: same under every string-hash seed.  A drift is a behaviour change in
#: some experiment, model or renderer the report runs.
SMALL_SCENARIO_REPORT_SHA256 = "048c025578064869eb1988c3779ebdbd337577f25d42a1d8caa9c6bd199dbbf3"


class TestReport:
    def test_all_sections_render(self, small_study):
        text = build_report(small_study)
        for section_id in available_sections():
            assert section_id  # ids exist
        assert "Table 1" in text
        assert "Figure 2" in text
        assert "Section 6" in text

    def test_subset(self, small_study):
        text = build_report(small_study, sections=("t1",))
        assert "Table 1" in text
        assert "Figure 2" not in text

    def test_unknown_section_rejected(self, small_study):
        with pytest.raises(ValueError):
            build_report(small_study, sections=("nope",))

    def test_section_order_preserved(self, small_study):
        text = build_report(small_study, sections=("t2", "t1"))
        assert text.index("Table 2") < text.index("Table 1")

    def test_small_scenario_report_matches_pinned_digest(self, small_study):
        _require_golden_numpy()
        sections = tuple(section for section in available_sections() if section != "obs")
        text = build_report(small_study, sections=sections)
        assert hashlib.sha256(text.encode()).hexdigest() == SMALL_SCENARIO_REPORT_SHA256

    def test_longitudinal_cohosting_never_falls(self, small_study):
        text = build_report(small_study, sections=("long",))
        rows = [line.split() for line in text.splitlines() if line[:4].isdigit()]
        assert [row[0] for row in rows] == ["2017", "2019", "2021", "2023"]
        cohosting = [int(row[-1]) for row in rows]
        assert cohosting == sorted(cohosting)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_study_defaults(self):
        args = build_parser().parse_args(["study"])
        assert args.scenario == "small" and args.sections == "all"

    def test_peering_arguments(self):
        args = build_parser().parse_args(["peering", "--hypergiant", "Meta", "--regions", "2"])
        assert args.hypergiant == "Meta" and args.regions == 2

    def test_bad_scenario_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["study", "--scenario", "gigantic"])

    def test_removed_process_backend_rejected(self):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["study", "--backend", "process"])
        assert exit_info.value.code == 2


class TestOutOfRangeFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["study", "--retry", "0"],
            ["study", "--retry", "2", "--shard-loss-budget", "2"],
            ["study", "--backend", "pool", "--workers", "2", "--shard-timeout", "0"],
            ["sweep", "run", "--spec", "SPEC", "--max-cells", "0"],
            ["timeline", "--max-epochs", "0"],
            ["timeline", "--capacity-ramp", "-1"],
            ["timeline", "--policy", "churn", "--eviction-rate", "1.5"],
            ["timeline", "--eviction-rate", "0.5"],
            ["timeline", "--start", "2019"],
            ["timeline", "--seed", "-1"],
            ["peering", "--regions", "0"],
            ["eval", "--regions", "0"],
        ],
    )
    def test_usage_error_not_traceback(self, argv, tmp_path, capsys):
        spec = tmp_path / "grid.json"
        spec.write_text(json.dumps({"scenario": "small"}))
        try:
            status = main([str(spec) if arg == "SPEC" else arg for arg in argv])
        except SystemExit as exit_info:
            status = exit_info.code
        assert status == 2
        assert capsys.readouterr().err


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "repro" in out and "scenarios" in out

    def test_study_sections(self, capsys, small_study):
        # The small study is already cached by the fixture, so this is fast.
        assert main(["study", "--scenario", "small", "--sections", "t1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out

    def test_mapping(self, capsys, small_study):
        assert main(["mapping", "--scenario", "small"]) == 0
        out = capsys.readouterr().out
        assert "mapping coverage" in out

    def test_peering(self, capsys, small_study):
        assert main(["peering", "--scenario", "small", "--regions", "2"]) == 0
        out = capsys.readouterr().out
        assert "peer" in out

    def test_cascade_auto(self, capsys, small_study):
        assert main(["cascade", "--scenario", "small"]) == 0
        out = capsys.readouterr().out
        assert "affected users" in out

    def test_cascade_bad_facility(self, capsys, small_study):
        assert main(["cascade", "--scenario", "small", "--facility", "999999"]) == 1


def _span_names(spans: list[dict]) -> set[str]:
    names: set[str] = set()
    for span in spans:
        names.add(span["name"])
        names.update(_span_names(span["children"]))
    return names


class TestTelemetryFlags:
    def test_parser_accepts_flags(self):
        args = build_parser().parse_args(
            ["study", "--trace", "--log-json", "--metrics-out", "m.json"]
        )
        assert args.trace and args.log_json and args.metrics_out == "m.json"

    def test_flags_default_off(self):
        args = build_parser().parse_args(["study"])
        assert not args.trace and not args.log_json and args.metrics_out is None

    def test_study_trace_and_metrics_out(self, capsys, tmp_path):
        out = tmp_path / "metrics.json"
        assert (
            main(
                [
                    "study",
                    "--scenario",
                    "small",
                    "--sections",
                    "t1",
                    "--trace",
                    "--log-json",
                    "--metrics-out",
                    str(out),
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        # The report still lands on stdout; diagnostics go to stderr.
        assert "Table 1" in captured.out
        assert "stage timings" in captured.err
        assert "filter funnel" in captured.err
        assert f"wrote telemetry to {out}" in captured.err
        # --log-json: structured events are JSON lines on stderr.
        json_events = [
            json.loads(line) for line in captured.err.splitlines() if line.startswith("{")
        ]
        assert any(event.get("event") == "scan complete" for event in json_events)

        data = json.loads(out.read_text())
        assert data["format"] == "repro-bench-v1"
        names = _span_names(data["spans"])
        for stage in (
            "topology",
            "deployment",
            "scan",
            "detect",
            "ping_campaign",
            "filters",
            "clustering",
        ):
            assert stage in names, f"stage {stage!r} missing from exported spans"
        for counter in (
            "filters.ips_considered",
            "filters.ips_dropped_unresponsive",
            "filters.ips_dropped_implausible",
            "filters.ips_kept",
            "filters.ips_analyzable",
        ):
            assert counter in data["counters"], f"funnel counter {counter!r} missing"

    def test_cascade_metrics_out(self, capsys, tmp_path):
        out = tmp_path / "cascade.json"
        assert main(["cascade", "--scenario", "small", "--metrics-out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert "cascade" in _span_names(data["spans"])
        assert data["counters"]["cascade.rounds"] > 0
        assert "cascade.overloaded_links_per_round" in data["histograms"]


class TestExport:
    def test_export_writes_archive(self, capsys, tmp_path, small_study):
        from repro.io.archive import load_archive

        target = tmp_path / "archive"
        assert main(["export", "--scenario", "small", "--output", str(target)]) == 0
        out = capsys.readouterr().out
        assert "manifest.json" in out
        loaded = load_archive(target)
        assert loaded.manifest.n_detections == len(small_study.latest_inventory)


class TestObservabilityFlags:
    def test_parser_accepts_new_flags(self):
        args = build_parser().parse_args(
            [
                "study",
                "--profile",
                "--events-out",
                "ev.jsonl",
                "--trace-out",
                "trace.json",
            ]
        )
        assert args.profile and args.events_out == "ev.jsonl" and args.trace_out == "trace.json"

    def test_study_profile_events_trace(self, capsys, tmp_path, small_study):
        events = tmp_path / "events.jsonl"
        trace = tmp_path / "trace.json"
        assert (
            main(
                [
                    "study",
                    "--scenario",
                    "small",
                    "--sections",
                    "t1",
                    "--profile",
                    "--events-out",
                    str(events),
                    "--trace-out",
                    str(trace),
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "Table 1" in captured.out
        assert "resource profile" in captured.err
        assert "executor flights" in captured.err
        assert f"event stream written to {events}" in captured.err

        from repro.obs import read_events

        stream_events = read_events(events)
        assert stream_events[0]["event"] == "stream_start"
        assert stream_events[-1]["event"] == "stream_end"
        kinds = {e["event"] for e in stream_events}
        assert {"stage_start", "stage_end", "progress"} <= kinds

        trace_data = json.loads(trace.read_text())
        span_events = [e for e in trace_data["traceEvents"] if e.get("ph") == "X"]
        assert any(e["name"] == "study" for e in span_events)
        assert all({"ts", "dur", "pid", "tid"} <= set(e) for e in span_events)


class TestTailCommand:
    def _write_events(self, tmp_path):
        import io

        from repro.obs.stream import EventStream

        buffer = io.StringIO()
        stream = EventStream(buffer)
        stream.progress("campaign", 3, 12)
        stream.close()
        path = tmp_path / "events.jsonl"
        path.write_text(buffer.getvalue(), encoding="utf-8")
        return path

    def test_tail_snapshot(self, capsys, tmp_path):
        path = self._write_events(tmp_path)
        assert main(["tail", str(path)]) == 0
        out = capsys.readouterr().out
        assert "campaign: 3/12 (25.0%)" in out
        assert "run complete" in out

    def test_tail_directory_target(self, capsys, tmp_path):
        self._write_events(tmp_path)
        assert main(["tail", str(tmp_path)]) == 0
        assert "run complete" in capsys.readouterr().out

    def test_tail_follow_terminates_on_stream_end(self, capsys, tmp_path):
        path = self._write_events(tmp_path)
        assert main(["tail", str(path), "--follow", "--timeout", "2"]) == 0
        out = capsys.readouterr().out
        assert "stream_start" in out
        assert "campaign: 3/12" in out

    def test_tail_missing_file(self, capsys, tmp_path):
        assert main(["tail", str(tmp_path / "nope.jsonl")]) == 1
        assert "no such events file" in capsys.readouterr().err


class TestTimelineGcCommand:
    def test_gc_evicts_and_reports(self, capsys, tmp_path):
        import os
        import time

        from repro.store import StageStore
        from repro.store.stages import stage_key

        store = StageStore(tmp_path / "stages")
        base = time.time() - 100
        for i in range(4):
            key = stage_key("epoch", {"i": i})
            store.put("epoch", key, {"row": i})
            os.utime(store.entry_path(key), (base + i, base + i))

        assert main(
            ["timeline", "gc", "--store-dir", str(tmp_path / "stages"), "--max-entries", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "evicted 3 of 4 entries" in out
        assert StageStore(tmp_path / "stages").stats().entries == 1

    def test_gc_without_bounds_is_a_noop(self, capsys, tmp_path):
        from repro.store import StageStore
        from repro.store.stages import stage_key

        store = StageStore(tmp_path / "stages")
        store.put("epoch", stage_key("epoch", {"i": 0}), {"row": 0})
        assert main(["timeline", "gc", "--store-dir", str(tmp_path / "stages")]) == 0
        assert "evicted 0 of 1 entries" in capsys.readouterr().out

    def test_negative_bound_is_refused(self, capsys, tmp_path):
        from repro.store import StageStore
        from repro.store.stages import stage_key

        store = StageStore(tmp_path / "stages")
        store.put("epoch", stage_key("epoch", {"i": 0}), {"row": 0})
        argv = ["timeline", "gc", "--store-dir", str(tmp_path / "stages"), "--max-age-s", "-5"]
        assert main(argv) == 2
        assert "max_age_s must be >= 0" in capsys.readouterr().err
        assert StageStore(tmp_path / "stages").stats().entries == 1

    def test_timeline_run_still_parses_without_subcommand(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["timeline", "--scenario", "small", "--start", "2022Q1"])
        assert getattr(args, "timeline_command", None) is None
        assert args.start == "2022Q1"


class TestServeParser:
    def test_parser_accepts_serve_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--state-dir", "/tmp/state", "--max-queue", "3",
             "--tenant-quota", "2", "--backend", "pool", "--workers", "2"]
        )
        assert args.handler.__name__ == "_cmd_serve"
        assert args.max_queue == 3 and args.tenant_quota == 2
        assert args.port == 0  # default: pick a free port

    def test_state_dir_is_required(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve"])

    def test_campaign_resilience_flags_are_rejected(self, capsys):
        """``serve`` reads ``--faults`` and ``--shard-timeout``; a campaign's
        retries and loss budget come from its submission."""
        parser = build_parser()
        base = ["serve", "--state-dir", "/tmp/state"]
        args = parser.parse_args([*base, "--faults", "plan.json", "--shard-timeout", "5"])
        assert args.faults == "plan.json" and args.shard_timeout == 5.0
        for flag in (["--retry", "3"], ["--shard-loss-budget", "0.5"]):
            with pytest.raises(SystemExit):
                parser.parse_args([*base, *flag])

    def test_settings_that_break_the_server_refuse_to_start(self, capsys, monkeypatch, tmp_path):
        import repro.serve

        monkeypatch.setattr(repro.serve, "ReproServer", lambda *a, **k: pytest.fail("started"))
        state = tmp_path / "state"
        assert main(["serve", "--state-dir", str(state), "--gc-max-entries", "-1"]) == 2
        assert "gc_max_entries must be >= 0" in capsys.readouterr().err
        assert not state.exists()
