"""The serve management and data planes, in-process.

Spec validation and content-addressed campaign ids, admission control
(bounded queue → :class:`QueueFullError`, per-tenant quotas →
:class:`QuotaExceededError`), the scheduler's end-to-end lifecycle for
sweep and timeline campaigns (including dedup: an identical
re-submission is served from the store without recomputation), and the
HTTP surface via ``urllib`` — status codes, Retry-After headers, the
telemetry bridge, and graceful shutdown.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.serve import (
    QueueFullError,
    QuotaExceededError,
    ReproServer,
    Scheduler,
    ServeConfig,
    campaign_id,
    normalize_spec,
)

pytestmark = [pytest.mark.serve]

#: A study small enough for CI, matching the resume-test scenario size.
STUDY = {
    "kind": "study",
    "spec": {
        "scenario": "small",
        "overrides": {
            "internet.seed": 3,
            "internet.n_access_isps": 40,
            "internet.n_ixps": 20,
            "n_vantage_points": 24,
            "seed": 3,
        },
    },
}

#: A two-epoch timeline, matching tests/test_timeline_resume.py sizing.
TIMELINE = {
    "kind": "timeline",
    "spec": {
        "timeline": {"start": "2022Q1", "end": "2022Q2", "seed": 3},
        "overrides": {
            "internet.seed": 5,
            "internet.n_access_isps": 30,
            "internet.n_ixps": 12,
            "n_vantage_points": 20,
            "seed": 7,
        },
    },
}


class TestNormalizeSpec:
    def test_canonical_form_and_defaults(self):
        normalized = normalize_spec(STUDY)
        assert normalized["tenant"] == "default"
        assert normalized["faults"] is None and normalized["resilience"] is None

    def test_id_is_content_addressed(self):
        a = campaign_id(normalize_spec(STUDY))
        b = campaign_id(normalize_spec(json.loads(json.dumps(STUDY))))
        assert a == b
        different = campaign_id(normalize_spec({**STUDY, "tenant": "alice"}))
        assert different != a

    @pytest.mark.parametrize(
        "bad",
        [
            "not a dict",
            {"kind": "nope"},
            {"kind": "study", "tenant": ""},
            {"kind": "study", "unknown": 1},
            {"kind": "study", "spec": {"scenario": "nope"}},
            {"kind": "study", "spec": {"axes": {"seed": [1, 2]}}},
            {"kind": "study", "spec": {"max_cells": 3}},
            {"kind": "sweep", "spec": {"overrides": {"internet.bogus": 1}}},
            {"kind": "timeline", "spec": {"bogus": 1}},
            {"kind": "timeline", "spec": {"timeline": {"bogus": 1}}},
            {"kind": "timeline", "spec": {"timeline": {"start": "2024Q4", "end": "2022Q1"}}},
            {"kind": "sweep", "resilience": {"bogus": 1}},
            {"kind": "sweep", "faults": {"specs": [{"site": "nope", "kind": "error"}]}},
        ],
    )
    def test_invalid_specs_raise(self, bad):
        with pytest.raises((ValueError, TypeError)):
            normalize_spec(bad)

    def test_sweep_accepts_axes_and_max_cells(self):
        normalized = normalize_spec(
            {"kind": "sweep", "spec": {"scenario": "small", "axes": {"seed": [1, 2]}, "max_cells": 1}}
        )
        assert normalized["kind"] == "sweep"

    def test_timeline_config_matches_the_cli(self, tmp_path, monkeypatch):
        """``repro timeline`` and a serve timeline spec over the same
        scenario and window build the same config."""
        import repro.timeline
        from repro.cli import main
        from repro.durable import CampaignStatus
        from repro.serve.model import build_timeline_config
        from repro.timeline import timeline_fingerprint

        built = []

        def capture_status(config, store):
            built.append(config)
            return CampaignStatus.of("epochs", {})

        monkeypatch.setattr(repro.timeline, "timeline_status", capture_status)
        argv = ["timeline", "--scenario", "small", "--start", "2022Q1", "--end", "2022Q2"]
        assert main([*argv, "--status", "--store-dir", str(tmp_path)]) == 0
        served, _ = build_timeline_config(
            normalize_spec(
                {"kind": "timeline", "spec": {"scenario": "small", "timeline": {"start": "2022Q1", "end": "2022Q2"}}}
            )
        )
        assert timeline_fingerprint(built[0]) == timeline_fingerprint(served)


class TestAdmission:
    def _scheduler(self, tmp_path, **kw):
        # Never started: submissions stay QUEUED, so admission limits are
        # deterministic.
        return Scheduler(ServeConfig(state_dir=tmp_path / "state", **kw))

    def _spec(self, seed, tenant="default"):
        spec = json.loads(json.dumps(STUDY))
        spec["spec"]["overrides"]["seed"] = seed
        spec["tenant"] = tenant
        return spec

    def test_queue_full_rejects(self, tmp_path):
        scheduler = self._scheduler(tmp_path, max_queue=2, tenant_quota=99)
        scheduler.submit(self._spec(1))
        scheduler.submit(self._spec(2))
        with pytest.raises(QueueFullError):
            scheduler.submit(self._spec(3))
        scheduler.journal.close()

    def test_tenant_quota_rejects_but_other_tenants_proceed(self, tmp_path):
        scheduler = self._scheduler(tmp_path, max_queue=99, tenant_quota=1)
        scheduler.submit(self._spec(1, tenant="alice"))
        with pytest.raises(QuotaExceededError):
            scheduler.submit(self._spec(2, tenant="alice"))
        cid, _, created = scheduler.submit(self._spec(2, tenant="bob"))
        assert created
        scheduler.journal.close()

    @pytest.mark.parametrize(
        "setting",
        [{"max_queue": 0}, {"tenant_quota": 0}, {"gc_max_entries": -1}, {"gc_max_bytes": -1}],
    )
    def test_settings_that_break_the_server_are_refused(self, tmp_path, setting):
        """A zero queue or quota would refuse every submission, and a
        negative gc bound would fail every gc between campaigns."""
        (name,) = setting
        with pytest.raises(ValueError, match=name):
            ServeConfig(state_dir=tmp_path / "state", **setting)

    def test_dedup_bypasses_admission(self, tmp_path):
        """A re-submission of a queued campaign is free — it never counts
        against the queue bound."""
        scheduler = self._scheduler(tmp_path, max_queue=1, tenant_quota=99)
        cid, _, created = scheduler.submit(self._spec(1))
        assert created
        again, _, created = scheduler.submit(self._spec(1))
        assert again == cid and not created
        scheduler.journal.close()


class TestSchedulerLifecycle:
    def test_study_runs_to_done_and_dedups_from_store(self, tmp_path):
        scheduler = Scheduler(ServeConfig(state_dir=tmp_path / "state"))
        scheduler.start()
        cid, view, created = scheduler.submit(STUDY)
        assert created and view["status"] == "QUEUED"
        assert scheduler.wait(cid, timeout_s=300) == "DONE"
        result = json.loads(scheduler.result_bytes(cid))
        assert result["format"] == "repro-serve-result-v1"
        assert result["status"] == "DONE" and result["lost"] == []
        first_provenance = scheduler.campaigns[cid]["provenance"]
        assert first_provenance["cache_misses"] >= 1

        # Identical re-submission: answered instantly, no recomputation.
        again, view, created = scheduler.submit(STUDY)
        assert again == cid and not created and view["status"] == "DONE"
        scheduler.drain()

    def test_timeline_runs_to_done_with_coverage(self, tmp_path):
        scheduler = Scheduler(ServeConfig(state_dir=tmp_path / "state"))
        scheduler.start()
        cid, _, _ = scheduler.submit(TIMELINE)
        assert scheduler.wait(cid, timeout_s=300) == "DONE"
        result = json.loads(scheduler.result_bytes(cid))
        assert result["coverage"] == {"timeline.epochs": {"lost": 0, "total": 2}}
        assert result["report"]["format"] == "repro-timeline-v1"
        scheduler.drain()

    def test_invalid_campaign_goes_lost_never_crashes_the_loop(self, tmp_path):
        """An execution-time failure marks the campaign LOST; the
        scheduler thread survives to run the next campaign."""
        scheduler = Scheduler(ServeConfig(state_dir=tmp_path / "state"))
        # Sneak a spec past validation, then break it for execution.
        cid, _, _ = scheduler.submit(STUDY)
        scheduler.campaigns[cid]["spec"] = {"kind": "study", "tenant": "default",
                                            "spec": {"scenario": "vanished"},
                                            "faults": None, "resilience": None}
        scheduler.start()
        assert scheduler.wait(cid, timeout_s=60) == "LOST"
        assert "vanished" in scheduler.campaigns[cid]["error"]
        # Re-submitting the (valid) spec re-queues the lost campaign.
        again, view, created = scheduler.submit(STUDY)
        assert again == cid and created
        assert scheduler.wait(cid, timeout_s=300) == "DONE"
        scheduler.drain()


def _get(url):
    try:
        with urllib.request.urlopen(url) as response:
            return response.status, dict(response.headers), json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), json.loads(error.read())


def _post(url, payload):
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode(), headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, dict(response.headers), json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), json.loads(error.read())


class TestHTTPSurface:
    @pytest.fixture()
    def server(self, tmp_path):
        server = ReproServer(ServeConfig(state_dir=tmp_path / "state"))
        server.start()
        yield server
        server.shutdown()

    def test_full_lifecycle_over_http(self, server):
        code, _, body = _get(server.url + "/healthz")
        assert code == 200 and body["status"] == "ok"

        code, _, body = _post(server.url + "/campaigns", STUDY)
        assert code == 202 and body["created"] and body["status"] == "QUEUED"
        cid = body["campaign"]

        # The result endpoint backpressures while the campaign runs.
        code, headers, _ = _get(f"{server.url}/campaigns/{cid}/result")
        if code == 409:
            assert "Retry-After" in headers
        server.scheduler.wait(cid, timeout_s=300)

        code, _, body = _get(f"{server.url}/campaigns/{cid}/status")
        assert code == 200 and body["status"] == "DONE"
        assert body["coverage"] == {"sweep.cells": {"lost": 0, "total": 1}}

        code, _, body = _get(f"{server.url}/campaigns/{cid}/result")
        assert code == 200 and body["campaign"] == cid

        # Dedup over HTTP: 200, not 202.
        code, _, body = _post(server.url + "/campaigns", STUDY)
        assert code == 200 and not body["created"] and body["status"] == "DONE"

        code, _, body = _get(server.url + "/campaigns")
        assert code == 200 and [c["campaign"] for c in body["campaigns"]] == [cid]

        code, _, body = _get(server.url + "/telemetry?limit=10")
        assert code == 200 and body["total_lines"] >= 1
        events = {event["event"] for event in body["events"]}
        assert "serve.finished" in events or body["total_lines"] > 10

    def test_error_codes(self, server):
        assert _post(server.url + "/campaigns", {"kind": "nope"})[0] == 400
        assert _get(server.url + "/campaigns/zzz/status")[0] == 404
        assert _get(server.url + "/campaigns/zzz/result")[0] == 404
        assert _get(server.url + "/nope")[0] == 404
        code, _, _ = _get(server.url + "/telemetry?limit=abc")
        assert code == 400

    def test_queue_full_maps_to_429_with_retry_after(self, tmp_path):
        server = ReproServer(ServeConfig(state_dir=tmp_path / "state", max_queue=1))
        # Scheduler deliberately not started: the queue cannot drain.
        server._serve_thread = threading.Thread(
            target=server.httpd.serve_forever, daemon=True
        )
        server._serve_thread.start()
        try:
            assert _post(server.url + "/campaigns", STUDY)[0] == 202
            code, headers, _ = _post(
                server.url + "/campaigns",
                {**STUDY, "tenant": "other"},
            )
            assert code == 429 and "Retry-After" in headers
        finally:
            server.httpd.shutdown()
            server.httpd.server_close()
            server.scheduler.journal.close()

    def test_endpoint_file_records_the_bound_address(self, tmp_path):
        server = ReproServer(ServeConfig(state_dir=tmp_path / "state"))
        endpoint = json.loads((tmp_path / "state" / "endpoint.json").read_text())
        assert endpoint["port"] == server.port
        server.httpd.server_close()
        server.scheduler.journal.close()
