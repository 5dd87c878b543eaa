"""Chaos harness for ``repro serve``: crashes, drains, damage, degradation.

The headline guarantee, proven differentially: SIGKILL the server
mid-campaign, restart it against the same state directory, and the
recovered campaign's result is **byte-identical** to an uninterrupted
run's — on the serial and pool backends.  Alongside it: SIGTERM
drains gracefully (checkpoint, exit 0, the re-queued campaign resumes on
restart), a corrupt journal tail degrades recovery honestly instead of
wedging it, injected ``serve.request`` faults surface as the documented
HTTP failure modes, and a campaign whose cells permanently fail reports
``DEGRADED`` with a coverage report matching the injected fire set
exactly.

The SIGTERM-mid-campaign regression test for the ``repro sweep run`` CLI
(checkpoint-before-exit, resume to a byte-identical report) lives here
too — same subprocess toolkit.
"""

import json
import os
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.faults import FaultPlan, FaultSpec
from repro.parallel import process_backend_available
from repro.serve import ReproServer, Scheduler, ServeConfig, read_journal, recover_state

pytestmark = [pytest.mark.serve, pytest.mark.chaos]

SRC = Path(__file__).resolve().parents[1] / "src"

#: A 12-epoch timeline: long enough (~10s) to reliably kill mid-campaign.
LONG_TIMELINE = {
    "kind": "timeline",
    "spec": {
        "timeline": {"start": "2021Q1", "end": "2023Q4", "seed": 3},
        "overrides": {
            "internet.seed": 5,
            "internet.n_access_isps": 30,
            "internet.n_ixps": 12,
            "n_vantage_points": 20,
            "seed": 7,
        },
    },
}


def _cli(*args: str) -> list[str]:
    return [sys.executable, "-c", "import sys; from repro.cli import main; sys.exit(main(sys.argv[1:]))", *args]


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _get_json(url: str):
    with urllib.request.urlopen(url, timeout=10) as response:
        return json.loads(response.read())


def _post_json(url: str, payload) -> dict:
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode(), headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return json.loads(response.read())


class _Server:
    """A ``repro serve`` subprocess bound to a state directory."""

    def __init__(self, state_dir: Path, *extra: str):
        self.state_dir = state_dir
        endpoint = state_dir / "endpoint.json"
        endpoint.unlink(missing_ok=True)
        self.process = subprocess.Popen(
            _cli("serve", "--state-dir", str(state_dir), *extra),
            env=_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        deadline = time.time() + 60
        self.url = None
        while time.time() < deadline and self.url is None:
            if self.process.poll() is not None:
                raise AssertionError(f"server died on startup (exit {self.process.returncode})")
            try:
                address = json.loads(endpoint.read_text())
                _get_json(f"http://{address['host']}:{address['port']}/healthz")
                self.url = f"http://{address['host']}:{address['port']}"
            except (OSError, json.JSONDecodeError, urllib.error.URLError):
                time.sleep(0.05)
        assert self.url is not None, "server did not come up within 60s"

    def status(self, cid: str) -> dict:
        return _get_json(f"{self.url}/campaigns/{cid}/status")

    def wait_for(self, cid: str, statuses: tuple[str, ...], timeout_s: float = 180) -> str:
        deadline = time.time() + timeout_s
        while time.time() < deadline:
            status = self.status(cid)["status"]
            if status in statuses:
                return status
            time.sleep(0.1)
        raise AssertionError(f"campaign {cid} never reached {statuses}")

    def wait_for_partial_progress(self, timeout_s: float = 120) -> None:
        """Block until some stage entries are checkpointed (campaign mid-flight)."""
        stages = self.state_dir / "stages" / "objects"
        deadline = time.time() + timeout_s
        while time.time() < deadline:
            if stages.exists() and sum(1 for _ in stages.rglob("*.json")) >= 5:
                return
            time.sleep(0.05)
        raise AssertionError("campaign made no store progress within the timeout")

    def kill9(self) -> None:
        self.process.kill()
        self.process.wait(timeout=30)

    def terminate(self) -> int:
        self.process.send_signal(signal.SIGTERM)
        return self.process.wait(timeout=60)

    def cleanup(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait(timeout=30)


def _reference_result(tmp_path: Path, spec: dict) -> bytes:
    """The uninterrupted result bytes for ``spec`` from a pristine state dir."""
    scheduler = Scheduler(ServeConfig(state_dir=tmp_path / "reference-state"))
    scheduler.start()
    cid, _, _ = scheduler.submit(spec)
    assert scheduler.wait(cid, timeout_s=300) == "DONE"
    body = scheduler.result_bytes(cid)
    scheduler.drain()
    return body


def _kill9_roundtrip(tmp_path: Path, *server_args: str) -> None:
    state = tmp_path / "state"
    state.mkdir()
    server = _Server(state, *server_args)
    try:
        submitted = _post_json(server.url + "/campaigns", LONG_TIMELINE)
        cid = submitted["campaign"]
        server.wait_for(cid, ("RUNNING",), timeout_s=60)
        server.wait_for_partial_progress()
        server.kill9()
    finally:
        server.cleanup()

    # The journal saw the start but (with overwhelming likelihood at this
    # campaign size) no finish: recovery must re-queue.
    recovered = recover_state(state / "journal.jsonl", state / "results")
    assert recovered.campaigns[cid]["status"] in ("QUEUED", "DONE")

    restarted = _Server(state, *server_args)
    try:
        assert restarted.wait_for(cid, ("DONE", "DEGRADED", "LOST"), timeout_s=300) == "DONE"
        with urllib.request.urlopen(f"{restarted.url}/campaigns/{cid}/result", timeout=10) as r:
            recovered_bytes = r.read()
    finally:
        restarted.cleanup()

    assert recovered_bytes == _reference_result(tmp_path, LONG_TIMELINE)


class TestKillDashNine:
    def test_sigkill_mid_campaign_recovers_byte_identical(self, tmp_path):
        _kill9_roundtrip(tmp_path)

    @pytest.mark.parallel
    def test_sigkill_recovery_on_process_backend(self, tmp_path):
        if not process_backend_available():
            pytest.skip("worker-pool backend unavailable")
        _kill9_roundtrip(tmp_path, "--backend", "pool", "--workers", "2")

    def test_double_kill_double_recovery(self, tmp_path):
        """Killing the server during *recovery's re-run* and recovering
        again still converges to the same byte-identical result."""
        state = tmp_path / "state"
        state.mkdir()
        server = _Server(state)
        try:
            cid = _post_json(server.url + "/campaigns", LONG_TIMELINE)["campaign"]
            server.wait_for(cid, ("RUNNING",), timeout_s=60)
            server.wait_for_partial_progress()
            server.kill9()
        finally:
            server.cleanup()
        second = _Server(state)
        try:
            second.wait_for(cid, ("RUNNING", "DONE"), timeout_s=60)
            second.kill9()
        finally:
            second.cleanup()
        third = _Server(state)
        try:
            assert third.wait_for(cid, ("DONE", "DEGRADED", "LOST"), timeout_s=300) == "DONE"
            with urllib.request.urlopen(f"{third.url}/campaigns/{cid}/result", timeout=10) as r:
                body = r.read()
        finally:
            third.cleanup()
        assert body == _reference_result(tmp_path, LONG_TIMELINE)


def _proc_stat(pid: int) -> tuple[int, str, int] | None:
    """``(ppid, state, start time)`` of a live process, ``None`` once it is gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return None
    # The command name is parenthesised and may hold spaces; fields follow it.
    fields = stat[stat.rindex(")") + 2:].split()
    return int(fields[1]), fields[0], int(fields[19])


def _descendants(root: int) -> dict[int, int]:
    """Every live descendant of ``root``: pid -> start time."""
    children: dict[int, list[tuple[int, int]]] = {}
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            stat = _proc_stat(int(entry.name))
            if stat is not None:
                children.setdefault(stat[0], []).append((int(entry.name), stat[2]))
    found: dict[int, int] = {}
    frontier = [root]
    while frontier:
        for pid, started in children.get(frontier.pop(), []):
            found[pid] = started
            frontier.append(pid)
    return found


def _still_running(pid: int, started: int) -> bool:
    """Alive and not a reused pid; a zombie awaiting its reaper is dead."""
    stat = _proc_stat(pid)
    return stat is not None and stat[1] != "Z" and stat[2] == started


class TestPoolWorkersDieWithServer:
    @pytest.mark.parallel
    def test_sigkilled_server_leaves_no_worker_behind(self, tmp_path):
        """Pool workers block on their call queue, whose pipe they hold
        open themselves, so without a parent watch they would outlive a
        SIGKILLed server forever."""
        if not process_backend_available():
            pytest.skip("worker-pool backend unavailable")
        if not Path("/proc/self/stat").exists():
            pytest.skip("needs /proc to find the server's workers")
        state = tmp_path / "state"
        state.mkdir()
        server = _Server(state, "--backend", "pool", "--workers", "2")
        try:
            cid = _post_json(server.url + "/campaigns", LONG_TIMELINE)["campaign"]
            server.wait_for(cid, ("RUNNING",), timeout_s=60)
            server.wait_for_partial_progress()
            workers = _descendants(server.process.pid)
            server.kill9()
        finally:
            server.cleanup()
        assert workers, "the pool campaign started no worker"
        deadline = time.time() + 5
        while time.time() < deadline and any(_still_running(*w) for w in workers.items()):
            time.sleep(0.1)
        survivors = [pid for pid, started in workers.items() if _still_running(pid, started)]
        for pid in survivors:
            os.kill(pid, signal.SIGKILL)
        assert survivors == [], f"workers {survivors} outlived the SIGKILLed server by 5 s"


class TestGracefulDrain:
    def test_sigterm_checkpoints_requeues_and_exits_zero(self, tmp_path):
        state = tmp_path / "state"
        state.mkdir()
        server = _Server(state)
        try:
            cid = _post_json(server.url + "/campaigns", LONG_TIMELINE)["campaign"]
            server.wait_for(cid, ("RUNNING",), timeout_s=60)
            server.wait_for_partial_progress()
            assert server.terminate() == 0
        finally:
            server.cleanup()

        events = [entry["event"] for entry in read_journal(state / "journal.jsonl").entries]
        assert "server_stop" in events
        recovered = recover_state(state / "journal.jsonl", state / "results")
        # Either the drain caught the campaign mid-flight (journaled
        # "drained", re-queued) or the campaign finished just before the
        # signal landed; both are clean exits.
        assert recovered.campaigns[cid]["status"] in ("QUEUED", "DONE")

        restarted = _Server(state)
        try:
            assert restarted.wait_for(cid, ("DONE", "DEGRADED", "LOST"), timeout_s=300) == "DONE"
            with urllib.request.urlopen(f"{restarted.url}/campaigns/{cid}/result", timeout=10) as r:
                body = r.read()
        finally:
            restarted.cleanup()
        assert body == _reference_result(tmp_path, LONG_TIMELINE)


class TestJournalDamageAtServerLevel:
    def test_corrupt_journal_tail_recovery(self, tmp_path):
        """A torn tail (SIGKILL mid-append) is absorbed: recovery reports
        it, the queued campaign survives, and the re-run completes."""
        state = tmp_path / "state"
        scheduler = Scheduler(ServeConfig(state_dir=state))
        cid, _, _ = scheduler.submit(
            {"kind": "study", "spec": {"scenario": "small", "overrides": {
                "internet.seed": 3, "internet.n_access_isps": 40,
                "internet.n_ixps": 20, "n_vantage_points": 24, "seed": 3}}}
        )
        scheduler.journal.close()
        with (state / "journal.jsonl").open("a") as file:
            file.write('{"seq": 999, "event": "fini')  # torn mid-append

        revived = Scheduler(ServeConfig(state_dir=state))
        assert revived.recovered.torn_tail
        assert revived.recovered.pending == [cid]
        revived.start()
        assert revived.wait(cid, timeout_s=300) == "DONE"
        revived.drain()

    def test_bit_flip_mid_journal_is_skipped_and_counted(self, tmp_path):
        state = tmp_path / "state"
        scheduler = Scheduler(ServeConfig(state_dir=state))
        scheduler.submit(
            {"kind": "study", "spec": {"scenario": "small", "overrides": {"seed": 11}}}
        )
        cid, _, _ = scheduler.submit(
            {"kind": "study", "spec": {"scenario": "small", "overrides": {"seed": 12}}}
        )
        scheduler.journal.close()
        path = state / "journal.jsonl"
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:-4] + 'xx"}'  # flip bytes inside the first submit
        path.write_text("\n".join(lines) + "\n")

        revived = Scheduler(ServeConfig(state_dir=state))
        assert revived.recovered.n_corrupt == 1
        # The damaged submission is forgotten (conservative); the intact
        # one survives with its FIFO position.
        assert revived.recovered.pending == [cid]
        revived.journal.close()


class TestServeRequestFaults:
    def _server(self, tmp_path, spec: FaultSpec) -> ReproServer:
        config = ServeConfig(
            state_dir=tmp_path / "state", faults=FaultPlan(seed=0, specs=(spec,))
        )
        server = ReproServer(config)
        server.start()
        return server

    def test_transient_error_maps_to_503_with_retry_after(self, tmp_path):
        server = self._server(
            tmp_path, FaultSpec(site="serve.request", kind="error", rate=1.0, fail_attempts=1)
        )
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get_json(server.url + "/healthz")
            assert excinfo.value.code == 503
            assert excinfo.value.headers["Retry-After"] is not None
        finally:
            server.shutdown()

    def test_fatal_error_maps_to_500(self, tmp_path):
        server = self._server(
            tmp_path, FaultSpec(site="serve.request", kind="error", rate=1.0, fatal=True)
        )
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get_json(server.url + "/healthz")
            assert excinfo.value.code == 500
        finally:
            server.shutdown()

    def test_drop_closes_the_connection_without_a_response(self, tmp_path):
        import http.client

        server = self._server(tmp_path, FaultSpec(site="serve.request", kind="drop", rate=1.0))
        try:
            # Depending on timing the stdlib surfaces the dropped
            # connection as URLError (an OSError) or RemoteDisconnected.
            with pytest.raises((OSError, http.client.HTTPException)):
                _get_json(server.url + "/healthz")
        finally:
            server.shutdown()


def _degraded_plan(n_cells: int) -> FaultPlan:
    """A permanent ``sweep.cell`` error plan firing on some but not all cells.

    Seed-searched like the resume tests' crash plans, so the expected
    fire set is computed, never hard-coded.
    """
    spec = FaultSpec(site="sweep.cell", kind="error", rate=0.5, fatal=True)
    for seed in range(200):
        plan = FaultPlan(seed=seed, specs=(spec,))
        fires = [plan.fires_ever("sweep.cell", index) for index in range(n_cells)]
        if any(fires) and not all(fires):
            return plan
    raise AssertionError("no seed under 200 produced a partial fire set")


class TestHonestDegradation:
    def test_degraded_coverage_matches_the_injected_fire_set_exactly(self, tmp_path):
        plan = _degraded_plan(3)
        spec = {
            "kind": "sweep",
            "spec": {
                "scenario": "small",
                "overrides": {
                    "internet.n_access_isps": 40, "internet.n_ixps": 20,
                    "n_vantage_points": 24,
                },
                "axes": {"seed,internet.seed": [3, 4, 5]},
            },
            "faults": plan.to_json(),
            "resilience": {"retry": 2, "shard_loss_budget": 1.0},
        }
        scheduler = Scheduler(ServeConfig(state_dir=tmp_path / "state"))
        scheduler.start()
        cid, _, _ = scheduler.submit(spec)
        assert scheduler.wait(cid, timeout_s=300) == "DEGRADED"
        result = json.loads(scheduler.result_bytes(cid))
        scheduler.drain()

        expected_lost = [
            cell["cell_id"]
            for index, cell in enumerate(result["report"]["cells"])
            if plan.fires_ever("sweep.cell", index)
        ]
        assert 1 <= len(expected_lost) < 3
        assert result["lost"] == expected_lost
        assert result["coverage"] == {
            "sweep.cells": {"lost": len(expected_lost), "total": 3}
        }
        failed = [cell for cell in result["report"]["cells"] if cell["status"] == "failed"]
        assert [cell["cell_id"] for cell in failed] == expected_lost


class TestCLISigterm:
    def test_sweep_run_sigterm_checkpoints_then_resumes_byte_identical(self, tmp_path):
        spec_path = tmp_path / "grid.json"
        spec_path.write_text(json.dumps({
            "scenario": "small",
            "overrides": {
                "internet.n_access_isps": 40, "internet.n_ixps": 20,
                "n_vantage_points": 24,
            },
            "axes": {"seed,internet.seed": [3, 4, 5]},
        }))
        store = tmp_path / "store"
        command = _cli(
            "sweep", "run", "--spec", str(spec_path), "--store-dir", str(store),
            "--report-out", str(tmp_path / "interrupted.json"),
        )
        process = subprocess.Popen(
            command, env=_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE
        )
        # Wait for the first checkpoint to land, then SIGTERM mid-campaign.
        deadline = time.time() + 120
        while time.time() < deadline:
            if store.exists() and any(store.rglob("*.json")):
                break
            if process.poll() is not None:
                raise AssertionError("campaign finished before the signal could land")
            time.sleep(0.05)
        process.send_signal(signal.SIGTERM)
        _, stderr = process.communicate(timeout=60)
        assert process.returncode == 130
        assert b"interrupted" in stderr and b"resume" in stderr

        # Resume against the same store: exit 0, report written.
        resumed = subprocess.run(
            _cli("sweep", "run", "--spec", str(spec_path), "--store-dir", str(store),
                 "--report-out", str(tmp_path / "resumed.json")),
            env=_env(), capture_output=True, timeout=300,
        )
        assert resumed.returncode == 0

        # Uninterrupted reference in a pristine store: identical bytes.
        reference = subprocess.run(
            _cli("sweep", "run", "--spec", str(spec_path), "--store-dir",
                 str(tmp_path / "fresh-store"), "--report-out", str(tmp_path / "reference.json")),
            env=_env(), capture_output=True, timeout=300,
        )
        assert reference.returncode == 0
        assert (tmp_path / "resumed.json").read_bytes() == (tmp_path / "reference.json").read_bytes()
