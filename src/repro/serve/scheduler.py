"""The serve data plane: a FIFO scheduler over the repo's executors.

One scheduler thread drains a bounded FIFO of campaigns, executing each
through the same :func:`repro.sweep.run_campaign` /
:func:`repro.timeline.run_timeline` entry points the CLIs use — the
server adds *no* execution semantics, only admission control, journaling
and recovery around them.  That is the load-bearing design choice: every
durability property the service claims (byte-identical recovery, honest
degradation) is inherited from the checkpoint-before-report protocol
those campaign runners already enforce, not re-implemented here.

Admission control is two-tier: a bounded global queue (backpressure —
full queue → 429 with Retry-After at the HTTP layer) and a per-tenant
quota on active (queued + running) campaigns, so one noisy tenant cannot
starve the rest of a shared server.

Draining: the OS delivers SIGTERM to the *server*; the scheduler relays
it to the *campaign* via :class:`_DrainHook`, a picklable per-cell hook
that checks a flag file and raises :class:`DrainRequested` — a
:class:`KeyboardInterrupt` subclass **on purpose**, so the executors'
``except Exception`` retry/quarantine paths never swallow it and it
propagates out of both the serial and pool backends.  Everything the
campaign completed before the drain is already checkpointed, so the
re-queued campaign resumes from cache on restart.
"""

from __future__ import annotations

import json
import os
import threading
from collections import deque
from dataclasses import dataclass
from hashlib import sha256
from pathlib import Path
from typing import Any

from repro._util import atomic_write_text, require, require_non_negative
from repro.faults import FaultPlan, InjectedFault
from repro.obs import Telemetry
from repro.parallel import ParallelConfig, shutdown_pools
from repro.resilience import CoverageReport
from repro.serve.journal import Journal
from repro.serve.model import (
    RESULT_FORMAT,
    build_faults,
    build_grid,
    build_resilience,
    build_timeline_config,
    campaign_id,
    normalize_spec,
)
from repro.serve.recovery import recover_state

#: Flag file whose existence tells in-flight campaigns to drain.
DRAIN_FLAG = "drain.flag"


class AdmissionError(RuntimeError):
    """A submission the server refuses right now (HTTP 429)."""

    #: Suggested client back-off, surfaced as a Retry-After header.
    retry_after_s = 1.0


class QueueFullError(AdmissionError):
    """The global campaign queue is at capacity."""


class QuotaExceededError(AdmissionError):
    """The tenant already has its quota of active campaigns."""


class DrainRequested(KeyboardInterrupt):
    """Raised inside a campaign when the server is draining.

    A :class:`KeyboardInterrupt` subclass deliberately: the executors
    catch ``Exception`` for retry/quarantine, so an ``Exception``-based
    drain signal would be retried as a shard failure and burn the error
    budget.  ``KeyboardInterrupt`` propagates cleanly out of the serial
    backend and is pickled back to the parent by the pool backend.
    """


class _DrainHook:
    """Picklable cell/epoch hook that raises once the drain flag exists.

    Fires *after* the cell it interrupts was checkpointed (hooks run
    post-checkpoint), so a drain never loses completed work.
    """

    def __init__(self, flag_path: str) -> None:
        self.flag_path = flag_path

    def __call__(self, _result: Any) -> None:
        if os.path.exists(self.flag_path):
            raise DrainRequested(f"drain flag present at {self.flag_path}")


@dataclass(frozen=True)
class ServeConfig:
    """How a :class:`Scheduler` (and :class:`~repro.serve.app.ReproServer`) runs."""

    #: Where the journal, stores, results and endpoint file live.
    state_dir: str | Path
    #: Executor config campaigns run under (``None`` = serial defaults).
    parallel: ParallelConfig | None = None
    #: Global queue bound (admission control; full → 429).
    max_queue: int = 8
    #: Max active (queued + running) campaigns per tenant.
    tenant_quota: int = 4
    #: Server-side fault plan (``serve.request`` / ``serve.journal`` sites).
    faults: FaultPlan | None = None
    #: StudyStore / StageStore gc bounds applied between campaigns.
    gc_max_entries: int | None = None
    gc_max_bytes: int | None = None
    #: Retry-After seconds surfaced with 429/503 responses.
    retry_after_s: float = 1.0

    def __post_init__(self) -> None:
        # Checked here so ``repro serve`` refuses to start: a zero queue or
        # quota refuses every submission, and a negative gc bound fails
        # every gc between campaigns.
        require(self.max_queue >= 1, f"max_queue must be >= 1, got {self.max_queue!r}")
        require(self.tenant_quota >= 1, f"tenant_quota must be >= 1, got {self.tenant_quota!r}")
        if self.gc_max_entries is not None:
            require_non_negative(self.gc_max_entries, "gc_max_entries")
        if self.gc_max_bytes is not None:
            require_non_negative(self.gc_max_bytes, "gc_max_bytes")


class Scheduler:
    """FIFO campaign scheduler with journaling, recovery, and drain.

    Construction *is* recovery: the journal is replayed, interrupted or
    unverifiable campaigns are re-queued (see
    :func:`repro.serve.recovery.recover_state`), and a ``server_start``
    record is journaled.  Call :meth:`start` to begin draining the
    queue and :meth:`drain` to checkpoint and stop.
    """

    def __init__(self, config: ServeConfig, telemetry: Telemetry | None = None) -> None:
        self.config = config
        self.telemetry = telemetry
        self.state_dir = Path(config.state_dir)
        self.results_dir = self.state_dir / "results"
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.results_dir.mkdir(parents=True, exist_ok=True)
        self._flag_path = self.state_dir / DRAIN_FLAG
        self._flag_path.unlink(missing_ok=True)
        recovered = recover_state(self.state_dir / "journal.jsonl", self.results_dir)
        self.recovered = recovered
        self.journal = Journal(self.state_dir / "journal.jsonl", faults=config.faults)
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self.campaigns: dict[str, dict[str, Any]] = recovered.campaigns
        self._queue: deque[str] = deque(recovered.pending)
        self._stop = False
        self._thread: threading.Thread | None = None
        self._request_index = 0
        self._journal_append(
            "server_start",
            pid=os.getpid(),
            recovered=len(recovered.campaigns),
            requeued=list(recovered.requeued),
            journal_corrupt=recovered.n_corrupt,
            torn_tail=recovered.torn_tail,
        )

    # -- observability helpers -------------------------------------------------

    def _count(self, name: str) -> None:
        if self.telemetry is not None:
            self.telemetry.metrics.count(name)

    def _emit(self, event: str, **fields: Any) -> None:
        if self.telemetry is not None and self.telemetry.stream is not None:
            self.telemetry.stream.emit(event, **fields)

    def _journal_append(self, event: str, **fields: Any) -> int | None:
        """Journal best-effort: an append failure degrades, never aborts.

        A lost record only means recovery conservatively forgets or
        re-queues the campaign — and because campaign ids are content
        addresses served from the store, the client's re-submission
        restores any forgotten state for free.
        """
        try:
            return self.journal.append(event, **fields)
        except (InjectedFault, OSError) as error:
            self._count("serve.journal_failures")
            self._emit("serve.journal_failure", event=event, error=str(error))
            return None

    def next_request_index(self) -> int:
        """Monotonic arrival index for the ``serve.request`` fault site."""
        with self._lock:
            index = self._request_index
            self._request_index += 1
            return index

    # -- admission -------------------------------------------------------------

    def submit(self, data: Any) -> tuple[str, dict[str, Any], bool]:
        """Admit one submission; returns ``(campaign_id, view, created)``.

        Raises :class:`ValueError` (→ 400) on an invalid spec and
        :class:`AdmissionError` (→ 429) when the queue or the tenant's
        quota is full.  A re-submission of a known campaign is free —
        deduplicated by content address — unless that campaign is
        ``LOST``, in which case it is explicitly re-queued (the only
        retry path for terminal losses).
        """
        normalized = normalize_spec(data)
        cid = campaign_id(normalized)
        with self._wake:
            record = self.campaigns.get(cid)
            if record is not None and record["status"] != "LOST":
                self._count("serve.dedup_hits")
                return cid, self._view(record), False
            if len(self._queue) >= self.config.max_queue:
                self._count("serve.rejected_queue_full")
                raise QueueFullError(
                    f"queue is full ({self.config.max_queue} campaigns); retry later"
                )
            tenant = normalized["tenant"]
            active = sum(
                1
                for state in self.campaigns.values()
                if state["spec"].get("tenant") == tenant
                and state["status"] in ("QUEUED", "RUNNING")
            )
            if active >= self.config.tenant_quota:
                self._count("serve.rejected_quota")
                raise QuotaExceededError(
                    f"tenant {tenant!r} already has {active} active campaigns "
                    f"(quota {self.config.tenant_quota}); retry later"
                )
            seq = self._journal_append("submitted", campaign=cid, spec=normalized)
            if record is None:
                record = {
                    "campaign": cid,
                    "spec": normalized,
                    "status": "QUEUED",
                    "submitted_seq": seq if seq is not None else -1,
                    "result_sha256": None,
                    "error": None,
                    "provenance": None,
                }
                self.campaigns[cid] = record
            else:  # re-submitted LOST campaign: the only retry path
                record["spec"] = normalized
                record["status"] = "QUEUED"
                record["error"] = None
            self._queue.append(cid)
            self._count("serve.submitted")
            self._emit("serve.submitted", campaign=cid, tenant=tenant, kind=normalized["kind"])
            self._wake.notify_all()
            return cid, self._view(record), True

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        """Start the scheduler thread (idempotent)."""
        if self._thread is None:
            self._thread = threading.Thread(target=self._run, name="repro-serve-scheduler", daemon=True)
            self._thread.start()

    def drain(self, timeout_s: float | None = None) -> None:
        """Checkpoint, stop, and close the journal (the SIGTERM path).

        Writes the drain flag so an in-flight campaign raises
        :class:`DrainRequested` at its next cell boundary — everything
        already completed is checkpointed, so nothing is lost — then
        joins the scheduler thread, journals ``server_stop``, and tears
        down any persistent worker pool the campaigns shared (with
        ``--backend pool`` the server leases one pool across *all*
        campaigns it executes; workers must not outlive the server).
        """
        self._flag_path.write_text("drain\n")
        with self._wake:
            self._stop = True
            self._wake.notify_all()
        if self._thread is not None:
            self._thread.join(timeout=timeout_s)
        self._journal_append("server_stop", pid=os.getpid())
        self.journal.close()
        self._flag_path.unlink(missing_ok=True)
        shutdown_pools()

    def wait(self, cid: str, timeout_s: float = 60.0) -> str:
        """Block until ``cid`` reaches a terminal status; returns it."""
        with self._wake:
            self._wake.wait_for(
                lambda: self.campaigns.get(cid, {}).get("status") not in ("QUEUED", "RUNNING"),
                timeout=timeout_s,
            )
            return self.campaigns.get(cid, {}).get("status", "UNKNOWN")

    # -- the scheduler loop ----------------------------------------------------

    def _run(self) -> None:
        while True:
            with self._wake:
                self._wake.wait_for(lambda: self._queue or self._stop)
                if self._stop:
                    # Leave the queue untouched: QUEUED survives in the
                    # journal and is re-queued verbatim on restart.
                    return
                cid = self._queue.popleft()
                record = self.campaigns[cid]
                record["status"] = "RUNNING"
                self._wake.notify_all()
            self._journal_append("started", campaign=cid)
            self._emit("serve.started", campaign=cid)
            try:
                result, provenance = self._execute(cid, record["spec"])
            except DrainRequested:
                with self._wake:
                    record["status"] = "QUEUED"
                    self._queue.appendleft(cid)
                    self._stop = True
                    self._wake.notify_all()
                self._journal_append("drained", campaign=cid)
                self._emit("serve.drained", campaign=cid)
                return
            except Exception as error:  # noqa: BLE001 — LOST is the catch-all
                with self._wake:
                    record["status"] = "LOST"
                    record["error"] = f"{type(error).__name__}: {error}"
                    self._wake.notify_all()
                self._journal_append("lost", campaign=cid, error=record["error"])
                self._count("serve.lost")
                self._emit("serve.lost", campaign=cid, error=record["error"])
            else:
                payload = json.dumps(result, sort_keys=True, indent=2) + "\n"
                atomic_write_text(self.results_dir / f"{cid}.json", payload)
                digest = sha256(payload.encode()).hexdigest()
                with self._wake:
                    record["status"] = result["status"]
                    record["result_sha256"] = digest
                    record["provenance"] = provenance
                    self._wake.notify_all()
                # Checkpoint-before-report: the result file and its
                # digest land before the journal claims completion, so a
                # kill between the two re-queues (safe) rather than
                # trusting a missing file.
                self._journal_append(
                    "finished", campaign=cid, status=result["status"], result_sha256=digest
                )
                self._count("serve.finished")
                self._emit("serve.finished", campaign=cid, status=result["status"])
            self._collect_garbage()

    def _execute(self, cid: str, normalized: dict[str, Any]) -> tuple[dict[str, Any], dict[str, Any]]:
        """Run one campaign to a result dict + provenance (not in result bytes)."""
        hook = _DrainHook(str(self._flag_path))
        if normalized["kind"] == "timeline":
            from repro.store import StageStore
            from repro.timeline import run_timeline

            config, max_epochs = build_timeline_config(normalized, parallel=self.config.parallel)
            store = StageStore(self.state_dir / "stages")
            report = run_timeline(
                config,
                store=store,
                telemetry=self.telemetry,
                max_epochs=max_epochs,
                epoch_hook=hook,
            )
        else:
            from repro.sensitivity import DEFAULT_METRICS
            from repro.store import StudyStore
            from repro.sweep import run_campaign

            grid, max_cells = build_grid(normalized)
            store = StudyStore(self.state_dir / "store")
            report = run_campaign(
                grid,
                DEFAULT_METRICS,
                store=store,
                parallel=self.config.parallel,
                telemetry=self.telemetry,
                max_cells=max_cells,
                cell_hook=hook,
                faults=build_faults(normalized),
                resilience=build_resilience(normalized),
            )
        lost = report.lost
        coverage = CoverageReport()
        coverage.record(f"{report.label}.{report.unit}", len(lost), len(report.rows))
        result = {
            "format": RESULT_FORMAT,
            "campaign": cid,
            "kind": normalized["kind"],
            "tenant": normalized["tenant"],
            "status": "DONE" if not lost else "DEGRADED",
            "coverage": coverage.to_json(),
            "lost": lost,
            "report": report.to_json(),
        }
        provenance = {"cache_hits": report.cache_hits, "cache_misses": report.cache_misses}
        return result, provenance

    def _collect_garbage(self) -> None:
        """Bound the shared stores between campaigns (best-effort)."""
        if self.config.gc_max_entries is None and self.config.gc_max_bytes is None:
            return
        try:
            from repro.store import StageStore, StudyStore

            StudyStore(self.state_dir / "store").gc(
                max_entries=self.config.gc_max_entries, max_bytes=self.config.gc_max_bytes
            )
            StageStore(self.state_dir / "stages").gc(
                max_entries=self.config.gc_max_entries, max_bytes=self.config.gc_max_bytes
            )
            self._count("serve.gc_runs")
        except OSError as error:
            self._emit("serve.gc_failure", error=str(error))

    # -- views -----------------------------------------------------------------

    @staticmethod
    def _view(record: dict[str, Any]) -> dict[str, Any]:
        return {
            "campaign": record["campaign"],
            "tenant": record["spec"].get("tenant", "default"),
            "kind": record["spec"].get("kind", "unknown"),
            "status": record["status"],
        }

    def snapshot(self) -> list[dict[str, Any]]:
        """All campaigns, in submission order (the ``GET /campaigns`` body)."""
        with self._lock:
            records = sorted(self.campaigns.values(), key=lambda r: r["submitted_seq"])
            return [self._view(record) for record in records]

    def status_view(self, cid: str) -> dict[str, Any] | None:
        """One campaign's detailed status (``GET /campaigns/{id}/status``)."""
        with self._lock:
            record = self.campaigns.get(cid)
            if record is None:
                return None
            view = self._view(record)
            view["error"] = record["error"]
            view["result_sha256"] = record["result_sha256"]
            view["provenance"] = record["provenance"]
        if view["status"] in ("DONE", "DEGRADED"):
            path = self.results_dir / f"{cid}.json"
            try:
                result = json.loads(path.read_text())
                view["coverage"] = result.get("coverage", {})
                view["lost"] = result.get("lost", [])
            except (OSError, json.JSONDecodeError):
                pass
        return view

    def result_bytes(self, cid: str) -> bytes | None:
        """The raw result file for a finished campaign, or ``None``."""
        path = self.results_dir / f"{cid}.json"
        try:
            return path.read_bytes()
        except OSError:
            return None

    def queue_depth(self) -> int:
        """How many campaigns are waiting (``/healthz``)."""
        with self._lock:
            return len(self._queue)

    @property
    def draining(self) -> bool:
        """Whether a drain has been requested."""
        return self._stop
