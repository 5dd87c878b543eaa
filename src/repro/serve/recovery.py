"""Crash recovery: rebuild scheduler state from the journal and results.

:func:`recover_state` is a **pure function** of ``(journal file, results
directory)`` — it mutates nothing on disk — so recovering twice from the
same wreckage yields identical state (the double-recovery idempotence
the chaos tests assert), and a recovery interrupted by *another* crash
costs nothing.

The fold is deliberately conservative: any campaign the journal cannot
prove finished — it was ``RUNNING`` at the kill, its ``finished`` record
was lost to a torn tail, or its result file is missing or fails its
digest — goes back to ``QUEUED``.  Re-execution is always safe because
every cell/epoch the interrupted run completed was checkpointed into a
content-addressed store before being reported, so the recovered rerun
replays from cache and produces **byte-identical** result bytes
(``tests/test_serve_chaos.py`` proves this differentially).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.serve.journal import read_journal


def _fresh_record(campaign: str, record: dict[str, Any]) -> dict[str, Any]:
    return {
        "campaign": campaign,
        "spec": record.get("spec", {}),
        "status": "QUEUED",
        "submitted_seq": record.get("seq", -1),
        "result_sha256": None,
        "error": None,
        "provenance": None,
    }


def replay_journal(entries: list[dict[str, Any]]) -> dict[str, dict[str, Any]]:
    """Fold journal records into per-campaign state, in journal order.

    ``submitted`` registers a campaign (the first submission wins the
    spec; a re-submission of a ``LOST`` campaign re-queues it — the only
    way a terminal loss is retried, and it is always client-initiated).
    ``started`` → ``RUNNING``; ``finished`` → ``DONE``/``DEGRADED`` with
    the result digest; ``lost`` → ``LOST``; ``drained`` → back to
    ``QUEUED`` (the server checkpointed and stopped it).  Server-level
    records (``server_start``/``server_stop``) are ignored here.
    """
    campaigns: dict[str, dict[str, Any]] = {}
    for record in entries:
        event = record.get("event")
        campaign = record.get("campaign")
        if not isinstance(campaign, str):
            continue
        if event == "submitted":
            if campaign not in campaigns:
                campaigns[campaign] = _fresh_record(campaign, record)
            elif campaigns[campaign]["status"] == "LOST":
                campaigns[campaign]["status"] = "QUEUED"
                campaigns[campaign]["error"] = None
            continue
        state = campaigns.get(campaign)
        if state is None:
            # An orphaned transition: its submit record was dropped or
            # damaged.  Without the spec the campaign cannot be re-run,
            # so there is nothing to register — the client's
            # re-submission (deduplicated by id) restores it.
            continue
        if event == "started":
            state["status"] = "RUNNING"
        elif event == "finished":
            status = record.get("status", "DONE")
            state["status"] = status if status in ("DONE", "DEGRADED") else "DONE"
            state["result_sha256"] = record.get("result_sha256")
        elif event == "lost":
            state["status"] = "LOST"
            state["error"] = record.get("error")
        elif event == "drained":
            state["status"] = "QUEUED"
    return campaigns


@dataclass
class RecoveredState:
    """The scheduler state :func:`recover_state` rebuilt."""

    #: campaign id -> state record (see :func:`replay_journal`).
    campaigns: dict[str, dict[str, Any]] = field(default_factory=dict)
    #: Campaign ids to (re-)run, in original submission order (FIFO).
    pending: list[str] = field(default_factory=list)
    #: Campaigns that claimed to be finished or running but had to be
    #: re-queued (interrupted, or their result file failed its digest).
    requeued: list[str] = field(default_factory=list)
    #: Damaged journal lines skipped during replay.
    n_corrupt: int = 0
    #: Whether the journal ended in a torn line (killed mid-write).
    torn_tail: bool = False


def recover_state(journal_path: str | Path, results_dir: str | Path) -> RecoveredState:
    """Rebuild campaign state after a crash (or a clean restart).

    Pure: reads the journal and digests result files, writes nothing.
    ``RUNNING`` campaigns were interrupted mid-execution and are
    re-queued; ``DONE``/``DEGRADED`` campaigns whose result file is
    missing or does not match the journaled sha256 are re-queued too
    (the write was torn, or the file was tampered with).  ``LOST``
    campaigns stay lost — re-running an unexplained failure forever is a
    crash loop, so retrying a loss requires an explicit re-submission.
    """
    view = read_journal(journal_path)
    campaigns = replay_journal(view.entries)
    results = Path(results_dir)
    requeued: list[str] = []
    for campaign, state in campaigns.items():
        if state["status"] == "RUNNING":
            state["status"] = "QUEUED"
            requeued.append(campaign)
        elif state["status"] in ("DONE", "DEGRADED"):
            path = results / f"{campaign}.json"
            digest = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
            if digest is None or digest != state["result_sha256"]:
                state["status"] = "QUEUED"
                state["result_sha256"] = None
                requeued.append(campaign)
    pending = sorted(
        (campaign for campaign, state in campaigns.items() if state["status"] == "QUEUED"),
        key=lambda campaign: campaigns[campaign]["submitted_seq"],
    )
    return RecoveredState(
        campaigns=campaigns,
        pending=pending,
        requeued=requeued,
        n_corrupt=view.n_corrupt,
        torn_tail=view.torn_tail,
    )
