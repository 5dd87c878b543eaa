"""Resume-safe timeline campaigns: one epoch cell per quarter.

:func:`run_timeline` dispatches one cell per quarter through
:mod:`repro.parallel` (mirroring :mod:`repro.sweep.campaign`): each cell
aggregates its quarter via the incremental engine and is checkpointed
into the :class:`~repro.store.StageStore` under its ``epoch`` key
*before* its result is reported, so an interrupt loses at most the
cells in flight.  Re-running the same campaign skips every stored epoch
— the content address *is* the resume token; there is no campaign state
file to corrupt.

The :class:`TimelineReport` is a pure function of (config, quarters):
cache provenance (hits/misses) is surfaced separately and excluded from
:meth:`TimelineReport.to_json`, so an interrupted-then-resumed campaign
serialises **byte-identically** to an uninterrupted one
(``tests/test_timeline_resume.py`` proves this, serial and pool).

Honest coverage under faults: a quarter whose shard exhausts its retry
budget is reported as a ``status="lost"`` row — never silently dropped —
and each completed row carries its own ``coverage`` fractions (users in
hosting/analyzable ISPs), so degraded epochs are visible in the series.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Callable

from repro._util import atomic_write_text, format_table, require
from repro.obs import Telemetry, ensure_telemetry
from repro.parallel import Shard, ShardPlan, run_sharded
from repro.resilience import ShardLoss
from repro.store import StageStore
from repro.timeline.engine import (
    TimelineConfig,
    build_substrate,
    compute_epoch,
    epoch_stage_key,
    timeline_fingerprint,
)

#: Format tag stamped into exported timeline reports.
REPORT_FORMAT = "repro-timeline-v1"


@dataclass(frozen=True)
class EpochResult:
    """One quarter's completed (or lost) series row."""

    index: int
    epoch: str
    #: The aggregated series row (empty when the epoch was lost).
    row: dict[str, Any]
    #: Whether the row came from the store (provenance, not artifact).
    from_store: bool = False
    #: ``"ok"``, or ``"lost"`` when the epoch's shard was quarantined.
    status: str = "ok"


@dataclass
class TimelineReport:
    """The longitudinal series: one row per quarter.

    Everything :meth:`render` and :meth:`to_json` emit is a
    deterministic function of (config, quarters); cache provenance lives
    only in :attr:`cache_hits` / :attr:`cache_misses` and is excluded,
    so resumed and uninterrupted campaigns produce identical bytes.
    """

    spec_json: dict[str, Any]
    fingerprint: str
    epochs: list[EpochResult] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def n_lost(self) -> int:
        """Quarters whose shards were quarantined (honest-coverage rows)."""
        return sum(1 for epoch in self.epochs if epoch.status != "ok")

    def series(self, *path: str) -> list[Any]:
        """One value per *completed* epoch, drilled by nested keys.

        ``report.series("table1", "Google")`` is the Table-1 Google
        column over time; ``report.series("cohosting", "2")`` the
        >= 2-hypergiant count.
        """
        values = []
        for epoch in self.epochs:
            if epoch.status != "ok":
                continue
            value: Any = epoch.row
            for key in path:
                value = value[key]
            values.append(value)
        return values

    def render(self) -> str:
        """The headline series as a plain-text table."""
        headers = ["epoch", "servers", "offnets", "Google", "Netflix", "Meta", "Akamai", ">=2 HGs", "analyzable", "hosting cov"]
        rows = []
        for epoch in self.epochs:
            if epoch.status != "ok":
                rows.append([epoch.epoch, "LOST", "-", "-", "-", "-", "-", "-", "-", "-"])
                continue
            row = epoch.row
            rows.append(
                [
                    epoch.epoch,
                    row["n_servers"],
                    row["n_detections"],
                    row["table1"]["Google"],
                    row["table1"]["Netflix"],
                    row["table1"]["Meta"],
                    row["table1"]["Akamai"],
                    row["cohosting"]["2"],
                    row["analyzable_isps"],
                    f"{100 * row['coverage']['hosting']:.0f}%",
                ]
            )
        return format_table(headers, rows)

    def to_json(self) -> dict[str, Any]:
        """Canonical report dict (no timings, no cache provenance)."""
        return {
            "format": REPORT_FORMAT,
            "fingerprint": self.fingerprint,
            "spec": self.spec_json,
            "n_epochs": len(self.epochs),
            "n_lost": self.n_lost,
            "epochs": [
                {"epoch": epoch.epoch, "status": epoch.status, "row": epoch.row}
                for epoch in self.epochs
            ],
        }

    def write(self, path: str | Path) -> Path:
        """Write the canonical report JSON to ``path`` (atomically) and return it."""
        return atomic_write_text(path, json.dumps(self.to_json(), sort_keys=True, indent=2) + "\n")


def _run_epochs_shard(
    config: TimelineConfig,
    store_root: str | None,
    epoch_hook: "Callable[[EpochResult], None] | None",
    shard: Shard,
    telemetry: Telemetry | None,
) -> list[EpochResult]:
    """Run one shard of epoch cells; store-first, compute on miss.

    Each freshly-computed epoch row is checkpointed under its ``epoch``
    key before it is returned — the whole resume protocol.
    ``epoch_hook`` fires after the checkpoint (the abort-mid-campaign
    tests hook here; on the pool backend it must be picklable).
    """
    obs = ensure_telemetry(telemetry)
    store = StageStore(store_root) if store_root is not None else None
    substrate = build_substrate(config, telemetry=telemetry)
    results: list[EpochResult] = []
    for index, quarter in shard.items:
        key = epoch_stage_key(config, quarter)
        with obs.span("timeline.epoch", epoch=quarter) as span:
            row = store.get("epoch", key) if store is not None else None
            from_store = row is not None
            if row is None:
                row = compute_epoch(substrate, quarter, store, telemetry=telemetry)
                if store is not None:
                    store.put("epoch", key, row)
            span.set(from_store=from_store)
        result = EpochResult(index=index, epoch=quarter, row=row, from_store=from_store)
        results.append(result)
        if epoch_hook is not None:
            epoch_hook(result)
    return results


def run_timeline(
    config: TimelineConfig,
    store: StageStore | None = None,
    telemetry: Telemetry | None = None,
    max_epochs: int | None = None,
    epoch_hook: "Callable[[EpochResult], None] | None" = None,
) -> TimelineReport:
    """Run (or resume) the longitudinal campaign; one report row per quarter.

    ``store`` makes the campaign durable *and* incremental: epoch rows
    already present are loaded instead of recomputed, and the per-stage
    caches let a fresh epoch reuse every unchanged detect/measure/
    cluster artifact from its predecessors.  ``max_epochs`` truncates to
    the first N quarters (a deterministic partial campaign — the resume
    tests' tool).  ``config.parallel`` dispatches one quarter per shard;
    ``config.faults`` wires the ``timeline.shard`` injection site, and
    with ``config.resilience`` a quarter that exhausts its retries
    degrades to a ``status="lost"`` row instead of sinking the series.
    """
    quarters = config.spec.quarters
    if max_epochs is not None:
        require(max_epochs >= 1, "max_epochs must be >= 1")
        quarters = quarters[:max_epochs]
    obs = ensure_telemetry(telemetry)
    store_root = str(store.root) if store is not None else None

    plan = ShardPlan.of(list(enumerate(quarters)), chunk_size=1)
    # One quarter per shard, so executor progress events double as
    # per-epoch campaign progress on the stream.
    obs.emit("timeline_start", n_epochs=len(quarters), start=quarters[0], end=quarters[-1])
    with obs.span("timeline", n_epochs=len(quarters), stored=store is not None):
        shard_results = run_sharded(
            partial(_run_epochs_shard, config, store_root, epoch_hook),
            plan,
            config.parallel,
            telemetry=telemetry,
            label="timeline",
            faults=config.faults,
            resilience=config.resilience,
        )
    results: list[EpochResult] = []
    for shard, shard_result in zip(plan.shards(), shard_results):
        if isinstance(shard_result, ShardLoss):
            # One quarter per shard: a quarantined shard is a lost epoch,
            # surfaced as an honest hole in the series.
            for index, quarter in shard.items:
                obs.count("timeline.epochs_lost")
                results.append(
                    EpochResult(index=index, epoch=quarter, row={}, status="lost")
                )
            continue
        results.extend(shard_result)
    results.sort(key=lambda r: r.index)

    report = TimelineReport(
        spec_json=config.spec.to_json(),
        fingerprint=timeline_fingerprint(config),
        epochs=results,
        cache_hits=sum(1 for r in results if r.from_store),
        cache_misses=sum(1 for r in results if r.status == "ok" and not r.from_store),
    )
    obs.count("timeline.epochs", len(results))
    obs.count("timeline.store_hits", report.cache_hits)
    obs.count("timeline.store_misses", report.cache_misses)
    obs.emit(
        "timeline_end",
        n_epochs=len(results),
        n_lost=report.n_lost,
        store_hits=report.cache_hits,
        store_misses=report.cache_misses,
    )
    obs.log(
        "timeline campaign complete",
        epochs=len(results),
        store_hits=report.cache_hits,
        store_misses=report.cache_misses,
    )
    return report


@dataclass(frozen=True)
class TimelineStatus:
    """Which quarters are already durable in a stage store."""

    n_epochs: int
    done: tuple[str, ...]
    pending: tuple[str, ...]

    @property
    def n_done(self) -> int:
        """Quarters already checkpointed."""
        return len(self.done)

    @property
    def n_pending(self) -> int:
        """Quarters a resume would still run."""
        return len(self.pending)

    def render(self) -> str:
        """One-line summary plus the pending quarters."""
        lines = [f"{self.n_done}/{self.n_epochs} epochs stored, {self.n_pending} pending"]
        for epoch in self.pending:
            lines.append(f"  pending: {epoch}")
        return "\n".join(lines)


def timeline_status(config: TimelineConfig, store: StageStore) -> TimelineStatus:
    """Check every quarter against the store (no counter effects)."""
    done: list[str] = []
    pending: list[str] = []
    for quarter in config.spec.quarters:
        key = epoch_stage_key(config, quarter)
        (done if store.contains(key) else pending).append(quarter)
    return TimelineStatus(
        n_epochs=len(done) + len(pending), done=tuple(done), pending=tuple(pending)
    )
