"""Resume-safe timeline campaigns: one epoch cell per quarter.

:func:`run_timeline` runs one cell per quarter on the shared loop of
:mod:`repro.durable`: each cell aggregates its quarter via the
incremental engine and is checkpointed into the
:class:`~repro.store.StageStore` under its ``epoch`` key before it is
reported.  Re-running the same campaign skips every stored epoch.

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

from dataclasses import dataclass
from typing import Any, Callable

from repro._util import format_table, require
from repro.durable import CampaignStatus, CellReport, CellRow, run_cells
from repro.obs import Telemetry, ensure_telemetry
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


@dataclass(frozen=True, kw_only=True)
class EpochResult(CellRow):
    """One quarter's series row; ``cell_id`` is the quarter, and a
    ``"lost"`` hole has an empty ``row``."""

    row: dict[str, Any]


@dataclass
class TimelineReport(CellReport):
    """The longitudinal series, one row per quarter; the report bytes are
    a function of the config and the quarters alone."""

    label = "timeline"
    unit = "epochs"
    hole = "lost"

    spec_json: dict[str, Any]
    fingerprint: str

    @property
    def epochs(self) -> list[EpochResult]:
        """One row per quarter, in calendar order."""
        return self.rows

    @property
    def n_lost(self) -> int:
        """Quarters whose shards were quarantined (honest-coverage rows)."""
        return len(self.lost)

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
                rows.append([epoch.cell_id, "LOST", "-", "-", "-", "-", "-", "-", "-", "-"])
                continue
            row = epoch.row
            rows.append(
                [
                    epoch.cell_id,
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
                {"epoch": epoch.cell_id, "status": epoch.status, "row": epoch.row}
                for epoch in self.epochs
            ],
        }


@dataclass(frozen=True)
class _EpochCells:
    """A timeline cell is one quarter's series row, stored under its ``epoch`` key."""

    config: TimelineConfig
    store_root: str | None

    def open(self, telemetry: Telemetry | None) -> StageStore | None:
        if self.store_root is None:
            return None
        return StageStore(self.store_root, ensure_telemetry(telemetry).metrics)

    def lookup(self, store: StageStore, quarter: str, telemetry: Telemetry | None) -> dict[str, Any] | None:
        return store.get("epoch", epoch_stage_key(self.config, quarter))

    def compute(self, store: StageStore | None, quarter: str, telemetry: Telemetry | None) -> dict[str, Any]:
        substrate = build_substrate(self.config, telemetry=telemetry)
        return compute_epoch(substrate, quarter, store, telemetry=telemetry)

    def checkpoint(self, store: StageStore, quarter: str, row: dict[str, Any]) -> None:
        store.put("epoch", epoch_stage_key(self.config, quarter), row)

    def row(self, quarter: str, row: dict[str, Any] | None, from_store: bool, status: str) -> EpochResult:
        return EpochResult(
            cell_id=quarter, row=row if row is not None else {}, from_store=from_store, status=status
        )


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
    caches let a fresh epoch reuse every unchanged detect and cluster
    artifact from its predecessors.  ``max_epochs`` truncates to
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
    return run_cells(
        TimelineReport(config.spec.to_json(), timeline_fingerprint(config)),
        _EpochCells(config, str(store.root) if store is not None else None),
        quarters,
        parallel=config.parallel,
        telemetry=telemetry,
        hook=epoch_hook,
        faults=config.faults,
        resilience=config.resilience,
    )


def timeline_status(config: TimelineConfig, store: StageStore) -> CampaignStatus:
    """Check every quarter against the store (no counter effects)."""
    return CampaignStatus.of(
        TimelineReport.unit,
        {quarter: store.contains(epoch_stage_key(config, quarter)) for quarter in config.spec.quarters},
    )
