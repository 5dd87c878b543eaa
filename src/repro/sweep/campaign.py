"""Resumable sweep campaigns: expand a grid, run cells, checkpoint each.

:func:`run_campaign` turns a :class:`~repro.sweep.grid.ParameterGrid`
into one :class:`CellResult` per grid point.  A cell is one pipeline
run, checkpointed whole into a :class:`~repro.store.StudyStore`; the
dispatch, checkpoint-before-report order, resume and hole rows are the
shared loop of :mod:`repro.durable`.

The :class:`CampaignReport` is a pure function of the grid and the
metric specs: cache provenance (hits/misses) and timings are surfaced
separately, so an interrupted-then-resumed campaign renders and
serialises **byte-identically** to an uninterrupted one
(``tests/test_sweep_resume.py`` proves this).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro._util import format_table, require
from repro.core.pipeline import Study, run_study
from repro.durable import CampaignStatus, CellReport, CellRow, run_cells
from repro.faults import FaultPlan
from repro.obs import Telemetry, ensure_telemetry
from repro.parallel import ParallelConfig
from repro.resilience import ResilienceConfig, RetryPolicy
from repro.store import StudyStore
from repro.sweep.grid import ParameterGrid, SweepCell
from repro.sweep.metrics import MetricSpec, evaluate_metrics

#: Format tag stamped into exported campaign reports.
REPORT_FORMAT = "repro-sweep-v2"


@dataclass(frozen=True, kw_only=True)
class CellResult(CellRow):
    """One grid point's extracted metrics; a ``"failed"`` hole has none."""

    overrides: tuple[tuple[str, Any], ...]
    #: metric name -> value (empty when the cell failed).
    values: dict[str, float]


@dataclass
class CampaignReport(CellReport):
    """Per-cell metric table plus per-metric sensitivity bands; the report
    bytes are a function of the grid and the metric specs alone."""

    label = "sweep"
    unit = "cells"
    hole = "failed"

    axis_names: tuple[str, ...]
    specs: tuple[MetricSpec, ...]

    @property
    def cells(self) -> list[CellResult]:
        """One row per grid point, in grid order."""
        return self.rows

    @property
    def n_failed(self) -> int:
        """Cells that exhausted their retries and were recorded as failed."""
        return len(self.lost)

    def series(self, name: str) -> list[float]:
        """One metric's values across *successful* cells, in cell order."""
        return [cell.values[name] for cell in self.cells if name in cell.values]

    def out_of_band(self, name: str) -> int:
        """How many cells violated the metric's acceptance band."""
        spec = next(s for s in self.specs if s.name == name)
        return sum(1 for value in self.series(name) if not spec.within_band(value))

    @property
    def all_within_bands(self) -> bool:
        """Whether every metric held its shape on every cell."""
        return all(self.out_of_band(spec.name) == 0 for spec in self.specs)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per-metric bands: mean / std / min / max / violations."""
        out: dict[str, dict[str, float]] = {}
        for spec in self.specs:
            series = self.series(spec.name)
            if not series:
                # Every cell failed: there is no distribution to summarise.
                out[spec.name] = {"mean": 0.0, "std": 0.0, "min": 0.0, "max": 0.0, "violations": 0}
                continue
            out[spec.name] = {
                "mean": float(np.mean(series)),
                "std": float(np.std(series)),
                "min": float(min(series)),
                "max": float(max(series)),
                "violations": self.out_of_band(spec.name),
            }
        return out

    def render(self) -> str:
        """Per-cell table plus the sensitivity-band table."""
        metric_names = [spec.name for spec in self.specs]
        cell_rows = [
            [
                cell.cell_id,
                *(
                    f"{cell.values[name]:.3f}" if name in cell.values else "FAILED"
                    for name in metric_names
                ),
            ]
            for cell in self.cells
        ]
        cell_table = format_table(["cell", *metric_names], cell_rows)
        summary = self.summary()
        band_rows = [
            [
                spec.name,
                f"{summary[spec.name]['mean']:.3f}",
                f"{summary[spec.name]['std']:.3f}",
                f"{summary[spec.name]['min']:.3f}",
                f"{summary[spec.name]['max']:.3f}",
                spec.paper_value,
                f"{summary[spec.name]['violations']:g}/{len(self.cells)}",
            ]
            for spec in self.specs
        ]
        band_table = format_table(
            ["metric", "mean", "std", "min", "max", "paper", "violations"], band_rows
        )
        return f"{cell_table}\n\n{band_table}"

    def to_json(self) -> dict[str, Any]:
        """Canonical report dict (no timings, no cache provenance)."""
        return {
            "format": REPORT_FORMAT,
            "axes": list(self.axis_names),
            "n_cells": len(self.cells),
            "n_failed": self.n_failed,
            "cells": [
                {
                    "cell_id": cell.cell_id,
                    "overrides": {axis: value for axis, value in cell.overrides},
                    "status": cell.status,
                    "values": {name: cell.values[name] for name in sorted(cell.values)},
                }
                for cell in self.cells
            ],
            "summary": self.summary(),
        }


@dataclass(frozen=True)
class _SweepCells:
    """A sweep cell is one pipeline run, stored whole in a StudyStore."""

    store_root: str | None
    specs: tuple[MetricSpec, ...]
    #: The ``store.load`` fault site and its retries.
    faults: FaultPlan | None
    retry: RetryPolicy | None

    def open(self, telemetry: Telemetry | None) -> StudyStore | None:
        if self.store_root is None:
            return None
        metrics = ensure_telemetry(telemetry).metrics
        return StudyStore(self.store_root, metrics, faults=self.faults, retry=self.retry)

    def lookup(self, store: StudyStore, cell: SweepCell, telemetry: Telemetry | None) -> Study | None:
        return store.get(cell.config, telemetry=telemetry)

    def compute(self, store: StudyStore | None, cell: SweepCell, telemetry: Telemetry | None) -> Study:
        return run_study(cell.config, telemetry=telemetry)

    def checkpoint(self, store: StudyStore, cell: SweepCell, study: Study) -> None:
        store.put(study)

    def row(self, cell: SweepCell, study: Study | None, from_store: bool, status: str) -> CellResult:
        return CellResult(
            cell_id=cell.cell_id,
            overrides=cell.overrides,
            values=evaluate_metrics(study, self.specs) if study is not None else {},
            from_store=from_store,
            status=status,
        )


def run_campaign(
    grid: ParameterGrid,
    metrics: tuple[MetricSpec, ...],
    store: StudyStore | None = None,
    parallel: ParallelConfig | None = None,
    telemetry: Telemetry | None = None,
    max_cells: int | None = None,
    cell_hook: "Callable[[CellResult], None] | None" = None,
    faults: FaultPlan | None = None,
    resilience: ResilienceConfig | None = None,
) -> CampaignReport:
    """Run (or resume) the campaign for ``grid``; one report row per cell.

    ``store`` makes the campaign durable: cells already present are
    loaded instead of recomputed, and freshly-computed cells are
    checkpointed as they finish.  ``max_cells`` truncates the expansion
    to its first N cells (a deterministic partial campaign — useful for
    smoke runs and for exercising resume).  ``parallel`` dispatches one
    cell per shard through the configured backend; on the pool
    backend, ``cell_hook`` must be picklable.

    ``faults`` wires the ``sweep.cell`` / ``sweep.shard`` (aliases: one
    cell) and ``store.load`` injection sites into the campaign.  With
    ``resilience``, a cell over its retries becomes a ``status="failed"``
    row while the failures stay within the error budget; past it, the
    campaign raises :class:`~repro.resilience.ShardQuarantinedError`.
    """
    require(bool(metrics), "need at least one metric spec")
    cells = grid.cells()
    if max_cells is not None:
        require(max_cells >= 1, "max_cells must be >= 1")
        cells = cells[:max_cells]
    kind = _SweepCells(
        store_root=str(store.root) if store is not None else None,
        specs=tuple(metrics),
        faults=faults,
        retry=resilience.retry if resilience is not None else None,
    )
    return run_cells(
        CampaignReport(grid.axis_names, tuple(metrics)),
        kind,
        cells,
        parallel=parallel,
        telemetry=telemetry,
        hook=cell_hook,
        faults=faults,
        resilience=resilience,
    )


def campaign_status(grid: ParameterGrid, store: StudyStore) -> CampaignStatus:
    """Check every grid point against the store (no LRU effects)."""
    return CampaignStatus.of(
        CampaignReport.unit, {cell.cell_id: store.contains(cell.config) for cell in grid.cells()}
    )
