"""Resumable sweep campaigns: expand a grid, run cells, checkpoint each.

:func:`run_campaign` turns a :class:`~repro.sweep.grid.ParameterGrid`
into one :class:`CellResult` per grid point.  Cells dispatch through the
:mod:`repro.parallel` executor (one cell per shard; a cell is already a
whole pipeline run) and every completed cell is checkpointed into a
:class:`~repro.store.StudyStore` *before* its result is reported, so an
interrupt or crash loses at most the cells in flight.  Re-running the
same campaign skips every stored cell — the store's content address *is*
the resume token; there is no separate campaign state file to corrupt.

The :class:`CampaignReport` is a pure function of the grid and the
metric specs: cache provenance (hits/misses) and timings are surfaced
separately, so an interrupted-then-resumed campaign renders and
serialises **byte-identically** to an uninterrupted one
(``tests/test_sweep_resume.py`` proves this).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro._util import atomic_write_text, format_table, require
from repro.core.pipeline import run_study
from repro.faults import FaultPlan, WorkerCrashError, raise_injected
from repro.obs import Telemetry, ensure_telemetry
from repro.parallel import ParallelConfig, Shard, ShardPlan, run_sharded
from repro.resilience import ResilienceConfig, ShardLoss, call_with_retry
from repro.store import StudyStore
from repro.sweep.grid import ParameterGrid
from repro.sweep.metrics import MetricSpec, evaluate_metrics

#: Format tag stamped into exported campaign reports.
REPORT_FORMAT = "repro-sweep-v2"


@dataclass(frozen=True)
class CellResult:
    """One completed grid point's extracted metrics."""

    index: int
    cell_id: str
    overrides: tuple[tuple[str, Any], ...]
    #: metric name -> value (empty when the cell failed).
    values: dict[str, float]
    #: Whether the cell came from the store (provenance, not artifact).
    from_store: bool = False
    #: ``"ok"``, or ``"failed"`` when the cell exhausted its retries and
    #: the campaign's error budget allowed continuing without it.
    status: str = "ok"


@dataclass
class CampaignReport:
    """Per-cell metric table plus per-metric sensitivity bands.

    Everything :meth:`render` and :meth:`to_json` emit is a deterministic
    function of (grid, metric specs); cache provenance lives only in
    :attr:`cache_hits` / :attr:`cache_misses` and is excluded, so resumed
    and uninterrupted campaigns produce identical report bytes.
    """

    axis_names: tuple[str, ...]
    specs: tuple[MetricSpec, ...]
    cells: list[CellResult] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def n_failed(self) -> int:
        """Cells that exhausted their retries and were recorded as failed."""
        return sum(1 for cell in self.cells if cell.status != "ok")

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

    def write(self, path: str | Path) -> Path:
        """Write the canonical report JSON to ``path`` (atomically) and return it."""
        return atomic_write_text(path, json.dumps(self.to_json(), sort_keys=True, indent=2) + "\n")


def _trip_cell_fault(faults: FaultPlan | None, cell_index: int, attempt: int) -> None:
    """Apply a planned ``sweep.cell`` fault to this cell attempt."""
    if faults is None:
        return
    spec = faults.decide("sweep.cell", cell_index, attempt)
    if spec is None:
        return
    if spec.kind == "error":
        raise_injected(spec, "sweep.cell", cell_index)
    elif spec.kind == "crash":
        raise WorkerCrashError(f"injected worker crash at sweep cell {cell_index}")


def _run_cells_shard(
    store_root: str | None,
    specs: tuple[MetricSpec, ...],
    cell_hook: "Callable[[CellResult], None] | None",
    faults: FaultPlan | None,
    resilience: ResilienceConfig | None,
    shard: Shard,
    telemetry: Telemetry | None,
) -> list[CellResult]:
    """Run one shard of sweep cells; store-first, compute on miss.

    Each cell checkpoints into the store before its result is returned,
    so the set of durable cells only ever grows — that is the whole
    resume protocol.  ``cell_hook`` fires after the checkpoint (serial
    backend: the abort-mid-campaign tests hook here).

    With ``resilience``, each cell gets its own retry loop (the
    ``sweep.cell`` fault site is attempt-aware, so transient faults clear
    on retry); a cell that exhausts its attempts is recorded as
    ``status="failed"`` instead of sinking the campaign.
    """
    obs = ensure_telemetry(telemetry)
    store = (
        StudyStore(
            store_root,
            faults=faults,
            retry=resilience.retry if resilience is not None else None,
        )
        if store_root is not None
        else None
    )
    results: list[CellResult] = []
    for cell in shard.items:

        def _attempt_cell(attempt: int, cell=cell) -> CellResult:
            _trip_cell_fault(faults, cell.index, attempt)
            study = store.get(cell.config, telemetry=telemetry) if store is not None else None
            from_store = study is not None
            if study is None:
                study = run_study(cell.config, telemetry=telemetry)
                if store is not None:
                    store.put(study)
            return CellResult(
                index=cell.index,
                cell_id=cell.cell_id,
                overrides=cell.overrides,
                values=evaluate_metrics(study, specs),
                from_store=from_store,
            )

        if resilience is None:
            result = _attempt_cell(0)
        else:
            try:
                result = call_with_retry(
                    _attempt_cell,
                    resilience.retry,
                    on_retry=lambda _attempt, _error: obs.count("resilience.retries"),
                )
            except Exception as error:  # noqa: BLE001 — recorded, not fatal
                obs.count("sweep.cells_failed")
                result = CellResult(
                    index=cell.index,
                    cell_id=cell.cell_id,
                    overrides=cell.overrides,
                    values={},
                    status="failed",
                )
                obs.log("sweep cell failed", cell=cell.cell_id, error=f"{type(error).__name__}: {error}")
        results.append(result)
        if cell_hook is not None:
            cell_hook(result)
    return results


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

    ``faults`` wires the ``sweep.cell``, ``sweep.shard``, and
    ``store.load`` injection sites into the campaign.  With
    ``resilience``, failed cells and quarantined shards degrade to
    ``status="failed"`` rows (within the error budget) instead of
    aborting the whole campaign.
    """
    require(bool(metrics), "need at least one metric spec")
    cells = grid.cells()
    if max_cells is not None:
        require(max_cells >= 1, "max_cells must be >= 1")
        cells = cells[:max_cells]
    parallel = parallel or ParallelConfig()
    obs = ensure_telemetry(telemetry)

    store_root = str(store.root) if store is not None else None
    plan = ShardPlan.of(cells, chunk_size=1)
    # One cell per shard, so the executor's per-shard progress events double
    # as per-cell campaign progress ("sweep: k/n, eta ...") on the stream.
    obs.emit("campaign_start", n_cells=len(cells), axes=list(grid.axis_names))
    with obs.span("sweep", n_cells=len(cells), stored=store is not None):
        shard_results = run_sharded(
            partial(_run_cells_shard, store_root, tuple(metrics), cell_hook, faults, resilience),
            plan,
            parallel,
            telemetry=telemetry,
            label="sweep",
            faults=faults,
            resilience=resilience,
        )
    results: list[CellResult] = []
    for shard, shard_result in zip(plan.shards(), shard_results):
        if isinstance(shard_result, ShardLoss):
            # One cell per shard: a quarantined shard is a failed cell.
            for cell in shard.items:
                obs.count("sweep.cells_failed")
                results.append(
                    CellResult(
                        index=cell.index,
                        cell_id=cell.cell_id,
                        overrides=cell.overrides,
                        values={},
                        status="failed",
                    )
                )
            continue
        results.extend(shard_result)

    report = CampaignReport(
        axis_names=grid.axis_names,
        specs=tuple(metrics),
        cells=results,
        cache_hits=sum(1 for r in results if r.from_store),
        cache_misses=sum(1 for r in results if not r.from_store),
    )
    obs.count("sweep.cells", len(results))
    obs.count("sweep.store_hits", report.cache_hits)
    obs.count("sweep.store_misses", report.cache_misses)
    obs.emit(
        "campaign_end",
        n_cells=len(results),
        n_failed=report.n_failed,
        store_hits=report.cache_hits,
        store_misses=report.cache_misses,
    )
    obs.log(
        "sweep campaign complete",
        cells=len(results),
        store_hits=report.cache_hits,
        store_misses=report.cache_misses,
    )
    return report


@dataclass(frozen=True)
class CampaignStatus:
    """Which grid points are already durable in a store."""

    n_cells: int
    done: tuple[str, ...]
    pending: tuple[str, ...]

    @property
    def n_done(self) -> int:
        """Cells already checkpointed."""
        return len(self.done)

    @property
    def n_pending(self) -> int:
        """Cells a resume would still run."""
        return len(self.pending)

    def render(self) -> str:
        """One-line summary plus the pending cell ids."""
        lines = [f"{self.n_done}/{self.n_cells} cells stored, {self.n_pending} pending"]
        for cell_id in self.pending:
            lines.append(f"  pending: {cell_id}")
        return "\n".join(lines)


def campaign_status(grid: ParameterGrid, store: StudyStore) -> CampaignStatus:
    """Check every grid point against the store (no LRU effects)."""
    done: list[str] = []
    pending: list[str] = []
    for cell in grid.cells():
        (done if store.contains(cell.config) else pending).append(cell.cell_id)
    return CampaignStatus(n_cells=len(done) + len(pending), done=tuple(done), pending=tuple(pending))
