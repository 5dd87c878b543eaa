"""One checkpoint-before-report loop for durable campaigns.

A sweep cell is a whole pipeline run, a timeline cell one quarter; the
loop is the same.  A :class:`CellKind` says what a cell computes and
where it is stored, a :class:`CellReport` subclass how its rows render,
and :func:`run_cells` does the rest.  It runs one cell per shard through
:func:`~repro.parallel.run_sharded`, so the executor's retry, fallback,
quarantine and error budget govern cells as they govern any shard.  Per
cell it looks the cell up in the store, computes it on a miss,
checkpoints it, and only then reports the row and fires the hook: an
interrupt loses at most the cells in flight, and a rerun skips every
stored cell.  A :class:`~repro.resilience.ShardLoss` becomes a hole row
with the report's status word; holes are never stored.  Hits, misses and
``from_store`` are provenance and never reach the report bytes, so a
resumed campaign serialises byte-identically to an uninterrupted one.
API.md ("Durable campaigns") lists the spans, events and counters.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Callable, ClassVar, Protocol, Sequence

from repro._util import atomic_write_text
from repro.faults import FaultPlan
from repro.obs import Telemetry, ensure_telemetry
from repro.parallel import ParallelConfig, Shard, ShardPlan, run_sharded
from repro.resilience import ResilienceConfig, ShardLoss


@dataclass(frozen=True)
class CellRow:
    """One cell's report row; a hole when ``status`` is not ``"ok"``."""

    cell_id: str
    #: Whether the cell came from the store (provenance, not artifact).
    from_store: bool = False
    status: str = "ok"


class CellKind(Protocol):
    """What a campaign's cells compute and where they are stored.

    A kind travels to pool workers with every shard, so it must pickle;
    :meth:`open` opens its store inside the worker.
    """

    def open(self, telemetry: Telemetry | None) -> Any | None:
        """The store the cells checkpoint into, or ``None`` for none.

        The store counts its hits and misses into ``telemetry``'s
        registry, the cell's own (a pool worker's merges back).
        """

    def lookup(self, store: Any, cell: Any, telemetry: Telemetry | None) -> Any | None:
        """The cell's stored artifact, or ``None`` on a miss."""

    def compute(self, store: Any | None, cell: Any, telemetry: Telemetry | None) -> Any:
        """The cell's artifact, computed; ``store`` may be ``None``."""

    def checkpoint(self, store: Any, cell: Any, artifact: Any) -> None:
        """Make a computed artifact durable."""

    def row(self, cell: Any, artifact: Any | None, from_store: bool, status: str) -> CellRow:
        """The cell's report row; ``artifact`` is ``None`` in a hole."""


@dataclass(kw_only=True)
class CellReport:
    """A campaign's rows in cell order; subclasses render them.

    Subclasses define ``render()`` and ``to_json()``, the report bytes,
    from the rows alone.  The cache counts are provenance and stay out
    of both.
    """

    #: Fan-out label: the prefix of the campaign's spans, events and counters.
    label: ClassVar[str]
    #: What the cells are called in counters, coverage and messages.
    unit: ClassVar[str]
    #: Status word of a hole row.
    hole: ClassVar[str]

    rows: list[CellRow] = field(default_factory=list)

    @property
    def cache_hits(self) -> int:
        """Rows loaded from the store."""
        return sum(1 for row in self.rows if row.from_store)

    @property
    def cache_misses(self) -> int:
        """Rows computed by this run; a hole is neither a hit nor a miss."""
        return sum(1 for row in self.rows if row.status == "ok" and not row.from_store)

    @property
    def lost(self) -> list[str]:
        """The hole rows' cell ids, in cell order."""
        return [row.cell_id for row in self.rows if row.status != "ok"]

    def write(self, path: str | Path) -> Path:
        """Write the canonical report JSON to ``path`` (atomically) and return it."""
        return atomic_write_text(path, json.dumps(self.to_json(), sort_keys=True, indent=2) + "\n")


def _run_cell(
    kind: CellKind,
    label: str,
    hook: Callable[[CellRow], None] | None,
    shard: Shard,
    telemetry: Telemetry | None,
) -> CellRow:
    """Lookup, compute on a miss, checkpoint; only then the row and the hook."""
    obs = ensure_telemetry(telemetry)
    (cell,) = shard.items
    store = kind.open(telemetry)
    with obs.span(f"{label}.cell") as span:
        artifact = kind.lookup(store, cell, telemetry) if store is not None else None
        from_store = artifact is not None
        if artifact is None:
            artifact = kind.compute(store, cell, telemetry)
            if store is not None:
                kind.checkpoint(store, cell, artifact)
        row = kind.row(cell, artifact, from_store=from_store, status="ok")
        span.set(cell=row.cell_id, from_store=from_store)
    if hook is not None:
        hook(row)
    return row


def run_cells(
    report: CellReport,
    kind: CellKind,
    cells: Sequence[Any],
    parallel: ParallelConfig | None = None,
    telemetry: Telemetry | None = None,
    hook: Callable[[CellRow], None] | None = None,
    faults: FaultPlan | None = None,
    resilience: ResilienceConfig | None = None,
) -> CellReport:
    """Run (or resume) ``cells``; fill ``report`` with one row per cell.

    ``hook`` sees each row right after its cell is checkpointed; on the
    pool backend it runs in the worker and must pickle.  ``faults`` and
    ``resilience`` go to the executor: the ``<label>.shard`` fault site
    addresses one cell, and a cell over its retries becomes a hole row,
    or raises :class:`~repro.resilience.ShardQuarantinedError` once the
    holes exceed ``resilience.budget``.
    """
    obs = ensure_telemetry(telemetry)
    label, unit, hole = report.label, report.unit, report.hole
    plan = ShardPlan.of(cells, chunk_size=1)
    obs.emit(f"{label}_start", **{f"n_{unit}": plan.n_items})
    with obs.span(label, **{f"n_{unit}": plan.n_items}):
        results = run_sharded(
            partial(_run_cell, kind, label, hook),
            plan,
            parallel,
            telemetry=telemetry,
            label=label,
            faults=faults,
            resilience=resilience,
        )
    for shard, result in zip(plan.shards(), results):
        row = result
        if isinstance(result, ShardLoss):
            row = kind.row(shard.items[0], None, from_store=False, status=hole)
            obs.count(f"{label}.{unit}_{hole}")
            obs.log(f"{label} cell {hole}", cell=row.cell_id, error=result.error)
        report.rows.append(row)
    provenance = {"store_hits": report.cache_hits, "store_misses": report.cache_misses}
    obs.count(f"{label}.{unit}", len(report.rows))
    obs.count(f"{label}.store_hits", report.cache_hits)
    obs.count(f"{label}.store_misses", report.cache_misses)
    obs.emit(f"{label}_end", **{f"n_{unit}": len(report.rows), f"n_{hole}": len(report.lost)}, **provenance)
    obs.log(f"{label} campaign complete", **{unit: len(report.rows)}, **provenance)
    return report


@dataclass(frozen=True)
class CampaignStatus:
    """Which of a campaign's cells are already durable in its store."""

    unit: str
    done: tuple[str, ...]
    pending: tuple[str, ...]

    @classmethod
    def of(cls, unit: str, stored: dict[str, bool]) -> "CampaignStatus":
        """Split cell id -> whether stored, keeping cell order."""
        done = tuple(cell_id for cell_id, hit in stored.items() if hit)
        return cls(unit, done, tuple(cell_id for cell_id, hit in stored.items() if not hit))

    @property
    def n_cells(self) -> int:
        """Cells in the campaign."""
        return len(self.done) + len(self.pending)

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
        lines = [f"{self.n_done}/{self.n_cells} {self.unit} stored, {self.n_pending} pending"]
        lines += [f"  pending: {cell_id}" for cell_id in self.pending]
        return "\n".join(lines)
