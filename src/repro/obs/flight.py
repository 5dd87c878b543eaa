"""The executor flight view: per-shard dispatch forensics over the span tree.

Both execution backends trace every shard attempt as a ``<label>.shard``
span; a completed attempt's span carries ``attempt`` and, on the pool,
the dispatch readings the parent took (``worker``, ``queue_wait_ms``,
``payload_bytes``).  A pool fan-out's ``<label>.fanout`` span
carries the pool's identity (``pool``, ``restarts``, ``stages_served``,
``persistent``, ``stage_restarts``).  :class:`FlightView` reads those
spans back as :class:`ShardFlight` records and derives the three numbers
that explain *why* a fan-out performed the way it did:

* **per-worker utilization** — each worker's busy time over the fan-out
  makespan; a pool whose workers idle at 40% is serialization-bound, not
  compute-bound;
* **queue-wait vs execute time** — per shard;
* **stragglers** — shards whose execute time exceeds
  :data:`STRAGGLER_FACTOR` × the median for their stage, flagged by shard
  index in the report ``obs`` section and ``BENCH_parallel.json``.

The view records nothing itself: the span tree is the one run record,
so the view of a disabled bundle (no spans) is empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro._util import format_table

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.trace import NullTracer, Tracer

#: A shard is a straggler when its execute time exceeds this multiple of
#: the per-stage median.
STRAGGLER_FACTOR = 3.0

#: Stages need at least this many shards before straggler flags mean much.
MIN_SHARDS_FOR_STRAGGLERS = 4

#: Fan-out span attributes that make up a stage's pool identity.
POOL_KEYS = ("pool", "workers", "restarts", "stages_served", "persistent", "stage_restarts")


@dataclass(frozen=True)
class ShardFlight:
    """One completed shard's dispatch record."""

    label: str
    shard: int
    #: ``pid-<n>`` on a pool worker, ``fallback`` for the pool's
    #: in-process fallback, ``serial`` on the serial backend.
    worker: str
    #: Seconds between submission and a worker starting execution.
    queue_wait_s: float
    #: Seconds of actual execution on the worker.
    execute_s: float
    #: 0-based attempt that finally succeeded.
    attempt: int
    #: Start offset on the run's shared wall timeline, seconds.
    started_s: float
    #: Pickled size of the shard's submission (task + shard with its cut
    #: inputs), bytes; 0 on backends that never serialize (serial,
    #: in-process fallback).
    payload_bytes: int = 0

    @property
    def finished_s(self) -> float:
        """End offset on the shared timeline, seconds."""
        return self.started_s + self.execute_s

    def to_json(self) -> dict[str, Any]:
        """JSON-serialisable form (times in milliseconds)."""
        return {
            "label": self.label,
            "shard": self.shard,
            "worker": self.worker,
            "queue_wait_ms": round(1000.0 * self.queue_wait_s, 3),
            "execute_ms": round(1000.0 * self.execute_s, 3),
            "attempt": self.attempt,
            "payload_bytes": self.payload_bytes,
        }


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


class FlightView:
    """Read-only :class:`ShardFlight` records and forensics over a tracer."""

    def __init__(self, tracer: "Tracer | NullTracer") -> None:
        self._tracer = tracer

    @property
    def enabled(self) -> bool:
        """Whether the underlying tracer records spans at all."""
        return self._tracer.enabled

    def _spans(self):
        for root in self._tracer.roots:
            yield from root.walk()

    @property
    def records(self) -> list[ShardFlight]:
        """One record per completed ``<label>.shard`` span, in tree order.

        A span closed by an exception carries no ``attempt``, so a failed
        attempt is not a record.  A span without ``worker`` ran serially.
        """
        return [
            ShardFlight(
                label=span.name[: -len(".shard")],
                shard=span.attributes["shard"],
                worker=span.attributes.get("worker", "serial"),
                queue_wait_s=span.attributes.get("queue_wait_ms", 0.0) / 1000.0,
                execute_s=span.duration_s,
                attempt=span.attributes["attempt"],
                started_s=span.start_s,
                payload_bytes=span.attributes.get("payload_bytes", 0),
            )
            for span in self._spans()
            if span.name.endswith(".shard") and "attempt" in span.attributes
        ]

    @property
    def pools(self) -> dict[str, dict[str, Any]]:
        """Per-stage pool identity (pool id, restarts, reuse counters):
        one id across every stage that leased the same pool."""
        return {
            span.name[: -len(".fanout")]: {
                key: span.attributes[key] for key in POOL_KEYS if key in span.attributes
            }
            for span in self._spans()
            if span.name.endswith(".fanout") and "pool" in span.attributes
        }

    # -- derived views ----------------------------------------------------------

    def labels(self) -> list[str]:
        """Stage labels with records, in first-seen order."""
        return list(dict.fromkeys(record.label for record in self.records))

    def makespan_s(self) -> float:
        """Wall span from the first shard start to the last shard end."""
        records = self.records
        if not records:
            return 0.0
        start = min(record.started_s for record in records)
        end = max(record.finished_s for record in records)
        return max(0.0, end - start)

    def worker_utilization(self) -> dict[str, dict[str, float]]:
        """Per-worker busy time, shard count, and utilization over makespan."""
        makespan = self.makespan_s()
        stats: dict[str, dict[str, float]] = {}
        for record in self.records:
            entry = stats.setdefault(record.worker, {"shards": 0, "busy_s": 0.0})
            entry["shards"] += 1
            entry["busy_s"] += record.execute_s
        for entry in stats.values():
            entry["busy_s"] = round(entry["busy_s"], 6)
            entry["utilization"] = round(entry["busy_s"] / makespan, 3) if makespan > 0 else 0.0
        return dict(sorted(stats.items()))

    def stragglers(self) -> list[ShardFlight]:
        """Shards whose execute time exceeds :data:`STRAGGLER_FACTOR`× the
        per-stage median (stages with too few shards are never flagged)."""
        by_label: dict[str, list[ShardFlight]] = {}
        for record in self.records:
            by_label.setdefault(record.label, []).append(record)
        flagged: list[ShardFlight] = []
        for records in by_label.values():
            if len(records) < MIN_SHARDS_FOR_STRAGGLERS:
                continue
            threshold = STRAGGLER_FACTOR * _median([r.execute_s for r in records])
            if threshold > 0:
                flagged.extend(r for r in records if r.execute_s > threshold)
        return flagged

    def queue_wait_fraction(self) -> float:
        """Total queue-wait over total (queue-wait + execute) time."""
        records = self.records
        waited = sum(r.queue_wait_s for r in records)
        total = waited + sum(r.execute_s for r in records)
        return waited / total if total > 0 else 0.0

    # -- export -----------------------------------------------------------------

    def payload_stats(self) -> dict[str, Any]:
        """Serialization-cost rollup: measured shards, total and max bytes."""
        measured = [r.payload_bytes for r in self.records if r.payload_bytes > 0]
        return {
            "measured_shards": len(measured),
            "total_bytes": sum(measured),
            "max_bytes": max(measured, default=0),
        }

    def to_json(self) -> dict[str, Any]:
        """Aggregate summary (workers, stragglers, queue-wait share)."""
        return {
            "shards": len(self.records),
            "makespan_s": round(self.makespan_s(), 6),
            "queue_wait_fraction": round(self.queue_wait_fraction(), 3),
            "workers": self.worker_utilization(),
            "payload": self.payload_stats(),
            "pools": self.pools,
            "stragglers": [record.to_json() for record in self.stragglers()],
        }

    def render(self) -> str:
        """Per-worker utilization table plus straggler flags."""
        records = self.records
        if not records:
            return "no shard flights recorded"
        rows = [
            [worker, int(stats["shards"]), f"{stats['busy_s'] * 1000:.1f}", f"{stats['utilization']:.0%}"]
            for worker, stats in self.worker_utilization().items()
        ]
        lines = [
            format_table(["worker", "shards", "busy ms", "utilization"], rows),
            f"queue-wait share: {self.queue_wait_fraction():.1%} of dispatch time "
            f"across {len(records)} shards",
        ]
        payload = self.payload_stats()
        if payload["measured_shards"]:
            lines.append(
                f"payloads: {payload['total_bytes'] / 1024:.1f} KiB total, "
                f"max {payload['max_bytes'] / 1024:.1f} KiB/shard "
                f"over {payload['measured_shards']} submissions"
            )
        for label, info in sorted(self.pools.items()):
            lines.append(
                f"pool {label}: {info.get('pool')} ({info.get('workers')} workers, "
                f"{info.get('restarts', 0)} restarts, "
                f"stage {info.get('stages_served', '?')} on this pool)"
            )
        stragglers = self.stragglers()
        for record in stragglers:
            lines.append(
                f"STRAGGLER {record.label}[{record.shard}] on {record.worker}: "
                f"{record.execute_s * 1000:.1f} ms (> {STRAGGLER_FACTOR:g}x stage median)"
            )
        if not stragglers:
            lines.append("stragglers: none")
        return "\n".join(lines)
