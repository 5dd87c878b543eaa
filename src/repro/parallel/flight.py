"""The executor flight recorder: per-shard dispatch forensics.

Both execution backends log every completed shard into a
:class:`FlightRecorder` (when telemetry is captured): which worker ran it,
how long it sat queued before a worker picked it up, how long it executed,
and on which attempt it succeeded.  From those records the recorder
derives the three numbers that explain *why* a fan-out performed the way
it did:

* **per-worker utilization** — each worker's busy time over the fan-out
  makespan; a pool whose workers idle at 40% is serialization-bound, not
  compute-bound (the ROADMAP item-1 evidence);
* **queue-wait vs execute time** — per-shard, also landed as the
  ``flight.queue_wait_ms`` / ``flight.execute_ms`` histograms;
* **stragglers** — shards whose execute time exceeds ``k×`` the median
  for their stage, flagged by shard index in the report ``obs`` section
  and ``BENCH_parallel.json``.

Recording happens at harvest time in the parent process (one append per
shard, no inner-loop cost) and reads no clocks beyond the readings the
executors already took.  The :data:`NULL_FLIGHT` singleton is the
zero-cost disabled mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro._util import format_table

#: A shard is a straggler when its execute time exceeds this multiple of
#: the per-stage median.
STRAGGLER_FACTOR = 3.0

#: Stages need at least this many shards before straggler flags mean much.
MIN_SHARDS_FOR_STRAGGLERS = 4


@dataclass(frozen=True)
class ShardFlight:
    """One completed shard's dispatch record."""

    label: str
    shard: int
    worker: str
    #: Seconds between submission and a worker starting execution.
    queue_wait_s: float
    #: Seconds of actual execution on the worker.
    execute_s: float
    #: 0-based attempt that finally succeeded.
    attempt: int
    #: Start offset on the recorder's shared wall timeline, seconds.
    started_s: float
    #: Pickled size of the shard's submission (task + shard), bytes; 0 on
    #: backends that never serialize (serial, in-process fallback).
    payload_bytes: int = 0
    #: Whether the payload rode shared memory (arrays by reference) —
    #: the marker proving the zero-copy fast path engaged.
    shm: bool = False

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
            "shm": self.shm,
        }


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


class FlightRecorder:
    """Collects :class:`ShardFlight` records and derives dispatch forensics."""

    enabled = True

    def __init__(self, straggler_factor: float = STRAGGLER_FACTOR) -> None:
        self.records: list[ShardFlight] = []
        self.straggler_factor = straggler_factor
        #: Per-stage pool identity (pool id, restarts, reuse counters):
        #: one id across every stage that leased the same pool.
        self.pools: dict[str, dict[str, Any]] = {}

    def record(
        self,
        label: str,
        shard: int,
        worker: str,
        queue_wait_s: float,
        execute_s: float,
        attempt: int = 0,
        started_s: float = 0.0,
        payload_bytes: int = 0,
        shm: bool = False,
    ) -> None:
        """Append one completed shard's record."""
        self.records.append(
            ShardFlight(
                label=label,
                shard=shard,
                worker=worker,
                queue_wait_s=max(0.0, queue_wait_s),
                execute_s=max(0.0, execute_s),
                attempt=attempt,
                started_s=started_s,
                payload_bytes=payload_bytes,
                shm=shm,
            )
        )

    def set_pool(self, label: str, info: dict[str, Any]) -> None:
        """Record which pool served stage ``label`` (identity + restarts)."""
        self.pools[label] = dict(info)

    # -- derived views ----------------------------------------------------------

    def labels(self) -> list[str]:
        """Stage labels with records, in first-seen order."""
        seen: list[str] = []
        for record in self.records:
            if record.label not in seen:
                seen.append(record.label)
        return seen

    def makespan_s(self) -> float:
        """Wall span from the first shard start to the last shard end."""
        if not self.records:
            return 0.0
        start = min(record.started_s for record in self.records)
        end = max(record.finished_s for record in self.records)
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
        """Shards whose execute time exceeds ``straggler_factor``× the
        per-stage median (stages with too few shards are never flagged)."""
        flagged: list[ShardFlight] = []
        for label in self.labels():
            times = [r.execute_s for r in self.records if r.label == label]
            if len(times) < MIN_SHARDS_FOR_STRAGGLERS:
                continue
            threshold = self.straggler_factor * _median(times)
            if threshold <= 0:
                continue
            flagged.extend(
                r for r in self.records if r.label == label and r.execute_s > threshold
            )
        return flagged

    def queue_wait_fraction(self) -> float:
        """Total queue-wait over total (queue-wait + execute) time."""
        waited = sum(r.queue_wait_s for r in self.records)
        busy = sum(r.execute_s for r in self.records)
        total = waited + busy
        return waited / total if total > 0 else 0.0

    # -- export -----------------------------------------------------------------

    def payload_stats(self) -> dict[str, Any]:
        """Serialization-cost rollup: total/max payload bytes, shm share."""
        measured = [r for r in self.records if r.payload_bytes > 0]
        return {
            "measured_shards": len(measured),
            "total_bytes": sum(r.payload_bytes for r in measured),
            "max_bytes": max((r.payload_bytes for r in measured), default=0),
            "shm_shards": sum(1 for r in self.records if r.shm),
        }

    def to_json(self) -> dict[str, Any]:
        """Aggregate summary (workers, stragglers, queue-wait share)."""
        stragglers = self.stragglers()
        return {
            "shards": len(self.records),
            "makespan_s": round(self.makespan_s(), 6),
            "queue_wait_fraction": round(self.queue_wait_fraction(), 3),
            "workers": self.worker_utilization(),
            "payload": self.payload_stats(),
            "pools": dict(self.pools),
            "stragglers": [record.to_json() for record in stragglers],
        }

    def render(self) -> str:
        """Per-worker utilization table plus straggler flags."""
        if not self.records:
            return "no shard flights recorded"
        rows = [
            [worker, int(stats["shards"]), f"{stats['busy_s'] * 1000:.1f}", f"{stats['utilization']:.0%}"]
            for worker, stats in self.worker_utilization().items()
        ]
        table = format_table(["worker", "shards", "busy ms", "utilization"], rows)
        lines = [
            table,
            f"queue-wait share: {self.queue_wait_fraction():.1%} of dispatch time "
            f"across {len(self.records)} shards",
        ]
        payload = self.payload_stats()
        if payload["measured_shards"]:
            lines.append(
                f"payloads: {payload['total_bytes'] / 1024:.1f} KiB total, "
                f"max {payload['max_bytes'] / 1024:.1f} KiB/shard, "
                f"{payload['shm_shards']}/{len(self.records)} shards via shared memory"
            )
        for label, info in sorted(self.pools.items()):
            lines.append(
                f"pool {label}: {info.get('pool')} ({info.get('workers')} workers, "
                f"{info.get('restarts', 0)} restarts, "
                f"stage {info.get('stages_served', '?')} on this pool)"
            )
        stragglers = self.stragglers()
        if stragglers:
            for record in stragglers:
                lines.append(
                    f"STRAGGLER {record.label}[{record.shard}] on {record.worker}: "
                    f"{record.execute_s * 1000:.1f} ms "
                    f"(> {self.straggler_factor:g}x stage median)"
                )
        else:
            lines.append("stragglers: none")
        return "\n".join(lines)


class NullFlightRecorder:
    """Disabled recorder: every call is a no-op."""

    enabled = False
    records: tuple = ()
    pools: dict = {}

    def record(self, *args: Any, **kwargs: Any) -> None:
        pass

    def set_pool(self, *args: Any, **kwargs: Any) -> None:
        pass

    def labels(self) -> list[str]:
        return []

    def makespan_s(self) -> float:
        return 0.0

    def worker_utilization(self) -> dict[str, dict[str, float]]:
        return {}

    def stragglers(self) -> list[ShardFlight]:
        return []

    def queue_wait_fraction(self) -> float:
        return 0.0

    def payload_stats(self) -> dict[str, Any]:
        return {"measured_shards": 0, "total_bytes": 0, "max_bytes": 0, "shm_shards": 0}

    def to_json(self) -> dict[str, Any]:
        return {
            "shards": 0,
            "makespan_s": 0.0,
            "queue_wait_fraction": 0.0,
            "workers": {},
            "payload": self.payload_stats(),
            "pools": {},
            "stragglers": [],
        }

    def render(self) -> str:
        return "no shard flights recorded"


NULL_FLIGHT = NullFlightRecorder()
