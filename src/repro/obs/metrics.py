"""The metrics registry: counters, gauges, and histograms.

Names follow the ``<stage>.<name>`` convention (``scan.hosts_probed``,
``filters.ips_dropped_unresponsive``, ``cluster.optics_reachability_ms``)
so exports group naturally by pipeline stage.  All aggregation is plain
arithmetic — recording a metric never draws from an RNG, so instrumented
code stays deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class HistogramSummary:
    """Order statistics of one histogram's observations."""

    count: int
    total: float
    minimum: float
    maximum: float
    mean: float
    p50: float
    p90: float
    p99: float

    def to_json(self) -> dict[str, float]:
        """JSON-serialisable form."""
        return {
            "count": self.count,
            "total": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "mean": self.mean,
            "p50": self.p50,
            "p90": self.p90,
            "p99": self.p99,
        }


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(0, min(len(sorted_values) - 1, math.ceil(q * len(sorted_values)) - 1))
    return sorted_values[rank]


def summarize(values: list[float]) -> HistogramSummary:
    """Summarise raw observations (empty input gives an all-zero summary)."""
    if not values:
        return HistogramSummary(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    ordered = sorted(values)
    total = float(sum(ordered))
    return HistogramSummary(
        count=len(ordered),
        total=total,
        minimum=ordered[0],
        maximum=ordered[-1],
        mean=total / len(ordered),
        p50=_percentile(ordered, 0.50),
        p90=_percentile(ordered, 0.90),
        p99=_percentile(ordered, 0.99),
    )


class MetricsRegistry:
    """Mutable store of counters, gauges, and histograms."""

    enabled = True

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self._histograms: dict[str, list[float]] = {}

    # -- recording --------------------------------------------------------------

    def count(self, name: str, value: float = 1) -> None:
        """Increment counter ``name`` by ``value``."""
        self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        self.gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        """Record one observation into histogram ``name``."""
        self._histograms.setdefault(name, []).append(float(value))

    # -- reading ----------------------------------------------------------------

    def counter(self, name: str) -> float:
        """Counter value (0 if never incremented)."""
        return self.counters.get(name, 0)

    def histogram(self, name: str) -> HistogramSummary:
        """Summary of histogram ``name`` (all-zero if never observed)."""
        return summarize(self._histograms.get(name, []))

    def histogram_values(self, name: str) -> list[float]:
        """Raw observations of histogram ``name``, in recording order."""
        return list(self._histograms.get(name, ()))

    def histogram_names(self) -> list[str]:
        """Names of all histograms, sorted."""
        return sorted(self._histograms)

    # -- merging ----------------------------------------------------------------

    def merge_json(self, data: dict[str, Any]) -> None:
        """Fold a snapshot (``to_json(include_values=True)``) into this registry.

        Counters add, gauges last-write-win, histogram observations extend.
        This is how worker-process telemetry re-enters the parent registry
        (see :mod:`repro.parallel.executor`): each worker records into a
        private registry, so merging its snapshot once counts each
        observation exactly once.  Histograms exported without raw values
        come back as their summaries' supports only (count preserved via
        the mean): exact round-trips require ``include_values=True``.
        """
        for name, value in data.get("counters", {}).items():
            self.count(name, value)
        for name, value in data.get("gauges", {}).items():
            self.gauge(name, value)
        for name, entry in data.get("histograms", {}).items():
            if "values" in entry:
                values = [float(v) for v in entry["values"]]
            else:
                values = [float(entry["mean"])] * int(entry["count"])
            self._histograms.setdefault(name, []).extend(values)

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry into this one (same semantics as merge_json)."""
        self.merge_json(other.to_json(include_values=True))

    # -- serialisation ----------------------------------------------------------

    def to_json(self, include_values: bool = False) -> dict[str, Any]:
        """JSON-serialisable form; ``include_values`` keeps raw observations."""
        histograms: dict[str, Any] = {}
        for name in self.histogram_names():
            entry = self.histogram(name).to_json()
            if include_values:
                entry["values"] = self.histogram_values(name)
            histograms[name] = entry
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": histograms,
        }

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "MetricsRegistry":
        """Rebuild a registry exported with :meth:`to_json` (see :meth:`merge_json`)."""
        registry = cls()
        registry.merge_json(data)
        return registry


class NullMetrics:
    """Disabled metrics: every recording call is a no-op."""

    enabled = False
    counters: dict[str, float] = {}
    gauges: dict[str, float] = {}

    def count(self, name: str, value: float = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def merge_json(self, data: dict[str, Any]) -> None:
        pass

    def merge(self, other: Any) -> None:
        pass

    def counter(self, name: str) -> float:
        return 0

    def histogram(self, name: str) -> HistogramSummary:
        return summarize([])

    def histogram_values(self, name: str) -> list[float]:
        return []

    def histogram_names(self) -> list[str]:
        return []

    def to_json(self, include_values: bool = False) -> dict[str, Any]:
        return {"counters": {}, "gauges": {}, "histograms": {}}


NULL_METRICS = NullMetrics()
