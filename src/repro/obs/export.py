"""Telemetry exporters: JSON snapshots, Chrome traces, text renderings.

The JSON shape follows the benchmark-trajectory convention used by the
``BENCH_*.json`` files under ``benchmarks/``: a top-level ``bench`` name, a
``format`` tag, and the measurements — here the span forest plus the full
metrics registry — so a sequence of PRs can diff stage timings and funnel
counts over time.  Two snapshot shapes exist:

* :func:`telemetry_to_json` — the full dump (every span, raw histogram
  values on request); the worker→parent merge wire format.
* :func:`compact_snapshot` — the committed-baseline shape
  (:data:`COMPACT_SCHEMA`): spans aggregated per stage name, histograms
  as summaries only.  A few hundred lines instead of thousands, which is
  what belongs in git (``benchmarks/BENCH_observability.json``).

:func:`write_chrome_trace` exports the span forest in the Chrome
trace-event format (complete ``"ph": "X"`` events with microsecond
timestamps), loadable in Perfetto / ``chrome://tracing``; worker-tagged
spans land on their own rows.  All file writers publish atomically
(temp file + rename) so a concurrently-tailing reader never sees a torn
snapshot.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro._util import atomic_write_text, format_table
from repro.obs.metrics import MetricsRegistry, NullMetrics
from repro.obs.telemetry import Telemetry
from repro.obs.trace import NullTracer, Span, Tracer

#: Format tag stamped into every exported snapshot.
BENCH_FORMAT = "repro-bench-v1"

#: Schema tag for the aggregated (committed-baseline) snapshot shape.
COMPACT_SCHEMA = "compact-aggregates-v1"

#: The filter-attrition funnel, in pipeline order: (counter, description).
FUNNEL_COUNTERS: tuple[tuple[str, str], ...] = (
    ("filters.ips_considered", "measured offnet IPs entering the filters"),
    ("filters.ips_dropped_unresponsive", "dropped: fully unresponsive"),
    ("filters.ips_dropped_implausible", "dropped: implausible for one location"),
    ("filters.ips_kept", "kept after per-IP filters"),
    ("filters.ips_dropped_low_coverage_isp", "dropped: ISP below VP coverage"),
    ("filters.ips_analyzable", "analyzable (enter clustering)"),
)


def telemetry_to_json(
    telemetry: Telemetry, name: str = "study", include_values: bool = False
) -> dict[str, Any]:
    """The snapshot dict for ``telemetry`` (see module docstring for shape)."""
    return {
        "bench": name,
        "format": BENCH_FORMAT,
        "spans": [span.to_json() for span in telemetry.tracer.roots],
        **telemetry.metrics.to_json(include_values=include_values),
    }


def write_metrics_json(
    telemetry: Telemetry, path: str | Path, name: str = "study", include_values: bool = False
) -> Path:
    """Write the snapshot to ``path`` (atomically) and return it."""
    return atomic_write_text(
        path, json.dumps(telemetry_to_json(telemetry, name, include_values), indent=2) + "\n"
    )


def telemetry_from_json(data: dict[str, Any]) -> Telemetry:
    """Rebuild a telemetry bundle from an exported snapshot."""
    tracer = Tracer()
    tracer.roots = [Span.from_json(entry) for entry in data.get("spans", ())]
    metrics = MetricsRegistry.from_json(data)
    return Telemetry(tracer=tracer, metrics=metrics)


# -- compact (committed-baseline) snapshots ---------------------------------------


def aggregate_stages(telemetry: Telemetry) -> dict[str, dict[str, Any]]:
    """The per-stage rollup of the whole span forest.

    Every recorded span participates, keyed by span name in recording
    order: count, total/mean/max wall ms and summed ``n_items``; stages
    whose spans ran under a profiler also get summed CPU ms and max peak
    RSS (worker-process spans are not profiled).
    """
    stages: dict[str, dict[str, Any]] = {}
    for root in telemetry.tracer.roots:
        for span in root.walk():
            entry = stages.setdefault(
                span.name, {"count": 0, "total_ms": 0.0, "max_ms": 0.0, "n_items": 0}
            )
            entry["count"] += 1
            entry["total_ms"] += span.duration_ms
            entry["max_ms"] = max(entry["max_ms"], span.duration_ms)
            entry["n_items"] += int(span.attributes.get("n_items", 0))
            if "cpu_ms" in span.attributes:
                entry["cpu_ms"] = entry.get("cpu_ms", 0.0) + float(span.attributes["cpu_ms"])
                entry["rss_peak_kb"] = max(
                    entry.get("rss_peak_kb", 0.0), float(span.attributes["rss_peak_kb"])
                )
    for entry in stages.values():
        entry["total_ms"] = round(entry["total_ms"], 3)
        entry["mean_ms"] = round(entry["total_ms"] / entry["count"], 3)
        entry["max_ms"] = round(entry["max_ms"], 3)
        if "cpu_ms" in entry:
            entry["cpu_ms"] = round(entry["cpu_ms"], 3)
    return stages


def compact_snapshot(
    telemetry: Telemetry, name: str = "study", extra: dict[str, Any] | None = None
) -> dict[str, Any]:
    """The aggregated snapshot: stage rollups + metric summaries, no raw dumps.

    This is the shape committed as ``BENCH_*.json`` baselines: spans fold
    into per-stage aggregates (:func:`aggregate_stages`), histograms keep
    only their summaries, and an optional ``extra`` dict (run timings,
    flight summaries) merges into the top level.
    """
    snapshot: dict[str, Any] = {
        "bench": name,
        "format": BENCH_FORMAT,
        "schema": COMPACT_SCHEMA,
        "stages": aggregate_stages(telemetry),
        **telemetry.metrics.to_json(include_values=False),
    }
    if telemetry.flight.records:
        snapshot["flight"] = telemetry.flight.to_json()
    if extra:
        snapshot.update(extra)
    return snapshot


def write_compact_snapshot(
    telemetry: Telemetry,
    path: str | Path,
    name: str = "study",
    extra: dict[str, Any] | None = None,
) -> Path:
    """Write the compact snapshot to ``path`` (atomically) and return it."""
    return atomic_write_text(
        path, json.dumps(compact_snapshot(telemetry, name, extra), indent=2) + "\n"
    )


# -- Chrome trace-event export ----------------------------------------------------


def chrome_trace_json(telemetry: Telemetry) -> dict[str, Any]:
    """The span forest as a Chrome trace-event document.

    Every span becomes one complete event (``"ph": "X"``) with its start
    offset and duration in microseconds; the absolute offsets recorded by
    the tracer put parent and adopted-worker spans on one shared timeline.
    Spans tagged with a ``worker`` attribute (merged back from worker
    processes) get that worker as their ``tid``, so Perfetto renders one
    row per worker under the main thread's row.
    """
    events: list[dict[str, Any]] = [
        {"name": "process_name", "ph": "M", "pid": 1, "tid": 0, "args": {"name": "repro"}}
    ]

    def visit(span: Span, tid: str) -> None:
        tid = str(span.attributes.get("worker", tid))
        events.append(
            {
                "name": span.name,
                "ph": "X",
                "ts": round(1000.0 * span.start_ms, 1),
                "dur": round(1000.0 * span.duration_ms, 1),
                "pid": 1,
                "tid": tid,
                "args": {
                    key: value for key, value in span.attributes.items() if key != "worker"
                },
            }
        )
        for child in span.children:
            visit(child, tid)

    for root in telemetry.tracer.roots:
        visit(root, "main")
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(telemetry: Telemetry, path: str | Path) -> Path:
    """Write the Chrome trace to ``path`` (atomically) and return it."""
    return atomic_write_text(path, json.dumps(chrome_trace_json(telemetry), indent=1) + "\n")


# -- text renderings -------------------------------------------------------------


#: Children listed under one span; the shorter rest fold into one line.
_SPAN_TREE_CHILDREN = 10


def render_span_tree(tracer: Tracer | NullTracer) -> str:
    """An indented stage-time tree; large fan-outs are elided by duration."""
    if not tracer.roots:
        return "no spans recorded"
    lines: list[str] = []

    def visit(span: Span, depth: int) -> None:
        attrs = "".join(
            f" {key}={value}" for key, value in span.attributes.items() if key != "name"
        )
        lines.append(f"{'  ' * depth}{span.name:<{max(1, 28 - 2 * depth)}} {span.duration_ms:9.1f} ms{attrs}")
        children = sorted(span.children, key=lambda s: s.duration_s, reverse=True)
        for child in children[:_SPAN_TREE_CHILDREN]:
            visit(child, depth + 1)
        if len(children) > _SPAN_TREE_CHILDREN:
            rest = children[_SPAN_TREE_CHILDREN:]
            rest_ms = 1000.0 * sum(s.duration_s for s in rest)
            lines.append(f"{'  ' * (depth + 1)}... (+{len(rest)} more) {rest_ms:9.1f} ms")

    for root in tracer.roots:
        visit(root, 0)
    return "\n".join(lines)


def render_profile(telemetry: Telemetry) -> str:
    """The resource table (wall/CPU/utilization/RSS/throughput) of the
    profiled stages in :func:`aggregate_stages`."""
    rows = []
    for name, stage in aggregate_stages(telemetry).items():
        if "cpu_ms" not in stage:
            continue
        wall_ms, cpu_ms, n_items = stage["total_ms"], stage["cpu_ms"], stage["n_items"]
        rows.append(
            [
                name,
                stage["count"],
                f"{wall_ms:.1f}",
                f"{cpu_ms:.1f}",
                f"{cpu_ms / wall_ms if wall_ms > 0 else 0.0:.2f}",
                f"{stage['rss_peak_kb']:.0f}",
                f"{1000.0 * n_items / wall_ms:.1f}" if n_items and wall_ms > 0 else "-",
            ]
        )
    if not rows:
        return "no resource profile recorded (run with profile=True / --profile)"
    return format_table(
        ["stage", "spans", "wall ms", "cpu ms", "cpu util", "peak rss KiB", "rows/s"], rows
    )


def render_metrics_table(metrics: MetricsRegistry | NullMetrics) -> str:
    """All counters, gauges, and histogram summaries as one aligned table."""
    rows: list[list[object]] = []
    for name in sorted(metrics.counters):
        rows.append([name, "counter", f"{metrics.counters[name]:g}"])
    for name in sorted(metrics.gauges):
        rows.append([name, "gauge", f"{metrics.gauges[name]:g}"])
    for name in metrics.histogram_names():
        summary = metrics.histogram(name)
        rows.append(
            [
                name,
                "histogram",
                f"n={summary.count} mean={summary.mean:.2f} p50={summary.p50:.2f} "
                f"p90={summary.p90:.2f} max={summary.maximum:.2f}",
            ]
        )
    if not rows:
        return "no metrics recorded"
    return format_table(["metric", "kind", "value"], rows)


def render_filter_funnel(metrics: MetricsRegistry | NullMetrics) -> str:
    """The Appendix-A attrition funnel as an aligned table."""
    considered = metrics.counter("filters.ips_considered")
    if not considered:
        return "no filter metrics recorded"
    rows: list[list[object]] = []
    for counter, description in FUNNEL_COUNTERS:
        value = metrics.counter(counter)
        rows.append([description, f"{value:g}", f"{100.0 * value / considered:.1f}%"])
    isp_line = (
        f"ISPs: {metrics.counter('filters.isps_considered'):g} considered, "
        f"{metrics.counter('filters.isps_dropped_low_coverage'):g} below coverage, "
        f"{metrics.counter('filters.isps_analyzable'):g} analyzable"
    )
    return format_table(["filter stage", "IPs", "% of considered"], rows) + "\n" + isp_line
