"""Observability for the study pipeline: tracing, metrics, logging, export.

The subsystem's pieces:

* :mod:`repro.obs.trace` — nested stage spans with wall-clock durations
  and absolute start offsets (:class:`Tracer`); disabled mode is a shared
  no-op span with zero clock calls.
* :mod:`repro.obs.prof` — per-span resource profiling
  (:class:`StageProfiler`): CPU time and peak RSS.
* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` with counters,
  gauges, and histograms named ``<stage>.<name>``.
* :mod:`repro.obs.stream` — the live JSONL event stream
  (:class:`EventStream`): stage transitions, progress with ETA,
  heartbeats; ``repro tail`` renders it.
* :mod:`repro.obs.logging` — :class:`StructuredLogger` (text or JSON
  lines); components log through their bundle's logger.
* :mod:`repro.obs.export` — full and compact JSON snapshots in the
  ``BENCH_*.json`` trajectory format, Chrome trace-event export, and
  aligned-text renderings (stage tree, metrics table, filter funnel,
  resource profile).
* :mod:`repro.obs.flight` — the executor flight view
  (:class:`FlightView`, ``Telemetry.flight``): per-worker utilization,
  queue-wait, payloads and stragglers, read off the shard spans.

The span tree is the one run record: the profile, the flight view, the
compact snapshot and the Chrome trace all render from it.

Instrumented pipeline functions accept ``telemetry: Telemetry | None``;
``None`` (the default) means the shared :data:`NULL_TELEMETRY` bundle, so
uninstrumented callers pay one attribute lookup per stage and nothing per
inner-loop element.  Recording never draws randomness: a traced, profiled,
or streamed run's artifacts are byte-identical to an untraced one.  There
is no process-global sink: every span, counter and log line lands in the
bundle the caller handed in (stores included, see
:class:`repro.store.objects.ObjectStore`).
"""

from repro.obs.export import (
    BENCH_FORMAT,
    COMPACT_SCHEMA,
    FUNNEL_COUNTERS,
    aggregate_stages,
    chrome_trace_json,
    compact_snapshot,
    render_filter_funnel,
    render_metrics_table,
    render_profile,
    render_span_tree,
    telemetry_from_json,
    telemetry_to_json,
    write_chrome_trace,
    write_compact_snapshot,
    write_metrics_json,
)
from repro.obs.flight import FlightView, ShardFlight
from repro.obs.logging import (
    DEBUG,
    ERROR,
    INFO,
    WARNING,
    NullLogger,
    StructuredLogger,
)
from repro.obs.metrics import HistogramSummary, MetricsRegistry, NullMetrics, summarize
from repro.obs.prof import StageProfiler, peak_rss_kb
from repro.obs.stream import (
    NULL_STREAM,
    STREAM_FORMAT,
    EventStream,
    NullEventStream,
    RingBufferSink,
    follow_events,
    format_event,
    latest_progress,
    read_events,
    render_progress,
    resolve_events_path,
)
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry, ensure_telemetry
from repro.obs.trace import NullTracer, Span, Tracer, shift_spans

__all__ = [
    "BENCH_FORMAT",
    "COMPACT_SCHEMA",
    "DEBUG",
    "ERROR",
    "EventStream",
    "FUNNEL_COUNTERS",
    "FlightView",
    "HistogramSummary",
    "INFO",
    "MetricsRegistry",
    "NULL_STREAM",
    "NULL_TELEMETRY",
    "NullEventStream",
    "NullLogger",
    "NullMetrics",
    "NullTracer",
    "RingBufferSink",
    "STREAM_FORMAT",
    "ShardFlight",
    "Span",
    "StageProfiler",
    "StructuredLogger",
    "Telemetry",
    "Tracer",
    "WARNING",
    "aggregate_stages",
    "chrome_trace_json",
    "compact_snapshot",
    "ensure_telemetry",
    "follow_events",
    "format_event",
    "latest_progress",
    "peak_rss_kb",
    "read_events",
    "render_filter_funnel",
    "render_metrics_table",
    "render_profile",
    "render_progress",
    "render_span_tree",
    "resolve_events_path",
    "shift_spans",
    "summarize",
    "telemetry_from_json",
    "telemetry_to_json",
    "write_chrome_trace",
    "write_compact_snapshot",
    "write_metrics_json",
]
