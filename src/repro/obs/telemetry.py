"""The telemetry bundle threaded through the pipeline.

A :class:`Telemetry` groups one tracer, one metrics registry, one logger
and one event stream, and exposes their recording surface directly
(``span`` / ``count`` / ``gauge`` / ``observe`` / ``log`` / ``emit`` /
``progress``) so instrumented code deals with a single object.
:meth:`Telemetry.disabled` returns a process-wide no-op singleton: every
call on it bottoms out immediately with no clock reads, no allocation,
and no RNG interaction — the zero-cost default.  The executor flight
view (:attr:`Telemetry.flight`) reads the tracer's span tree; it records
nothing of its own.

:meth:`Telemetry.capture` builds a live bundle and touches no
process-global state.  The bundle is a context manager that closes its
event stream on exit::

    with Telemetry.capture(log_level="debug") as telemetry:
        run_study(config, telemetry=telemetry)
    # stream closed (``stream_end`` written)

Callers that keep the bundle open (the CLI does, to render reports after
the run) can call :meth:`Telemetry.restore` explicitly instead.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, TextIO

from repro.obs.flight import FlightView
from repro.obs.logging import INFO, NULL_LOGGER, StructuredLogger, level_from_name
from repro.obs.metrics import NULL_METRICS, MetricsRegistry, NullMetrics
from repro.obs.prof import StageProfiler
from repro.obs.stream import NULL_STREAM, EventStream, NullEventStream
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer


class Telemetry:
    """One study run's tracer + metrics + logger + stream."""

    __slots__ = ("tracer", "metrics", "logger", "stream")

    def __init__(
        self,
        tracer: Tracer | NullTracer | None = None,
        metrics: MetricsRegistry | NullMetrics | None = None,
        logger: StructuredLogger | None = None,
        stream: EventStream | NullEventStream | None = None,
    ) -> None:
        self.tracer = tracer if tracer is not None else Tracer()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.logger = logger if logger is not None else NULL_LOGGER
        self.stream = stream if stream is not None else NULL_STREAM

    @property
    def flight(self) -> FlightView:
        """The executor flight view over this bundle's span tree."""
        return FlightView(self.tracer)

    @property
    def enabled(self) -> bool:
        """Whether any recording happens at all."""
        return self.tracer.enabled or self.metrics.enabled

    @classmethod
    def disabled(cls) -> "Telemetry":
        """The shared no-op bundle (the pipeline's default)."""
        return NULL_TELEMETRY

    @classmethod
    def capture(
        cls,
        json_logs: bool = False,
        log_level: int | str = INFO,
        stream: TextIO | None = None,
        profile: bool = False,
        events: str | Path | EventStream | None = None,
    ) -> "Telemetry":
        """A live bundle: real tracer, real registry, stderr logger.

        The logger writes at ``log_level`` (text, or JSON lines with
        ``json_logs``) to ``stream``, or to the process stderr when
        ``stream`` is ``None``; every component handed the bundle logs
        through it.  ``profile=True`` attaches a
        :class:`~repro.obs.prof.StageProfiler` so every span also records
        CPU time and peak RSS.  ``events`` (a path or an open
        :class:`EventStream`) attaches a live JSONL event stream fed by
        stage transitions and executor progress.
        """
        logger = StructuredLogger(
            "repro.study", level=level_from_name(log_level), json_mode=json_logs, stream=stream
        )
        profiler = StageProfiler() if profile else None
        if events is None:
            event_stream: EventStream | NullEventStream = NULL_STREAM
        elif isinstance(events, (str, Path)):
            event_stream = EventStream(events)
        else:
            event_stream = events
        return cls(
            tracer=Tracer(
                profiler=profiler,
                stream=event_stream if event_stream.enabled else None,
            ),
            metrics=MetricsRegistry(),
            logger=logger,
            stream=event_stream,
        )

    def restore(self) -> None:
        """Close the event stream, emitting ``stream_end`` once (idempotent)."""
        self.stream.close()

    def __enter__(self) -> "Telemetry":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.restore()
        return False

    # -- recording surface (delegates) ------------------------------------------

    def span(self, name: str, **attributes: Any):
        """Open a stage span (context manager)."""
        return self.tracer.span(name, **attributes)

    def count(self, name: str, value: float = 1) -> None:
        """Increment a counter."""
        self.metrics.count(name, value)

    def gauge(self, name: str, value: float) -> None:
        """Set a gauge."""
        self.metrics.gauge(name, value)

    def observe(self, name: str, value: float) -> None:
        """Record a histogram observation."""
        self.metrics.observe(name, value)

    def log(self, event: str, **fields: Any) -> None:
        """Log an INFO event through the bundle's logger."""
        self.logger.info(event, **fields)

    def emit(self, event: str, **fields: Any) -> None:
        """Append an event to the live stream (no-op when not streaming)."""
        self.stream.emit(event, **fields)

    def progress(self, label: str, completed: int, total: int, **fields: Any) -> None:
        """Stream a completion-progress event with percent and ETA."""
        self.stream.progress(label, completed, total, **fields)

    def heartbeat(self, **fields: Any) -> None:
        """Stream a rate-limited liveness heartbeat."""
        self.stream.heartbeat(**fields)


class _NullTelemetry(Telemetry):
    """The do-nothing bundle; all members are the shared null objects."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__(
            tracer=NULL_TRACER, metrics=NULL_METRICS, logger=NULL_LOGGER, stream=NULL_STREAM
        )

    def log(self, event: str, **fields: Any) -> None:
        pass


NULL_TELEMETRY = _NullTelemetry()


def ensure_telemetry(telemetry: Telemetry | None) -> Telemetry:
    """``telemetry`` or the shared no-op bundle."""
    return telemetry if telemetry is not None else NULL_TELEMETRY
