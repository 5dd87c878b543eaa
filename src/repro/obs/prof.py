"""Per-stage resource profiling: CPU time and peak RSS on every span.

A :class:`StageProfiler` attaches to a :class:`~repro.obs.trace.Tracer`;
every span then records, alongside its wall-clock duration:

* ``cpu_ms`` — process CPU time consumed inside the span
  (:func:`time.process_time` delta: user+system, all threads);
* ``rss_peak_kb`` — the process peak RSS high-water mark at span exit
  (``resource.getrusage``; monotone, so a *rise* across a span means the
  span set a new peak);
* ``rss_delta_kb`` — how much the high-water mark rose during the span.

The per-stage rollup of those attributes (summed CPU ms and max peak
RSS, beside wall time and summed ``n_items``) is
:func:`repro.obs.export.aggregate_stages`;
:func:`repro.obs.export.render_profile` adds CPU utilization and
rows/sec.

Profiling is opt-in (``Telemetry.capture(profile=True)``); a tracer with
no profiler makes exactly one ``is None`` check per span, and disabled
telemetry keeps making zero clock calls.  Reading clocks and RSS never
touches the RNG streams, so profiled runs stay byte-identical.
"""

from __future__ import annotations

import sys
import time
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (trace imports nothing from here)
    from repro.obs.trace import Span

try:  # pragma: no cover - resource is POSIX-only
    import resource
except ImportError:  # pragma: no cover - Windows
    resource = None  # type: ignore[assignment]


def peak_rss_kb() -> float:
    """The process's peak resident-set size in KiB (0.0 where unsupported).

    ``ru_maxrss`` is kibibytes on Linux and bytes on macOS; normalised here.
    """
    if resource is None:  # pragma: no cover - Windows
        return 0.0
    peak = float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if sys.platform == "darwin":  # pragma: no cover - macOS units
        peak /= 1024.0
    return peak


class StageProfiler:
    """Samples CPU time and memory around spans; attaches span attributes.

    The CPU clock and RSS reader are injectable for deterministic tests.
    One profiler serves one tracer and holds no state between spans.
    """

    def __init__(
        self,
        cpu_clock: Callable[[], float] = time.process_time,
        rss_reader: Callable[[], float] = peak_rss_kb,
    ) -> None:
        self._cpu_clock = cpu_clock
        self._rss_reader = rss_reader

    def begin(self) -> tuple[float, float]:
        """Baseline ``(cpu_s, rss_kb)`` readings for a span that just opened."""
        return self._cpu_clock(), self._rss_reader()

    def end(self, start: tuple[float, float], span: "Span") -> None:
        """Attach the span's resource profile to its attributes."""
        cpu_s, start_rss_kb = start
        rss_kb = self._rss_reader()
        span.attributes["cpu_ms"] = round(1000.0 * (self._cpu_clock() - cpu_s), 3)
        span.attributes["rss_peak_kb"] = rss_kb
        span.attributes["rss_delta_kb"] = round(rss_kb - start_rss_kb, 1)
