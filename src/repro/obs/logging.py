"""Structured logging: text or JSON lines with fields.

A :class:`StructuredLogger` emits *events with fields*; components log
through the logger of the telemetry bundle they were handed::

    obs = ensure_telemetry(telemetry)
    obs.logger.debug("unroutable destination", ip=ip, source_asn=source.asn)

Two render modes: human-readable text lines and JSON lines (one object per
line, machine-parseable).  Log lines carry no timestamps, so captured
streams are deterministic and diffable across runs.  The default level is
WARNING; the disabled bundle's :data:`NULL_LOGGER` drops everything, and
the CLI's ``--trace`` / ``--log-json`` flags build a live one
(:meth:`repro.obs.Telemetry.capture`).  There is no process-global
logger state.
"""

from __future__ import annotations

import json
import sys
from typing import Any, TextIO

DEBUG = 10
INFO = 20
WARNING = 30
ERROR = 40

_LEVEL_NAMES = {DEBUG: "debug", INFO: "info", WARNING: "warning", ERROR: "error"}
_LEVELS_BY_NAME = {name: level for level, name in _LEVEL_NAMES.items()}


def level_from_name(name: str | int) -> int:
    """Resolve ``'info'``/``'debug'``/... (or a numeric level) to an int."""
    if isinstance(name, int):
        return name
    return _LEVELS_BY_NAME[name.lower()]


class StructuredLogger:
    """A named logger emitting text or JSON lines to a stream.

    ``stream=None`` means "whatever ``sys.stderr`` is at emit time", which
    keeps the logger compatible with stream-capturing test harnesses.
    """

    def __init__(
        self,
        name: str = "repro",
        level: int = WARNING,
        json_mode: bool = False,
        stream: TextIO | None = None,
    ) -> None:
        self.name = name
        self.level = level
        self.json_mode = json_mode
        self.stream = stream

    # -- emission ---------------------------------------------------------------

    def log(self, level: int, event: str, **fields: Any) -> None:
        """Emit ``event`` with ``fields`` if ``level`` clears the threshold."""
        if level < self.level:
            return
        stream = self.stream if self.stream is not None else sys.stderr
        if self.json_mode:
            record = {"level": _LEVEL_NAMES.get(level, str(level)), "logger": self.name, "event": event}
            record.update(fields)
            stream.write(json.dumps(record, default=str) + "\n")
        else:
            suffix = "".join(f" {key}={value}" for key, value in fields.items())
            stream.write(f"[{_LEVEL_NAMES.get(level, level)}] {self.name}: {event}{suffix}\n")

    def debug(self, event: str, **fields: Any) -> None:
        """Emit at DEBUG."""
        self.log(DEBUG, event, **fields)

    def info(self, event: str, **fields: Any) -> None:
        """Emit at INFO."""
        self.log(INFO, event, **fields)

    def warning(self, event: str, **fields: Any) -> None:
        """Emit at WARNING."""
        self.log(WARNING, event, **fields)

    def error(self, event: str, **fields: Any) -> None:
        """Emit at ERROR."""
        self.log(ERROR, event, **fields)


class NullLogger(StructuredLogger):
    """Disabled logging: drops everything without formatting."""

    def __init__(self) -> None:
        super().__init__(name="null", level=ERROR + 1)

    def log(self, level: int, event: str, **fields: Any) -> None:
        pass


NULL_LOGGER = NullLogger()
