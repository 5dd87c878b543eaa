"""``repro.serve`` — a durable campaign-orchestration service.

The management plane is a stdlib HTTP/JSON API (:mod:`repro.serve.app`);
the data plane schedules study/sweep/timeline campaigns across the
repo's existing executors (:mod:`repro.serve.scheduler`).  Durability
comes from a crc'd write-ahead journal (:mod:`repro.serve.journal`) plus
pure crash recovery (:mod:`repro.serve.recovery`) layered over the
content-addressed stores — a SIGKILLed server restarts, re-queues
whatever it cannot prove finished, and replays it from cache to
**byte-identical** results.  ``repro serve`` is the CLI entry point.
"""

from repro.serve.app import MAX_BODY_BYTES, ReproServer
from repro.serve.journal import Journal, JournalView, read_journal, record_crc
from repro.serve.model import (
    CAMPAIGN_KINDS,
    RESULT_FORMAT,
    build_grid,
    build_timeline_config,
    campaign_id,
    normalize_spec,
)
from repro.serve.recovery import RecoveredState, recover_state, replay_journal
from repro.serve.scheduler import (
    DRAIN_FLAG,
    AdmissionError,
    DrainRequested,
    QueueFullError,
    QuotaExceededError,
    Scheduler,
    ServeConfig,
)

__all__ = [
    "AdmissionError",
    "CAMPAIGN_KINDS",
    "DRAIN_FLAG",
    "DrainRequested",
    "Journal",
    "JournalView",
    "MAX_BODY_BYTES",
    "QueueFullError",
    "QuotaExceededError",
    "RESULT_FORMAT",
    "RecoveredState",
    "ReproServer",
    "Scheduler",
    "ServeConfig",
    "build_grid",
    "build_timeline_config",
    "campaign_id",
    "normalize_spec",
    "read_journal",
    "record_crc",
    "recover_state",
    "replay_journal",
]
