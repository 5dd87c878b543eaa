"""Longitudinal timeline: event-driven deployments + incremental recomputation.

The paper's §3.1 reads two static snapshots ("2021", "2023") and
extrapolates: "multi-hypergiant hosting will continue to increase over
time".  This package turns that extrapolation into a first-class
longitudinal engine:

- :mod:`repro.timeline.events` — a deterministic, seeded stream of
  quarterly deployment/eviction/capacity events
  (:class:`TimelineSpec` -> :class:`DeploymentEvent` ->
  :meth:`Timeline.state_at`), generalising the static per-epoch ratio
  table in :mod:`repro.deployment.growth`.
- :mod:`repro.timeline.engine` — per-stage content-addressed caching on
  top of :class:`repro.store.StageStore`: epoch N+1 reuses every
  detect/cluster artifact whose inputs did not change, and the
  differential tests prove incremental == full byte-identically.
- :mod:`repro.timeline.campaign` — the resume-safe campaign that emits
  the Table-1 / Figure-1 / concentration series over epochs, one cell
  per quarter on the checkpoint-before-report loop of
  :mod:`repro.durable`.
"""

from repro.timeline.campaign import (
    REPORT_FORMAT,
    EpochResult,
    TimelineReport,
    run_timeline,
    timeline_status,
)
from repro.timeline.engine import (
    TimelineConfig,
    TimelineSubstrate,
    build_substrate,
    cluster_stage_key,
    compute_epoch,
    detect_stage_key,
    epoch_stage_key,
    measure_stage_key,
    run_cluster_stage,
    run_detect_stage,
    run_measure_stage,
    timeline_fingerprint,
)
from repro.timeline.events import (
    DEFAULT_TIMELINE_ANCHORS,
    POLICIES,
    DeploymentEvent,
    Timeline,
    TimelineSpec,
    build_timeline,
    quarter_label,
    quarter_range,
)

__all__ = [
    "DEFAULT_TIMELINE_ANCHORS",
    "POLICIES",
    "REPORT_FORMAT",
    "DeploymentEvent",
    "EpochResult",
    "Timeline",
    "TimelineConfig",
    "TimelineReport",
    "TimelineSpec",
    "TimelineSubstrate",
    "build_substrate",
    "build_timeline",
    "cluster_stage_key",
    "compute_epoch",
    "detect_stage_key",
    "epoch_stage_key",
    "measure_stage_key",
    "quarter_label",
    "quarter_range",
    "run_cluster_stage",
    "run_detect_stage",
    "run_measure_stage",
    "run_timeline",
    "timeline_fingerprint",
    "timeline_status",
]
