"""Sweep campaigns: declarative grids, durable cells, deterministic reports.

The paper's argument is a *sweep* — the same pipeline re-run under many
configurations (OPTICS steepness, filter thresholds, epochs, seeds,
outage scenarios).  This package turns that pattern into infrastructure:

* :mod:`repro.sweep.grid` — :class:`ParameterGrid` expands dict-of-axes
  (or a JSON/YAML spec file) into fully-resolved
  :class:`~repro.core.pipeline.StudyConfig` cells, deterministically.
* :mod:`repro.sweep.campaign` — :func:`run_campaign` runs cells on the
  checkpoint-before-report loop of :mod:`repro.durable`, each
  checkpointed into a :class:`~repro.store.StudyStore`, and resumes by
  skipping stored cells; :class:`CampaignReport` aggregates per-cell
  metrics into sensitivity bands, byte-identically whether or not the
  campaign was interrupted.
* :mod:`repro.sweep.metrics` — :class:`MetricSpec`, the named-observable
  + acceptance-band abstraction shared with :mod:`repro.sensitivity`.
"""

from repro.sweep.campaign import (
    REPORT_FORMAT,
    CampaignReport,
    CampaignStatus,
    CellResult,
    campaign_status,
    run_campaign,
)
from repro.sweep.grid import (
    ParameterGrid,
    SweepCell,
    apply_override,
    load_grid,
    load_spec,
)
from repro.sweep.metrics import MetricSpec, evaluate_metrics

__all__ = [
    "CampaignReport",
    "CampaignStatus",
    "CellResult",
    "MetricSpec",
    "ParameterGrid",
    "REPORT_FORMAT",
    "SweepCell",
    "apply_override",
    "campaign_status",
    "evaluate_metrics",
    "load_grid",
    "load_spec",
    "run_campaign",
]
