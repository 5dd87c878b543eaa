"""Campaign specs: validation, canonicalization, content-addressed ids.

A submission to ``POST /campaigns`` is a JSON object::

    {
      "kind": "study" | "sweep" | "timeline",
      "tenant": "alice",                      # optional, default "default"
      "spec": {...},                          # kind-specific, see below
      "faults": {...},                        # optional FaultPlan JSON
      "resilience": {"retry": 3,              # optional
                     "shard_loss_budget": 0.5,
                     "fallback_in_process": true}
    }

``study``/``sweep`` specs are :mod:`repro.sweep.grid` spec files
(``scenario``/``overrides``/``axes``; a ``study`` is an axis-free sweep)
plus an optional ``max_cells``; ``timeline`` specs carry ``scenario``/
``overrides`` (dotted paths into :class:`repro.timeline.TimelineConfig`)
plus a ``timeline`` object of :class:`repro.timeline.TimelineSpec`
fields and an optional ``max_epochs``.

:func:`normalize_spec` validates a submission by *building* everything
it names (grid, timeline config, fault plan, resilience config — bad
input raises :class:`ValueError` long before anything is queued) and
returns the canonical dict; :func:`campaign_id` hashes that canonical
form, so the id is a content address: identical submissions — same
tenant, same work — collapse onto one campaign, which is what lets the
server serve re-submissions from the store without recomputation.
Execution placement (the server's ``parallel`` config) deliberately
stays *out* of the id, matching the repo-wide invariant that backends
never change artifacts.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from repro._util import require

#: Supported campaign kinds.
CAMPAIGN_KINDS = ("study", "sweep", "timeline")

#: Format tag stamped into every result file.
RESULT_FORMAT = "repro-serve-result-v1"

#: Fields a TimelineSpec accepts from a ``timeline`` spec object.
_TIMELINE_SPEC_FIELDS = (
    "start",
    "end",
    "policy",
    "eviction_rate",
    "capacity_ramp_quarters",
    "anchors",
    "edition",
    "seed",
)


def normalize_spec(data: Any) -> dict[str, Any]:
    """Validate a raw submission and return its canonical form.

    Raises :class:`ValueError` (or :class:`TypeError` from malformed
    nesting) on anything invalid — the HTTP layer maps both to 400.
    Validation is *constructive*: the grid / timeline config / fault
    plan / resilience config are actually built, so a spec that
    normalizes is a spec the scheduler can run.
    """
    require(isinstance(data, dict), f"a campaign submission must be a JSON object, got {type(data).__name__}")
    unknown = set(data) - {"kind", "tenant", "spec", "faults", "resilience"}
    require(not unknown, f"unknown submission keys: {sorted(unknown)}")
    kind = data.get("kind")
    require(
        kind in CAMPAIGN_KINDS,
        f"kind must be one of {CAMPAIGN_KINDS}, got {kind!r}",
    )
    tenant = data.get("tenant", "default")
    require(
        isinstance(tenant, str) and tenant.strip() != "" and len(tenant) <= 64,
        f"tenant must be a non-empty string of at most 64 chars, got {tenant!r}",
    )
    spec = data.get("spec", {})
    require(isinstance(spec, dict), f"spec must be a JSON object, got {type(spec).__name__}")
    normalized = {
        "kind": kind,
        "tenant": tenant,
        "spec": spec,
        "faults": data.get("faults"),
        "resilience": data.get("resilience"),
    }
    build_faults(normalized)
    build_resilience(normalized)
    if kind == "timeline":
        build_timeline_config(normalized)
    else:
        build_grid(normalized)
    return normalized


def campaign_id(normalized: dict[str, Any]) -> str:
    """The campaign's content address: a 12-hex-char digest of its spec."""
    material = json.dumps(normalized, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(material.encode()).hexdigest()[:12]


def build_faults(normalized: dict[str, Any]):
    """The campaign's :class:`~repro.faults.FaultPlan`, or ``None``."""
    data = normalized.get("faults")
    if data is None:
        return None
    require(isinstance(data, dict), "faults must be a FaultPlan JSON object")
    from repro.faults import FaultPlan

    return FaultPlan.from_json(data)


def build_resilience(normalized: dict[str, Any]):
    """The campaign's :class:`~repro.resilience.ResilienceConfig`, or ``None``."""
    data = normalized.get("resilience")
    if data is None:
        return None
    require(isinstance(data, dict), "resilience must be a JSON object")
    unknown = set(data) - {"retry", "shard_loss_budget", "fallback_in_process"}
    require(not unknown, f"unknown resilience keys: {sorted(unknown)}")
    from repro.resilience import ErrorBudget, ResilienceConfig, RetryPolicy

    return ResilienceConfig(
        retry=RetryPolicy(max_attempts=int(data.get("retry", 3))),
        fallback_in_process=bool(data.get("fallback_in_process", True)),
        budget=ErrorBudget(shard_loss_fraction=float(data.get("shard_loss_budget", 0.0))),
    )


def _scenario_config(name: Any):
    from repro.experiments.scenarios import scenario_by_name, scenario_names

    try:
        return scenario_by_name(name).config
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; known scenarios: {', '.join(scenario_names())}"
        ) from None


def build_grid(normalized: dict[str, Any]):
    """The (grid, max_cells) a study/sweep campaign runs.

    A ``study`` is an axis-free sweep: one cell, the full pipeline, the
    same metrics — so the two kinds share the grid machinery and the
    store, and a study re-submitted as a one-cell sweep hits the same
    content-addressed artifacts.
    """
    from repro.sweep.grid import ParameterGrid

    spec = dict(normalized["spec"])
    max_cells = spec.pop("max_cells", None)
    if normalized["kind"] == "study":
        require("axes" not in spec, "a study spec has no axes (submit kind='sweep' instead)")
        require(max_cells is None, "a study spec has no max_cells")
    if "scenario" in spec:
        _scenario_config(spec["scenario"])  # friendlier error than from_spec's KeyError
    grid = ParameterGrid.from_spec(spec)
    if max_cells is not None:
        max_cells = int(max_cells)
        require(max_cells >= 1, "max_cells must be >= 1")
    return grid, max_cells


def build_timeline_config(normalized: dict[str, Any], parallel=None):
    """The (config, max_epochs) a timeline campaign runs.

    Built the same way ``repro timeline`` builds its config
    (:meth:`~repro.timeline.TimelineConfig.from_study` over the scenario's
    study config and a :class:`~repro.timeline.TimelineSpec` from the
    ``timeline`` object), then dotted-path ``overrides`` applied to the
    assembled :class:`~repro.timeline.TimelineConfig`.  ``parallel`` is
    the server's executor config — execution-only, never part of the
    campaign id.
    """
    from repro.sweep.grid import apply_override
    from repro.timeline import TimelineConfig, TimelineSpec

    spec = dict(normalized["spec"])
    unknown = set(spec) - {"scenario", "overrides", "timeline", "max_epochs"}
    require(not unknown, f"unknown timeline spec keys: {sorted(unknown)}")
    timeline_fields = spec.get("timeline") or {}
    require(isinstance(timeline_fields, dict), "timeline must be a JSON object of TimelineSpec fields")
    unknown = set(timeline_fields) - set(_TIMELINE_SPEC_FIELDS)
    require(not unknown, f"unknown timeline fields: {sorted(unknown)}")
    config = TimelineConfig.from_study(
        _scenario_config(spec.get("scenario", "small")),
        TimelineSpec(**timeline_fields),
        parallel=parallel,
        faults=build_faults(normalized),
        resilience=build_resilience(normalized),
    )
    overrides = spec.get("overrides") or {}
    require(isinstance(overrides, dict), "overrides must be a JSON object of dotted paths")
    for path, value in overrides.items():
        config = apply_override(config, path, value)
    max_epochs = spec.get("max_epochs")
    if max_epochs is not None:
        max_epochs = int(max_epochs)
        require(max_epochs >= 1, "max_epochs must be >= 1")
    return config, max_epochs
