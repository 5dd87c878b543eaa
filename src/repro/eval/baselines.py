"""Accuracy-baseline checking: ``repro eval --baseline``.

A regress-fail gate on *accuracy*: ``benchmarks/BENCH_accuracy.json``
commits a floor per stage metric (derived from a measured scorecard minus
a small slack), and :func:`check_accuracy` re-scores the scenario fresh
and fails if any metric fell below its floor.  Accuracy, unlike timing, is deterministic —
a trip here is an inference-quality regression, never machine noise.

Regenerating the baselines is a deliberate act: run the benchmarks suite
(``PYTHONPATH=src python -m pytest benchmarks/test_bench_accuracy.py -s``)
and commit the rewritten file alongside the change that justified it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro._util import format_table, require
from repro.eval.scorecard import Scorecard

ACCURACY_FORMAT = "repro-accuracy-v1"

#: Committed floors sit this far below the measured value (absolute).
DEFAULT_FLOOR_SLACK = 0.05

#: Flat-metric suffixes that receive floors, per stage prefix.  Coverage
#: metrics (how many IPs have PTR records at all) describe the substrate,
#: not the inference, so they carry no floor.
_FLOOR_SUFFIXES: dict[str, tuple[str, ...]] = {
    "detection.": ("precision", "recall"),
    "clustering.": ("pooled_rand", "homogeneity"),
    "rdns.": ("city_accuracy", "metro_accuracy"),
    "traceroute.": ("precision", "recall"),
}


def floor_metrics(scorecard: Scorecard) -> list[str]:
    """The flat-metric names of ``scorecard`` that receive floors."""
    names = []
    for name in scorecard.flat_metrics():
        for prefix, suffixes in _FLOOR_SUFFIXES.items():
            if name.startswith(prefix) and name.rsplit(".", 1)[-1] in suffixes:
                names.append(name)
    names.append("aggregate")
    return names


def derive_floors(scorecard: Scorecard, slack: float = DEFAULT_FLOOR_SLACK) -> dict[str, float]:
    """Floor thresholds from a measured ``scorecard`` minus ``slack``."""
    require(0.0 < slack < 1.0, "slack must be a fraction in (0, 1)")
    measured = scorecard.flat_metrics()
    return {
        name: max(0.0, round(measured[name] - slack, 3)) for name in floor_metrics(scorecard)
    }


def accuracy_baseline_document(
    scorecard: Scorecard,
    evasion: dict[str, Scorecard] | None = None,
    slack: float = DEFAULT_FLOOR_SLACK,
) -> dict[str, Any]:
    """The committed ``BENCH_accuracy.json`` structure.

    ``evasion`` optionally records the degraded scorecards of the
    adversarial scenario variants (informational: the floors gate only
    the honest baseline scenario).
    """
    document = {
        "format": ACCURACY_FORMAT,
        "scenario": scorecard.scenario,
        "slack": slack,
        "floors": derive_floors(scorecard, slack),
        "measured": scorecard.to_json(),
    }
    if evasion:
        document["evasion"] = {
            name: degraded.to_json() for name, degraded in sorted(evasion.items())
        }
    return document


@dataclass(frozen=True)
class FloorCheck:
    """One metric's fresh-vs-floor comparison."""

    metric: str
    floor: float
    measured: float

    @property
    def ok(self) -> bool:
        """Whether the fresh value holds the floor (NaN = metric vanished)."""
        return not math.isnan(self.measured) and self.measured >= self.floor


@dataclass
class AccuracyCheckResult:
    """The full outcome of one accuracy-baseline check."""

    baseline_path: Path
    scenario: str
    checks: list[FloorCheck] = field(default_factory=list)

    @property
    def regressions(self) -> list[FloorCheck]:
        """Metrics below their floor (or missing from the fresh scorecard)."""
        return [check for check in self.checks if not check.ok]

    @property
    def passed(self) -> bool:
        return not self.regressions

    def render(self) -> str:
        """The per-metric comparison table plus the verdict."""
        rows = []
        for check in self.checks:
            if math.isnan(check.measured):
                verdict = "MISSING (metric not produced)"
            elif check.ok:
                verdict = "ok"
            else:
                verdict = "REGRESSION (below floor)"
            rows.append(
                [check.metric, f"{check.floor:.3f}", f"{check.measured:.4f}", verdict]
            )
        lines = [format_table(["metric", "floor", "fresh", "verdict"], rows)]
        verdict = (
            "accuracy check passed"
            if self.passed
            else f"accuracy check FAILED: {len(self.regressions)} metric(s) below floor"
        )
        lines.append(f"{verdict} (baseline: {self.baseline_path}, scenario {self.scenario!r})")
        return "\n".join(lines)


def compare_to_floors(
    floors: dict[str, float],
    scorecard: Scorecard,
    baseline_path: Path,
    scenario: str,
) -> AccuracyCheckResult:
    """Check every floor against ``scorecard``'s flat metrics."""
    measured = scorecard.flat_metrics()
    result = AccuracyCheckResult(baseline_path=baseline_path, scenario=scenario)
    for metric, floor in sorted(floors.items()):
        result.checks.append(
            FloorCheck(
                metric=metric,
                floor=float(floor),
                measured=float(measured.get(metric, float("nan"))),
            )
        )
    return result


def check_accuracy(
    baseline_path: str | Path,
    scorecard: Scorecard | None = None,
    scenario: str | None = None,
) -> AccuracyCheckResult:
    """Score the baseline's scenario fresh and compare against its floors.

    ``scorecard`` lets tests (and callers that already scored the study)
    inject a scorecard instead of re-running the pipeline; ``scenario``
    overrides the baseline's recorded scenario name.  Raises
    :class:`ValueError` if the baseline file is missing or malformed.
    """
    baseline_path = Path(baseline_path)
    require(baseline_path.exists(), f"no accuracy baseline at {baseline_path}")
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    require(
        baseline.get("format") == ACCURACY_FORMAT,
        f"{baseline_path} is not an accuracy baseline (format != {ACCURACY_FORMAT!r}); "
        "regenerate it with benchmarks/test_bench_accuracy.py",
    )
    floors = baseline.get("floors")
    require(
        isinstance(floors, dict) and bool(floors),
        f"{baseline_path} has no floor thresholds; "
        "regenerate it with benchmarks/test_bench_accuracy.py",
    )
    scenario = scenario or baseline.get("scenario") or "small"
    if scorecard is None:
        from repro.eval.scorecard import build_scorecard
        from repro.experiments.scenarios import cached_study

        scorecard = build_scorecard(cached_study(scenario), scenario=scenario)
    return compare_to_floors(floors, scorecard, baseline_path, scenario)
