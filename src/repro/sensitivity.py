"""Seed sensitivity: distribution of every headline metric across seeds.

A reproduction on a *synthetic* substrate must show its numbers are
properties of the model, not of one lucky seed.  :func:`run_sensitivity`
expands a seed axis into a :mod:`repro.sweep` campaign, runs each seed's
compact study (optionally resumable through a
:class:`~repro.store.StudyStore`, optionally parallel), and collects
each headline metric; :class:`SensitivityReport` summarises mean /
spread / range and flags metrics whose paper-shape assertion failed on
any seed.

:class:`MetricSpec` now lives in :mod:`repro.sweep.metrics` (re-exported
here unchanged) so every campaign — not just seed sensitivity — shares
the same named-observable abstraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._util import format_table, require
from repro.core.pipeline import Study, StudyConfig
from repro.parallel import ParallelConfig
from repro.store import StudyStore
from repro.sweep.grid import ParameterGrid
from repro.sweep.metrics import MetricSpec
from repro.topology.generator import InternetConfig


def _google_growth(study: Study) -> float:
    from repro.experiments.table1 import run_table1

    return run_table1(study).growth_percent("Google")


def _netflix_growth(study: Study) -> float:
    from repro.experiments.table1 import run_table1

    return run_table1(study).growth_percent("Netflix")


def _cohosting_2(study: Study) -> float:
    from repro.experiments.section32 import run_section32

    return run_section32(study).cohosting_fraction(2)


def _hosting_users(study: Study) -> float:
    from repro.experiments.figure2 import run_figure2

    return run_figure2(study).coverage["hosting"]


def _share25_high(study: Study) -> float:
    from repro.experiments.figure2 import run_figure2

    return run_figure2(study).share25_range()[1]


def _covid_offnet_change(study: Study) -> float:
    from repro.experiments.section41_capacity import run_covid_experiment

    return run_covid_experiment(study, sample=25).offnet_change


def _covid_interdomain_ratio(study: Study) -> float:
    from repro.experiments.section41_capacity import run_covid_experiment

    return run_covid_experiment(study, sample=25).interdomain_ratio


def _full_colocation_netflix(study: Study) -> float:
    from repro.experiments.table2 import run_table2

    return run_table2(study).full_colocation("Netflix", 0.9)


DEFAULT_METRICS: tuple[MetricSpec, ...] = (
    MetricSpec("Google growth %", _google_growth, 17.0, 30.0, "+23.2%"),
    MetricSpec("Netflix growth %", _netflix_growth, 30.0, 45.0, "+37.4%"),
    MetricSpec("cohosting >=2 frac", _cohosting_2, 0.5, 0.95, "0.61"),
    MetricSpec("users in hosting ISPs", _hosting_users, 0.45, 0.95, "0.76"),
    MetricSpec("share>=25% users (high)", _share25_high, 0.5, 1.0, "0.71-0.82"),
    MetricSpec("COVID offnet change", _covid_offnet_change, 0.05, 0.45, "~+0.20"),
    MetricSpec("COVID interdomain ratio", _covid_interdomain_ratio, 1.8, 5.0, ">2"),
    MetricSpec("Netflix full colocation @0.9", _full_colocation_netflix, 0.4, 1.0, "0.71"),
)


@dataclass
class SensitivityReport:
    """Per-metric distributions across the seed set."""

    seeds: tuple[int, ...]
    values: dict[str, list[float]] = field(default_factory=dict)
    specs: dict[str, MetricSpec] = field(default_factory=dict)

    def mean(self, name: str) -> float:
        """Mean of one metric over seeds."""
        return float(np.mean(self.values[name]))

    def std(self, name: str) -> float:
        """Standard deviation of one metric over seeds."""
        return float(np.std(self.values[name]))

    def out_of_band(self, name: str) -> int:
        """How many seeds violated the metric's acceptance band."""
        spec = self.specs[name]
        return sum(1 for value in self.values[name] if not spec.within_band(value))

    @property
    def all_within_bands(self) -> bool:
        """Whether every metric held its shape on every seed."""
        return all(self.out_of_band(name) == 0 for name in self.values)

    def render(self) -> str:
        """Summary table across seeds."""
        headers = ["metric", "mean", "std", "min", "max", "paper", "violations"]
        rows = []
        for name, series in self.values.items():
            rows.append(
                [
                    name,
                    f"{np.mean(series):.3f}",
                    f"{np.std(series):.3f}",
                    f"{min(series):.3f}",
                    f"{max(series):.3f}",
                    self.specs[name].paper_value,
                    f"{self.out_of_band(name)}/{len(series)}",
                ]
            )
        return format_table(headers, rows)


def sensitivity_grid(
    seeds: tuple[int, ...],
    n_access_isps: int = 70,
    n_vantage_points: int = 40,
) -> ParameterGrid:
    """The seed-sensitivity campaign as a declarative grid.

    One linked axis varies the study seed and the topology seed together,
    exactly the configs the original serial loop built.
    """
    require(bool(seeds), "need at least one seed")
    base = StudyConfig(
        internet=InternetConfig(seed=seeds[0], n_access_isps=n_access_isps, n_ixps=22),
        n_vantage_points=n_vantage_points,
        seed=seeds[0],
    )
    return ParameterGrid.of(base, {"seed,internet.seed": [int(seed) for seed in seeds]})


def run_sensitivity(
    seeds: tuple[int, ...] = (11, 22, 33, 44, 55),
    n_access_isps: int = 70,
    n_vantage_points: int = 40,
    metrics: tuple[MetricSpec, ...] = DEFAULT_METRICS,
    store: StudyStore | None = None,
    parallel: ParallelConfig | None = None,
) -> SensitivityReport:
    """Run compact studies across ``seeds`` and collect ``metrics``.

    Implemented as a :func:`repro.sweep.campaign.run_campaign` over
    :func:`sensitivity_grid`: pass ``store`` to make the run durable and
    resumable (each seed checkpoints as it completes), ``parallel`` to
    fan seeds out across the worker pool.  Values are identical to
    the historical serial loop.
    """
    from repro.sweep.campaign import run_campaign

    grid = sensitivity_grid(seeds, n_access_isps=n_access_isps, n_vantage_points=n_vantage_points)
    campaign = run_campaign(grid, metrics=metrics, store=store, parallel=parallel)
    report = SensitivityReport(seeds=tuple(int(seed) for seed in seeds))
    for spec in metrics:
        report.specs[spec.name] = spec
        report.values[spec.name] = campaign.series(spec.name)
    return report
