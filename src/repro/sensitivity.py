"""Seed sensitivity: distribution of every headline metric across seeds.

A reproduction on a *synthetic* substrate must show its numbers are
properties of the model, not of one lucky seed.  :func:`run_sensitivity`
expands a seed axis into a :mod:`repro.sweep` campaign, runs each seed's
compact study and returns the campaign's report: per-seed values plus
each metric's mean / spread / range and the seeds on which its
paper-shape band failed.

:class:`MetricSpec` now lives in :mod:`repro.sweep.metrics` (re-exported
here unchanged) so every campaign — not just seed sensitivity — shares
the same named-observable abstraction.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Callable, Generic, TypeVar

from repro._util import require
from repro.core.pipeline import Study, StudyConfig
from repro.sweep.campaign import CampaignReport, run_campaign
from repro.sweep.grid import ParameterGrid
from repro.sweep.metrics import MetricSpec
from repro.topology.generator import InternetConfig

if TYPE_CHECKING:  # pragma: no cover - typing only; the experiments import lazily
    from repro.experiments.figure2 import Figure2Result
    from repro.experiments.section41_capacity import CovidResult
    from repro.experiments.table1 import Table1Result

_T = TypeVar("_T")


class _OncePerStudy(Generic[_T]):
    """``experiment(study)``, kept for the last study it ran on, so the
    metrics that read one experiment run it once per study."""

    def __init__(self, experiment: Callable[[Study], _T]) -> None:
        self._experiment = experiment
        self._last: tuple[weakref.ref[Study], _T] | None = None

    def __call__(self, study: Study) -> _T:
        last = self._last  # one read, one write: racing threads only recompute
        if last is not None and last[0]() is study:
            return last[1]
        result = self._experiment(study)
        self._last = (weakref.ref(study), result)
        return result


@_OncePerStudy
def _table1(study: Study) -> Table1Result:
    from repro.experiments.table1 import run_table1

    return run_table1(study)


def _google_growth(study: Study) -> float:
    return _table1(study).growth_percent("Google")


def _netflix_growth(study: Study) -> float:
    return _table1(study).growth_percent("Netflix")


def _cohosting_2(study: Study) -> float:
    from repro.experiments.section32 import Section32Result, cohosting_counts

    return Section32Result(cohosting=cohosting_counts(study.latest_inventory)).cohosting_fraction(2)


@_OncePerStudy
def _figure2(study: Study) -> Figure2Result:
    from repro.experiments.figure2 import run_figure2

    return run_figure2(study)


def _hosting_users(study: Study) -> float:
    return _figure2(study).coverage["hosting"]


def _share25_high(study: Study) -> float:
    return _figure2(study).share25_range()[1]


@_OncePerStudy
def _covid(study: Study) -> CovidResult:
    from repro.experiments.section41_capacity import run_covid_experiment

    return run_covid_experiment(study, sample=25)


def _covid_offnet_change(study: Study) -> float:
    return _covid(study).offnet_change


def _covid_interdomain_ratio(study: Study) -> float:
    return _covid(study).interdomain_ratio


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
) -> CampaignReport:
    """Run compact studies across ``seeds`` and collect :data:`DEFAULT_METRICS`.

    A :func:`repro.sweep.campaign.run_campaign` over
    :func:`sensitivity_grid`, one cell per seed; values are identical to
    the historical serial loop.
    """
    grid = sensitivity_grid(seeds, n_access_isps=n_access_isps, n_vantage_points=n_vantage_points)
    return run_campaign(grid, metrics=DEFAULT_METRICS)
