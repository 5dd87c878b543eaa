"""Canonical seeded scenario presets.

Three sizes: ``SMALL`` runs the whole pipeline in a few seconds and backs
the test suite; ``DEFAULT`` approximates the study's scale relative to our
synthetic Internet and backs the benchmark harnesses; ``LARGE`` stresses
scalability.  :func:`cached_study` memoises pipeline runs per scenario so a
benchmark session pays for each study once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.pipeline import Study, StudyConfig, run_study
from repro.faults import FaultPlan
from repro.obs import Telemetry
from repro.resilience import ResilienceConfig
from repro.parallel import ParallelConfig
from repro.scan.evasion import EvasionConfig
from repro.store import StudyStore, config_fingerprint
from repro.topology.generator import InternetConfig


@dataclass(frozen=True)
class StudyScenario:
    """A named, fully-pinned study configuration."""

    name: str
    config: StudyConfig
    #: Source regions for the traceroute campaign.
    n_traceroute_regions: int
    #: ISPs sampled in the capacity/cascade analyses (None = all).
    capacity_sample: int | None

    def run(
        self,
        telemetry: Telemetry | None = None,
        parallel: ParallelConfig | None = None,
        faults: "FaultPlan | None" = None,
        resilience: "ResilienceConfig | None" = None,
    ) -> Study:
        """Run the pipeline for this scenario (uncached).

        ``parallel`` overrides the scenario's execution backend/workers; it
        never changes the artifacts (see :mod:`repro.parallel`).  ``faults``
        and ``resilience`` wire a deterministic fault plan and the retry /
        supervision layer into the run (see :mod:`repro.faults`).
        """
        overrides = {}
        if parallel is not None:
            overrides["parallel"] = parallel
        if faults is not None:
            overrides["faults"] = faults
        if resilience is not None:
            overrides["resilience"] = resilience
        config = replace(self.config, **overrides) if overrides else self.config
        return run_study(config, telemetry=telemetry)


SMALL_SCENARIO = StudyScenario(
    name="small",
    config=StudyConfig(
        internet=InternetConfig(seed=1, n_access_isps=60, n_ixps=25),
        n_vantage_points=40,
        seed=1,
    ),
    n_traceroute_regions=4,
    capacity_sample=30,
)

DEFAULT_SCENARIO = StudyScenario(
    name="default",
    config=StudyConfig(
        internet=InternetConfig(seed=7, n_access_isps=700),
        n_vantage_points=163,
        seed=7,
    ),
    n_traceroute_regions=8,
    capacity_sample=120,
)

LARGE_SCENARIO = StudyScenario(
    name="large",
    config=StudyConfig(
        internet=InternetConfig(seed=11, n_access_isps=1400),
        n_vantage_points=163,
        seed=11,
    ),
    n_traceroute_regions=8,
    capacity_sample=200,
)

#: Fraction of offnet servers adopting the evasion in each adversarial
#: variant (one knob per variant, everything else identical to ``small``).
EVASION_FRACTION = 0.3


def _evasion_variant(base: StudyScenario, suffix: str, evasion: EvasionConfig) -> StudyScenario:
    """An adversarial copy of ``base`` with evading offnet certificates."""
    return StudyScenario(
        name=f"{base.name}-{suffix}",
        config=replace(base.config, scan=replace(base.config.scan, evasion=evasion)),
        n_traceroute_regions=base.n_traceroute_regions,
        capacity_sample=base.capacity_sample,
    )


SMALL_ROTATING_SANS = _evasion_variant(
    SMALL_SCENARIO, "rotating-sans", EvasionConfig(rotating_san_fraction=EVASION_FRACTION)
)
SMALL_SHARED_WILDCARD = _evasion_variant(
    SMALL_SCENARIO, "shared-wildcard", EvasionConfig(shared_wildcard_fraction=EVASION_FRACTION)
)
SMALL_CERTLESS_QUIC = _evasion_variant(
    SMALL_SCENARIO, "certless-quic", EvasionConfig(certless_quic_fraction=EVASION_FRACTION)
)

#: The adversarial certificate-evasion variants, in presentation order.
EVASION_SCENARIOS = (SMALL_ROTATING_SANS, SMALL_SHARED_WILDCARD, SMALL_CERTLESS_QUIC)

_BY_NAME = {
    s.name: s
    for s in (SMALL_SCENARIO, DEFAULT_SCENARIO, LARGE_SCENARIO, *EVASION_SCENARIOS)
}


def scenario_by_name(name: str) -> StudyScenario:
    """Look up a preset by name."""
    return _BY_NAME[name]


def scenario_names() -> list[str]:
    """Every registered scenario name (presets + evasion variants)."""
    return list(_BY_NAME)


#: Process-memory front layer, keyed by the *full* config fingerprint —
#: never by scenario name, so two scenarios sharing a name but differing
#: in any knob (even the parallel backend) can never collide.
_STUDY_CACHE: dict[str, Study] = {}


def cached_study(scenario: str | StudyScenario, store: StudyStore | None = None) -> Study:
    """Run (once) and cache the study for a scenario.

    Two cache layers: a process-memory dict keyed by
    :func:`repro.store.config_fingerprint` of the scenario's config, and
    — when ``store`` is given — a durable
    :class:`~repro.store.StudyStore` consulted on memory misses and
    warmed after fresh runs, so a new process pays only the (cheap)
    rehydration cost instead of the full pipeline.
    """
    if isinstance(scenario, str):
        scenario = scenario_by_name(scenario)
    key = config_fingerprint(scenario.config)
    if key in _STUDY_CACHE:
        return _STUDY_CACHE[key]
    study = store.get(scenario.config) if store is not None else None
    if study is None:
        study = scenario.run()
        if store is not None:
            store.put(study)
    _STUDY_CACHE[key] = study
    return study


# Backwards-friendly alias used in module docs.
Scenario = StudyScenario
