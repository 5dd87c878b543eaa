"""Full-study report generation: every paper artifact as one text document.

Used by the CLI (``python -m repro study``) and handy in notebooks::

    from repro.report import build_report
    print(build_report(study, sections=("t1", "t2")))
"""

from __future__ import annotations

from typing import Callable

from repro._util import require
from repro.core.pipeline import Study

#: Section id -> (title, renderer).
_SECTIONS: dict[str, tuple[str, Callable[[Study], str]]] = {}


def _register(section_id: str, title: str):
    def decorator(fn: Callable[[Study], str]):
        _SECTIONS[section_id] = (title, fn)
        return fn

    return decorator


@_register("s21", "Section 2.1: offnets serve most hypergiant traffic (anecdote)")
def _s21(study: Study) -> str:
    from repro.experiments.section21_anecdote import run_section21

    return run_section21(study).render()


@_register("ce", "Section 2.1: offnet fractions as emergent cache hit ratios")
def _ce(study: Study) -> str:
    from repro.experiments.cache_emergence import run_cache_emergence

    del study  # catalog simulation is independent of the generated Internet
    return run_cache_emergence().render()


@_register("t1", "Table 1: offnet footprint growth (2021 vs 2023)")
def _t1(study: Study) -> str:
    from repro.experiments.table1 import run_table1

    return run_table1(study).render()


@_register("f1", "Figure 1: per-country users in multi-hypergiant ISPs")
def _f1(study: Study) -> str:
    from repro.experiments.figure1 import run_figure1

    result = run_figure1(study)
    return result.summary() + "\n\n" + result.render()


@_register("t2", "Table 2: colocation of offnets across hypergiants")
def _t2(study: Study) -> str:
    from repro.experiments.table2 import run_table2

    return run_table2(study).render()


@_register("f2", "Figure 2: single-facility traffic concentration")
def _f2(study: Study) -> str:
    from repro.experiments.figure2 import run_figure2

    return run_figure2(study).render()


@_register("s32", "Section 3.2: cohosting and cluster validation")
def _s32(study: Study) -> str:
    from repro.experiments.section32 import run_section32

    return run_section32(study).render()


@_register("s41", "Section 4.1: offnet capacity and the COVID surge")
def _s41(study: Study) -> str:
    from repro.experiments.section41_capacity import run_section41

    return run_section41(study, covid_sample=60).render()


@_register("s42", "Section 4.2: peering coverage and PNI headroom")
def _s42(study: Study) -> str:
    from repro.experiments.section42_peering import run_section42

    return run_section42(study, n_regions=4).render()


@_register("s43", "Section 4.3: correlated failures and collateral damage")
def _s43(study: Study) -> str:
    from repro.experiments.section43_collateral import run_section43

    return run_section43(study, sample=60).render()


@_register("s33", "Section 3.3: correlated risk (joint-outage inflation)")
def _s33(study: Study) -> str:
    from repro.core.correlation import build_correlation_report

    return build_correlation_report(study.history.state("2023"), study.population).render()


@_register("sb", "Section 3.2: steering eras vs the 2013 mapping technique")
def _sb(study: Study) -> str:
    from repro.experiments.steering_blindness import run_steering_blindness

    return run_steering_blindness(study).render()


@_register("s6", "Section 6: mitigation directions (isolation, upgrades)")
def _s6(study: Study) -> str:
    from repro.experiments.section6_mitigations import run_section6

    return run_section6(study).render()


@_register("long", "Section 3.1: the longitudinal cohosting trend (2017-2023)")
def _long(study: Study) -> str:
    from repro._util import format_table
    from repro.deployment.growth import DEFAULT_EPOCH_TRAJECTORIES
    from repro.timeline import TimelineSpec, build_timeline

    timeline = build_timeline(
        study.internet,
        TimelineSpec(start="2017Q1", end="2023Q1", anchors=DEFAULT_EPOCH_TRAJECTORIES, seed=3),
    )
    rows = []
    for epoch in ("2017", "2019", "2021", "2023"):
        state = timeline.state_at(f"{epoch}Q1")
        hosting = state.hosting_isps()
        at_least_2 = sum(1 for isp in hosting if len(state.hypergiants_in(isp)) >= 2)
        rows.append(
            [epoch]
            + [len(state.isps_hosting(hg)) for hg in ("Google", "Netflix", "Meta", "Akamai")]
            + [at_least_2]
        )
    return format_table(["epoch", "Google", "Netflix", "Meta", "Akamai", "ISPs >=2 HGs"], rows)


@_register("fc", "Section 3.3: a flash crowd on the shared facility uplink")
def _fc(study: Study) -> str:
    from repro._util import format_table
    from repro.capacity.demand import DemandModel
    from repro.capacity.flashcrowd import FlashCrowdEvent, colocated_vs_dispersed
    from repro.experiments.section43_collateral import most_shared_facility

    state = study.history.state("2023")
    facility_id, hypergiants = most_shared_facility(study)
    isp = next(s for s in state.servers if s.facility.facility_id == facility_id).isp
    demand = DemandModel(traffic=study.traffic)
    steady = {hg: demand.hypergiant_peak_gbps(isp, hg) for hg in hypergiants}
    target = "Netflix" if "Netflix" in steady else sorted(steady)[0]
    colocated, _dispersed = colocated_vs_dispersed(steady, FlashCrowdEvent(target, 4.0))
    rows = [
        [
            name,
            f"{100 * colocated.bystander_loss_fraction(name):.1f}%",
            f"{colocated.degraded_minutes(name)} min",
        ]
        for name in sorted(steady)
        if name != target
    ]
    header = (
        f"x4.0 surge on {target} at facility {facility_id} "
        f"(uplink peak utilization x{colocated.peak_utilization:.2f}); dispersed: zero loss"
    )
    return header + "\n" + format_table(["bystander", "bytes lost (colocated)", "degraded"], rows)


@_register("cf", "Counterfactual: a dispersal mandate vs the status quo")
def _cf(study: Study) -> str:
    from repro.experiments.counterfactual_dispersal import run_dispersal_counterfactual

    return run_dispersal_counterfactual(study).render()


@_register("acc", "Accuracy: the inference pipeline scored against ground truth")
def _acc(study: Study) -> str:
    return study.scorecard().render()


@_register("cov", "Coverage: measurement surface lost to faults and quarantines")
def _cov(study: Study) -> str:
    return study.coverage.render()


@_register("obs", "Telemetry: stage timings, resources, flights, metrics")
def _obs(study: Study) -> str:
    from repro.obs import (
        aggregate_stages,
        render_filter_funnel,
        render_metrics_table,
        render_profile,
        render_span_tree,
    )

    if study.telemetry is None or not study.telemetry.enabled:
        return (
            "telemetry was not captured for this study\n"
            "(run with --trace / --metrics-out, or pass telemetry=Telemetry.capture() to run_study)"
        )
    blocks = [
        "stage timings:\n" + render_span_tree(study.telemetry.tracer),
        "filter funnel:\n" + render_filter_funnel(study.telemetry.metrics),
        "metrics:\n" + render_metrics_table(study.telemetry.metrics),
    ]
    if any("cpu_ms" in stage for stage in aggregate_stages(study.telemetry).values()):
        blocks.insert(1, "resource profile:\n" + render_profile(study.telemetry))
    if study.telemetry.flight.records:
        blocks.append("executor flights:\n" + study.telemetry.flight.render())
    return "\n\n".join(blocks)


def available_sections() -> list[str]:
    """Section ids, in presentation order."""
    return list(_SECTIONS)


def build_report(study: Study, sections: tuple[str, ...] | None = None) -> str:
    """Render the selected ``sections`` (default: all) for ``study``."""
    chosen = list(sections) if sections else available_sections()
    for section_id in chosen:
        require(section_id in _SECTIONS, f"unknown report section {section_id!r}")
    blocks = []
    for section_id in chosen:
        title, renderer = _SECTIONS[section_id]
        underline = "=" * len(title)
        blocks.append(f"{title}\n{underline}\n{renderer(study)}")
    return "\n\n\n".join(blocks)
