"""S42 — §4.2: peering coverage (traceroutes) and PNI headroom.

§4.2.1 paper values: of 4697 ISPs with Google offnets, 38.2 % peer with
Google, 13.3 % show only unresponsive hops between Google and the ISP
("possible"), 48.4 % show no evidence.  Of all inferred Google peers,
62.2 % peer via an IXP in at least one traceroute and 42.5 % only appear
connected through an IXP.

§4.2.2: dedicated PNIs that exist often lack capacity — Google peak demand
exceeded capacity by >= 13 % on average, Meta found 10 % of PNIs seeing
demand at twice capacity.  We report the same statistics over our
provisioned plans.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._util import format_table
from repro.capacity.demand import DemandModel
from repro.capacity.links import build_capacity_plan
from repro.core.pipeline import Study
from repro.traceroute.peering import (
    CampaignConfig,
    PeeringEvidence,
    PeeringInference,
    run_peering_campaign,
    score_peering_inference,
)

#: Paper fractions for ISPs hosting Google offnets.
PAPER_PEER_FRACTION = 0.382
PAPER_POSSIBLE_FRACTION = 0.133
PAPER_NO_EVIDENCE_FRACTION = 0.484
PAPER_IXP_AT_LEAST_ONCE = 0.622
PAPER_IXP_ONLY = 0.425
#: §4.2.2: share of PNIs that saw demand at >= 2x capacity (Meta).
PAPER_PNI_TWICE_OVERLOADED = 0.10


@dataclass
class PniHeadroomResult:
    """Peak-demand-vs-capacity statistics over provisioned PNIs."""

    hypergiant: str
    n_pnis: int
    overloaded_fraction: float
    twice_overloaded_fraction: float
    mean_peak_excess: float


@dataclass
class Section42Result:
    """Traceroute inference stats plus PNI headroom stats."""

    hypergiant: str
    inference: PeeringInference | None = None
    counts: dict[PeeringEvidence, int] = field(default_factory=dict)
    n_hosting: int = 0
    precision: float = 1.0
    recall: float = 0.0
    pni_headroom: dict[str, PniHeadroomResult] = field(default_factory=dict)

    def fraction(self, evidence: PeeringEvidence) -> float:
        """Evidence-class share among offnet-hosting ISPs."""
        return self.counts.get(evidence, 0) / self.n_hosting if self.n_hosting else 0.0

    def render(self) -> str:
        """§4.2.1 and §4.2.2 tables, measured vs paper."""
        headers = ["§4.2.1 statistic", "measured", "paper"]
        fractions = [
            ("peer", self.fraction(PeeringEvidence.PEER), PAPER_PEER_FRACTION),
            ("possible (unresponsive)", self.fraction(PeeringEvidence.POSSIBLE_PEER), PAPER_POSSIBLE_FRACTION),
            ("no evidence", self.fraction(PeeringEvidence.NO_EVIDENCE), PAPER_NO_EVIDENCE_FRACTION),
            ("peers via IXP at least once", self.inference.ixp_at_least_once_fraction(), PAPER_IXP_AT_LEAST_ONCE),
            ("peers only via IXP", self.inference.ixp_only_fraction(), PAPER_IXP_ONLY),
        ]
        rows = [[label, f"{100 * measured:.1f}%", f"{100 * paper:.1f}%"] for label, measured, paper in fractions]
        rows += [
            ["inference precision (vs ground truth)", f"{self.precision:.3f}", "n/a"],
            ["inference recall (vs ground truth)", f"{self.recall:.3f}", "n/a"],
        ]
        blocks = [format_table(headers, rows)]
        headers2 = ["§4.2.2 PNI headroom", "n", "peak>cap", "peak>=2x cap", "mean peak excess"]
        rows2 = []
        for hypergiant in sorted(self.pni_headroom):
            stat = self.pni_headroom[hypergiant]
            rows2.append(
                [
                    hypergiant,
                    stat.n_pnis,
                    f"{100 * stat.overloaded_fraction:.0f}%",
                    f"{100 * stat.twice_overloaded_fraction:.0f}%",
                    f"{100 * stat.mean_peak_excess:+.0f}%",
                ]
            )
        blocks.append(format_table(headers2, rows2))
        return "\n\n".join(blocks)


def run_pni_headroom(study: Study, seed: int = 11) -> dict[str, PniHeadroomResult]:
    """§4.2.2: compare each provisioned PNI against normal peak demand."""
    state = study.history.state("2023")
    demand = DemandModel(traffic=study.traffic)
    plans = build_capacity_plan(study.internet, state, demand, seed=seed)
    results: dict[str, PniHeadroomResult] = {}
    for hypergiant in ("Google", "Netflix", "Meta", "Akamai"):
        ratios = []
        for asn, plan in plans.items():
            pni = plan.pni.get(hypergiant)
            if pni is None:
                continue
            # Offnets serve at most the cacheable slice, regardless of their
            # raw capacity; the rest rides the PNI at peak.
            peak_total = demand.hypergiant_peak_gbps(plan.isp, hypergiant)
            peak_eligible = demand.offnet_eligible_gbps(plan.isp, hypergiant, hour=20)
            peak_offnet = min(plan.offnet_capacity_gbps(hypergiant), peak_eligible)
            peak_interdomain = max(0.0, peak_total - peak_offnet)
            if pni.capacity_gbps > 0:
                ratios.append(peak_interdomain / pni.capacity_gbps)
        ratios_array = np.array(ratios) if ratios else np.array([0.0])
        results[hypergiant] = PniHeadroomResult(
            hypergiant=hypergiant,
            n_pnis=len(ratios),
            overloaded_fraction=float((ratios_array > 1.0).mean()),
            twice_overloaded_fraction=float((ratios_array >= 2.0).mean()),
            mean_peak_excess=float(np.maximum(0.0, ratios_array - 1.0).mean()),
        )
    return results


def run_section42(
    study: Study,
    hypergiant: str = "Google",
    n_regions: int = 8,
    seed: int = 9,
) -> Section42Result:
    """The §4.2.1 campaign (from ``hypergiant``) plus §4.2.2 headroom."""
    state = study.history.state("2023")
    hosting = state.isps_hosting(hypergiant)
    inference = run_peering_campaign(
        study.internet,
        hypergiant,
        hosting,
        CampaignConfig(n_regions=n_regions, targets_per_isp=2),
        seed=seed,
    )
    score = score_peering_inference(study.internet, hypergiant, inference)
    result = Section42Result(
        hypergiant=hypergiant,
        inference=inference,
        counts=inference.counts_for([isp.asn for isp in hosting]),
        n_hosting=len(hosting),
        precision=score.precision,
        recall=score.recall,
    )
    result.pni_headroom = run_pni_headroom(study)
    return result
