"""S32 — §3.1/§3.2 narrative numbers and the hostname validation.

Paper: of 5516 ISPs hosting >= 1 hypergiant (2023), 3382 host >= 2, 1880
host >= 3, and 505 host all four — an increase in cohosting since 2021,
when ~2840 hosted at least two, ~1690 at least three, and ~430 all four
("multi-hypergiant hosting will continue to increase over time").
Validation: at xi = 0.1, 60 clusters had >= 2 located hostnames — 55
single-city, 3 single-metro, 2 multi-city-same-country; at xi = 0.9, 34
clusters — 30 / 2 / 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro._util import format_table
from repro.core.pipeline import Study
from repro.rdns.validation import ConsistencyClass, ValidationSummary
from repro.scan.detection import OffnetInventory

#: Paper cohosting counts per epoch (2021 values are the SIGCOMM'21
#: study's, quoted in §3.1 as approximations).
PAPER_COHOSTING = {1: 5516, 2: 3382, 3: 1880, 4: 505}
PAPER_COHOSTING_2021 = {2: 2840, 3: 1690, 4: 430}


def cohosting_counts(inventory: OffnetInventory) -> dict[int, int]:
    """ISPs hosting >= k hypergiants (k = 1..4) in one inventory.

    The §3.1 cohosting distribution for a single epoch; the timeline
    engine evaluates it per quarter to plot cohosting over time.
    """
    counts = {asn: len(inventory.hypergiants_in_isp(asn)) for asn in inventory.hosting_isp_asns()}
    return {k: sum(1 for n in counts.values() if n >= k) for k in (1, 2, 3, 4)}


@dataclass
class Section32Result:
    """Cohosting distribution (2023 and 2021) plus validation per xi."""

    cohosting: dict[int, int] = field(default_factory=dict)
    cohosting_2021: dict[int, int] = field(default_factory=dict)
    validations: dict[float, ValidationSummary] = field(default_factory=dict)

    def cohosting_fraction(self, k: int) -> float:
        """Fraction of hosting ISPs with >= k hypergiants (2023)."""
        total = self.cohosting.get(1, 0)
        return self.cohosting.get(k, 0) / total if total else 0.0

    def cohosting_increased(self, k: int) -> bool:
        """§3.1's longitudinal claim: more k-cohosting in 2023 than 2021."""
        return self.cohosting.get(k, 0) >= self.cohosting_2021.get(k, 0)

    def render(self) -> str:
        """Cohosting (both epochs) and validation tables, measured vs paper."""
        headers = ["ISPs hosting", "2021", "2023", "2023 frac", "paper 2021", "paper 2023"]
        rows = []
        for k in (1, 2, 3, 4):
            rows.append(
                [
                    f">= {k} HGs" if k < 4 else "all 4 HGs",
                    self.cohosting_2021.get(k, 0),
                    self.cohosting.get(k, 0),
                    f"{100 * self.cohosting_fraction(k):.0f}%",
                    PAPER_COHOSTING_2021.get(k, "-"),
                    PAPER_COHOSTING[k],
                ]
            )
        blocks = [format_table(headers, rows)]
        for xi in sorted(self.validations):
            summary = self.validations[xi]
            blocks.append(
                f"validation @ xi={xi}: {summary.checkable_clusters} checkable clusters, "
                f"{summary.count(ConsistencyClass.SINGLE_CITY)} single-city, "
                f"{summary.count(ConsistencyClass.SINGLE_METRO)} single-metro, "
                f"{summary.count(ConsistencyClass.SINGLE_COUNTRY)} same-country, "
                f"{summary.count(ConsistencyClass.MULTI_COUNTRY)} multi-country "
                f"({100 * summary.consistent_fraction:.0f}% consistent)"
            )
        return "\n\n".join(blocks)


def run_section32(study: Study) -> Section32Result:
    """Count cohosting levels in both epochs and validate clusters at every xi."""
    result = Section32Result(
        cohosting=cohosting_counts(study.latest_inventory),
        cohosting_2021=cohosting_counts(study.inventories["2021"]),
    )
    for xi in study.config.xis:
        result.validations[xi] = study.validation(xi)
    return result
