"""F1 — Figure 1: per-country users in ISPs hosting >= k hypergiants.

The paper draws three world maps (k = 2, 3, 4) and observes: in many
countries the majority of users are in ISPs hosting >= 2 hypergiants;
Europe and Africa thin out markedly between k = 2 and k = 3; and a few
countries (Mexico, Bolivia, Uruguay, New Zealand, Mongolia, Greenland) have
all or nearly all users in 4-hypergiant ISPs.  We emit the same per-country
fractions (the data behind the choropleth).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro._util import format_table
from repro.core.country import CountryHostingResult, country_hosting_fractions
from repro.core.pipeline import Study
from repro.population.users import PopulationDataset
from repro.scan.detection import OffnetInventory

#: Countries the paper calls out as ~fully covered at k = 4.
PAPER_FULL_K4_COUNTRIES = ("MX", "BO", "UY", "NZ", "MN", "GL")


def figure1_panels(
    inventory: OffnetInventory,
    population: PopulationDataset,
    ks: tuple[int, ...] = (2, 3, 4),
) -> dict[int, CountryHostingResult]:
    """The Figure-1 panels for one inventory (any epoch).

    The per-inventory core of :func:`run_figure1`; the timeline engine
    calls it per quarter to trace the choropleth data over time.
    """
    return {k: country_hosting_fractions(inventory, population, k) for k in ks}


@dataclass
class Figure1Result:
    """The three panels (k = 2, 3, 4) for the 2023 inventory."""

    panels: dict[int, CountryHostingResult] = field(default_factory=dict)

    def majority_country_count(self, k: int) -> int:
        """Countries where the majority of users are in >= k-HG ISPs."""
        return len(self.panels[k].countries_above(0.5))

    def render(self) -> str:
        """Per-country fractions for all three thresholds."""
        countries = sorted(self.panels[2].fraction_by_country)
        headers = ["Country", ">=2 HGs", ">=3 HGs", "4 HGs"]
        rows = []
        for code in countries:
            rows.append(
                [
                    code,
                    f"{100 * self.panels[2].fraction(code):.0f}%",
                    f"{100 * self.panels[3].fraction(code):.0f}%",
                    f"{100 * self.panels[4].fraction(code):.0f}%",
                ]
            )
        return format_table(headers, rows)

    def summary(self) -> str:
        """The headline comparisons the paper draws from the maps."""
        lines = []
        for k in (2, 3, 4):
            count = self.majority_country_count(k)
            lines.append(f">= {k} hypergiants: majority-of-users countries = {count}")
        full = self.panels[4].countries_above(0.9)
        lines.append(f"countries ~fully covered at k=4: {', '.join(full) if full else '(none)'}")
        return "\n".join(lines)


def run_figure1(study: Study) -> Figure1Result:
    """Compute the three Figure-1 panels from the 2023 inventory."""
    return Figure1Result(panels=figure1_panels(study.latest_inventory, study.population))
