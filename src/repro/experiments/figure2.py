"""F2 — Figure 2: CCDF of per-user single-facility traffic share.

Paper headlines: 76 % of Internet users are in ISPs with at least one
offnet; 56 % are in ISPs analyzable for colocation; of those, 71-82 % have
a local facility able to serve >= 25 % of their traffic; 18-31 % (10-17 %
of *all* users) have a facility hosting all four hypergiants, which could
serve 52 % of their traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._util import format_table
from repro.core.concentration import ConcentrationResult, coverage_statistics
from repro.core.pipeline import Study

#: Paper headline ranges (fractions).
PAPER_HOSTING_USER_FRACTION = 0.76
PAPER_ANALYZABLE_USER_FRACTION = 0.56
PAPER_SHARE25_RANGE = (0.71, 0.82)
PAPER_FOUR_HG_RANGE = (0.18, 0.31)
PAPER_FOUR_HG_SHARE = 0.52


@dataclass
class Figure2Result:
    """The CCDF inputs per xi plus the coverage headlines."""

    concentrations: dict[float, ConcentrationResult] = field(default_factory=dict)
    coverage: dict[str, float] = field(default_factory=dict)

    def ccdf(self, xi: float) -> tuple[np.ndarray, np.ndarray]:
        """(x, P(share >= x)) series for one xi (a Figure-2 curve)."""
        return self.concentrations[xi].ccdf_points()

    def share25_range(self) -> tuple[float, float]:
        """Across xis: fraction of covered users with a >= 25 %-share facility."""
        values = [c.user_fraction_with_share_at_least(0.25) for c in self.concentrations.values()]
        return (min(values), max(values))

    def four_hg_range(self) -> tuple[float, float]:
        """Across xis: fraction of covered users with a 4-HG facility."""
        values = [c.user_fraction_with_hypergiants_at_least(4) for c in self.concentrations.values()]
        return (min(values), max(values))

    def render(self) -> str:
        """Headline table, measured vs paper."""
        share_low, share_high = self.share25_range()
        four_low, four_high = self.four_hg_range()
        headers = ["Statistic", "measured", "paper"]
        rows = [
            ["users in ISPs with offnets", _percent(self.coverage["hosting"]), _percent(PAPER_HOSTING_USER_FRACTION)],
            ["users in analyzable ISPs", _percent(self.coverage["analyzable"]), _percent(PAPER_ANALYZABLE_USER_FRACTION)],
            ["covered users w/ facility serving >=25%", _percent(share_low, share_high), _percent(*PAPER_SHARE25_RANGE)],
            ["covered users w/ 4-HG facility", _percent(four_low, four_high), _percent(*PAPER_FOUR_HG_RANGE)],
        ]
        return format_table(headers, rows)


def _percent(*fractions: float) -> str:
    """Fractions as whole percents: ``76%``, or a range such as ``71%-82%``."""
    return "-".join(f"{100 * fraction:.0f}%" for fraction in fractions)


def run_figure2(study: Study) -> Figure2Result:
    """Compute the Figure-2 curves and headlines."""
    result = Figure2Result()
    for xi in study.config.xis:
        result.concentrations[xi] = study.concentration(xi)
    result.coverage = coverage_statistics(
        study.latest_inventory, study.campaign.analyzable_isp_asns, study.population
    )
    return result
