"""Table 2: bucketing ISPs by how colocated each hypergiant's offnets are.

For each hypergiant H and each ISP hosting H:

* if the ISP hosts only H, it falls in the **Sole HG** column;
* otherwise, compute the fraction of H's offnet IPs in the ISP that are in
  a latency cluster also containing an offnet IP of *another* hypergiant,
  and bucket it into {0 %, (0 %, 50 %), [50 %, 100 %), 100 %}.

Each hypergiant row sums to 100 % across the five buckets.  The analysis is
run twice, at xi = 0.1 and 0.9, bounding the clustering uncertainty.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro._util import format_table, require, require_fraction
from repro.clustering.sites import SiteClustering


class ColocationBucket(enum.Enum):
    """Table 2 columns."""

    SOLE = "sole"
    NONE = "0%"
    UNDER_HALF = "(0%,50%)"
    HALF_OR_MORE = "[50%,100%)"
    FULL = "100%"


def bucket_of(fraction: float) -> ColocationBucket:
    """Bucket a colocated fraction (for an ISP hosting multiple HGs)."""
    require_fraction(fraction, "fraction")
    if fraction == 0.0:
        return ColocationBucket.NONE
    if fraction < 0.5:
        return ColocationBucket.UNDER_HALF
    if fraction < 1.0:
        return ColocationBucket.HALF_OR_MORE
    return ColocationBucket.FULL


def colocated_fraction(
    clustering: SiteClustering, hypergiant_of_ip: dict[int, str], hypergiant: str
) -> float | None:
    """Fraction of ``hypergiant``'s IPs colocated with another hypergiant.

    An IP is colocated iff its cluster contains an IP of a different
    hypergiant, or one missing from ``hypergiant_of_ip``; unclustered IPs
    are not colocated.  Returns None when the clustering holds no IPs of
    ``hypergiant``.
    """
    own_labels: list[int] = []
    shared: set[int] = set()  # labels holding another hypergiant's IP
    for ip, label in zip(clustering.ips, clustering.labels.tolist()):
        if hypergiant_of_ip.get(ip) == hypergiant:
            own_labels.append(label)
        elif label >= 0:
            shared.add(label)
    if not own_labels:
        return None
    return sum(label in shared for label in own_labels) / len(own_labels)


@dataclass
class ColocationTable:
    """One Table-2 panel: per-hypergiant bucket percentages at one xi."""

    xi: float
    #: hypergiant -> bucket -> count of ISPs.
    counts: dict[str, dict[ColocationBucket, int]] = field(default_factory=dict)

    def add(self, hypergiant: str, bucket: ColocationBucket) -> None:
        """Count one ISP for ``hypergiant`` in ``bucket``."""
        row = self.counts.setdefault(hypergiant, {b: 0 for b in ColocationBucket})
        row[bucket] += 1

    def total(self, hypergiant: str) -> int:
        """ISPs hosting ``hypergiant`` that entered the analysis."""
        return sum(self.counts.get(hypergiant, {}).values())

    def percentage(self, hypergiant: str, bucket: ColocationBucket) -> float:
        """Bucket share in [0, 1] for the hypergiant's row."""
        total = self.total(hypergiant)
        if total == 0:
            return 0.0
        return self.counts[hypergiant][bucket] / total

    def row_percentages(self, hypergiant: str) -> dict[ColocationBucket, float]:
        """All bucket shares for one hypergiant (sums to 1 when non-empty)."""
        return {bucket: self.percentage(hypergiant, bucket) for bucket in ColocationBucket}

    def render(self) -> str:
        """Plain-text rendering in the paper's Table 2 layout."""
        headers = ["Hypergiant", "xi", "Sole HG", "0%", "(0%,50%)", "[50%,100%)", "100%"]
        rows = []
        for hypergiant in sorted(self.counts):
            row = [hypergiant, f"{self.xi}"]
            for bucket in ColocationBucket:
                row.append(f"{100 * self.percentage(hypergiant, bucket):.0f}%")
            rows.append(row)
        return format_table(headers, rows)


def build_colocation_table(
    xi: float,
    clusterings_by_isp: dict[int, SiteClustering],
    hypergiant_of_ip: dict[int, str],
    hypergiants_by_isp: dict[int, list[str]],
) -> ColocationTable:
    """Build one Table-2 panel.

    ``clusterings_by_isp`` maps analyzable ISP ASNs to their (single, joint
    over all hypergiants) site clustering; ``hypergiants_by_isp`` maps every
    ISP hosting at least one hypergiant to the detected hypergiant list (used
    for the Sole-HG column, which does not require latency analysis).
    """
    table = ColocationTable(xi=xi)
    for asn in sorted(hypergiants_by_isp):
        hosted = hypergiants_by_isp[asn]
        require(bool(hosted), f"ISP {asn} hosts no hypergiants")
        if len(hosted) == 1:
            table.add(hosted[0], ColocationBucket.SOLE)
            continue
        clustering = clusterings_by_isp.get(asn)
        if clustering is None:
            continue  # ISP failed the Appendix-A coverage filter
        for hypergiant in hosted:
            fraction = colocated_fraction(clustering, hypergiant_of_ip, hypergiant)
            if fraction is None:
                continue
            table.add(hypergiant, bucket_of(fraction))
    return table
