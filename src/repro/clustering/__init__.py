"""Latency-based colocation clustering (substrate).

From-scratch OPTICS (Ankerst et al., SIGMOD'99) with xi steep-area cluster
extraction, plus the paper's distance function: the normalised Manhattan
distance over vantage-point latency vectors after trimming the 20 % of
vantage points with the largest discrepancy (Appendix A, following the
IMC'13 Google-mapping paper).
"""

from repro.clustering.distance import (
    pairwise_trimmed_manhattan,
    trimmed_manhattan,
)
from repro.clustering.optics import OpticsResult, optics_order
from repro.clustering.sites import (
    ClusteringConfig,
    SiteClustering,
    cluster_isp_offnets,
)
from repro.clustering.xi import extract_xi_clusters, xi_labels

__all__ = [
    "ClusteringConfig",
    "OpticsResult",
    "SiteClustering",
    "cluster_isp_offnets",
    "extract_xi_clusters",
    "optics_order",
    "pairwise_trimmed_manhattan",
    "trimmed_manhattan",
    "xi_labels",
]
