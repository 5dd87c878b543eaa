"""Hypergiant offnet deployments (substrate).

Models how Google, Netflix, Meta, and Akamai place offnet cache servers into
ISP facilities: per-hypergiant parameters (:mod:`repro.deployment.hypergiants`),
ISP eligibility rules (:mod:`repro.deployment.eligibility`), facility/rack
placement with colocation preference (:mod:`repro.deployment.placement`), and
the 2021→2023 footprint evolution (:mod:`repro.deployment.growth`).
"""

from repro.deployment.growth import (
    DeploymentHistory,
    build_deployment_history,
    parse_epoch_label,
)
from repro.deployment.hypergiants import (
    DEFAULT_HYPERGIANT_PROFILES,
    HypergiantProfile,
    profile_by_name,
)
from repro.deployment.placement import Deployment, DeploymentState, OffnetServer, PlacementConfig, place_offnets

__all__ = [
    "DEFAULT_HYPERGIANT_PROFILES",
    "Deployment",
    "DeploymentHistory",
    "DeploymentState",
    "HypergiantProfile",
    "OffnetServer",
    "PlacementConfig",
    "build_deployment_history",
    "parse_epoch_label",
    "place_offnets",
    "profile_by_name",
]
