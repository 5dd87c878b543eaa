"""2021 → 2023 footprint evolution.

Table 1 of the paper compares the number of ISPs hosting each hypergiant in
2021/04 (from the SIGCOMM'21 study) and 2023/04 (the paper's scan): Google
+23.2 %, Netflix +37.4 %, Meta +16.9 %, Akamai +0.0 %.  We model growth as
monotone: the 2021 footprint is a subset of the 2023 footprint, with early
adopters skewed toward larger ISPs (hypergiants expanded from big networks
outward, per the longitudinal findings of the 2021 paper).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from repro._util import make_rng, require, spawn_rng
from repro.deployment.hypergiants import NAME_ORDERED_PROFILES, profile_by_name
from repro.deployment.placement import Deployment, DeploymentState, PlacementConfig, place_offnets
from repro.topology.generator import Internet

_EPOCH_LABEL = re.compile(r"^(\d{4})(?:Q([1-4]))?$")


def parse_epoch_label(label: str) -> tuple[int, int]:
    """Parse an epoch label into ``(year, quarter)`` for calendar ordering.

    Accepts yearly labels (``"2021"`` → ``(2021, 0)``) and quarterly ones
    (``"2024Q3"`` → ``(2024, 3)``).  A yearly label sorts before that
    year's quarters, so a yearly snapshot reads as "start of year".
    Anything else raises :class:`ValueError` naming the offender — epoch
    labels are identity in histories and store keys, so silent fallbacks
    (like the old lexicographic ``max``) would mis-order, not fail.
    """
    match = _EPOCH_LABEL.match(label) if isinstance(label, str) else None
    if match is None:
        raise ValueError(
            f"unparseable epoch label {label!r}: expected 'YYYY' (e.g. '2021') "
            "or 'YYYYQn' with n in 1-4 (e.g. '2024Q3')"
        )
    year = int(match.group(1))
    quarter = int(match.group(2)) if match.group(2) else 0
    return (year, quarter)


@dataclass
class DeploymentHistory:
    """Deployment snapshots keyed by epoch label."""

    epochs: dict[str, DeploymentState]

    def state(self, epoch: str) -> DeploymentState:
        """The snapshot at ``epoch`` (KeyError if absent)."""
        return self.epochs[epoch]


def _early_adopter_weights(deployments: list[Deployment]) -> np.ndarray:
    """Sampling weights favouring large ISPs as 2021 incumbents."""
    users = np.array([max(1, d.isp.users) for d in deployments], dtype=float)
    return np.log10(users + 10.0) ** 2


def derive_earlier_state(
    state: DeploymentState,
    seed: int | np.random.Generator = 0,
    epoch: str = "2021",
) -> DeploymentState:
    """Subsample ``state`` down to each hypergiant's 2021 footprint ratio."""
    rng = make_rng(seed)
    kept: list[Deployment] = []
    for profile in NAME_ORDERED_PROFILES:
        hypergiant_deployments = [d for d in state.deployments if d.hypergiant == profile.name]
        n_keep = int(round(profile.footprint_2021_ratio * len(hypergiant_deployments)))
        require(0 <= n_keep <= len(hypergiant_deployments), "bad 2021 ratio")
        if n_keep == len(hypergiant_deployments):
            kept.extend(hypergiant_deployments)
            continue
        weights = _early_adopter_weights(hypergiant_deployments)
        probabilities = weights / weights.sum()
        indices = rng.choice(len(hypergiant_deployments), size=n_keep, replace=False, p=probabilities)
        kept.extend(hypergiant_deployments[i] for i in sorted(indices))
    return DeploymentState(epoch=epoch, deployments=kept)


def build_deployment_history(
    internet: Internet,
    config: PlacementConfig | None = None,
    seed: int | np.random.Generator = 0,
) -> DeploymentHistory:
    """Place the 2023 footprint and derive the 2021 subset (Table 1 inputs)."""
    root = make_rng(seed)
    state_2023 = place_offnets(internet, config, seed=spawn_rng(root, "placement"), epoch="2023")
    state_2021 = derive_earlier_state(state_2023, seed=spawn_rng(root, "history"), epoch="2021")
    return DeploymentHistory(epochs={"2021": state_2021, "2023": state_2023})


#: Approximate footprint fraction (relative to 2023) per year, shaped after
#: the SIGCOMM'21 "Seven Years in the Life of Hypergiants' Off-Nets"
#: longitudinal curves: Akamai was built out early and flat; the others
#: ramped through the late 2010s.  The report's ``long`` section feeds
#: them to :func:`repro.timeline.events.build_timeline` as anchors.
DEFAULT_EPOCH_TRAJECTORIES: dict[str, dict[str, float]] = {
    "Google": {"2017": 0.45, "2019": 0.62, "2021": 3810 / 4697, "2023": 1.0},
    "Netflix": {"2017": 0.25, "2019": 0.45, "2021": 2115 / 2906, "2023": 1.0},
    "Meta": {"2017": 0.15, "2019": 0.50, "2021": 2214 / 2588, "2023": 1.0},
    "Akamai": {"2017": 0.95, "2019": 1.0, "2021": 1.0, "2023": 1.0},
}


def growth_percent(history: DeploymentHistory, hypergiant: str) -> float:
    """Percent growth in hosting-ISP count from 2021 to 2023 (Table 1)."""
    profile = profile_by_name(hypergiant)
    del profile  # validates the name
    n_2021 = len(history.state("2021").isps_hosting(hypergiant))
    n_2023 = len(history.state("2023").isps_hosting(hypergiant))
    require(n_2021 > 0, f"{hypergiant} has no 2021 footprint")
    return 100.0 * (n_2023 - n_2021) / n_2021
