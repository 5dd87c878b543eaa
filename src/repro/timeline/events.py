"""The event-driven deployment timeline.

Turns a table of footprint ratios at anchor epochs (such as
:data:`repro.deployment.growth.DEFAULT_EPOCH_TRAJECTORIES`) into a
deterministic, seeded stream of quarterly events:

    :class:`TimelineSpec` → ``[DeploymentEvent]`` → :meth:`Timeline.state_at`

The final footprint is placed once (:func:`repro.deployment.place_offnets`
at ``spec.end``); every quarter's state is a *subset* of it, selected by
a weighted adoption order (the same early-adopters-are-large skew the
two-epoch history uses).  Under the default ``monotone`` policy each
quarter's footprint nests inside the next — the paper's Table-1 growth
story extended to 32 quarters.  The ``churn`` policy adds evictions:
per-quarter, per-deployment coins decided by hashing (never by a live
RNG stream, mirroring :mod:`repro.faults`), so whether ISP X evicts
hypergiant Y in 2024Q2 is a pure function of the spec seed — which is
what lets the incremental engine fingerprint each epoch without
replaying its predecessors.

Determinism invariants (the incremental engine depends on all three):

* the final placement and adoption order consume RNG streams spawned
  from ``spec.seed`` only — no other stage shares them;
* eviction/capacity decisions are pure hashes of ``(seed, hypergiant,
  asn, quarter)``, independent of iteration order;
* a deployment active with capacity ``n`` always exposes the *same*
  ``n`` servers (IP-sorted prefix of its final server list), so a
  deployment unchanged between quarters has a byte-identical offnet set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro._util import hash_coin, make_rng, require, require_fraction, spawn_rng
from repro.deployment.growth import _early_adopter_weights, parse_epoch_label
from repro.deployment.hypergiants import DEFAULT_HYPERGIANT_PROFILES, NAME_ORDERED_PROFILES
from repro.deployment.placement import Deployment, DeploymentState, PlacementConfig, place_offnets
from repro.topology.generator import Internet

#: Recognised timeline policies.
POLICIES = ("monotone", "churn")

#: Quarterly footprint anchors (fraction of the final placement), shaped
#: after the SIGCOMM'21 longitudinal curves like
#: :data:`repro.deployment.growth.DEFAULT_EPOCH_TRAJECTORIES`: Akamai
#: built out early and flat, the others still ramping through the 2020s.
DEFAULT_TIMELINE_ANCHORS: dict[str, dict[str, float]] = {
    "Google": {"2019Q1": 0.60, "2021Q2": 0.78, "2023Q2": 0.90, "2026Q4": 1.0},
    "Netflix": {"2019Q1": 0.42, "2021Q2": 0.66, "2023Q2": 0.84, "2026Q4": 1.0},
    "Meta": {"2019Q1": 0.46, "2021Q2": 0.78, "2023Q2": 0.89, "2026Q4": 1.0},
    "Akamai": {"2019Q1": 0.96, "2021Q2": 0.98, "2023Q2": 1.0, "2026Q4": 1.0},
}


def _quarter_index(label: str) -> int:
    """Continuous quarter index (``"2021Q3"`` → 2021·4+2; yearly → Q1)."""
    year, quarter = parse_epoch_label(label)
    return year * 4 + (quarter - 1 if quarter else 0)


def quarter_label(index: int) -> str:
    """Inverse of :func:`_quarter_index` for quarterly labels."""
    return f"{index // 4}Q{index % 4 + 1}"


def quarter_range(start: str, end: str) -> tuple[str, ...]:
    """Every quarterly label from ``start`` through ``end`` inclusive.

    Both endpoints must be quarterly (``YYYYQn``) — a timeline is a
    quarterly stream; yearly labels would be ambiguous about which
    quarter they mean.
    """
    for label in (start, end):
        _year, quarter = parse_epoch_label(label)
        require(quarter != 0, f"timeline bounds must be quarterly ('YYYYQn'), got {label!r}")
    first, last = _quarter_index(start), _quarter_index(end)
    require(first <= last, f"timeline start {start!r} is after end {end!r}")
    return tuple(quarter_label(i) for i in range(first, last + 1))


@dataclass(frozen=True)
class TimelineSpec:
    """Everything that determines a timeline's event stream.

    The spec (plus the substrate config) is the complete fingerprint of
    the stream: two runs with equal specs produce identical events on
    any backend.  ``anchors`` maps hypergiant → {epoch label: fraction
    of the final footprint}; targets between anchors are linearly
    interpolated, outside them clamped.  ``eviction_rate`` is the
    per-quarter, per-deployment eviction probability under the
    ``churn`` policy (must be 0 for ``monotone``).
    ``capacity_ramp_quarters`` ramps a new deployment's server count
    linearly over that many quarters after deploy (0 = full capacity
    immediately, which keeps monotone quarters strictly nested).
    """

    start: str = "2019Q1"
    end: str = "2026Q4"
    policy: str = "monotone"
    eviction_rate: float = 0.0
    capacity_ramp_quarters: int = 0
    anchors: dict[str, dict[str, float]] | None = None
    edition: str = "2023"
    seed: int = 0

    def __post_init__(self) -> None:
        quarter_range(self.start, self.end)  # validates bounds
        require(self.policy in POLICIES, f"policy must be one of {POLICIES}, got {self.policy!r}")
        require_fraction(self.eviction_rate, "eviction_rate")
        require(
            self.policy == "churn" or self.eviction_rate == 0.0,
            "eviction_rate requires policy='churn' (monotone timelines never evict)",
        )
        require(self.capacity_ramp_quarters >= 0, "capacity_ramp_quarters must be >= 0")
        require(self.edition in ("2021", "2023"), "edition must be '2021' or '2023'")
        for hypergiant, ratios in (self.anchors or {}).items():
            for label, ratio in ratios.items():
                parse_epoch_label(label)  # validates the label
                require(0.0 <= ratio <= 1.0, f"anchor {hypergiant}/{label} must be in [0, 1]")

    @property
    def quarters(self) -> tuple[str, ...]:
        """The quarterly epoch labels this spec spans."""
        return quarter_range(self.start, self.end)

    def effective_anchors(self) -> dict[str, dict[str, float]]:
        """``anchors`` with the default table filled in."""
        return self.anchors if self.anchors is not None else DEFAULT_TIMELINE_ANCHORS

    def to_json(self) -> dict:
        """JSON-serialisable form (participates in stage keys)."""
        return {
            "start": self.start,
            "end": self.end,
            "policy": self.policy,
            "eviction_rate": self.eviction_rate,
            "capacity_ramp_quarters": self.capacity_ramp_quarters,
            "anchors": self.effective_anchors(),
            "edition": self.edition,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class DeploymentEvent:
    """One change to one hypergiant's presence in one ISP.

    ``kind`` is ``deploy`` (enter with ``n_servers``), ``capacity``
    (server count changed to ``n_servers``), or ``evict`` (leave;
    ``n_servers`` is 0).
    """

    quarter: str
    kind: str
    hypergiant: str
    isp_asn: int
    n_servers: int

    def to_json(self) -> dict:
        """JSON-serialisable form."""
        return {
            "quarter": self.quarter,
            "kind": self.kind,
            "hypergiant": self.hypergiant,
            "isp_asn": self.isp_asn,
            "n_servers": self.n_servers,
        }


def _evict_coin(seed: int, hypergiant: str, asn: int, quarter: str, rate: float) -> bool:
    """The pure eviction coin: a :func:`~repro._util.hash_coin` of its arguments."""
    if rate <= 0.0:
        return False
    return hash_coin(f"{seed}:evict:{hypergiant}:{asn}:{quarter}") < rate


def _target_ratio(anchors: dict[str, float], quarter: str) -> float:
    """Linear interpolation of the anchor table at ``quarter`` (clamped)."""
    if not anchors:
        return 1.0
    points = sorted((_quarter_index(label), ratio) for label, ratio in anchors.items())
    q = _quarter_index(quarter)
    if q <= points[0][0]:
        return points[0][1]
    if q >= points[-1][0]:
        return points[-1][1]
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        if x0 <= q <= x1:
            if x1 == x0:
                return y1
            return y0 + (y1 - y0) * (q - x0) / (x1 - x0)
    return points[-1][1]  # unreachable


def _capacity_at(full: int, age: int, ramp: int) -> int:
    """Server count for a deployment ``age`` quarters after deploy."""
    if ramp <= 0:
        return full
    fraction = min(1.0, (age + 1) / (ramp + 1))
    return max(1, math.ceil(fraction * full))


@dataclass
class Timeline:
    """A materialized timeline: the final placement plus per-quarter state.

    ``final_state`` is the full placement at ``spec.end``; every
    quarter's :meth:`state_at` exposes a subset of its servers, so
    ground truth (facilities, racks, IPs) is shared across epochs —
    the property that makes cross-epoch stage reuse semantically valid.
    """

    spec: TimelineSpec
    final_state: DeploymentState
    events: list[DeploymentEvent]
    #: quarter → {(hypergiant, asn): active server count}
    active: dict[str, dict[tuple[str, int], int]] = field(repr=False)

    @property
    def quarters(self) -> tuple[str, ...]:
        """The quarterly epoch labels, oldest first."""
        return self.spec.quarters

    def events_at(self, quarter: str) -> list[DeploymentEvent]:
        """The events that fired in ``quarter``."""
        return [event for event in self.events if event.quarter == quarter]

    def active_counts(self, quarter: str) -> dict[tuple[str, int], int]:
        """``{(hypergiant, asn): server count}`` active in ``quarter``."""
        return dict(self.active[quarter])

    def state_at(self, quarter: str) -> DeploymentState:
        """The :class:`DeploymentState` snapshot for ``quarter``.

        Each active deployment exposes the IP-sorted prefix of its final
        server list, so capacity growth only ever *adds* servers and an
        unchanged deployment has a byte-identical offnet set.
        """
        counts = self.active[quarter]
        deployments: list[Deployment] = []
        for deployment in self.final_state.deployments:
            n = counts.get((deployment.hypergiant, deployment.isp.asn), 0)
            if n <= 0:
                continue
            servers = sorted(deployment.servers, key=lambda s: s.ip)[:n]
            deployments.append(
                Deployment(hypergiant=deployment.hypergiant, isp=deployment.isp, servers=servers)
            )
        return DeploymentState(epoch=quarter, deployments=deployments)


def build_timeline(
    internet: Internet,
    spec: TimelineSpec | None = None,
    config: PlacementConfig | None = None,
) -> Timeline:
    """Generate the deterministic event stream for ``spec`` over ``internet``.

    Places the final footprint, draws one weighted adoption permutation
    per hypergiant (large ISPs adopt early), then walks the quarters:
    each quarter deploys enough pending ISPs to hit the interpolated
    anchor target, evicts per the churn coins, and ramps capacities.
    Everything after the two seeded draws is pure bookkeeping, so the
    stream is reproducible on any backend from ``spec`` alone.
    """
    spec = spec or TimelineSpec()
    root = make_rng(spec.seed)
    final_state = place_offnets(internet, config, seed=spawn_rng(root, "placement"), epoch=spec.end)
    rng_adoption = spawn_rng(root, "adoption")
    anchors = spec.effective_anchors()
    quarters = spec.quarters

    # One weighted adoption permutation per hypergiant, drawn up front.
    adoption_order: dict[str, list[Deployment]] = {}
    for profile in NAME_ORDERED_PROFILES:
        pool = [d for d in final_state.deployments if d.hypergiant == profile.name]
        if not pool:
            adoption_order[profile.name] = []
            continue
        weights = _early_adopter_weights(pool)
        probabilities = weights / weights.sum()
        indices = rng_adoption.choice(len(pool), size=len(pool), replace=False, p=probabilities)
        adoption_order[profile.name] = [pool[i] for i in indices]

    events: list[DeploymentEvent] = []
    active: dict[str, dict[tuple[str, int], int]] = {}
    # Per hypergiant: adoption-ordered pending queue and active roster
    # {(hg, asn): deploy-quarter-index} (insertion order = adoption order).
    pending: dict[str, list[Deployment]] = {name: list(order) for name, order in adoption_order.items()}
    deployed_at: dict[str, dict[tuple[str, int], int]] = {
        p.name: {} for p in DEFAULT_HYPERGIANT_PROFILES
    }
    full_size = {
        (d.hypergiant, d.isp.asn): len(d.servers) for d in final_state.deployments
    }

    for t, quarter in enumerate(quarters):
        counts: dict[tuple[str, int], int] = {}
        for profile in NAME_ORDERED_PROFILES:
            name = profile.name
            roster = deployed_at[name]
            # Evictions first (churn policy only): evicted deployments
            # rejoin the back of the pending queue and may redeploy later.
            if spec.policy == "churn" and spec.eviction_rate > 0.0:
                for key in [k for k in roster if _evict_coin(spec.seed, name, k[1], quarter, spec.eviction_rate)]:
                    del roster[key]
                    events.append(
                        DeploymentEvent(
                            quarter=quarter, kind="evict", hypergiant=name, isp_asn=key[1], n_servers=0
                        )
                    )
                    evicted = next(
                        d for d in adoption_order[name] if (d.hypergiant, d.isp.asn) == key
                    )
                    pending[name].append(evicted)
            # Deploy from the pending queue up to the anchor target.
            target = int(round(_target_ratio(anchors.get(name, {}), quarter) * len(adoption_order[name])))
            while len(roster) < target and pending[name]:
                deployment = pending[name].pop(0)
                key = (deployment.hypergiant, deployment.isp.asn)
                roster[key] = t
                events.append(
                    DeploymentEvent(
                        quarter=quarter,
                        kind="deploy",
                        hypergiant=name,
                        isp_asn=key[1],
                        n_servers=_capacity_at(full_size[key], 0, spec.capacity_ramp_quarters),
                    )
                )
            # Capacity ramp for everything on the roster.
            for key, since in sorted(roster.items(), key=lambda kv: kv[0]):
                n_now = _capacity_at(full_size[key], t - since, spec.capacity_ramp_quarters)
                counts[key] = n_now
                if t - since > 0 and spec.capacity_ramp_quarters > 0:
                    n_before = _capacity_at(full_size[key], t - since - 1, spec.capacity_ramp_quarters)
                    if n_now != n_before:
                        events.append(
                            DeploymentEvent(
                                quarter=quarter,
                                kind="capacity",
                                hypergiant=key[0],
                                isp_asn=key[1],
                                n_servers=n_now,
                            )
                        )
        active[quarter] = counts

    return Timeline(spec=spec, final_state=final_state, events=events, active=active)
