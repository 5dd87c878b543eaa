"""The latency campaign: matrices and Appendix-A quality filters.

:func:`measure_offnets` produces the (vantage point x IP) matrix of
second-smallest-of-8 RTTs, including the pathologies the paper had to filter:
fully unresponsive IPs (they discarded 12K) and IPs whose latencies "could
not possibly have come from a single destination" (1.9K, caught with known
vantage-point geolocations and the speed of light).
:func:`apply_quality_filters` reproduces those filters plus the per-ISP
coverage requirement (>= 100 sites with successful measurements to all of an
ISP's offnets).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro._util import make_rng, require, require_fraction, spawn_rng
from repro.deployment.placement import DeploymentState
from repro.faults import FaultPlan
from repro.mlab.latency import base_rtt_matrix, vp_pair_floor_matrix
from repro.mlab.pings import PingConfig, ping_rtts
from repro.mlab.vantage import VantagePoint
from repro.obs import Telemetry, ensure_telemetry
from repro.parallel import ParallelConfig, Shard, ShardPlan, run_sharded
from repro.resilience import ResilienceConfig, ShardLoss
from repro.topology.facilities import Facility
from repro.topology.generator import Internet

#: Offnet IPs per campaign shard.  Each shard draws from its own RNG
#: stream, so this constant fixes the stream layout of every measured RTT.
CAMPAIGN_CHUNK = 64


@dataclass(frozen=True)
class LatencyCampaignConfig:
    """Knobs for :func:`measure_offnets` and :func:`apply_quality_filters`."""

    ping: PingConfig = field(default_factory=PingConfig)
    #: Fraction of target IPs that never answer pings (ICMP filtered).
    unresponsive_ip_fraction: float = 0.04
    #: Fraction of target IPs whose responses come from two different
    #: locations (load-balanced / anycast-like virtual addresses).
    split_location_fraction: float = 0.006
    #: Fraction of ISPs that rate-limit ICMP so aggressively that most
    #: probes fail; such ISPs fall below the per-ISP coverage threshold and
    #: drop out of the colocation analysis (the paper's 76 % -> 56 % user
    #: coverage gap).
    lossy_isp_fraction: float = 0.25
    #: Per-measurement success probability inside a lossy ISP.
    lossy_success_rate: float = 0.5
    #: Latency-model inflation seed (stable metro-pair path properties).
    inflation_seed: int = 7
    #: Tolerance (ms) for the speed-of-light plausibility check.
    plausibility_slack_ms: float = 0.5
    #: Minimum vantage points with successful measurements to *all* of an
    #: ISP's offnet IPs for the ISP to enter the colocation analysis.
    min_vps_per_isp: int = 100

    def __post_init__(self) -> None:
        require_fraction(self.unresponsive_ip_fraction, "unresponsive_ip_fraction")
        require_fraction(self.split_location_fraction, "split_location_fraction")
        require_fraction(self.lossy_isp_fraction, "lossy_isp_fraction")
        require_fraction(self.lossy_success_rate, "lossy_success_rate")
        require(self.min_vps_per_isp >= 1, "min_vps_per_isp must be >= 1")


def effective_min_vps(config: LatencyCampaignConfig, n_vantage_points: int) -> int:
    """The per-ISP coverage threshold scaled to the vantage-point count.

    The paper's 100 of 163 vantage points is ~61 %; with fewer vantage
    points the threshold becomes that share of them.
    """
    return min(config.min_vps_per_isp, math.ceil(0.61 * n_vantage_points))


@dataclass
class LatencyMatrix:
    """Second-smallest-of-8 RTTs, shape ``(n_vps, n_ips)``; NaN = no value."""

    vps: list[VantagePoint]
    ips: list[int]
    rtt_ms: np.ndarray
    #: Ground truth for tests: IPs measured with split-location behaviour.
    split_location_ips: frozenset[int] = frozenset()
    #: IPs whose measurements were lost to injected faults or quarantined
    #: shards (NaN columns by construction); empty on clean runs.
    unmeasured_ips: frozenset[int] = frozenset()
    #: Campaign shards quarantined after exhausting their retry budget.
    shards_lost: int = 0
    #: Campaign shards the fan-out planned (for coverage denominators).
    shards_total: int = 0
    _column_of: dict[int, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        require(self.rtt_ms.shape == (len(self.vps), len(self.ips)), "matrix shape mismatch")
        self._column_of = {ip: j for j, ip in enumerate(self.ips)}
        require(len(self._column_of) == len(self.ips), "duplicate IPs in matrix")

    def _index_of(self, ip: int) -> int:
        try:
            return self._column_of[ip]
        except KeyError:
            raise KeyError(
                f"IP {ip} is not a target of this campaign "
                f"({len(self.ips)} measured IPs; see LatencyMatrix.has_ip)"
            ) from None

    def column(self, ip: int) -> np.ndarray:
        """The RTT vector (one entry per vantage point) for ``ip``.

        Raises :class:`KeyError` naming the IP when it was not a campaign
        target.
        """
        return self.rtt_ms[:, self._index_of(ip)]

    def submatrix(self, ips: list[int]) -> np.ndarray:
        """Columns for ``ips``, in the given order.

        Raises :class:`KeyError` naming the first missing IP when any of
        ``ips`` was not a campaign target.
        """
        return self.rtt_ms[:, np.array([self._index_of(ip) for ip in ips], dtype=np.intp)]

    def has_ip(self, ip: int) -> bool:
        """Whether ``ip`` was a target in this campaign."""
        return ip in self._column_of


@dataclass(frozen=True)
class _CampaignShardInputs:
    """One campaign shard's own inputs, cut in the parent at dispatch.

    All randomness-driven *behaviour* (which IPs are unresponsive, split, or
    rate-limited) is decided in the parent before fan-out; a shard only
    draws the per-probe measurement noise, from its own stream.
    """

    seed: tuple[int, ...]  # the shard's stream (see ShardPlan.shard_seeds)
    base_rtt: np.ndarray  # (n_vps, k) base RTT to each target's facility
    alternate: np.ndarray | None  # (n_vps, k) split-location alternates; None if none split
    split: np.ndarray  # bool per target
    lossy: np.ndarray  # bool per target (ISP rate-limits ICMP)
    blank: np.ndarray  # bool per target: unresponsive, or lost to an mlab.ping fault


def _cut_campaign_shard(
    shard: Shard,
    *,
    seeds: tuple[tuple[int, ...], ...],
    base: np.ndarray,
    target_facility: np.ndarray,
    alternate_facility: np.ndarray,
    unresponsive: np.ndarray,
    split: np.ndarray,
    lossy: np.ndarray,
    dropped: np.ndarray | None,
) -> _CampaignShardInputs:
    """``shard``'s seed, base-RTT columns and flags, from the campaign's arrays.

    ``base`` is ``(n_vps, n_facilities)``; the other arrays hold one entry
    per target IP, and ``dropped`` (None when no ``mlab.ping`` fault is
    planned) marks measurements lost to injected faults.
    """
    cols = np.asarray(shard.items, dtype=int)
    split_cols = split[cols]
    blank = unresponsive[cols] if dropped is None else unresponsive[cols] | dropped[cols]
    return _CampaignShardInputs(
        seed=seeds[shard.index],
        base_rtt=base[:, target_facility[cols]],
        alternate=base[:, alternate_facility[cols]] if split_cols.any() else None,
        split=split_cols,
        lossy=lossy[cols],
        blank=blank,
    )


def _measure_shard(
    ping: PingConfig,
    lossy_success_rate: float,
    shard: Shard,
    telemetry: Telemetry | None,
) -> np.ndarray:
    """Measure one shard's columns from its cut inputs: ``(n_vps, len(shard))``.

    One :func:`~repro.mlab.pings.ping_rtts` call per vantage-point row, in
    the stream order the artifacts pin: the row's split coin, its lossy
    coin, then its probes.  The masks that only blank a measurement
    (unresponsive, rate-limited and dropped targets) apply after the
    loop -- a NaN base row would have measured NaN, from the same draws.
    """
    obs = ensure_telemetry(telemetry)
    inputs: _CampaignShardInputs = shard.payload
    rng = np.random.default_rng(inputs.seed)
    n_vps, k = inputs.base_rtt.shape
    split_coin = np.empty(k)
    lossy_coin = np.empty((n_vps, k)) if inputs.lossy.any() else None
    rtt = np.empty((n_vps, k))
    for i in range(n_vps):
        base_row = inputs.base_rtt[i]
        if inputs.alternate is not None:
            # Each vantage point hits one of the two locations, 50/50.
            rng.random(out=split_coin)
            base_row = np.where(inputs.split & (split_coin < 0.5), inputs.alternate[i], base_row)
        if lossy_coin is not None:
            rng.random(out=lossy_coin[i])
        rtt[i] = ping_rtts(base_row, ping, rng)
    rtt[:, inputs.blank] = np.nan
    if lossy_coin is not None:
        rtt[inputs.lossy & (lossy_coin >= lossy_success_rate)] = np.nan
    obs.count("campaign.shard_measurements", n_vps * k)
    return rtt


def injected_ping_drops(faults: FaultPlan | None, n_ips: int) -> np.ndarray | None:
    """Bool mask of target indices whose ``mlab.ping`` measurements are lost.

    Pure function of the plan — the rehydration path in
    :func:`repro.core.pipeline.run_study` recomputes it to rebuild coverage
    without re-measuring.  None when the plan injects no ping drops.
    """
    if faults is None or "mlab.ping" not in faults.sites():
        return None
    mask = np.fromiter(
        (faults.fires_ever("mlab.ping", index) for index in range(n_ips)), dtype=bool, count=n_ips
    )
    return mask if mask.any() else None


def measure_offnets(
    internet: Internet,
    truth: DeploymentState,
    target_ips: list[int],
    vps: list[VantagePoint],
    config: LatencyCampaignConfig | None = None,
    seed: int | np.random.Generator = 0,
    telemetry: Telemetry | None = None,
    parallel: ParallelConfig | None = None,
    faults: FaultPlan | None = None,
    resilience: ResilienceConfig | None = None,
) -> LatencyMatrix:
    """Ping every IP in ``target_ips`` from every vantage point.

    Targets must be ground-truth offnet servers (their facility determines
    the base RTT).  A configured fraction are made unresponsive, and another
    fraction respond from a mix of their true facility and a random other
    facility of the same hypergiant (split-location behaviour).

    The measurement fan-out is sharded over target IPs in blocks of
    :data:`CAMPAIGN_CHUNK` (``parallel`` controls only the backend); each
    shard draws from its own RNG stream spawned before dispatch, so the
    matrix is byte-identical for every backend and worker count.

    ``faults`` injects deterministic failures: ``mlab.ping`` drops turn a
    target's column NaN (after the RNG draws, so neighbours are
    untouched), and shard-site faults exercise the supervised executor.
    With ``resilience``, a shard that exhausts its retries is quarantined
    and its columns become NaN — accounted in ``unmeasured_ips`` and
    ``shards_lost`` on the returned matrix.
    """
    config = config or LatencyCampaignConfig()
    parallel = parallel or ParallelConfig()
    obs = ensure_telemetry(telemetry)
    root = make_rng(seed)
    rng_behaviour = spawn_rng(root, "behaviour")
    rng_pings = spawn_rng(root, "pings")

    servers = []
    for ip in target_ips:
        server = truth.server_at(ip)
        require(server is not None, f"IP {ip} is not a ground-truth offnet server")
        servers.append(server)

    facilities: list[Facility] = sorted({s.facility for s in servers}, key=lambda f: f.facility_id)
    facility_index = {f: j for j, f in enumerate(facilities)}
    base = base_rtt_matrix(vps, facilities, config.inflation_seed)  # (n_vps, n_facs)

    n_vps, n_ips = len(vps), len(target_ips)
    target_facility = np.array([facility_index[s.facility] for s in servers])

    unresponsive = rng_behaviour.random(n_ips) < config.unresponsive_ip_fraction
    split = (~unresponsive) & (rng_behaviour.random(n_ips) < config.split_location_fraction)

    # Lossy ISPs: a stable per-ISP trait (ICMP rate limiting at the edge).
    lossy_asns: set[int] = set()
    for asn in sorted({s.isp.asn for s in servers}):
        if rng_behaviour.random() < config.lossy_isp_fraction:
            lossy_asns.add(asn)
    lossy_ip = np.array([s.isp.asn in lossy_asns for s in servers])

    # For split-location IPs, pick an alternate facility of the same HG.
    alternate_facility = target_facility.copy()
    by_hypergiant: dict[str, set[int]] = {}
    for server in servers:
        by_hypergiant.setdefault(server.hypergiant, set()).add(facility_index[server.facility])
    for idx in np.flatnonzero(split):
        candidates = sorted(by_hypergiant.get(servers[idx].hypergiant, set()) - {int(target_facility[idx])})
        if candidates:
            alternate_facility[idx] = candidates[int(rng_behaviour.integers(0, len(candidates)))]

    dropped = injected_ping_drops(faults, n_ips)
    plan = ShardPlan.of(range(n_ips), chunk_size=CAMPAIGN_CHUNK)
    # Cut lazily, at dispatch: every shard's base columns at once would
    # be a second copy of the whole (n_vps, n_ips) base matrix.
    cut = partial(
        _cut_campaign_shard,
        seeds=plan.shard_seeds(rng_pings, "campaign"),
        base=base,
        target_facility=target_facility,
        alternate_facility=alternate_facility,
        unresponsive=unresponsive,
        split=split,
        lossy=lossy_ip,
        dropped=dropped,
    )
    columns = run_sharded(
        partial(_measure_shard, config.ping, config.lossy_success_rate),
        plan,
        parallel,
        telemetry=telemetry,
        label="campaign",
        faults=faults,
        resilience=resilience,
        payload=cut,
    )
    shards = plan.shards()
    unmeasured: set[int] = set()
    if dropped is not None:
        unmeasured.update(int(target_ips[i]) for i in np.flatnonzero(dropped))
    shards_lost = 0
    filled_columns: list[np.ndarray] = []
    for shard, column in zip(shards, columns):
        if isinstance(column, ShardLoss):
            # A quarantined shard's measurements are simply missing: its
            # columns degrade to NaN, exactly like unresponsive targets,
            # and the loss is surfaced in coverage rather than hidden.
            shards_lost += 1
            unmeasured.update(int(target_ips[i]) for i in shard.items)
            filled_columns.append(np.full((n_vps, len(shard)), np.nan))
        else:
            filled_columns.append(column)
    rtt = np.concatenate(filled_columns, axis=1) if filled_columns else np.empty((n_vps, 0))

    obs.count("campaign.vantage_points", n_vps)
    obs.count("campaign.target_ips", n_ips)
    obs.count("campaign.measurements", n_vps * n_ips)
    obs.count("campaign.unresponsive_targets", int(unresponsive.sum()))
    obs.count("campaign.split_location_targets", int(split.sum()))
    obs.count("campaign.lossy_isps", len(lossy_asns))
    if dropped is not None:
        obs.count("faults.ping_drops", int(dropped.sum()))
    obs.log("latency campaign measured", vps=n_vps, target_ips=n_ips)
    return LatencyMatrix(
        vps=vps,
        ips=list(target_ips),
        rtt_ms=rtt,
        split_location_ips=frozenset(int(ip) for ip, flag in zip(target_ips, split) if flag),
        unmeasured_ips=frozenset(unmeasured),
        shards_lost=shards_lost,
        shards_total=len(shards),
    )


@dataclass
class FilteredCampaign:
    """Outcome of the Appendix-A quality filters."""

    matrix: LatencyMatrix
    #: IPs kept, grouped by ISP ASN (only ISPs passing the coverage filter).
    ips_by_isp: dict[int, list[int]]
    unresponsive_ips: list[int]
    implausible_ips: list[int]
    #: ISPs dropped for having too few fully-successful vantage points.
    discarded_isp_asns: list[int]

    @property
    def analyzable_isp_asns(self) -> list[int]:
        """ASNs that enter the colocation analysis, sorted."""
        return sorted(self.ips_by_isp)


def _implausible_mask(
    rtt_ms: np.ndarray, valid: np.ndarray, n_valid: np.ndarray, floor: np.ndarray, slack_ms: float
) -> np.ndarray:
    """Speed-of-light check per column: can one location explain its RTTs?

    For a single location x, ``rtt_i + rtt_j >= floor(i, j)`` must hold for
    all vantage pairs (the two probe paths, chained, must cover the
    inter-vantage distance).  Each column is checked on the strongest
    constraints: its closest vantage point against all others.

    ``valid`` is ``~isnan(rtt_ms)`` and ``n_valid`` its column sums (the
    caller already has both).  Invalid entries are filled with inf so they
    can neither be the closest vantage point nor violate a floor; columns
    with fewer than two valid entries are never implausible.  ``argmin``
    returns the first minimum, the same tie-break as the per-column oracle
    in ``tests/oracles.py``.
    """
    n_ips = rtt_ms.shape[1]
    if n_ips == 0:
        return np.zeros(0, dtype=bool)
    filled = np.where(valid, rtt_ms, np.inf)
    closest = np.argmin(filled, axis=0)
    closest_rtt = filled[closest, np.arange(n_ips)]
    chained = closest_rtt[None, :] + filled  # inf where either side is missing
    pair_floor = floor[:, closest]  # floor is symmetric: row i is floor(closest_j, i)
    violates = chained + slack_ms < pair_floor
    return violates.any(axis=0) & (n_valid >= 2)


def apply_quality_filters(
    matrix: LatencyMatrix,
    ip_to_isp: dict[int, int],
    config: LatencyCampaignConfig | None = None,
    telemetry: Telemetry | None = None,
) -> FilteredCampaign:
    """Apply the Appendix-A filters to a raw campaign matrix.

    With ``telemetry``, records the full attrition funnel
    (``filters.ips_considered`` → ``filters.ips_analyzable``; see
    :data:`repro.obs.FUNNEL_COUNTERS`) plus one span per filter step
    (``filters.floor_matrix``, ``filters.plausibility``,
    ``filters.coverage``).
    """
    config = config or LatencyCampaignConfig()
    obs = ensure_telemetry(telemetry)
    with obs.span("filters.floor_matrix"):
        floor = vp_pair_floor_matrix(matrix.vps)

    with obs.span("filters.plausibility"):
        valid = ~np.isnan(matrix.rtt_ms)
        n_valid = valid.sum(axis=0)
        unresponsive_mask = n_valid == 0
        implausible_mask = _implausible_mask(
            matrix.rtt_ms, valid, n_valid, floor, config.plausibility_slack_ms
        )
        kept_mask = ~unresponsive_mask & ~implausible_mask
        unresponsive = [ip for ip, flag in zip(matrix.ips, unresponsive_mask) if flag]
        implausible = [ip for ip, flag in zip(matrix.ips, implausible_mask) if flag]
        kept = [ip for ip, flag in zip(matrix.ips, kept_mask) if flag]

    # Per-ISP coverage: vantage points with successful measurements to ALL
    # of the ISP's kept offnet IPs.
    with obs.span("filters.coverage"):
        by_isp: dict[int, list[int]] = {}
        columns_by_isp: dict[int, list[int]] = {}
        for column, ip in zip(np.flatnonzero(kept_mask), kept):
            by_isp.setdefault(ip_to_isp[ip], []).append(ip)
            columns_by_isp.setdefault(ip_to_isp[ip], []).append(int(column))
        ips_by_isp: dict[int, list[int]] = {}
        discarded: list[int] = []
        for asn in sorted(by_isp):
            fully_successful_vps = int(valid[:, columns_by_isp[asn]].all(axis=1).sum())
            if fully_successful_vps >= config.min_vps_per_isp:
                ips_by_isp[asn] = sorted(by_isp[asn])
            else:
                discarded.append(asn)

    n_analyzable_ips = sum(len(ips) for ips in ips_by_isp.values())
    obs.count("filters.ips_considered", len(matrix.ips))
    obs.count("filters.ips_dropped_unresponsive", len(unresponsive))
    obs.count("filters.ips_dropped_implausible", len(implausible))
    obs.count("filters.ips_kept", len(kept))
    obs.count("filters.ips_dropped_low_coverage_isp", len(kept) - n_analyzable_ips)
    obs.count("filters.ips_analyzable", n_analyzable_ips)
    obs.count("filters.isps_considered", len(by_isp))
    obs.count("filters.isps_dropped_low_coverage", len(discarded))
    obs.count("filters.isps_analyzable", len(ips_by_isp))
    return FilteredCampaign(
        matrix=matrix,
        ips_by_isp=ips_by_isp,
        unresponsive_ips=unresponsive,
        implausible_ips=implausible,
        discarded_isp_asns=discarded,
    )
