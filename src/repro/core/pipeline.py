"""The end-to-end study driver.

:func:`run_study` executes the paper's whole measurement pipeline on a
generated Internet: place deployments (2021 + 2023), scan both epochs,
detect offnets, run the latency campaign from the vantage points, apply the
Appendix-A filters, cluster every analyzable ISP at each xi, and attach the
population dataset — returning a :class:`Study` from which each table and
figure is derived.
"""

from __future__ import annotations

from functools import partial
from dataclasses import dataclass, field, replace

import numpy as np

from repro._util import make_rng, require, spawn_rng
from repro.clustering.sites import ClusteringConfig, SiteClustering, cluster_isp_offnets
from repro.core.colocation import ColocationTable, build_colocation_table
from repro.core.concentration import ConcentrationResult, single_facility_concentration
from repro.core.country import CountryHostingResult, country_hosting_fractions
from repro.core.traffic_model import TrafficModel
from repro.deployment.growth import DeploymentHistory, build_deployment_history
from repro.deployment.placement import PlacementConfig
from repro.faults import FaultPlan
from repro.mlab.matrix import (
    CAMPAIGN_CHUNK,
    FilteredCampaign,
    LatencyCampaignConfig,
    LatencyMatrix,
    apply_quality_filters,
    effective_min_vps,
    injected_ping_drops,
    measure_offnets,
)
from repro.mlab.vantage import VantagePoint, build_vantage_points
from repro.obs import Telemetry, ensure_telemetry
from repro.parallel import ParallelConfig, Shard, ShardPlan, run_sharded
from repro.population.users import PopulationDataset, build_population_dataset
from repro.rdns.ptr import PtrConfig, PtrDataset, build_ptr_dataset
from repro.resilience import CoverageReport, ResilienceConfig, ShardLoss
from repro.rdns.validation import ValidationSummary, validate_clusters
from repro.rdns.geohints import build_default_parser
from repro.scan.detection import OffnetInventory, detect_offnets
from repro.scan.scanner import ScanConfig, ScanResult, run_scan
from repro.topology.generator import Internet, InternetConfig, generate_internet

#: Whole ISPs per clustering shard.
CLUSTERING_ISPS_PER_SHARD = 2


@dataclass(frozen=True)
class StudyConfig:
    """Everything needed to reproduce one full study run."""

    internet: InternetConfig = field(default_factory=InternetConfig)
    placement: PlacementConfig = field(default_factory=PlacementConfig)
    scan: ScanConfig = field(default_factory=ScanConfig)
    campaign: LatencyCampaignConfig = field(default_factory=LatencyCampaignConfig)
    ptr: PtrConfig = field(default_factory=PtrConfig)
    n_vantage_points: int = 163
    xis: tuple[float, ...] = (0.1, 0.9)
    #: Log-normal sigma of the population-estimate noise (0 = exact).
    population_noise_sigma: float = 0.0
    #: How the campaign and clustering fan-outs execute.  Execution-only:
    #: never changes the artifacts.
    parallel: ParallelConfig = field(default_factory=ParallelConfig)
    #: Deterministic fault injection (chaos testing).  None = no faults.
    #: Transient faults are retried away and never change artifacts;
    #: permanent data faults degrade coverage and *do* change artifacts
    #: (so they participate in the store key; transient ones do not).
    faults: FaultPlan | None = None
    #: How the run absorbs faults: retry policy, in-process fallback, and
    #: error budgets.  Execution-only — never changes artifacts.  None =
    #: strict mode: the first unhandled failure aborts the run.
    resilience: ResilienceConfig | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        require(self.n_vantage_points >= 2, "need at least two vantage points")
        require(bool(self.xis), "need at least one xi value")
        for xi in self.xis:
            require(0.0 < xi < 1.0, f"xi must be in (0, 1), got {xi}")


@dataclass(frozen=True)
class PrecomputedArtifacts:
    """Expensive pipeline artifacts restored from a persisted study.

    :func:`run_study` accepts this to *rehydrate* a study: the cheap
    deterministic stages (topology, deployment, scan, detection, filters,
    population, PTR) replay from the config's seed while the latency
    campaign and the per-ISP clustering — the two stages that dominate
    wall time — are taken from here instead of recomputed.  The RNG spawn
    sequence is preserved either way, so a rehydrated study's artifacts
    are byte-identical to a fresh run's (``tests/test_store.py`` proves
    this differentially).
    """

    rtt_ms: np.ndarray
    target_ips: tuple[int, ...]
    #: xi -> asn -> SiteClustering, exactly as the clustering stage built it.
    clusterings: dict[float, dict[int, SiteClustering]]


@dataclass
class Study:
    """All pipeline artifacts of one run, plus derived-result helpers."""

    config: StudyConfig
    internet: Internet
    history: DeploymentHistory
    scans: dict[str, ScanResult]
    inventories: dict[str, OffnetInventory]
    vantage_points: list[VantagePoint]
    matrix: LatencyMatrix
    campaign: FilteredCampaign
    clusterings: dict[float, dict[int, SiteClustering]]
    population: PopulationDataset
    ptr: PtrDataset
    traffic: TrafficModel = field(default_factory=TrafficModel)
    #: Per-site (lost, total) accounting of injected and quarantined
    #: losses.  Complete (all zeros) on fault-free and transient-only runs.
    coverage: CoverageReport = field(default_factory=CoverageReport)
    #: Telemetry captured while this study ran (None when not requested).
    #: Excluded from comparisons: timings are not part of the artifact.
    telemetry: Telemetry | None = field(default=None, repr=False, compare=False)

    # -- convenient views -----------------------------------------------------

    @property
    def latest_inventory(self) -> OffnetInventory:
        """The 2023 (headline) offnet inventory."""
        return self.inventories["2023"]

    @property
    def hypergiant_of_ip(self) -> dict[int, str]:
        """Detected hypergiant per offnet IP (2023 inventory)."""
        return {d.ip: d.hypergiant for d in self.latest_inventory.detections}

    @property
    def hypergiants_by_isp(self) -> dict[int, list[str]]:
        """Detected hypergiants per hosting ISP ASN (2023 inventory)."""
        inventory = self.latest_inventory
        return {asn: inventory.hypergiants_in_isp(asn) for asn in inventory.hosting_isp_asns()}

    # -- paper artifacts -------------------------------------------------------

    def colocation_table(self, xi: float) -> ColocationTable:
        """Table 2's panel at ``xi``."""
        return build_colocation_table(
            xi, self.clusterings[xi], self.hypergiant_of_ip, self.hypergiants_by_isp
        )

    def concentration(self, xi: float) -> ConcentrationResult:
        """Figure 2's inputs at ``xi``."""
        return single_facility_concentration(
            xi, self.clusterings[xi], self.hypergiant_of_ip, self.population, self.traffic
        )

    def country_result(self, min_hypergiants: int) -> CountryHostingResult:
        """Figure 1's panel for >= ``min_hypergiants`` hypergiants."""
        return country_hosting_fractions(self.latest_inventory, self.population, min_hypergiants)

    def validation(self, xi: float) -> ValidationSummary:
        """§3.2's hostname-based cluster validation at ``xi``."""
        parser = build_default_parser(self.internet.world)
        clusters = [
            cluster
            for clustering in self.clusterings[xi].values()
            for cluster in clustering.clusters
        ]
        return validate_clusters(clusters, self.ptr, parser)

    def scorecard(self, **kwargs):
        """Ground-truth accuracy scorecard for this study (ROADMAP item 5).

        Scores detection, clustering, rDNS geohints, and peering inference
        against the substrate's truth; see
        :func:`repro.eval.build_scorecard` for the knobs.
        """
        from repro.eval import build_scorecard

        return build_scorecard(self, **kwargs)

    def single_site_fraction(self, hypergiant: str, xi: float) -> float:
        """§4.1: fraction of hosting ISPs with a single site for ``hypergiant``.

        Computed over analyzable ISPs hosting the hypergiant; a site is a
        latency cluster (or unclustered singleton) restricted to the
        hypergiant's own IPs.
        """
        hypergiant_of_ip = self.hypergiant_of_ip
        total = 0
        single = 0
        for asn, clustering in self.clusterings[xi].items():
            own_ips = [ip for ip in clustering.ips if hypergiant_of_ip.get(ip) == hypergiant]
            if not own_ips:
                continue
            labels = {clustering.label_of(ip) for ip in own_ips}
            n_sites = sum(1 for label in labels if label >= 0)
            n_sites += sum(1 for ip in own_ips if clustering.label_of(ip) < 0)
            total += 1
            if n_sites == 1:
                single += 1
        return single / total if total else 0.0


def _isp_columns(matrix: LatencyMatrix, shard: Shard) -> list[np.ndarray]:
    """The RTT columns of each ``(asn, ips)`` ISP in ``shard``: its cut."""
    return [matrix.submatrix(ips) for _asn, ips in shard.items]


def _cluster_shard(
    configs: tuple[ClusteringConfig, ...],
    shard: Shard,
    telemetry: Telemetry | None,
) -> list[tuple[int, list[SiteClustering]]]:
    """Cluster one shard of ``(asn, ips)`` ISPs at every config.

    ``shard.payload`` holds each ISP's RTT columns (:func:`_isp_columns`).
    OPTICS draws no randomness, so shard placement cannot affect labels;
    per-ISP spans are recorded here so the serial and pool backends
    produce the same telemetry shape.
    """
    obs = ensure_telemetry(telemetry)
    results: list[tuple[int, list[SiteClustering]]] = []
    for (asn, ips), rtt in zip(shard.items, shard.payload):
        with obs.span("cluster.isp", asn=asn, n_ips=len(ips)):
            clusterings = cluster_isp_offnets(rtt, list(ips), configs, telemetry=telemetry)
        results.append((asn, clusterings))
    return results


def run_study(
    config: StudyConfig | None = None,
    telemetry: Telemetry | None = None,
    precomputed: PrecomputedArtifacts | None = None,
) -> Study:
    """Run the full pipeline; deterministic given ``config.seed``.

    ``telemetry`` (optional) records a span per stage, the filter-attrition
    funnel, and a span per ISP clustering.  Instrumentation never touches
    the RNG streams, so traced and untraced runs produce identical
    artifacts; without ``telemetry`` every recording call is a no-op.

    ``precomputed`` (optional) substitutes a persisted latency matrix and
    clusterings for the two expensive stages; see
    :class:`PrecomputedArtifacts`.  The stored artifacts must belong to
    exactly this config — a target-IP or xi mismatch raises
    :class:`ValueError` rather than silently mixing runs.
    """
    config = config or StudyConfig()
    obs = ensure_telemetry(telemetry)
    root = make_rng(config.seed)
    faults = config.faults
    resilience = config.resilience
    coverage = CoverageReport()

    with obs.span("study", seed=config.seed, rehydrated=precomputed is not None):
        with obs.span("topology") as topology_span:
            internet = generate_internet(config.internet)
            topology_span.set(n_items=len(internet.isps))
        obs.count("topology.isps", len(internet.isps))
        obs.count("topology.ixps", len(internet.ixps))
        obs.log("topology generated", isps=len(internet.isps), ixps=len(internet.ixps))

        with obs.span("deployment"):
            history = build_deployment_history(
                internet, config=config.placement, seed=spawn_rng(root, "deployment")
            )
        obs.count("deployment.epochs", len(history.epochs))
        obs.count("deployment.servers_2023", len(history.state("2023").servers))

        scans: dict[str, ScanResult] = {}
        with obs.span("scan"):
            for epoch in sorted(history.epochs):
                with obs.span(
                    "scan.epoch", epoch=epoch, n_items=len(history.state(epoch).servers)
                ):
                    scans[epoch] = run_scan(
                        internet,
                        history.state(epoch),
                        config.scan,
                        seed=spawn_rng(root, f"scan-{epoch}"),
                        telemetry=telemetry,
                        faults=faults,
                    )
                coverage.record(
                    "scan.records",
                    scans[epoch].records_dropped,
                    len(history.state(epoch).servers),
                )

        inventories: dict[str, OffnetInventory] = {}
        with obs.span("detect"):
            for epoch in sorted(history.epochs):
                with obs.span("detect.epoch", epoch=epoch) as detect_span:
                    inventories[epoch] = detect_offnets(internet, scans[epoch], telemetry=telemetry)
                    detect_span.set(n_items=len(inventories[epoch]))
        obs.log("offnets detected", **{epoch: len(inv) for epoch, inv in inventories.items()})

        with obs.span("ping_campaign") as campaign_span:
            vantage_points = build_vantage_points(
                internet.world, config.n_vantage_points, seed=spawn_rng(root, "vps")
            )

            # Measure the detected (not ground-truth) IPs: the pipeline must
            # live with its own detection errors, as the real study does.
            state_2023 = history.state("2023")
            target_ips = sorted(
                ip for ip in (d.ip for d in inventories["2023"].detections)
                if state_2023.server_at(ip) is not None
            )
            # Spawn the campaign stream even when rehydrating: every spawn
            # advances the root generator, and later stages (population,
            # PTR) must see exactly the streams a fresh run would.
            pings_rng = spawn_rng(root, "pings")
            if precomputed is None:
                matrix = measure_offnets(
                    internet,
                    state_2023,
                    target_ips,
                    vantage_points,
                    config.campaign,
                    seed=pings_rng,
                    telemetry=telemetry,
                    parallel=config.parallel,
                    faults=faults,
                    resilience=resilience,
                )
            else:
                require(
                    list(precomputed.target_ips) == target_ips,
                    "precomputed artifacts do not match this config: target IPs differ "
                    f"({len(precomputed.target_ips)} stored vs {len(target_ips)} detected)",
                )
                rtt_ms = np.asarray(precomputed.rtt_ms, dtype=float)
                require(
                    rtt_ms.shape == (len(vantage_points), len(target_ips)),
                    f"precomputed matrix shape {rtt_ms.shape} does not match "
                    f"({len(vantage_points)}, {len(target_ips)})",
                )
                # Injected ping drops are a pure function of the plan, so
                # the rehydrated matrix carries the same loss accounting a
                # fresh run would.  Shard losses are always zero here: the
                # store refuses to persist shard-degraded studies.
                dropped = injected_ping_drops(faults, len(target_ips))
                unmeasured = (
                    frozenset(int(target_ips[i]) for i in np.flatnonzero(dropped))
                    if dropped is not None
                    else frozenset()
                )
                matrix = LatencyMatrix(
                    vps=vantage_points,
                    ips=list(target_ips),
                    rtt_ms=rtt_ms,
                    unmeasured_ips=unmeasured,
                    shards_total=-(-len(target_ips) // CAMPAIGN_CHUNK),
                )
                obs.count("study.rehydrated_measurements", rtt_ms.size)
            campaign_span.set(n_items=int(matrix.rtt_ms.size))
            coverage.record("mlab.pings", len(matrix.unmeasured_ips), len(matrix.ips))
            coverage.record("campaign.shards", matrix.shards_lost, matrix.shards_total)

        min_vps = effective_min_vps(config.campaign, config.n_vantage_points)
        filter_config = replace(config.campaign, min_vps_per_isp=min_vps)
        ip_to_isp = {d.ip: d.isp_asn for d in inventories["2023"].detections}
        with obs.span("filters", min_vps_per_isp=min_vps, n_items=len(matrix.ips)):
            campaign = apply_quality_filters(matrix, ip_to_isp, filter_config, telemetry=telemetry)
        obs.log(
            "quality filters applied",
            kept_isps=len(campaign.ips_by_isp),
            dropped_isps=len(campaign.discarded_isp_asns),
        )

        with obs.span(
            "clustering", n_items=len(config.xis) * len(campaign.analyzable_isp_asns)
        ):
            obs.count("cluster.isps_analyzed", len(campaign.analyzable_isp_asns))
            if precomputed is None:
                # Work units are whole ISPs, each clustered at every xi in
                # one call; a shard carries its ISPs' RTT columns.
                isps = [(asn, campaign.ips_by_isp[asn]) for asn in campaign.analyzable_isp_asns]
                plan = ShardPlan.of(isps, chunk_size=CLUSTERING_ISPS_PER_SHARD)
                configs = tuple(ClusteringConfig(xi=xi) for xi in config.xis)
                shard_results = run_sharded(
                    partial(_cluster_shard, configs),
                    plan,
                    config.parallel,
                    telemetry=telemetry,
                    label="clustering",
                    faults=faults,
                    resilience=resilience,
                    payload=partial(_isp_columns, matrix),
                )
                clusterings = {xi: {} for xi in config.xis}
                clustering_shards_lost = 0
                for shard_result in shard_results:
                    if isinstance(shard_result, ShardLoss):
                        # The shard's ISPs are simply absent from the
                        # clusterings; downstream tables skip them and the
                        # loss is surfaced in coverage.
                        clustering_shards_lost += 1
                        continue
                    for asn, per_xi in shard_result:
                        for xi, clustering in zip(config.xis, per_xi):
                            clusterings[xi][asn] = clustering
                coverage.record("clustering.shards", clustering_shards_lost, plan.n_shards)
            else:
                require(
                    sorted(precomputed.clusterings) == sorted(config.xis),
                    "precomputed artifacts do not match this config: xis differ "
                    f"({sorted(precomputed.clusterings)} stored vs {sorted(config.xis)})",
                )
                expected_asns = set(campaign.analyzable_isp_asns)
                for xi, per_isp in precomputed.clusterings.items():
                    require(
                        set(per_isp) == expected_asns,
                        f"precomputed clusterings at xi={xi} cover different ISPs "
                        "than this config's filtered campaign",
                    )
                clusterings = {xi: dict(per_isp) for xi, per_isp in precomputed.clusterings.items()}
                n_isps = len(campaign.analyzable_isp_asns)
                coverage.record("clustering.shards", 0, -(-n_isps // CLUSTERING_ISPS_PER_SHARD))

        with obs.span("population", n_items=len(internet.isps)):
            population = build_population_dataset(
                internet, config.population_noise_sigma, seed=spawn_rng(root, "population")
            )
        with obs.span("ptr", n_items=len(state_2023.servers)):
            ptr = build_ptr_dataset(
                state_2023, internet.world, config.ptr, seed=spawn_rng(root, "ptr"), faults=faults
            )
        coverage.record("rdns.lookups", ptr.lookups_failed, len(state_2023.servers))

        if not coverage.complete:
            obs.gauge("resilience.coverage_lost_shards", coverage.shards_lost)
            obs.log(
                "study degraded by injected or quarantined losses",
                shards_lost=coverage.shards_lost,
                sites={site: lost for site, (lost, _) in coverage.entries.items() if lost},
            )

    return Study(
        config=config,
        internet=internet,
        history=history,
        scans=scans,
        inventories=inventories,
        vantage_points=vantage_points,
        matrix=matrix,
        campaign=campaign,
        clusterings=clusterings,
        population=population,
        ptr=ptr,
        coverage=coverage,
        telemetry=telemetry,
    )
