"""The incremental recomputation engine.

Per-quarter analysis decomposes into content-addressed stages layered on
:class:`repro.store.StageStore`:

* ``detect`` — one entry per (hypergiant, ISP) deployment: which of its
  offnet IPs answer the scan and present a matching certificate.  Keyed
  by the deployment's exact IP set, so a deployment unchanged between
  quarters (the common case under monotone growth) is scanned once.
* ``cluster`` — one entry per ISP: the Appendix-A filter outcome and the
  per-xi site labels.  Keyed by the ISP's detected IP set, the campaign
  and clustering knobs and the substrate, so a fully-unchanged ISP costs
  one file read; on a miss the ISP is measured (the vantage point × IP
  RTT matrix), filtered and clustered, and only the outcome is stored.
* ``epoch`` — one entry per quarter: the aggregated series row (Table 1
  counts, cohosting, Figure-1 panels, concentration, coverage).  This is
  the campaign cell and resume token.

Determinism invariants:

* every stage's randomness is seeded from its *content key* (via
  blake2b), never from a shared root stream — so stage outputs are pure
  functions of their inputs and the cache can only ever substitute a
  value for the identical computation;
* per-server scan-response coins hash ``(seed, ip)`` directly, so a
  server's fate never depends on its siblings (a capacity event adds
  servers without re-rolling the survivors);
* stage payloads are canonical JSON with string keys only, so a cached
  row round-trips byte-identically through ``json`` — the property the
  differential harness (``tests/test_timeline.py``) checks end-to-end.

Faults are deliberately *not* injected inside stages (a perturbed stage
output would poison the cache under its honest key); chaos enters at the
``timeline.shard`` site around whole epoch cells instead.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace

import numpy as np

from repro._util import hash_coin, hash_u64, make_rng, require, spawn_rng
from repro.clustering.sites import ClusteringConfig, SiteClustering, cluster_isp_offnets
from repro.core.concentration import coverage_statistics, single_facility_concentration
from repro.core.pipeline import StudyConfig
from repro.deployment.hypergiants import NAME_ORDERED_PROFILES
from repro.deployment.placement import PlacementConfig
from repro.experiments.figure1 import figure1_panels
from repro.experiments.section32 import cohosting_counts
from repro.faults import FaultPlan
from repro.mlab.matrix import (
    LatencyCampaignConfig,
    LatencyMatrix,
    apply_quality_filters,
    effective_min_vps,
    measure_offnets,
)
from repro.mlab.vantage import VantagePoint, build_vantage_points
from repro.obs import Telemetry, ensure_telemetry
from repro.parallel import ParallelConfig
from repro.population.users import PopulationDataset, build_population_dataset
from repro.resilience import ResilienceConfig
from repro.scan.certificates import SHARED_OFFNET_CERTIFICATES, certificate_for_server
from repro.scan.detection import DetectedOffnet, OffnetInventory
from repro.scan.fingerprints import FingerprintRule, fingerprint_rules, rule_matcher
from repro.scan.scanner import ScanConfig
from repro.store import StageStore, stage_key
from repro.store.keys import _jsonable
from repro.timeline.events import Timeline, TimelineSpec, build_timeline
from repro.topology.generator import Internet, InternetConfig, generate_internet

#: Figure-1 thresholds and concentration report points.
FIGURE1_KS = (2, 3, 4)
CONCENTRATION_SHARES = (0.25, 0.5)
CONCENTRATION_HG_COUNTS = (2, 4)


@dataclass(frozen=True)
class TimelineConfig:
    """Everything needed to reproduce one longitudinal timeline run.

    Mirrors :class:`repro.core.pipeline.StudyConfig` where the stages
    overlap; ``spec`` replaces the two-epoch deployment history.
    ``parallel``/``faults``/``resilience`` are execution-only — they
    shape where epoch cells run and which are lost, never the bytes a
    completed cell produces, so they stay out of every stage key.
    """

    internet: InternetConfig = field(default_factory=InternetConfig)
    placement: PlacementConfig = field(default_factory=PlacementConfig)
    scan: ScanConfig = field(default_factory=ScanConfig)
    campaign: LatencyCampaignConfig = field(default_factory=LatencyCampaignConfig)
    spec: TimelineSpec = field(default_factory=TimelineSpec)
    n_vantage_points: int = 163
    xis: tuple[float, ...] = (0.1, 0.9)
    population_noise_sigma: float = 0.0
    parallel: ParallelConfig = field(default_factory=ParallelConfig)
    faults: FaultPlan | None = None
    resilience: ResilienceConfig | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        require(self.n_vantage_points >= 2, "need at least two vantage points")
        require(bool(self.xis), "need at least one xi value")
        for xi in self.xis:
            require(0.0 < xi < 1.0, f"xi must be in (0, 1), got {xi}")

    @classmethod
    def from_study(
        cls,
        base: StudyConfig,
        spec: TimelineSpec,
        parallel: ParallelConfig | None = None,
        faults: FaultPlan | None = None,
        resilience: ResilienceConfig | None = None,
    ) -> "TimelineConfig":
        """The timeline over ``spec`` of ``base``'s substrate and knobs.

        Copies the fields a study and a timeline share (``repro timeline``
        and ``repro serve`` both start from a scenario's study config);
        ``parallel`` defaults to the study's.
        """
        return cls(
            internet=base.internet,
            placement=base.placement,
            scan=base.scan,
            campaign=base.campaign,
            spec=spec,
            n_vantage_points=base.n_vantage_points,
            xis=base.xis,
            population_noise_sigma=base.population_noise_sigma,
            parallel=parallel if parallel is not None else base.parallel,
            faults=faults,
            resilience=resilience,
            seed=base.seed,
        )


def timeline_fingerprint(config: TimelineConfig) -> str:
    """The artifact-relevant fingerprint of a timeline config.

    Participates in every stage key; excludes ``parallel``, ``faults``
    and ``resilience`` (execution-only, see :class:`TimelineConfig`).
    """
    view = {
        "internet": _jsonable(config.internet),
        "placement": _jsonable(config.placement),
        "scan": _jsonable(config.scan),
        "campaign": _jsonable(config.campaign),
        "spec": config.spec.to_json(),
        "n_vantage_points": config.n_vantage_points,
        "xis": list(config.xis),
        "population_noise_sigma": config.population_noise_sigma,
        "seed": config.seed,
    }
    material = json.dumps(view, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(material.encode()).hexdigest()


@dataclass
class TimelineSubstrate:
    """The per-process shared inputs every epoch cell reads.

    Built once per (process, fingerprint) — see :func:`build_substrate`;
    epoch cells treat it as immutable.
    """

    config: TimelineConfig
    fingerprint: str
    internet: Internet
    timeline: Timeline
    vantage_points: list[VantagePoint]
    population: PopulationDataset
    rules: list[FingerprintRule]


_SUBSTRATE_MEMO: dict[str, TimelineSubstrate] = {}
_SUBSTRATE_MEMO_LIMIT = 4


def build_substrate(config: TimelineConfig, telemetry: Telemetry | None = None) -> TimelineSubstrate:
    """Build (or reuse) the shared substrate for ``config``.

    Topology, final placement, event stream, vantage points, population
    and fingerprint rules are epoch-independent; memoized per process so
    a worker handling many epoch cells pays for them once.
    """
    fingerprint = timeline_fingerprint(config)
    cached = _SUBSTRATE_MEMO.get(fingerprint)
    if cached is not None:
        return cached
    obs = ensure_telemetry(telemetry)
    with obs.span("timeline.substrate"):
        internet = generate_internet(config.internet)
        timeline = build_timeline(internet, config.spec, config.placement)
        root = make_rng(config.seed)
        vantage_points = build_vantage_points(
            internet.world, config.n_vantage_points, seed=spawn_rng(root, "vps")
        )
        population = build_population_dataset(
            internet, config.population_noise_sigma, seed=spawn_rng(root, "population")
        )
        rules = fingerprint_rules(config.spec.edition)
    substrate = TimelineSubstrate(
        config=config,
        fingerprint=fingerprint,
        internet=internet,
        timeline=timeline,
        vantage_points=vantage_points,
        population=population,
        rules=rules,
    )
    if len(_SUBSTRATE_MEMO) >= _SUBSTRATE_MEMO_LIMIT:
        _SUBSTRATE_MEMO.clear()
    _SUBSTRATE_MEMO[fingerprint] = substrate
    return substrate


# -- detect stage ---------------------------------------------------------------


def _responds(seed: int, ip: int, nonresponse_rate: float) -> bool:
    """Per-server scan-response coin: a pure hash of ``(seed, ip)``.

    Independent of the sibling set by construction, so capacity events
    never re-roll existing servers' fates.
    """
    if nonresponse_rate <= 0.0:
        return True
    return hash_coin(f"{seed}:timeline.response:{ip}") >= nonresponse_rate


def detect_stage_key(config: TimelineConfig, hypergiant: str, isp_asn: int, ips: list[int]) -> str:
    """Content key of one deployment's scan+detect outcome."""
    return stage_key(
        "detect",
        {
            "edition": config.spec.edition,
            "hypergiant": hypergiant,
            "ips": list(ips),
            "isp_asn": isp_asn,
            "nonresponse_rate": config.scan.offnet_nonresponse_rate,
            "seed": config.seed,
        },
    )


def run_detect_stage(
    substrate: TimelineSubstrate,
    hypergiant: str,
    isp_asn: int,
    servers: list,
    store: StageStore | None,
) -> list[tuple[int, str]]:
    """Scan one deployment's servers and match certificates against rules.

    Returns ``[(ip, detected_hypergiant), ...]`` in IP order.  A server
    whose certificate draws (Meta's 2023 site code) gets an RNG seeded
    from ``(config seed, ip)``, so the per-server draw is identical no
    matter which quarter, sibling set, or worker evaluates it; every
    other server presents its shared certificate and needs no RNG.
    ``store=None`` disables caching (the differential harness's
    full-rerun leg).
    """
    config = substrate.config
    ips = [server.ip for server in servers]
    key = detect_stage_key(config, hypergiant, isp_asn, ips)
    cached = store.get("detect", key) if store is not None else None
    if cached is not None:
        return [(int(ip), str(name)) for ip, name in cached["detections"]]
    match = rule_matcher(substrate.rules)
    detections: list[tuple[int, str]] = []
    for server in servers:
        if not _responds(config.seed, server.ip, config.scan.offnet_nonresponse_rate):
            continue
        certificate = SHARED_OFFNET_CERTIFICATES.get((server.hypergiant, config.spec.edition))
        if certificate is None:  # the server's own certificate draws
            cert_rng = make_rng(hash_u64(f"{config.seed}:timeline.cert:{server.ip}"))
            certificate = certificate_for_server(server, config.spec.edition, cert_rng)
        matched = match(certificate)
        if matched is not None:
            detections.append((server.ip, matched))
    if store is not None:
        store.put("detect", key, {"detections": [[ip, name] for ip, name in detections]})
    return detections


# -- cluster stage --------------------------------------------------------------


def measure_stage_key(substrate: TimelineSubstrate, isp_asn: int, ips: list[int]) -> str:
    """Content key of one ISP's latency campaign.

    Nothing is stored under it: it seeds the campaign and is the
    material of :func:`cluster_stage_key`.
    """
    return stage_key(
        "measure",
        {
            "campaign": _jsonable(substrate.config.campaign),
            "ips": list(ips),
            "isp_asn": isp_asn,
            "substrate": substrate.fingerprint,
        },
    )


def run_measure_stage(
    substrate: TimelineSubstrate,
    isp_asn: int,
    ips: list[int],
    telemetry: Telemetry | None = None,
) -> LatencyMatrix:
    """Measure one ISP's detected offnets from every vantage point.

    The campaign seed is derived from the content key, so the matrix is
    a pure function of (substrate, ISP, IP set) — re-measuring the same
    set in a later quarter reproduces it bit-for-bit.  Ground truth
    comes from the *final* placement (every quarter's servers are a
    subset of it).
    """
    key = measure_stage_key(substrate, isp_asn, ips)
    return measure_offnets(
        substrate.internet,
        substrate.timeline.final_state,
        list(ips),
        substrate.vantage_points,
        substrate.config.campaign,
        seed=hash_u64(f"measure:{key}"),
        telemetry=telemetry,
    )


def cluster_stage_key(substrate: TimelineSubstrate, measure_key: str) -> str:
    """Content key of one ISP's filter+clustering outcome."""
    config = substrate.config
    return stage_key(
        "cluster",
        {
            "measure": measure_key,
            "min_vps": effective_min_vps(config.campaign, config.n_vantage_points),
            "xis": list(config.xis),
        },
    )


def run_cluster_stage(
    substrate: TimelineSubstrate,
    isp_asn: int,
    ips: list[int],
    store: StageStore | None,
    telemetry: Telemetry | None = None,
) -> dict:
    """Measure, filter and cluster one ISP's offnets; returns the stage payload.

    Payload: ``{"analyzable": bool, "ips": kept IPs, "labels":
    {str(xi): [label, ...]}}``.  A hit costs a single cache read; a miss
    measures the ISP (:func:`run_measure_stage`) and stores only the
    payload.
    """
    config = substrate.config
    key = cluster_stage_key(substrate, measure_stage_key(substrate, isp_asn, ips))
    cached = store.get("cluster", key) if store is not None else None
    if cached is not None:
        return cached
    matrix = run_measure_stage(substrate, isp_asn, ips, telemetry=telemetry)
    filter_config = replace(
        config.campaign,
        min_vps_per_isp=effective_min_vps(config.campaign, config.n_vantage_points),
    )
    filtered = apply_quality_filters(
        matrix, {ip: isp_asn for ip in matrix.ips}, filter_config, telemetry=telemetry
    )
    kept = filtered.ips_by_isp.get(isp_asn, [])
    payload: dict = {"analyzable": bool(kept), "ips": [int(ip) for ip in kept], "labels": {}}
    if kept:
        clusterings = cluster_isp_offnets(
            matrix.submatrix(kept),
            list(kept),
            [ClusteringConfig(xi=xi) for xi in config.xis],
            telemetry=telemetry,
        )
        for xi, clustering in zip(config.xis, clusterings):
            payload["labels"][str(xi)] = [int(label) for label in clustering.labels]
    if store is not None:
        store.put("cluster", key, payload)
    return payload


# -- epoch aggregation ----------------------------------------------------------


def epoch_stage_key(config: TimelineConfig, quarter: str) -> str:
    """Content key of one quarter's aggregated series row (resume token)."""
    return stage_key("epoch", {"quarter": quarter, "substrate": timeline_fingerprint(config)})


def compute_epoch(
    substrate: TimelineSubstrate,
    quarter: str,
    store: StageStore | None,
    telemetry: Telemetry | None = None,
) -> dict:
    """Aggregate one quarter's series row through the cached stages.

    All dict keys in the returned row are strings (``json`` round-trip
    byte-stability); numeric values are plain ints/floats.
    """
    config = substrate.config
    obs = ensure_telemetry(telemetry)
    timeline = substrate.timeline
    state = timeline.state_at(quarter)

    with obs.span("timeline.detect", epoch=quarter, n_items=len(state.deployments)):
        detections: list[DetectedOffnet] = []
        for deployment in state.deployments:
            found = run_detect_stage(
                substrate, deployment.hypergiant, deployment.isp.asn, deployment.servers, store
            )
            detections.extend(
                DetectedOffnet(ip=ip, hypergiant=name, isp_asn=deployment.isp.asn)
                for ip, name in found
            )
        detections.sort(key=lambda d: d.ip)
        inventory = OffnetInventory(epoch=quarter, edition=config.spec.edition, detections=detections)

    table1 = {profile.name: inventory.isp_count(profile.name) for profile in NAME_ORDERED_PROFILES}
    cohosting = {str(k): v for k, v in cohosting_counts(inventory).items()}
    panels = figure1_panels(inventory, substrate.population, FIGURE1_KS)
    figure1 = {
        str(k): {
            "world_user_fraction": panel.world_user_fraction(substrate.population),
            "majority_countries": len(panel.countries_above(0.5)),
            "full_countries": panel.countries_above(0.9),
        }
        for k, panel in panels.items()
    }

    ips_by_isp: dict[int, list[int]] = {}
    for detection in detections:
        ips_by_isp.setdefault(detection.isp_asn, []).append(detection.ip)

    with obs.span("timeline.colocate", epoch=quarter, n_items=len(ips_by_isp)):
        clusterings: dict[float, dict[int, SiteClustering]] = {xi: {} for xi in config.xis}
        analyzable_asns: list[int] = []
        for asn in sorted(ips_by_isp):
            outcome = run_cluster_stage(
                substrate, asn, sorted(ips_by_isp[asn]), store, telemetry=telemetry
            )
            if not outcome["analyzable"]:
                continue
            analyzable_asns.append(asn)
            kept = [int(ip) for ip in outcome["ips"]]
            for xi in config.xis:
                labels = np.array([int(v) for v in outcome["labels"][str(xi)]], dtype=int)
                clusterings[xi][asn] = SiteClustering(
                    ips=kept, labels=labels, config=ClusteringConfig(xi=xi)
                )

    hypergiant_of_ip = {d.ip: d.hypergiant for d in detections}
    concentration: dict[str, dict[str, float]] = {}
    for xi in config.xis:
        result = single_facility_concentration(
            xi, clusterings[xi], hypergiant_of_ip, substrate.population
        )
        concentration[str(xi)] = {
            **{
                f"user_share_{int(100 * s)}": result.user_fraction_with_share_at_least(s)
                for s in CONCENTRATION_SHARES
            },
            **{
                f"user_hgs_{n}": result.user_fraction_with_hypergiants_at_least(n)
                for n in CONCENTRATION_HG_COUNTS
            },
        }
    coverage = coverage_statistics(inventory, analyzable_asns, substrate.population)

    obs.count("timeline.epochs_computed")
    return {
        "epoch": quarter,
        "events": len(timeline.events_at(quarter)),
        "n_servers": len(state.servers),
        "n_detections": len(detections),
        "table1": table1,
        "cohosting": cohosting,
        "figure1": figure1,
        "analyzable_isps": len(analyzable_asns),
        "concentration": concentration,
        "coverage": {name: float(value) for name, value in sorted(coverage.items())},
    }
