"""Offnet inference: join certificate fingerprints with IP ownership.

The §2.2 rule: *"If an IP address of an ISP other than a hypergiant hosts a
certificate of the hypergiant, then the IP address corresponds to an offnet
server of the hypergiant, hosted in the ISP."*  This module applies that rule
to a :class:`~repro.scan.scanner.ScanResult` and scores the inference against
the generated ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.deployment.placement import DeploymentState
from repro.obs import Telemetry, ensure_telemetry
from repro.scan.fingerprints import FingerprintRule, fingerprint_rules, rule_matcher
from repro.scan.scanner import ScanResult
from repro.topology.asn import AS
from repro.topology.generator import Internet


@dataclass(frozen=True)
class DetectedOffnet:
    """One inferred offnet server."""

    ip: int
    hypergiant: str
    isp_asn: int


@dataclass
class OffnetInventory:
    """The inferred offnet footprint of one scan."""

    epoch: str
    edition: str
    detections: list[DetectedOffnet]
    _by_hypergiant: dict[str, list[DetectedOffnet]] = field(init=False, repr=False)
    _isps_by_hypergiant: dict[str, set[int]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._by_hypergiant = {}
        self._isps_by_hypergiant = {}
        seen_ips: set[int] = set()
        for detection in self.detections:
            if detection.ip in seen_ips:
                raise ValueError(f"IP {detection.ip} detected twice")
            seen_ips.add(detection.ip)
            self._by_hypergiant.setdefault(detection.hypergiant, []).append(detection)
            self._isps_by_hypergiant.setdefault(detection.hypergiant, set()).add(detection.isp_asn)

    def __len__(self) -> int:
        return len(self.detections)

    def ips_of(self, hypergiant: str) -> list[int]:
        """Detected offnet IPs of ``hypergiant``, sorted."""
        return sorted(d.ip for d in self._by_hypergiant.get(hypergiant, ()))

    def isp_count(self, hypergiant: str) -> int:
        """Number of distinct ISPs hosting detected ``hypergiant`` offnets."""
        return len(self._isps_by_hypergiant.get(hypergiant, ()))

    def isp_asns(self, hypergiant: str) -> set[int]:
        """ASNs of ISPs hosting detected ``hypergiant`` offnets."""
        return set(self._isps_by_hypergiant.get(hypergiant, ()))

    def hosting_isp_asns(self) -> set[int]:
        """ASNs hosting at least one detected offnet of any hypergiant."""
        result: set[int] = set()
        for asns in self._isps_by_hypergiant.values():
            result.update(asns)
        return result

    def hypergiants_in_isp(self, asn: int) -> list[str]:
        """Hypergiants with detected offnets in ISP ``asn``, sorted."""
        return sorted(hg for hg, asns in self._isps_by_hypergiant.items() if asn in asns)

    def detections_in_isp(self, asn: int) -> list[DetectedOffnet]:
        """All detections inside ISP ``asn``, in IP order."""
        return sorted((d for d in self.detections if d.isp_asn == asn), key=lambda d: d.ip)


def detect_offnets(
    internet: Internet,
    scan: ScanResult,
    rules: list[FingerprintRule] | None = None,
    ip2as=None,
    telemetry: Telemetry | None = None,
) -> OffnetInventory:
    """Apply fingerprint ``rules`` (default: scan-epoch edition) to ``scan``.

    ``ip2as`` optionally supplies a BGP-derived IP-to-AS dataset
    (:class:`repro.bgp.ip2as.Ip2AsDataset`); without it, attribution uses
    the ground-truth address plan (a perfect IP-to-AS oracle).  The
    ablation bench compares the two.
    """
    if rules is None:
        rules = fingerprint_rules(scan.epoch)
    obs = ensure_telemetry(telemetry)
    hypergiant_asns = {a.asn for a in internet.hypergiant_ases.values()}
    match = rule_matcher(rules)
    # Whether each owner seen so far hosts offnets: an ISP, not a hypergiant.
    hosts_offnets: dict[AS | None, bool] = {None: False}
    detections: list[DetectedOffnet] = []
    matched_records = 0
    for record in scan.records:
        matched = match(record.certificate)
        if matched is None:
            continue
        matched_records += 1
        if ip2as is None:
            owner = internet.plan.owner_of(record.ip)
        else:
            owner_asn = ip2as.lookup(record.ip)
            owner = internet.registry.get(owner_asn) if owner_asn is not None and owner_asn in internet.registry else None
        if owner not in hosts_offnets:
            hosts_offnets[owner] = owner.asn not in hypergiant_asns and owner.is_isp
        if not hosts_offnets[owner]:
            continue  # onnet or unattributable: not an offnet
        detections.append(DetectedOffnet(ip=record.ip, hypergiant=matched, isp_asn=owner.asn))
    edition = rules[0].edition if rules else "2023"
    obs.count("detect.records_scanned", len(scan.records))
    obs.count("detect.records_matched", matched_records)
    obs.count("detect.onnet_or_unattributable", matched_records - len(detections))
    obs.count("detect.offnets_found", len(detections))
    return OffnetInventory(epoch=scan.epoch, edition=edition, detections=detections)


@dataclass(frozen=True)
class DetectionScore:
    """Precision/recall of an inventory against deployment ground truth."""

    true_positives: int
    false_positives: int
    false_negatives: int

    @property
    def precision(self) -> float:
        """TP / (TP + FP); 1.0 when nothing was detected."""
        detected = self.true_positives + self.false_positives
        return self.true_positives / detected if detected else 1.0

    @property
    def recall(self) -> float:
        """TP / (TP + FN); 1.0 when nothing was deployed."""
        actual = self.true_positives + self.false_negatives
        return self.true_positives / actual if actual else 1.0

    @property
    def f1(self) -> float:
        """Harmonic mean of precision and recall (0.0 when both are 0)."""
        denominator = self.precision + self.recall
        return 2.0 * self.precision * self.recall / denominator if denominator else 0.0


def score_detection(inventory: OffnetInventory, truth: DeploymentState) -> DetectionScore:
    """Score ``inventory`` against the ground-truth deployment ``truth``.

    A detection is a true positive iff the IP really hosts an offnet of the
    detected hypergiant.  Ground-truth servers that went undetected (e.g.
    unresponsive during the scan) are false negatives.
    """
    true_positives = 0
    false_positives = 0
    detected_ips: set[int] = set()
    for detection in inventory.detections:
        detected_ips.add(detection.ip)
        server = truth.server_at(detection.ip)
        if server is not None and server.hypergiant == detection.hypergiant:
            true_positives += 1
        else:
            false_positives += 1
    false_negatives = sum(1 for server in truth.servers if server.ip not in detected_ips)
    return DetectionScore(true_positives, false_positives, false_negatives)
