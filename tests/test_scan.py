"""Tests for certificates, fingerprints, scanning, and offnet detection."""

import dataclasses
import hashlib
import json

import pytest

from repro._util import make_rng
from repro.scan.certificates import (
    Certificate,
    certificate_for_server,
    impostor_certificate,
    infrastructure_certificate,
    onnet_certificate,
)
from repro.scan.detection import detect_offnets, score_detection
from repro.scan.fingerprints import fingerprint_rules
from repro.scan.scanner import ScanConfig, ScanResult, ScanRecord, run_scan

from tests.conftest import _require_golden_numpy


@pytest.fixture(scope="module")
def scan23(small_internet, state23):
    return run_scan(small_internet, state23, seed=2)


@pytest.fixture(scope="module")
def inventory23(small_internet, scan23):
    return detect_offnets(small_internet, scan23)


def server_of(state, hypergiant):
    return next(s for s in state.servers if s.hypergiant == hypergiant)


class TestCertificates:
    def test_google_2021_has_organization(self, state23):
        cert = certificate_for_server(server_of(state23, "Google"), "2021", make_rng(0))
        assert cert.subject_organization == "Google LLC"

    def test_google_2023_dropped_organization(self, state23):
        cert = certificate_for_server(server_of(state23, "Google"), "2023", make_rng(0))
        assert cert.subject_organization is None
        assert cert.subject_common_name == "*.googlevideo.com"

    def test_meta_2021_uses_onnet_name(self, state23):
        cert = certificate_for_server(server_of(state23, "Meta"), "2021", make_rng(0))
        assert cert.subject_common_name == "*.fbcdn.net"

    def test_meta_2023_site_specific_name(self, state23):
        server = server_of(state23, "Meta")
        cert = certificate_for_server(server, "2023", make_rng(0))
        assert cert.subject_common_name.endswith(".fna.fbcdn.net")
        assert cert.subject_common_name != "*.fbcdn.net"
        # The site code embeds the facility's IATA code, like fhan14-4.
        iata = server.facility.city.iata
        assert f"f{iata}" in cert.subject_common_name

    def test_rejects_unknown_epoch(self, state23):
        with pytest.raises(ValueError):
            certificate_for_server(state23.servers[0], "2020", make_rng(0))

    def test_onnet_matches_offnet_naming(self):
        for hypergiant in ("Google", "Netflix", "Meta", "Akamai"):
            cert = onnet_certificate(hypergiant)
            assert cert.subject_common_name

    def test_onnet_google_2021_has_org(self):
        assert onnet_certificate("Google", "2021").subject_organization == "Google LLC"

    def test_impostor_is_self_signed(self):
        cert = impostor_certificate("Google", make_rng(0))
        assert cert.self_signed

    def test_all_names_dedup(self):
        cert = Certificate("a.example", None, ("a.example", "b.example"), "CA", "Org")
        assert cert.all_names == ("a.example", "b.example")


class TestFingerprints:
    def test_editions(self):
        assert {r.hypergiant for r in fingerprint_rules("2021")} == {"Google", "Netflix", "Meta", "Akamai"}
        with pytest.raises(ValueError):
            fingerprint_rules("2022")

    def test_2021_google_rule_misses_2023_cert(self, state23):
        cert = certificate_for_server(server_of(state23, "Google"), "2023", make_rng(0))
        rule_2021 = next(r for r in fingerprint_rules("2021") if r.hypergiant == "Google")
        rule_2023 = next(r for r in fingerprint_rules("2023") if r.hypergiant == "Google")
        assert not rule_2021.matches(cert)
        assert rule_2023.matches(cert)

    def test_2021_meta_rule_misses_site_specific_names(self, state23):
        cert = certificate_for_server(server_of(state23, "Meta"), "2023", make_rng(0))
        rule_2021 = next(r for r in fingerprint_rules("2021") if r.hypergiant == "Meta")
        rule_2023 = next(r for r in fingerprint_rules("2023") if r.hypergiant == "Meta")
        assert not rule_2021.matches(cert)
        assert rule_2023.matches(cert)

    def test_netflix_rule_stable_across_epochs(self, state23):
        for epoch in ("2021", "2023"):
            cert = certificate_for_server(server_of(state23, "Netflix"), epoch, make_rng(0))
            for edition in ("2021", "2023"):
                rule = next(r for r in fingerprint_rules(edition) if r.hypergiant == "Netflix")
                assert rule.matches(cert)

    def test_impostors_rejected_by_issuer_check(self):
        for hypergiant in ("Google", "Netflix", "Meta", "Akamai"):
            cert = impostor_certificate(hypergiant, make_rng(1))
            for rule in fingerprint_rules("2023"):
                assert not rule.matches(cert)

    def test_infrastructure_certs_never_match(self, small_internet):
        cert = infrastructure_certificate(small_internet.isps[0], 0)
        for edition in ("2021", "2023"):
            for rule in fingerprint_rules(edition):
                assert not rule.matches(cert)

    def test_meta_suffix_does_not_match_lookalike(self):
        lookalike = Certificate(
            "evil-fbcdn.net.example.com", None, (), "DigiCert", "DigiCert Inc"
        )
        rule = next(r for r in fingerprint_rules("2023") if r.hypergiant == "Meta")
        assert not rule.matches(lookalike)


class TestScanner:
    def test_unique_ips(self, scan23):
        ips = [r.ip for r in scan23.records]
        assert len(ips) == len(set(ips))

    def test_epoch_recorded(self, scan23):
        assert scan23.epoch == "2023"

    def test_most_offnets_respond(self, scan23, state23):
        responded = sum(1 for s in state23.servers if scan23.record_at(s.ip) is not None)
        assert responded / len(state23.servers) > 0.95

    def test_some_offnets_missed(self, scan23, state23):
        responded = sum(1 for s in state23.servers if scan23.record_at(s.ip) is not None)
        assert responded < len(state23.servers)

    def test_onnet_servers_present(self, small_internet, scan23):
        google = small_internet.hypergiant_as("Google")
        prefix = small_internet.plan.prefixes_of(google)[0]
        assert scan23.record_at(prefix.base + 1) is not None

    def test_duplicate_record_rejected(self):
        cert = Certificate("a", None, (), "CA", "Org")
        with pytest.raises(ValueError):
            ScanResult(epoch="2023", records=[ScanRecord(1, cert), ScanRecord(1, cert)])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ScanConfig(offnet_nonresponse_rate=1.5)

    def test_scan_deterministic(self, small_internet, state23):
        a = run_scan(small_internet, state23, seed=8)
        b = run_scan(small_internet, state23, seed=8)
        assert [r.ip for r in a.records] == [r.ip for r in b.records]


class TestDetection:
    def test_high_precision_and_recall(self, inventory23, state23):
        score = score_detection(inventory23, state23)
        assert score.precision > 0.999
        assert score.recall > 0.95

    def test_onnets_excluded(self, small_internet, inventory23):
        hypergiant_asns = {a.asn for a in small_internet.hypergiant_ases.values()}
        assert not (inventory23.hosting_isp_asns() & hypergiant_asns)

    def test_detected_isps_match_truth(self, inventory23, state23):
        for hypergiant in ("Google", "Netflix", "Meta", "Akamai"):
            truth_asns = {i.asn for i in state23.isps_hosting(hypergiant)}
            detected = inventory23.isp_asns(hypergiant)
            assert detected <= truth_asns
            assert len(detected) >= 0.95 * len(truth_asns)

    def test_2021_rules_on_2023_scan_miss_evaders(self, small_internet, scan23):
        stale = detect_offnets(small_internet, scan23, rules=fingerprint_rules("2021"))
        assert stale.isp_count("Google") == 0
        assert stale.isp_count("Meta") == 0
        assert stale.isp_count("Netflix") > 0
        assert stale.isp_count("Akamai") > 0

    def test_2021_rules_work_on_2021_scan(self, small_internet, history):
        state21 = history.state("2021")
        scan21 = run_scan(small_internet, state21, seed=2)
        inventory = detect_offnets(small_internet, scan21)
        score = score_detection(inventory, state21)
        assert score.precision > 0.999
        assert score.recall > 0.95

    def test_hypergiants_in_isp(self, inventory23):
        asn = next(iter(inventory23.hosting_isp_asns()))
        hypergiants = inventory23.hypergiants_in_isp(asn)
        assert hypergiants == sorted(hypergiants)
        assert hypergiants

    def test_detections_in_isp_sorted(self, inventory23):
        asn = next(iter(inventory23.hosting_isp_asns()))
        detections = inventory23.detections_in_isp(asn)
        assert [d.ip for d in detections] == sorted(d.ip for d in detections)


#: sha256 over the small scenario's substrate: both epochs' placements down
#: to the rack, every record of both scans (undetected infrastructure hosts
#: and impostors included) and both inventories.  The export digests carry
#: only what the pipeline keeps downstream of detection.
SMALL_SCENARIO_SUBSTRATE_SHA256 = "d55a19fe9e9c611a1580df3ac10022b2e5bb5d052901d8f96279dfd228bc15d4"


def substrate_digest(study) -> str:
    """One JSON line per placed server, scan record and detection, hashed."""
    digest = hashlib.sha256()

    def feed(*fields):
        digest.update(json.dumps(fields).encode() + b"\n")

    certificate_fields = [field.name for field in dataclasses.fields(Certificate)]
    for epoch in sorted(study.history.epochs):
        state = study.history.state(epoch)
        feed("state", epoch, len(state.servers))
        for server in state.servers:
            feed(server.ip, server.hypergiant, server.isp.asn, server.facility.facility_id, server.rack.rack_id)
    for epoch in sorted(study.scans):
        scan = study.scans[epoch]
        feed("scan", epoch, len(scan.records), scan.records_dropped)
        for record in scan.records:
            feed(record.ip, *(getattr(record.certificate, name) for name in certificate_fields))
    for epoch in sorted(study.inventories):
        inventory = study.inventories[epoch]
        feed("inventory", epoch, inventory.edition, len(inventory))
        for detection in inventory.detections:
            feed(detection.ip, detection.hypergiant, detection.isp_asn)
    return digest.hexdigest()


def test_small_scenario_substrate_matches_pinned_digest(small_study):
    """Placement, scan and detection bytes that no export digest carries."""
    _require_golden_numpy()
    assert substrate_digest(small_study) == SMALL_SCENARIO_SUBSTRATE_SHA256
