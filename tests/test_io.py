"""Tests for study archives: save, load, and third-party reanalysis."""

import json
import shutil
import zipfile

import numpy as np
import pytest

from repro.core.colocation import build_colocation_table
from repro.io.archive import (
    ArchiveCorruptError,
    file_sha256,
    load_archive,
    save_archive,
    verify_archive,
)

from tests.conftest import deflate_latency_npz


@pytest.fixture(scope="module")
def archive_dir(small_study, tmp_path_factory):
    directory = tmp_path_factory.mktemp("archive")
    save_archive(small_study, directory)
    return directory


@pytest.fixture(scope="module")
def loaded(archive_dir):
    return load_archive(archive_dir)


@pytest.fixture()
def copy_dir(archive_dir, tmp_path):
    destination = tmp_path / "copy"
    shutil.copytree(archive_dir, destination)
    return destination


class TestRoundTrip:
    def test_manifest(self, loaded, small_study):
        assert loaded.manifest.epochs == ("2021", "2023")
        assert loaded.manifest.xis == small_study.config.xis
        assert loaded.manifest.n_detections == len(small_study.latest_inventory)

    def test_inventories_match(self, loaded, small_study):
        for epoch, inventory in small_study.inventories.items():
            rows = loaded.inventories[epoch]
            assert len(rows) == len(inventory.detections)
            assert rows[0] == (
                inventory.detections[0].ip,
                inventory.detections[0].hypergiant,
                inventory.detections[0].isp_asn,
            )

    def test_latency_matrix_exact(self, loaded, small_study):
        np.testing.assert_array_equal(loaded.rtt_ms, small_study.matrix.rtt_ms)
        assert loaded.target_ips == small_study.matrix.ips

    def test_clusterings_match(self, loaded, small_study):
        for xi, per_isp in small_study.clusterings.items():
            for asn, clustering in per_isp.items():
                restored = loaded.clusterings[xi][asn]
                assert restored.ips == clustering.ips
                np.testing.assert_array_equal(restored.labels, clustering.labels)

    def test_isps_and_population(self, loaded, small_study):
        for isp in small_study.internet.isps[:20]:
            name, country, users = loaded.isps[isp.asn]
            assert name == isp.name
            assert country == isp.country_code
            assert users == small_study.population.users_of(isp.asn)

    def test_ptr_round_trip(self, loaded, small_study):
        assert loaded.ptr == small_study.ptr.records

    def test_load_rejects_non_archive(self, tmp_path):
        with pytest.raises(ValueError):
            load_archive(tmp_path)


class TestThirdPartyReanalysis:
    def test_table2_recomputable_from_archive_alone(self, loaded, small_study):
        """A third party holding only the archive reproduces Table 2."""
        for xi in loaded.manifest.xis:
            rebuilt = build_colocation_table(
                xi,
                loaded.clusterings[xi],
                loaded.hypergiant_of_ip("2023"),
                loaded.hypergiants_by_isp("2023"),
            )
            original = small_study.colocation_table(xi)
            for hypergiant in ("Google", "Netflix", "Meta", "Akamai"):
                assert rebuilt.row_percentages(hypergiant) == original.row_percentages(hypergiant)

    def test_footprint_counts_from_inventory(self, loaded, small_study):
        by_isp = loaded.hypergiants_by_isp("2023")
        google_count = sum(1 for hgs in by_isp.values() if "Google" in hgs)
        assert google_count == small_study.latest_inventory.isp_count("Google")

    def test_results_json_contains_table1(self, loaded):
        assert "table1" in loaded.results
        assert loaded.results["table1"]["Google"]["2023"] > 0


class TestIntegrity:
    def test_manifest_digests_every_data_file(self, archive_dir, loaded):
        recorded = dict(loaded.manifest.digests)
        data_files = {p.name for p in archive_dir.iterdir() if p.name != "manifest.json"}
        assert set(recorded) == data_files
        for name, digest in recorded.items():
            assert file_sha256(archive_dir / name) == digest

    def test_clean_archive_verifies(self, archive_dir):
        verify_archive(archive_dir)

    def test_truncated_file_raises_corrupt_error(self, copy_dir):
        """Regression: a truncated latency.npz used to surface as an opaque
        zipfile/KeyError deep inside numpy; it must fail fast and by name."""
        victim = copy_dir / "latency.npz"
        victim.write_bytes(victim.read_bytes()[:64])
        with pytest.raises(ArchiveCorruptError, match="latency.npz"):
            load_archive(copy_dir)

    def test_bit_flip_raises_corrupt_error(self, copy_dir):
        victim = copy_dir / "clusterings.json"
        raw = bytearray(victim.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        victim.write_bytes(bytes(raw))
        with pytest.raises(ArchiveCorruptError, match="clusterings.json"):
            load_archive(copy_dir)

    def test_corrupt_error_names_file_and_both_digests(self, copy_dir, loaded):
        """The error must carry everything a post-mortem needs: the path,
        the digest the bytes actually hash to, and the manifest's claim."""
        victim = copy_dir / "clusterings.json"
        raw = bytearray(victim.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        victim.write_bytes(bytes(raw))
        expected = dict(loaded.manifest.digests)["clusterings.json"]
        actual = file_sha256(victim)
        with pytest.raises(ArchiveCorruptError) as excinfo:
            load_archive(copy_dir)
        message = str(excinfo.value)
        assert str(victim) in message
        assert f"actual sha256 {actual}" in message
        assert f"manifest says {expected}" in message

    def test_missing_file_raises_corrupt_error(self, copy_dir):
        (copy_dir / "ptr.csv").unlink()
        with pytest.raises(ArchiveCorruptError, match="ptr.csv"):
            load_archive(copy_dir)

    def test_missing_file_error_names_path_and_expected_digest(self, copy_dir, loaded):
        expected = dict(loaded.manifest.digests)["ptr.csv"]
        (copy_dir / "ptr.csv").unlink()
        with pytest.raises(ArchiveCorruptError) as excinfo:
            load_archive(copy_dir)
        message = str(excinfo.value)
        assert "archive file missing" in message
        assert str(copy_dir / "ptr.csv") in message
        assert f"expects sha256 {expected}" in message

    def test_verify_false_skips_digest_check(self, copy_dir, small_study):
        # Reformat results.json: same content, different bytes -> digest
        # mismatch that verify=False must tolerate.
        victim = copy_dir / "results.json"
        victim.write_text(json.dumps(json.loads(victim.read_text()), indent=4))
        with pytest.raises(ArchiveCorruptError):
            load_archive(copy_dir)
        loaded = load_archive(copy_dir, verify=False)
        assert loaded.manifest.n_detections == len(small_study.latest_inventory)

    def test_pre_digest_archives_pass_vacuously(self, copy_dir):
        manifest_path = copy_dir / "manifest.json"
        data = json.loads(manifest_path.read_text())
        del data["digests"]
        manifest_path.write_text(json.dumps(data))
        loaded = load_archive(copy_dir)
        assert loaded.manifest.digests == ()


class TestContainer:
    def test_latency_members_are_stored_uncompressed(self, archive_dir):
        with zipfile.ZipFile(archive_dir / "latency.npz") as container:
            members = container.infolist()
        assert {member.filename for member in members} == {
            "rtt_ms.npy",
            "ips.npy",
            "vp_lat.npy",
            "vp_lon.npy",
            "vp_site.npy",
        }
        assert all(member.compress_type == zipfile.ZIP_STORED for member in members)

    def test_deflated_archive_loads_to_the_same_values(self, copy_dir, loaded):
        """Archives released before the stored container load unchanged."""
        deflate_latency_npz(copy_dir)
        with zipfile.ZipFile(copy_dir / "latency.npz") as container:
            assert all(
                member.compress_type == zipfile.ZIP_DEFLATED for member in container.infolist()
            )
        old = load_archive(copy_dir, verify=True)
        assert old.rtt_ms.dtype == loaded.rtt_ms.dtype
        assert old.rtt_ms.shape == loaded.rtt_ms.shape
        assert old.rtt_ms.tobytes() == loaded.rtt_ms.tobytes()
        assert old.target_ips == loaded.target_ips
        assert old.inventories == loaded.inventories
        assert old.isps == loaded.isps
        assert old.ptr == loaded.ptr
        assert old.results == loaded.results
        assert old.clusterings.keys() == loaded.clusterings.keys()
        for xi, per_isp in loaded.clusterings.items():
            assert old.clusterings[xi].keys() == per_isp.keys()
            for asn, clustering in per_isp.items():
                assert old.clusterings[xi][asn].ips == clustering.ips
                np.testing.assert_array_equal(old.clusterings[xi][asn].labels, clustering.labels)

    def test_swapped_header_columns_raise_naming_the_file(self, copy_dir, loaded):
        """The positional parse checks each CSV's header, digests or not."""
        victim = copy_dir / f"inventory_{loaded.manifest.epochs[-1]}.csv"
        header, _, body = victim.read_bytes().partition(b"\r\n")
        assert header == b"ip,hypergiant,isp_asn"
        victim.write_bytes(b"hypergiant,ip,isp_asn\r\n" + body)
        with pytest.raises(ValueError, match=victim.name):
            load_archive(copy_dir, verify=False)
