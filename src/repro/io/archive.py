"""Save/load study artifacts as a directory of portable files.

Layout of an archive directory::

    manifest.json          version, epoch list, xi list, counts
    inventory_<epoch>.csv  detected offnets: ip, hypergiant, isp_asn
    isps.csv               ASN, name, country, users (estimates)
    latency.npz            rtt matrix + target ips + vantage coordinates,
                           stored uncompressed (``np.savez``)
    clusterings.json       per xi: {asn: {"ips": [...], "labels": [...]}}
    ptr.csv                ip, hostname
    results.json           headline metrics (paper-shape numbers)

Everything round-trips: :func:`load_archive` returns a
:class:`LoadedArchive` from which Table 2 and Figure 2 can be recomputed
without the generator (see ``tests/test_io.py``), which is exactly how a
third party would reanalyse a released dataset.

``latency.npz`` is not deflated: the RTT matrix is full-precision
measurement noise, so deflate spent about a second of a paper-scale
study to shrink it by about a quarter.  :func:`numpy.load` reads stored
and deflated members alike, so archives written deflated by earlier
versions load through the same reader to the same values.

The manifest carries a sha256 digest per data file; :func:`load_archive`
verifies them before parsing anything, so a truncated or bit-flipped file
raises :class:`ArchiveCorruptError` up front instead of surfacing as a
confusing parse error deep in reanalysis code.  The CSVs are parsed by
position, after checking that each one's first row is the header
:func:`save_archive` writes.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import __version__
from repro._util import require
from repro.clustering.sites import ClusteringConfig, SiteClustering
from repro.core.pipeline import Study

_MANIFEST_NAME = "manifest.json"
_INVENTORY_HEADER = ["ip", "hypergiant", "isp_asn"]
_ISPS_HEADER = ["asn", "name", "country", "users"]
_PTR_HEADER = ["ip", "hostname"]


class ArchiveCorruptError(RuntimeError):
    """An archive file is missing, truncated, or fails its digest check."""


def file_sha256(path: Path) -> str:
    """Hex sha256 of one file, streamed."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass(frozen=True)
class ArchiveManifest:
    """Archive-level metadata."""

    version: str
    epochs: tuple[str, ...]
    xis: tuple[float, ...]
    n_vantage_points: int
    n_detections: int
    #: filename -> sha256 hex digest; empty for pre-digest archives.
    digests: tuple[tuple[str, str], ...] = ()
    #: (site, lost, total) coverage triples, sorted by site; empty means a
    #: complete (or pre-coverage) archive.  Mirrors the study's
    #: :class:`~repro.resilience.CoverageReport`, so a released dataset
    #: declares what fraction of its measurement surface survived.
    coverage: tuple[tuple[str, int, int], ...] = ()

    def to_json(self) -> dict:
        """JSON-serialisable form."""
        return {
            "version": self.version,
            "epochs": list(self.epochs),
            "xis": list(self.xis),
            "n_vantage_points": self.n_vantage_points,
            "n_detections": self.n_detections,
            "digests": {name: digest for name, digest in self.digests},
            "coverage": {
                site: {"lost": lost, "total": total} for site, lost, total in self.coverage
            },
        }

    @classmethod
    def from_json(cls, data: dict) -> "ArchiveManifest":
        """Parse the manifest file."""
        return cls(
            version=data["version"],
            epochs=tuple(data["epochs"]),
            xis=tuple(float(x) for x in data["xis"]),
            n_vantage_points=int(data["n_vantage_points"]),
            n_detections=int(data["n_detections"]),
            digests=tuple(sorted(data.get("digests", {}).items())),
            coverage=tuple(
                (site, int(entry["lost"]), int(entry["total"]))
                for site, entry in sorted(data.get("coverage", {}).items())
            ),
        )


def verify_archive(directory: str | Path, manifest: ArchiveManifest | None = None) -> None:
    """Check every digest recorded in ``directory``'s manifest.

    Raises :class:`ArchiveCorruptError` naming the first file that is
    missing or whose bytes no longer match.  Archives written before
    digests existed (empty ``digests``) pass vacuously.
    """
    directory = Path(directory)
    if manifest is None:
        manifest_path = directory / _MANIFEST_NAME
        if not manifest_path.exists():
            raise ArchiveCorruptError(f"not an archive: {directory} (missing {_MANIFEST_NAME})")
        try:
            manifest = ArchiveManifest.from_json(json.loads(manifest_path.read_text()))
        except (json.JSONDecodeError, KeyError) as error:
            raise ArchiveCorruptError(f"unreadable manifest in {directory}: {error}") from error
    for name, expected in manifest.digests:
        path = directory / name
        if not path.exists():
            raise ArchiveCorruptError(
                f"archive file missing: {path} (manifest expects sha256 {expected})"
            )
        actual = file_sha256(path)
        if actual != expected:
            raise ArchiveCorruptError(
                f"archive file corrupt: {path} (actual sha256 {actual}, "
                f"manifest says {expected})"
            )


def _read_csv(path: Path, header: list[str]) -> list[list[str]]:
    """The data rows of ``path``, once its first row is checked to be ``header``."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        first = next(reader, None)
        require(first == header, f"unexpected header in {path}: {first} (expected {header})")
        return list(reader)


def save_archive(study: Study, directory: str | Path) -> Path:
    """Write ``study``'s artifacts into ``directory`` (created if needed)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    # Inventories, one CSV per epoch.
    for epoch, inventory in sorted(study.inventories.items()):
        with open(directory / f"inventory_{epoch}.csv", "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(_INVENTORY_HEADER)
            for detection in inventory.detections:
                writer.writerow([detection.ip, detection.hypergiant, detection.isp_asn])

    # ISP table with population estimates.
    with open(directory / "isps.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_ISPS_HEADER)
        for isp in study.internet.isps:
            writer.writerow(
                [isp.asn, isp.name, isp.country_code, study.population.users_of(isp.asn)]
            )

    # The latency matrix plus measurement geometry, stored: deflate costs
    # far more time than it saves bytes on full-precision noise.
    np.savez(
        directory / "latency.npz",
        rtt_ms=study.matrix.rtt_ms,
        ips=np.array(study.matrix.ips, dtype=np.int64),
        vp_lat=np.array([vp.lat for vp in study.vantage_points]),
        vp_lon=np.array([vp.lon for vp in study.vantage_points]),
        vp_site=np.array([vp.site_code for vp in study.vantage_points]),
    )

    # Clusterings per xi.
    clusterings_json: dict[str, dict[str, dict]] = {}
    for xi, per_isp in study.clusterings.items():
        clusterings_json[str(xi)] = {
            str(asn): {"ips": clustering.ips, "labels": clustering.labels.tolist()}
            for asn, clustering in sorted(per_isp.items())
        }
    (directory / "clusterings.json").write_text(json.dumps(clusterings_json))

    # PTR records.
    with open(directory / "ptr.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_PTR_HEADER)
        for ip in sorted(study.ptr.records):
            writer.writerow([ip, study.ptr.records[ip]])

    # Headline results for quick diffing.
    from repro.experiments.table1 import run_table1

    table1 = run_table1(study)
    results = {
        "table1": {
            hypergiant: dict(counts) for hypergiant, counts in table1.counts.items()
        },
        "analyzable_isps": len(study.campaign.analyzable_isp_asns),
    }
    (directory / "results.json").write_text(json.dumps(results, indent=2))

    # Digest every data file, then write the manifest last: a reader that
    # finds a manifest is guaranteed the digests cover the whole archive.
    digests = tuple(
        sorted(
            (path.name, file_sha256(path))
            for path in directory.iterdir()
            if path.is_file() and path.name != _MANIFEST_NAME
        )
    )
    manifest = ArchiveManifest(
        version=__version__,
        epochs=tuple(sorted(study.inventories)),
        xis=tuple(study.config.xis),
        n_vantage_points=len(study.vantage_points),
        n_detections=len(study.latest_inventory),
        digests=digests,
        coverage=tuple(
            (site, lost, total)
            for site, (lost, total) in sorted(study.coverage.entries.items())
        ),
    )
    (directory / _MANIFEST_NAME).write_text(json.dumps(manifest.to_json(), indent=2))
    return directory


@dataclass
class LoadedArchive:
    """A study's released artifacts, loaded without the generator."""

    manifest: ArchiveManifest
    #: epoch -> list of (ip, hypergiant, isp_asn).
    inventories: dict[str, list[tuple[int, str, int]]]
    #: asn -> (name, country, users).
    isps: dict[int, tuple[str, str, int]]
    rtt_ms: np.ndarray
    target_ips: list[int]
    #: xi -> asn -> SiteClustering.
    clusterings: dict[float, dict[int, SiteClustering]] = field(default_factory=dict)
    ptr: dict[int, str] = field(default_factory=dict)
    results: dict = field(default_factory=dict)

    def hypergiant_of_ip(self, epoch: str) -> dict[int, str]:
        """Detected hypergiant per IP for ``epoch``."""
        return {ip: hypergiant for ip, hypergiant, _ in self.inventories[epoch]}

    def hypergiants_by_isp(self, epoch: str) -> dict[int, list[str]]:
        """Detected hypergiants per hosting ISP for ``epoch``."""
        mapping: dict[int, set[str]] = {}
        for _ip, hypergiant, asn in self.inventories[epoch]:
            mapping.setdefault(asn, set()).add(hypergiant)
        return {asn: sorted(hypergiants) for asn, hypergiants in mapping.items()}


def load_archive(directory: str | Path, verify: bool = True) -> LoadedArchive:
    """Load an archive written by :func:`save_archive`.

    With ``verify`` (the default) every file's sha256 is checked against
    the manifest before parsing, so corruption raises
    :class:`ArchiveCorruptError` instead of a downstream parse error.
    """
    directory = Path(directory)
    manifest_path = directory / _MANIFEST_NAME
    require(manifest_path.exists(), f"not an archive: {directory} (missing {_MANIFEST_NAME})")
    manifest = ArchiveManifest.from_json(json.loads(manifest_path.read_text()))
    if verify:
        verify_archive(directory, manifest)

    inventories = {
        epoch: [
            (int(ip), hypergiant, int(isp_asn))
            for ip, hypergiant, isp_asn in _read_csv(
                directory / f"inventory_{epoch}.csv", _INVENTORY_HEADER
            )
        ]
        for epoch in manifest.epochs
    }
    isps = {
        int(asn): (name, country, int(users))
        for asn, name, country, users in _read_csv(directory / "isps.csv", _ISPS_HEADER)
    }

    with np.load(directory / "latency.npz", allow_pickle=False) as data:
        rtt_ms = data["rtt_ms"]
        target_ips = [int(ip) for ip in data["ips"]]

    clusterings: dict[float, dict[int, SiteClustering]] = {}
    raw = json.loads((directory / "clusterings.json").read_text())
    for xi_text, per_isp in raw.items():
        xi = float(xi_text)
        clusterings[xi] = {}
        for asn_text, payload in per_isp.items():
            clusterings[xi][int(asn_text)] = SiteClustering(
                ips=[int(ip) for ip in payload["ips"]],
                labels=np.array(payload["labels"], dtype=int),
                config=ClusteringConfig(xi=xi),
            )

    ptr = {int(ip): hostname for ip, hostname in _read_csv(directory / "ptr.csv", _PTR_HEADER)}

    results = json.loads((directory / "results.json").read_text())
    return LoadedArchive(
        manifest=manifest,
        inventories=inventories,
        isps=isps,
        rtt_ms=rtt_ms,
        target_ips=target_ips,
        clusterings=clusterings,
        ptr=ptr,
        results=results,
    )
