"""The serial≡parallel differential harness.

Runs the *same* :class:`StudyConfig` under the serial backend and under the
persistent-pool backend at 1, 2, 4, and 8 workers, exports
each run with :func:`repro.io.archive.save_archive`, and asserts the
archives are **byte-identical** file by file.  This is the strongest
equivalence claim the executor makes: not "statistically close", but the
same artifact bytes a third party would download — and it holds through
the per-shard payload cut and the order in which pool shards finish,
both of which are execution details the index-keyed merge erases.

A second axis checks that execution knobs that *should* be inert (backend,
workers) are, while knobs documented to shape the artifact (chunk size,
which pins the shard RNG stream layout) are allowed to change it.
Equivalence *under injected transient faults* lives in
``tests/test_chaos.py``.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.pipeline import Study, StudyConfig, run_study
from repro.io.archive import save_archive
from repro.parallel import ParallelConfig
from repro.topology.generator import InternetConfig

from tests.conftest import _require_golden_numpy


def _study_config(parallel: ParallelConfig) -> StudyConfig:
    """A compact but full-pipeline study: every stage and filter exercised."""
    return StudyConfig(
        internet=InternetConfig(seed=5, n_access_isps=25, n_ixps=8),
        n_vantage_points=10,
        seed=5,
        parallel=parallel,
    )


def _archive_digests(study: Study, directory: Path) -> dict[str, str]:
    """Export ``study`` and hash every produced file."""
    save_archive(study, directory)
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.iterdir())
    }


@pytest.fixture(scope="module")
def serial_run(tmp_path_factory) -> tuple[Study, dict[str, str]]:
    """The reference run: serial backend, default chunking."""
    study = run_study(_study_config(ParallelConfig()))
    digests = _archive_digests(study, tmp_path_factory.mktemp("serial"))
    return study, digests


class TestSerialReference:
    def test_archive_has_all_artifacts(self, serial_run):
        _, digests = serial_run
        assert {
            "manifest.json",
            "latency.npz",
            "clusterings.json",
            "results.json",
            "isps.csv",
            "ptr.csv",
        } <= set(digests)

    def test_serial_is_self_reproducible(self, serial_run, tmp_path):
        """Two serial runs of the same config export identical bytes."""
        _, reference = serial_run
        study = run_study(_study_config(ParallelConfig()))
        assert _archive_digests(study, tmp_path / "again") == reference

    def test_serial_worker_count_is_inert(self, serial_run, tmp_path):
        """workers=N is meaningless for the serial backend: same bytes."""
        _, reference = serial_run
        study = run_study(_study_config(ParallelConfig(workers=4)))
        assert _archive_digests(study, tmp_path / "w4") == reference


@pytest.mark.parallel
class TestProcessEquivalence:
    @pytest.mark.parametrize("workers", [1, 2, 4, 8])
    def test_pool_backend_bytes_identical(self, serial_run, tmp_path, workers):
        """The persistent pool joins the differential: serial ≡ pool at
        1/2/4/8 workers, with every stage reusing one pool."""
        from repro.parallel import shutdown_pools

        _, reference = serial_run
        try:
            study = run_study(
                _study_config(ParallelConfig(backend="pool", workers=workers))
            )
        finally:
            shutdown_pools()
        digests = _archive_digests(study, tmp_path / f"pool-{workers}")
        assert digests == reference, (
            f"pool backend at {workers} workers diverged from serial on: "
            f"{sorted(name for name in reference if digests.get(name) != reference[name])}"
        )

    def test_pool_reused_across_both_stages(self, tmp_path):
        """One pool identity serves the campaign *and* clustering fan-outs."""
        import io

        from repro.obs import Telemetry
        from repro.parallel import shutdown_pools

        try:
            with Telemetry.capture(stream=io.StringIO()) as telemetry:
                study = run_study(
                    _study_config(ParallelConfig(backend="pool", workers=2)),
                    telemetry=telemetry,
                )
            pools = telemetry.flight.pools
        finally:
            shutdown_pools()
        assert {"campaign", "clustering"} <= set(pools)
        assert pools["campaign"]["pool"] == pools["clustering"]["pool"]
        assert pools["campaign"]["persistent"] and pools["clustering"]["persistent"]
        # And no submission carried more than its own shard's slice.
        payload = telemetry.flight.payload_stats()
        assert payload["measured_shards"] == len(telemetry.flight.records)
        assert payload["max_bytes"] < study.matrix.rtt_ms.nbytes / 10

    def test_in_memory_artifacts_equal(self, serial_run):
        """Beyond the export: the live Study objects agree field by field."""
        from repro.parallel import shutdown_pools

        serial_study, _ = serial_run
        try:
            process_study = run_study(
                _study_config(ParallelConfig(backend="pool", workers=2))
            )
        finally:
            shutdown_pools()
        assert np.array_equal(
            serial_study.matrix.rtt_ms, process_study.matrix.rtt_ms, equal_nan=True
        )
        assert serial_study.matrix.ips == process_study.matrix.ips
        assert serial_study.campaign.ips_by_isp == process_study.campaign.ips_by_isp
        assert serial_study.campaign.unresponsive_ips == process_study.campaign.unresponsive_ips
        assert serial_study.campaign.implausible_ips == process_study.campaign.implausible_ips
        assert set(serial_study.clusterings) == set(process_study.clusterings)
        for xi, per_isp in serial_study.clusterings.items():
            assert set(per_isp) == set(process_study.clusterings[xi])
            for asn, clustering in per_isp.items():
                assert np.array_equal(
                    clustering.labels, process_study.clusterings[xi][asn].labels
                )


#: Composite digest of the reference export: every file's name and bytes,
#: so it pins the container too, with ``latency.npz`` stored uncompressed.
#: Re-pinned when the matrix stopped being deflated; every decoded value
#: was unchanged, which :data:`GOLDEN_CONTENT_SHA256` checks.  That content
#: pin is what carries forward the original capture on the *unoptimized*
#: clustering/filter implementations (pre heap-OPTICS, pre memoization, pre
#: batched filters): any bit an optimization changes in any decoded value
#: fails it.  Float bit-patterns depend on the BLAS/SIMD build, so both
#: pins are guarded to the numpy line they were captured under.
GOLDEN_EXPORT_SHA256 = "69e97c19ff49c393ba670c3e9b6d209bd424cf73441066baa1a2529701a9c0fe"


def _composite_digest(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


#: Digest of what a reader *decodes* from the reference export, whatever
#: container holds it: ``latency.npz`` contributes each member's name,
#: dtype, shape and C-order bytes (NaN positions included), the manifest
#: contributes everything but its ``latency.npz`` digest, and every other
#: file its bytes.  Captured with deflated ``latency.npz`` members, so a
#: container change that keeps every decoded value keeps this pin.
GOLDEN_CONTENT_SHA256 = "c978612e1cb4f29deeeee6292a47a575b932b2358cce449c57860a7f744a2392"


def _content_digest(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        digest.update(path.name.encode())
        if path.name == "latency.npz":
            with np.load(path, allow_pickle=False) as data:
                for member in sorted(data.files):
                    array = data[member]
                    digest.update(member.encode())
                    digest.update(array.dtype.str.encode())
                    digest.update(repr(array.shape).encode())
                    digest.update(array.tobytes(order="C"))
        elif path.name == "manifest.json":
            manifest = json.loads(path.read_text())
            del manifest["digests"]["latency.npz"]
            digest.update(json.dumps(manifest, sort_keys=True).encode())
        else:
            digest.update(path.read_bytes())
    return digest.hexdigest()


class TestGoldenExport:
    """Byte-identity against the pre-optimization reference export."""

    @pytest.fixture(autouse=True)
    def _pin_numpy(self):
        _require_golden_numpy()

    def test_serial_export_matches_golden_digest(self, tmp_path):
        study = run_study(_study_config(ParallelConfig()))
        save_archive(study, tmp_path / "serial")
        assert _composite_digest(tmp_path / "serial") == GOLDEN_EXPORT_SHA256

    def test_export_content_matches_golden_digest(self, serial_run, tmp_path):
        """Every decoded array, CSV row and JSON value of the reference
        export, pinned apart from the bytes of the ``latency.npz`` container."""
        study, _ = serial_run
        save_archive(study, tmp_path / "content")
        assert _content_digest(tmp_path / "content") == GOLDEN_CONTENT_SHA256

    @pytest.mark.parallel
    @pytest.mark.parametrize("workers", [1, 2, 4, 8])
    def test_pool_export_matches_golden_digest(self, tmp_path, workers):
        from repro.parallel import shutdown_pools

        try:
            study = run_study(_study_config(ParallelConfig(backend="pool", workers=workers)))
        finally:
            shutdown_pools()
        save_archive(study, tmp_path / "pool")
        assert _composite_digest(tmp_path / "pool") == GOLDEN_EXPORT_SHA256

    def test_content_digest_independent_of_string_hash_seed(self, tmp_path):
        """Sets and dicts of topology objects iterate in an order that
        follows the process's string-hash seed; no exported value may."""
        script = (
            "import sys\n"
            "from pathlib import Path\n"
            "from repro.core.pipeline import run_study\n"
            "from repro.io.archive import save_archive\n"
            "from repro.parallel import ParallelConfig\n"
            "from tests.test_parallel_equivalence import _content_digest, _study_config\n"
            "save_archive(run_study(_study_config(ParallelConfig())), Path(sys.argv[1]))\n"
            "print(_content_digest(Path(sys.argv[1])))\n"
        )
        root = Path(__file__).resolve().parent.parent
        path = os.pathsep.join([str(root / "src"), str(root)])
        runs = {
            hash_seed: subprocess.Popen(
                [sys.executable, "-c", script, str(tmp_path / f"hash-seed-{hash_seed}")],
                env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": hash_seed},
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for hash_seed in ("0", "1")
        }
        try:
            outputs = {hash_seed: run.communicate(timeout=300) for hash_seed, run in runs.items()}
        finally:
            for run in runs.values():
                run.kill()
        for hash_seed, run in runs.items():
            assert run.returncode == 0, outputs[hash_seed][1]
        digests = {hash_seed: out.strip() for hash_seed, (out, _) in outputs.items()}
        assert digests == {"0": GOLDEN_CONTENT_SHA256, "1": GOLDEN_CONTENT_SHA256}

    def test_reference_implementations_reproduce_golden_digest(self, tmp_path, monkeypatch):
        """The kept reference OPTICS loop exports the same bytes — the
        frontier/reference choice is provably presentation-free end to end."""
        from repro.clustering import optics
        from tests.oracles import order_reference

        monkeypatch.setattr(optics, "_order_frontier", order_reference)
        study = run_study(_study_config(ParallelConfig()))
        save_archive(study, tmp_path / "ref")
        assert _composite_digest(tmp_path / "ref") == GOLDEN_EXPORT_SHA256


#: Composite and content digests of the default scenario's serial export:
#: 19,063 offnets measured from 163 vantage points, so the campaign spans
#: hundreds of shards and the plausibility filter many column blocks --
#: the paper-scale bytes that :data:`GOLDEN_EXPORT_SHA256`'s 10-VP study
#: cannot reach.  Captured under numpy 2.4.6.
DEFAULT_SCENARIO_EXPORT_SHA256 = "2cef461d6524e0b32a258c13a8a7eff62308efff814c7dd3954e95c38f571596"
DEFAULT_SCENARIO_CONTENT_SHA256 = "5ca76151e4c82d66bd4509dc7057f2291bc5c1bbaf5ae606f27ebb06a3836cda"


@pytest.mark.slow
def test_default_scenario_serial_export_matches_golden_digests(tmp_path):
    """The paper-scale export, pinned byte for byte and value for value.

    Run with ``pytest -m slow tests/test_parallel_equivalence.py -k default_scenario``.
    """
    from repro.experiments.scenarios import DEFAULT_SCENARIO

    _require_golden_numpy()
    save_archive(run_study(DEFAULT_SCENARIO.config), tmp_path / "default")
    assert _composite_digest(tmp_path / "default") == DEFAULT_SCENARIO_EXPORT_SHA256
    assert _content_digest(tmp_path / "default") == DEFAULT_SCENARIO_CONTENT_SHA256


@pytest.mark.slow
@pytest.mark.parallel
class TestProcessEquivalenceAtScale:
    """The same differential at small-scenario scale (excluded from tier-1).

    Run with ``pytest -m slow tests/test_parallel_equivalence.py``.
    """

    def test_small_scenario_bytes_identical(self, tmp_path):
        from repro.experiments.scenarios import SMALL_SCENARIO
        from repro.parallel import shutdown_pools

        serial = SMALL_SCENARIO.run()
        try:
            process = SMALL_SCENARIO.run(
                parallel=ParallelConfig(backend="pool", workers=4)
            )
        finally:
            shutdown_pools()
        assert _archive_digests(serial, tmp_path / "serial") == _archive_digests(
            process, tmp_path / "process"
        )


class TestChunkSizeSemantics:
    def test_chunk_size_may_change_measurements(self, serial_run, monkeypatch):
        """The campaign's shard size pins the RNG stream layout, so it is a
        constant of the stage (``CAMPAIGN_CHUNK``), not an execution knob.

        This documents (rather than forbids) the behaviour: equivalence is
        promised across backends and worker counts, and another shard size
        is another artifact.
        """
        import repro.mlab.matrix

        serial_study, _ = serial_run
        monkeypatch.setattr(repro.mlab.matrix, "CAMPAIGN_CHUNK", 16)
        other = run_study(_study_config(ParallelConfig()))
        assert other.matrix.rtt_ms.shape == serial_study.matrix.rtt_ms.shape
        # Same campaign geometry, different noise stream layout.
        assert not np.array_equal(
            serial_study.matrix.rtt_ms, other.matrix.rtt_ms, equal_nan=True
        )

    def test_clustering_chunk_is_inert_given_matrix(self, serial_run, monkeypatch):
        """Clustering draws no randomness: how many ISPs share a shard
        cannot change labels."""
        import repro.core.pipeline

        serial_study, _ = serial_run
        monkeypatch.setattr(repro.core.pipeline, "CLUSTERING_ISPS_PER_SHARD", 1)
        other = run_study(_study_config(ParallelConfig()))
        for xi, per_isp in serial_study.clusterings.items():
            for asn, clustering in per_isp.items():
                assert np.array_equal(
                    clustering.labels, other.clusterings[xi][asn].labels
                )


class TestObservabilityByteIdentity:
    """The observability layer's headline claim: a fully-instrumented run
    (profiling + event streaming + flight recording) exports byte-identical
    artifacts to a bare run.  Telemetry reads clocks, never RNG streams."""

    def _instrumented(self, parallel: ParallelConfig, tmp_path: Path, tag: str):
        import io

        from repro.obs import Telemetry

        with Telemetry.capture(
            profile=True, stream=io.StringIO(), events=tmp_path / f"{tag}-events.jsonl"
        ) as telemetry:
            study = run_study(_study_config(parallel), telemetry=telemetry)
        return study, telemetry

    def test_serial_instrumented_matches_bare(self, serial_run, tmp_path):
        _, reference = serial_run
        study, telemetry = self._instrumented(ParallelConfig(), tmp_path, "serial")
        assert _archive_digests(study, tmp_path / "instrumented") == reference
        # And the instrumentation actually recorded: this was not a no-op run.
        assert "cpu_ms" in telemetry.tracer.find("study").attributes
        assert telemetry.flight.records

    @pytest.mark.parallel
    def test_process_instrumented_matches_bare(self, serial_run, tmp_path):
        from repro.parallel import shutdown_pools

        _, reference = serial_run
        try:
            study, telemetry = self._instrumented(
                ParallelConfig(backend="pool", workers=2), tmp_path, "process"
            )
        finally:
            shutdown_pools()
        assert _archive_digests(study, tmp_path / "instrumented-proc") == reference
        workers = {r.worker for r in telemetry.flight.records}
        assert any(w.startswith("pid-") for w in workers)
        # Profiling reaches into the workers: each pool shard span carries
        # the worker's own CPU time and peak RSS.
        worker_shards = [
            span
            for root in telemetry.tracer.roots
            for span in root.walk()
            if span.name.endswith(".shard")
            and str(span.attributes.get("worker", "")).startswith("pid-")
        ]
        assert worker_shards
        for span in worker_shards:
            assert "cpu_ms" in span.attributes and "rss_peak_kb" in span.attributes

    def test_serial_instrumented_matches_golden_digest(self, tmp_path):
        _require_golden_numpy()
        study, _ = self._instrumented(ParallelConfig(), tmp_path, "golden")
        save_archive(study, tmp_path / "export")
        assert _composite_digest(tmp_path / "export") == GOLDEN_EXPORT_SHA256
