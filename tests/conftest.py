"""Shared fixtures: one small Internet/study per session.

The full pipeline on the small scenario takes a few seconds; building it
once per session keeps the suite fast while letting many tests assert
against the same rich artifact.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.core.pipeline import Study
from repro.deployment.growth import DeploymentHistory, build_deployment_history
from repro.deployment.placement import DeploymentState
from repro.experiments.scenarios import cached_study
from repro.io.archive import file_sha256
from repro.topology.generator import Internet, InternetConfig, generate_internet


#: The numpy line the golden export digest and the pinned counts were
#: captured under: float bit-patterns, and so some counts derived from
#: floats, may differ on another BLAS/SIMD build.
GOLDEN_NUMPY_PREFIX = "2.4"


def _require_golden_numpy() -> None:
    """Skip off the pinned numpy line, or fail where CI sets ``REPRO_REQUIRE_GOLDEN=1``."""
    if np.__version__.startswith(GOLDEN_NUMPY_PREFIX):
        return
    reason = (
        f"golden values captured under numpy {GOLDEN_NUMPY_PREFIX}.x "
        f"(running {np.__version__}); float bit-patterns may differ"
    )
    if os.environ.get("REPRO_REQUIRE_GOLDEN") == "1":
        pytest.fail(reason + "; REPRO_REQUIRE_GOLDEN=1 forbids skipping")
    pytest.skip(reason)


def deflate_latency_npz(directory: Path) -> None:
    """Rewrite an archive's ``latency.npz`` deflated, as versions before the
    stored container wrote it, and re-record its digest in the manifest."""
    npz = directory / "latency.npz"
    with np.load(npz, allow_pickle=False) as data:
        members = {name: data[name] for name in data.files}
    np.savez_compressed(npz, **members)
    manifest_path = directory / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["digests"]["latency.npz"] = file_sha256(npz)
    manifest_path.write_text(json.dumps(manifest, indent=2))


@pytest.fixture(scope="session")
def small_internet() -> Internet:
    """A compact generated Internet shared across tests."""
    return generate_internet(InternetConfig(seed=1, n_access_isps=60, n_ixps=25))


@pytest.fixture(scope="session")
def history(small_internet: Internet) -> DeploymentHistory:
    """Deployment history (2021 + 2023) on the small Internet."""
    return build_deployment_history(small_internet, seed=1)


@pytest.fixture(scope="session")
def state23(history: DeploymentHistory) -> DeploymentState:
    """The 2023 deployment snapshot."""
    return history.state("2023")


def pytest_collection_modifyitems(config, items):
    """Skip ``parallel``-marked tests where worker pools cannot run.

    Some sandboxes restrict multiprocessing start methods or semaphores;
    the probe (one trivial pool round-trip, cached) degrades those tests to
    skips instead of hard errors, keeping tier-1 green everywhere.
    """
    if not any(item.get_closest_marker("parallel") for item in items):
        return
    from repro.parallel import process_backend_available

    if process_backend_available():
        return
    skip = pytest.mark.skip(reason="worker-pool backend unavailable (multiprocessing restricted)")
    for item in items:
        if item.get_closest_marker("parallel"):
            item.add_marker(skip)


@pytest.fixture(scope="session", autouse=True)
def _shutdown_pools_at_session_end():
    """Tear down persistent pools so worker processes never outlive the session."""
    yield
    from repro.parallel import shutdown_pools

    shutdown_pools()


@pytest.fixture(scope="session")
def small_study() -> Study:
    """The full small-scenario study (scan -> detect -> ping -> cluster).

    Shares the :func:`cached_study` memo with the CLI tests, so the
    pipeline runs once per session no matter who asks first.
    """
    return cached_study("small")
