"""The on-disk, content-addressed study store.

Each entry is a directory, ``objects/<k2>/<key>/``: one study archive
(:mod:`repro.io.archive` format) plus ``store_entry.json`` provenance,
laid out, published, quarantined and garbage-collected by
:class:`~repro.store.objects.ObjectStore`.

Entries are keyed by :func:`repro.store.keys.study_key` — a canonical
hash of the artifact-relevant config plus the package version — so a hit
is *definitionally* the study that config would produce.  Writes are
atomic (built in ``tmp/``, then one ``os.rename`` into place): a killed
process leaves either a complete entry or no entry, never a torn one,
which is what makes sweep campaigns resumable.  Loads verify every file
digest; corrupt entries are moved to ``quarantine/`` and reported as
misses, so a bad disk degrades to recomputation rather than bad science.
Hits and repeat puts re-stamp the entry's mtime, so :meth:`StudyStore.gc`
evicts least-recently-used first.

Hit/miss/write/evict/corruption counts land on the store's
:class:`~repro.obs.metrics.MetricsRegistry` under ``store.*``.
"""

from __future__ import annotations

import contextlib
import json
from pathlib import Path

from repro import __version__
from repro.core.pipeline import PrecomputedArtifacts, Study, StudyConfig, run_study
from repro.faults import FaultPlan, InjectedFault, raise_injected, stable_index
from repro.io.archive import ArchiveCorruptError, load_archive, save_archive
from repro.obs import MetricsRegistry, NullMetrics, Telemetry
from repro.resilience import RetryPolicy, call_with_retry
from repro.store.keys import STORE_SCHEMA, canonical_config_json, study_key
from repro.store.objects import ObjectStore

_ENTRY_NAME = "store_entry.json"


def _poison_entry(path: Path) -> None:
    """Flip the leading bytes of the entry's first data file (chaos only).

    The damage is exactly what a bad disk would do: the file still exists
    but its sha256 no longer matches the manifest, so the next verified
    load raises :class:`ArchiveCorruptError` and the entry is quarantined.
    """
    for file in sorted(path.iterdir()):
        if not file.is_file() or file.name in (_ENTRY_NAME, "manifest.json"):
            continue
        data = file.read_bytes()
        poisoned = bytes(byte ^ 0xFF for byte in data[:16]) + data[16:]
        file.write_bytes(poisoned if poisoned else b"\x00")
        return


class StudyStore(ObjectStore):
    """Content-addressed persistence for pipeline studies.

    ``metrics`` receives the ``store.*`` counters (a private registry
    when none is given).  Bound the store with :meth:`gc`.

    ``retry`` (a :class:`~repro.resilience.RetryPolicy`) makes
    :meth:`get` re-attempt loads that fail with retryable errors;
    ``faults`` wires the ``store.load`` injection site for chaos tests
    (transient/fatal load errors, or on-disk corruption that must trip
    the digest check and quarantine the entry).
    """

    def __init__(
        self,
        root: str | Path,
        metrics: MetricsRegistry | NullMetrics | None = None,
        faults: FaultPlan | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        super().__init__(root, metrics)
        self.faults = faults
        self.retry = retry

    def key_for(self, config: StudyConfig) -> str:
        """The content address for ``config`` (see :func:`study_key`)."""
        return study_key(config)

    # -- reads -----------------------------------------------------------------

    def contains(self, config: StudyConfig) -> bool:
        """Whether a completed entry for ``config`` exists (no LRU touch)."""
        return self.contains_key(self.key_for(config))

    def contains_key(self, key: str) -> bool:
        """Whether a completed entry for ``key`` exists (no LRU touch)."""
        return (self.entry_path(key) / _ENTRY_NAME).exists()

    def get(self, config: StudyConfig, telemetry: Telemetry | None = None) -> Study | None:
        """The stored study for ``config``, rehydrated; ``None`` on miss.

        A hit verifies every archive digest, then replays the cheap
        pipeline stages around the persisted matrix and clusterings
        (see :class:`~repro.core.pipeline.PrecomputedArtifacts`), so the
        returned object is a full :class:`Study` whose exported artifacts
        are byte-identical to a fresh run's.  Corrupt entries are
        quarantined and reported as misses.  An error while rehydrating
        verified bytes is not corruption: it propagates and the entry
        stays in place.
        """
        key = self.key_for(config)
        path = self.entry_path(key)
        if not self.contains_key(key):
            self.metrics.count("store.misses")
            return None

        def _load(attempt: int):
            self._trip_load_fault(key, path, attempt)
            return load_archive(path, verify=True)

        try:
            if self.retry is not None:
                loaded = call_with_retry(
                    _load,
                    self.retry,
                    on_retry=lambda _attempt, _error: self.metrics.count("store.retries"),
                )
            else:
                loaded = _load(0)
        except InjectedFault:
            # An injected load failure the retries (if any) could not
            # clear: the entry itself is fine, so degrade to a miss and
            # recompute rather than quarantining good bytes.
            self.metrics.count("store.load_failures")
            self.metrics.count("store.misses")
            return None
        except (ArchiveCorruptError, ValueError, KeyError, OSError) as error:
            destination = self._quarantine(key)
            if destination is not None:
                with contextlib.suppress(OSError):
                    (destination / "quarantine_reason.txt").write_text(
                        f"{type(error).__name__}: {error}\n"
                    )
            self.metrics.count("store.corruptions")
            self.metrics.count("store.misses")
            return None
        precomputed = PrecomputedArtifacts(
            rtt_ms=loaded.rtt_ms,
            target_ips=tuple(loaded.target_ips),
            clusterings=loaded.clusterings,
        )
        study = run_study(config, telemetry=telemetry, precomputed=precomputed)
        self._stamp(key)
        self.metrics.count("store.hits")
        return study

    # -- writes ----------------------------------------------------------------

    def put(self, study: Study) -> str:
        """Persist ``study`` (idempotent); returns its content address.

        The archive is written under ``tmp/`` and renamed into place in
        one step, so concurrent writers (sweep workers) and crashes can
        never publish a partial entry.

        A study degraded by quarantined shards is *not* persisted (its
        artifacts are not what the config would normally produce — the
        losses are transient execution accidents, not properties of the
        config); the key is returned without a write so a later, healthy
        run can fill the slot.
        """
        key = self.key_for(study.config)
        if study.coverage.shards_lost > 0:
            self.metrics.count("store.degraded_skipped")
            return key
        if self.contains_key(key):
            self._stamp(key)
            return key
        staging = self._staging(key)
        staging.mkdir()
        save_archive(study, staging)
        entry = {
            "schema": STORE_SCHEMA,
            "key": key,
            "version": __version__,
            "config": json.loads(canonical_config_json(study.config)),
        }
        (staging / _ENTRY_NAME).write_text(json.dumps(entry, sort_keys=True, indent=2))
        size = self._publish(key, staging)
        if size is not None:
            self.metrics.count("store.writes")
            self.metrics.count("store.bytes_written", size)
        return key

    # -- internals -------------------------------------------------------------

    def _count_gc(self, event: str) -> None:
        self.metrics.count(f"store.{event}")

    def _trip_load_fault(self, key: str, path: Path, attempt: int) -> None:
        """Apply a planned ``store.load`` fault to this load attempt.

        ``error`` specs raise (transient ones clear after their
        ``fail_attempts``); ``corrupt`` specs poison the entry's bytes on
        disk so the digest check trips naturally and the ordinary
        quarantine path takes over.
        """
        if self.faults is None:
            return
        spec = self.faults.decide("store.load", stable_index(key), attempt)
        if spec is None:
            return
        if spec.kind == "corrupt":
            _poison_entry(path)
        elif spec.kind == "error":
            raise_injected(spec, "store.load", stable_index(key))
