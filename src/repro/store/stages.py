"""Per-stage content-addressed cache for the incremental timeline engine.

:class:`~repro.store.store.StudyStore` persists whole studies; the
longitudinal engine (:mod:`repro.timeline`) needs something finer — one
entry per *stage invocation* (a scan of one deployment, the filter and
clustering outcome of one ISP's offnet set, one quarter's series row),
so that epoch N+1 can reuse every stage whose inputs did not change
between epochs.

Entries are small JSON payloads addressed by :func:`stage_key`, a
canonical hash over ``(schema, version, kind, payload-fingerprint)``.
Because the key covers *every* input the stage reads (including the
seed material its randomness is derived from), a hit is definitionally
the value the stage would recompute — which is what lets the
differential harness prove incremental ≡ full byte-identically.

Each entry is one file, ``objects/<k2>/<key>.json``, laid out, published,
quarantined and garbage-collected by
:class:`~repro.store.objects.ObjectStore`.  Loads verify the payload
digest recorded at write time and degrade corrupt entries to misses (the
bad file is moved to ``quarantine/`` for post-mortems, so the slot heals
on rewrite).  Reads do not re-stamp entries, so :meth:`StageStore.gc`
evicts in write order — for timeline campaigns also epoch order, the
natural staleness axis.  Hit/miss/write counts land once, on the
store's :class:`~repro.obs.metrics.MetricsRegistry` under
``stage.<kind>.hits`` etc.; :attr:`StageStore.counters` reads them back
(benchmarks assert on exact per-stage hit counts).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from repro import __version__
from repro.store.keys import STORE_SCHEMA
from repro.store.objects import ObjectStore

#: Schema tag for stage entries (bump on incompatible layout changes).
STAGE_SCHEMA = "repro-stage-v1"


def _canonical_json(value: Any) -> str:
    """Deterministic JSON text (sorted keys, no float repr surprises)."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def stage_key(kind: str, payload: Any) -> str:
    """The content address of one stage invocation.

    ``payload`` must be JSON-serialisable and must enumerate everything
    the stage's output depends on: config knobs, input fingerprints, and
    the seed material its randomness derives from.  The package version
    and store schema participate so caches never leak across releases.
    """
    material = _canonical_json(
        {
            "kind": kind,
            "payload": payload,
            "schema": f"{STORE_SCHEMA}/{STAGE_SCHEMA}",
            "version": __version__,
        }
    )
    return hashlib.sha256(material.encode()).hexdigest()


class StageStore(ObjectStore):
    """Content-addressed JSON store for per-stage timeline artifacts.

    A plain directory of small JSON files — no archive format — because
    stage entries are tiny and a whole timeline's worth fits comfortably
    on disk.  ``metrics`` receives the ``stage.*`` counters, and
    :attr:`counters` reads them back so tests and benchmarks can assert
    exact reuse.  Bound the store with :meth:`gc`.
    """

    suffix = ".json"

    # -- counters --------------------------------------------------------------

    def _count(self, kind: str, event: str) -> None:
        self.metrics.count(f"stage.{kind}.{event}")

    def _count_gc(self, event: str) -> None:
        self._count("gc", event)

    @property
    def counters(self) -> dict[str, int]:
        """``{"<kind>.<event>": n, ...}``: the registry's ``stage.*`` counters."""
        return {
            name.removeprefix("stage."): int(value)
            for name, value in self.metrics.counters.items()
            if name.startswith("stage.")
        }

    def counter(self, kind: str, event: str) -> int:
        """The count of ``event`` (hits/misses/writes) for ``kind``."""
        return int(self.metrics.counter(f"stage.{kind}.{event}"))

    # -- reads -----------------------------------------------------------------

    def contains(self, key: str) -> bool:
        """Whether a completed entry for ``key`` exists (no counter touch)."""
        return self.entry_path(key).exists()

    def get(self, kind: str, key: str) -> Any | None:
        """The stored payload for ``key``; ``None`` on miss.

        The payload digest recorded at write time is verified; a corrupt
        or torn entry is quarantined and reported as a miss, so a bad
        disk degrades to recomputation while the evidence survives for
        post-mortems (bounded by :meth:`gc`).
        """
        path = self.entry_path(key)
        try:
            entry = json.loads(path.read_text())
            payload = entry["payload"]
            digest = hashlib.sha256(_canonical_json(payload).encode()).hexdigest()
            if entry["sha256"] != digest or entry["kind"] != kind:
                raise ValueError(f"stage entry {key} failed verification")
        except FileNotFoundError:
            self._count(kind, "misses")
            return None
        except (json.JSONDecodeError, KeyError, TypeError, ValueError, OSError):
            self._quarantine(key)
            self._count(kind, "corruptions")
            self._count(kind, "misses")
            return None
        self._count(kind, "hits")
        return payload

    # -- writes ----------------------------------------------------------------

    def put(self, kind: str, key: str, payload: Any) -> str:
        """Persist ``payload`` under ``key`` (idempotent); returns ``key``.

        Written under ``tmp/`` then published with one ``os.rename``, so
        concurrent writers (timeline shards racing on a shared stage) and
        crashes can never land a torn entry.
        """
        if self.entry_path(key).exists():
            return key
        entry = {
            "schema": STAGE_SCHEMA,
            "kind": kind,
            "key": key,
            "sha256": hashlib.sha256(_canonical_json(payload).encode()).hexdigest(),
            "payload": payload,
        }
        staging = self._staging(key)
        staging.write_text(json.dumps(entry, sort_keys=True))
        self._publish(key, staging)
        self._count(kind, "writes")
        return key
