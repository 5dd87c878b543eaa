"""Durable, content-addressed persistence for pipeline studies.

The package has four pieces:

* :mod:`repro.store.keys` — canonical config hashing.
  :func:`config_fingerprint` identifies a config exactly (it keys the
  process-memory cache in :mod:`repro.experiments.scenarios`);
  :func:`study_key` is the on-disk content address, which normalises
  execution-only knobs (backend, workers) the differential harness
  proves artifact-neutral.
* :mod:`repro.store.objects` — :class:`~repro.store.objects.ObjectStore`,
  the layout both stores share: ``objects/<k2>/<key>`` entries published
  by one atomic rename, quarantine, mtime-ordered garbage collection by
  count / bytes / age (plus crash-debris reaping), and :class:`StoreStats`.
* :mod:`repro.store.store` — :class:`StudyStore`, the archive codec:
  one study per entry, digest-verified loads, rehydration, LRU order,
  and ``store.*`` metrics.
* :mod:`repro.store.stages` — :class:`StageStore`, the JSON codec: the
  finer-grained per-stage cache the incremental timeline engine
  (:mod:`repro.timeline`) layers on top, in write order; keys from
  :func:`stage_key`.

Together with :mod:`repro.sweep` this forms the durable-execution layer:
every completed sweep cell checkpoints here, and a restarted campaign
skips everything already present.
"""

from repro.store.keys import (
    STORE_SCHEMA,
    canonical_config_json,
    config_fingerprint,
    study_key,
)
from repro.store.objects import StoreStats
from repro.store.stages import STAGE_SCHEMA, StageStore, stage_key
from repro.store.store import StudyStore

__all__ = [
    "STAGE_SCHEMA",
    "STORE_SCHEMA",
    "StageStore",
    "StoreStats",
    "StudyStore",
    "canonical_config_json",
    "config_fingerprint",
    "stage_key",
    "study_key",
]
