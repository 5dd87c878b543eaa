"""Canonical, content-addressed keys for study configurations.

Two layers of identity:

* :func:`config_fingerprint` — a stable hash over **every** field of a
  :class:`~repro.core.pipeline.StudyConfig`.  Two configs that differ in
  any knob (including the execution backend) get different fingerprints;
  this keys the process-memory front cache so a study object always
  reports exactly the config it was asked for.
* :func:`study_key` — the on-disk content address.  It hashes only the
  *artifact-relevant* knobs: the parallel config is left out whole
  because every field of it is execution-only, as the differential
  harnesses (``tests/test_parallel_equivalence.py``,
  ``tests/test_chaos.py``) prove.  The resilience config is
  execution-only and normalised away entirely; a fault plan keeps only
  its *permanent data* specs (transient faults are retried away without
  an artifact trace, and ``store.load`` faults never touch the pipeline's
  outputs).  The package version and a store schema tag are folded in,
  so a code upgrade can never serve stale artifacts.

Both hashes are computed over canonical JSON (sorted keys, no whitespace
variance) of the dataclass tree, so they are stable across processes,
platforms, and dict orderings.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any

from repro import __version__
from repro.core.pipeline import StudyConfig

#: Bump when the store layout or key derivation changes incompatibly.
STORE_SCHEMA = "repro-store-v2"


def _jsonable(value: Any) -> Any:
    """Convert a config value tree into deterministic JSON-ready form."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: _jsonable(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_jsonable(item) for item in value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise TypeError(f"cannot canonicalise {type(value).__name__} for a store key: {value!r}")


def canonical_config_json(config: StudyConfig) -> str:
    """The canonical JSON text for ``config`` (full fidelity)."""
    return json.dumps(_jsonable(config), sort_keys=True, separators=(",", ":"))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def config_fingerprint(config: StudyConfig) -> str:
    """Hash over every config field; distinguishes even backend/workers."""
    return _sha256(canonical_config_json(config))


def _artifact_relevant_faults(faults: dict | None) -> dict | None:
    """The fault-plan dict reduced to specs that can change artifacts.

    Transient specs are retried away (the chaos harness proves the exports
    stay byte-identical) and ``store.load`` faults only ever cause
    quarantine-and-recompute, so neither belongs in a content address.
    Permanent data faults (drops, permanent shard faults) stay: they
    genuinely change what the pipeline produces.
    """
    if faults is None:
        return None
    kept = [
        spec
        for spec in faults["specs"]
        if spec["site"] != "store.load" and spec["fail_attempts"] is None
    ]
    if not kept:
        return None
    return dict(faults, specs=kept)


def _artifact_view(config: StudyConfig) -> dict:
    """The config dict with artifact-irrelevant execution knobs normalised."""
    view = _jsonable(config)
    del view["parallel"]
    view["resilience"] = None
    view["faults"] = _artifact_relevant_faults(view["faults"])
    return view


def study_key(config: StudyConfig) -> str:
    """The content address a study computed from ``config`` lives under."""
    payload = {
        "schema": STORE_SCHEMA,
        "version": __version__,
        "config": _artifact_view(config),
    }
    return _sha256(json.dumps(payload, sort_keys=True, separators=(",", ":")))
