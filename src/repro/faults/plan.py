"""Deterministic fault injection: :class:`FaultSpec` and :class:`FaultPlan`.

A fault plan is a *pure function* of ``(seed, site, invocation index,
attempt)``: whether a given invocation of an injection point misbehaves is
decided by hashing, never by drawing from a live RNG stream.  That gives
chaos testing the same reproducibility contract the rest of the pipeline
has — the same plan produces the same faults on the serial backend, on
process workers at any worker count, and across interpreter restarts —
and it guarantees injection can never perturb the measurement RNG
streams, so a run under *transient-only* faults exports byte-identical
artifacts once every fault has been retried away
(``tests/test_chaos.py`` proves this differentially).

Injection points are addressed by site name.  The wired sites:

* ``parallel.shard`` — every sharded fan-out (also addressable per stage
  as ``<label>.shard``, e.g. ``campaign.shard``, ``clustering.shard``,
  ``sweep.shard``); kinds ``error``/``crash``/``hang``.
* ``store.load`` — :meth:`repro.store.StudyStore.get`; kinds ``error``
  (transient or fatal load failure) and ``corrupt`` (poisons the entry's
  bytes on disk so the digest check trips).
* ``scan.record`` — :func:`repro.scan.scanner.run_scan`; kind ``drop``
  (an offnet server silently vanishes from the scan snapshot).
* ``mlab.ping`` — the latency campaign; kind ``drop`` (a target IP's
  measurements are lost, surfacing as NaN columns).
* ``rdns.lookup`` — :func:`repro.rdns.ptr.build_ptr_dataset`; kind
  ``drop`` (the PTR lookup fails, no record is synthesized).
* ``sweep.cell`` — one sweep-campaign cell: the ``sweep`` fan-out's
  alias of ``sweep.shard``, since a sweep shard is exactly one cell;
  kinds ``error``/``crash``/``hang``.
* ``timeline.shard`` — one timeline epoch cell (the ``timeline`` fan-out
  label's alias of ``parallel.shard``); kinds ``error``/``crash``/``hang``.
* ``serve.request`` — one HTTP request into ``repro serve``, indexed by
  arrival order; kinds ``error`` (transient → 503 with Retry-After,
  fatal → 500), ``hang`` (the handler stalls for ``hang_s``), and
  ``drop`` (the connection is closed with no response).
* ``serve.journal`` — one append to the campaign write-ahead journal,
  indexed by journal sequence number; kinds ``error`` (the append
  raises), ``corrupt`` (a torn half-line lands on disk, exactly the
  damage an interrupted write would leave), and ``drop`` (the entry is
  silently never written — recovery must survive the gap).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro._util import hash_coin, require, require_fraction

#: Site names with wired injection points (documentation + validation).
KNOWN_SITES = (
    "parallel.shard",
    "campaign.shard",
    "clustering.shard",
    "sweep.shard",
    "store.load",
    "scan.record",
    "mlab.ping",
    "rdns.lookup",
    "sweep.cell",
    "timeline.shard",
    "serve.request",
    "serve.journal",
)

#: Recognised fault kinds.
KINDS = ("error", "crash", "hang", "drop", "corrupt")

#: Exit status an injected worker crash dies with (distinctive on purpose).
CRASH_EXIT_CODE = 23


class InjectedFault(RuntimeError):
    """Base class for all errors raised by fault injection."""


class TransientFaultError(InjectedFault):
    """An injected failure that a retry is expected to clear."""


class FatalFaultError(InjectedFault):
    """An injected failure that no amount of retrying can clear."""


class WorkerCrashError(InjectedFault):
    """A worker process died mid-shard (or the serial emulation of one)."""


@dataclass(frozen=True)
class FaultSpec:
    """One family of faults at one injection site.

    ``fail_attempts`` classifies the fault's persistence: ``None`` means
    *permanent* (fires on every attempt — retrying cannot help), while an
    integer ``k`` means *transient* (fires only on attempts ``0..k-1``,
    so the ``k``-th retry succeeds).  ``rate`` is the per-index firing
    probability; which indices fire is fixed by the plan seed.
    """

    site: str
    kind: str
    rate: float = 1.0
    #: None = permanent; k = transient, cleared after k failed attempts.
    fail_attempts: int | None = None
    #: For ``kind="error"``: raise :class:`FatalFaultError` instead of
    #: :class:`TransientFaultError`.
    fatal: bool = False
    #: For ``kind="hang"``: how long a worker sleeps before proceeding.
    hang_s: float = 5.0

    def __post_init__(self) -> None:
        require(
            self.site in KNOWN_SITES,
            f"unknown injection site {self.site!r}; known sites: {', '.join(KNOWN_SITES)}",
        )
        require(self.kind in KINDS, f"fault kind must be one of {KINDS}, got {self.kind!r}")
        require_fraction(self.rate, "rate")
        if self.fail_attempts is not None:
            require(self.fail_attempts >= 1, "fail_attempts must be >= 1 (or None for permanent)")
            # Data-level faults are not retried, so a "transient" drop or
            # corruption would silently change artifacts while the store
            # treats the plan as artifact-inert.  Forbid the combination.
            require(
                self.kind not in ("drop", "corrupt"),
                f"{self.kind!r} faults are permanent by nature; fail_attempts must be None",
            )
        require(self.hang_s >= 0, "hang_s must be >= 0")

    def to_json(self) -> dict[str, Any]:
        """JSON-serialisable form."""
        return {
            "site": self.site,
            "kind": self.kind,
            "rate": self.rate,
            "fail_attempts": self.fail_attempts,
            "fatal": self.fatal,
            "hang_s": self.hang_s,
        }

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "FaultSpec":
        """Parse one spec from its JSON form."""
        return cls(
            site=str(data["site"]),
            kind=str(data["kind"]),
            rate=float(data.get("rate", 1.0)),
            fail_attempts=None if data.get("fail_attempts") is None else int(data["fail_attempts"]),
            fatal=bool(data.get("fatal", False)),
            hang_s=float(data.get("hang_s", 5.0)),
        )


def _fires(seed: int, site: str, index: int, slot: int, rate: float) -> bool:
    """The deterministic coin: hash ``(seed, site, index, slot)`` to [0, 1)."""
    if rate >= 1.0:
        return True
    return hash_coin(f"{seed}:{site}:{index}:{slot}") < rate


def stable_index(text: str) -> int:
    """A stable small integer for string-addressed sites (store keys)."""
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=4).digest(), "big")


@dataclass(frozen=True)
class FaultPlan:
    """A seeded set of fault specs; hashable, picklable, pure."""

    seed: int = 0
    specs: tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        # Accept lists for ergonomic construction; store a hashable tuple.
        if not isinstance(self.specs, tuple):
            object.__setattr__(self, "specs", tuple(self.specs))

    def sites(self) -> frozenset[str]:
        """Every site this plan can touch."""
        return frozenset(spec.site for spec in self.specs)

    def decide(self, site: str, index: int, attempt: int = 0) -> FaultSpec | None:
        """The fault (if any) for invocation ``index`` of ``site`` at ``attempt``.

        Pure: the same arguments always produce the same answer, in any
        process.  The first matching spec wins; a transient spec stops
        firing once ``attempt`` reaches its ``fail_attempts``.
        """
        for slot, spec in enumerate(self.specs):
            if spec.site != site:
                continue
            if spec.fail_attempts is not None and attempt >= spec.fail_attempts:
                continue
            if _fires(self.seed, spec.site, index, slot, spec.rate):
                return spec
        return None

    def decide_any(self, sites: tuple[str, ...], index: int, attempt: int = 0) -> FaultSpec | None:
        """:meth:`decide` over several site aliases; first hit wins."""
        for site in sites:
            spec = self.decide(site, index, attempt)
            if spec is not None:
                return spec
        return None

    def fires_ever(self, site: str, index: int) -> bool:
        """Whether ``(site, index)`` is fault-afflicted on attempt 0."""
        return self.decide(site, index, attempt=0) is not None

    def to_json(self) -> dict[str, Any]:
        """JSON-serialisable form (the ``--faults spec.json`` format)."""
        return {"seed": self.seed, "specs": [spec.to_json() for spec in self.specs]}

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "FaultPlan":
        """Parse a plan from its JSON form."""
        return cls(
            seed=int(data.get("seed", 0)),
            specs=tuple(FaultSpec.from_json(entry) for entry in data.get("specs", ())),
        )


def load_fault_plan(path: str | Path) -> FaultPlan:
    """Load a :class:`FaultPlan` from a ``--faults`` JSON spec file."""
    return FaultPlan.from_json(json.loads(Path(path).read_text()))


def raise_injected(spec: FaultSpec, site: str, index: int) -> None:
    """Raise the error an ``error``-kind spec injects."""
    message = f"injected fault at {site}[{index}]"
    if spec.fatal:
        raise FatalFaultError(message)
    raise TransientFaultError(message)
