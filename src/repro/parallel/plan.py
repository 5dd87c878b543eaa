"""Deterministic work partitioning: :class:`ShardPlan` and :class:`Shard`.

A plan splits an ordered sequence of work units into contiguous chunks.
The partition is a pure function of the items and the chunk size — never
of the backend or worker count — which is what makes sharded execution
reproducible: concatenating shard results in shard order always yields the
same sequence the serial code would have produced, and per-shard RNG
streams (see :meth:`ShardPlan.shard_rngs`) depend only on the plan.

Invariants (property-tested in ``tests/test_parallel.py``):

* **exhaustive** — every item appears in exactly one shard;
* **disjoint** — no item appears in two shards;
* **order-stable** — concatenating ``shards()`` in index order reproduces
  the original item order for *any* chunk size.

Shards optionally carry a **cost estimate** (``ShardPlan.of(...,
costs=...)``, summed per chunk): the pool backend *dispatches*
largest-cost-first (:func:`steal_order`, classic LPT scheduling) so one
oversized ISP doesn't straggle the whole stage, while results are still
*merged* in shard-index order — dispatch order is an execution detail and
provably cannot change artifact bytes.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro._util import require, spawn_rng


@dataclass(frozen=True)
class Shard:
    """One unit of dispatch: a stable index and its slice of the work."""

    index: int
    items: tuple[Any, ...]
    #: Estimated execution cost (work-stealing dispatch key); defaults to
    #: the item count.  Never consulted for partitioning or merging.
    cost: float | None = field(default=None, compare=False)
    #: Optional per-shard payload attached by :func:`~repro.parallel.run_sharded`
    #: (e.g. a compact RNG seed), available to the task as ``shard.payload``.
    payload: Any = None

    def __len__(self) -> int:
        return len(self.items)

    @property
    def cost_estimate(self) -> float:
        """The dispatch-ordering key: explicit cost, else the item count."""
        return float(len(self.items)) if self.cost is None else self.cost


def steal_order(shards: Sequence[Shard]) -> list[Shard]:
    """Shards in dispatch order: largest estimated cost first, index-stable.

    The work-stealing queue discipline of the pool backend: big shards
    enter the pool first so their tails overlap the small shards' work
    instead of starting last and straggling.  Ties (and the default
    all-equal costs) preserve index order, so plans without estimates
    dispatch exactly as before.  Purely an execution-order choice — the
    executors still key results by ``shard.index``.
    """
    return sorted(shards, key=lambda shard: (-shard.cost_estimate, shard.index))


@dataclass(frozen=True)
class ShardPlan:
    """A deterministic chunking of ``items`` into shards of ``chunk_size``."""

    items: tuple[Any, ...]
    chunk_size: int
    #: Optional per-item cost estimates (same length as ``items``); each
    #: shard's cost is the sum over its slice.  Purely advisory: costs
    #: shape dispatch order, never the partition or the RNG streams.
    costs: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        require(self.chunk_size >= 1, "chunk_size must be >= 1")
        if self.costs is not None:
            require(
                len(self.costs) == len(self.items),
                f"costs length {len(self.costs)} != items length {len(self.items)}",
            )

    @classmethod
    def of(
        cls,
        items: Iterable[Any] | Sequence[Any],
        chunk_size: int,
        costs: Iterable[float] | None = None,
    ) -> "ShardPlan":
        """Build a plan over ``items`` (materialised in iteration order)."""
        return cls(
            items=tuple(items),
            chunk_size=int(chunk_size),
            costs=None if costs is None else tuple(float(c) for c in costs),
        )

    @property
    def n_items(self) -> int:
        """Total number of work units."""
        return len(self.items)

    @property
    def n_shards(self) -> int:
        """Number of shards (0 for an empty plan)."""
        return math.ceil(len(self.items) / self.chunk_size)

    def shards(self) -> list[Shard]:
        """The contiguous chunks, in index order."""
        return [
            Shard(
                index=i,
                items=self.items[i * self.chunk_size : (i + 1) * self.chunk_size],
                cost=(
                    None
                    if self.costs is None
                    else float(sum(self.costs[i * self.chunk_size : (i + 1) * self.chunk_size]))
                ),
            )
            for i in range(self.n_shards)
        ]

    def shard_rngs(self, root: np.random.Generator, label: str) -> tuple[np.random.Generator, ...]:
        """One independent child generator per shard, derived from ``root``.

        Streams are spawned in shard order *before* any dispatch, so they are
        identical no matter which backend or worker count later consumes the
        shards.  ``label`` namespaces the streams per stage (two stages
        sharing a root still get independent streams).
        """
        return tuple(spawn_rng(root, f"{label}.shard-{i}") for i in range(self.n_shards))

    def shard_seeds(self, root: np.random.Generator, label: str) -> tuple[tuple[int, ...], ...]:
        """Compact seed material for each shard's RNG stream.

        ``np.random.default_rng(seed)`` over one of these tuples yields the
        *same generator* :meth:`shard_rngs` would have returned (both fold
        the label into the entropy the way :func:`repro._util.spawn_rng`
        does, drawing from ``root`` once per shard in shard order).  A seed
        tuple pickles in tens of bytes where a generator costs hundreds —
        and, critically, a shard task can carry *its own* seed instead of
        the whole stage's generator tuple, keeping submissions O(1).
        """
        seeds = []
        for i in range(self.n_shards):
            label_entropy = tuple(ord(ch) for ch in f"{label}.shard-{i}")
            seed_material = int(root.integers(0, 2**63 - 1))
            seeds.append((seed_material, *label_entropy))
        return tuple(seeds)
