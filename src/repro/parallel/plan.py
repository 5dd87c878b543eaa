"""Deterministic work partitioning: :class:`ShardPlan` and :class:`Shard`.

A plan splits an ordered sequence of work units into contiguous chunks.
The partition is a pure function of the items and the chunk size — never
of the backend or worker count — which is what makes sharded execution
reproducible: concatenating shard results in shard order always yields the
same sequence the serial code would have produced, and per-shard RNG
streams (see :meth:`ShardPlan.shard_seeds`) depend only on the plan.

Invariants (property-tested in ``tests/test_parallel.py``):

* **exhaustive** — every item appears in exactly one shard;
* **disjoint** — no item appears in two shards;
* **order-stable** — concatenating ``shards()`` in index order reproduces
  the original item order for *any* chunk size.

The executors dispatch shards in index order and merge results by
``shard.index``, so completion order is an execution detail that cannot
change artifact bytes.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro._util import require, spawn_seed


@dataclass(frozen=True)
class Shard:
    """One unit of dispatch: a stable index and its slice of the work."""

    index: int
    items: tuple[Any, ...]
    #: The shard's own inputs, cut by :func:`~repro.parallel.run_sharded`'s
    #: ``payload`` function when the shard is first dispatched.
    payload: Any = None

    def __len__(self) -> int:
        return len(self.items)


@dataclass(frozen=True)
class ShardPlan:
    """A deterministic chunking of ``items`` into shards of ``chunk_size``."""

    items: tuple[Any, ...]
    chunk_size: int

    def __post_init__(self) -> None:
        require(self.chunk_size >= 1, "chunk_size must be >= 1")

    @classmethod
    def of(cls, items: Iterable[Any], chunk_size: int) -> "ShardPlan":
        """Build a plan over ``items`` (materialised in iteration order)."""
        return cls(items=tuple(items), chunk_size=int(chunk_size))

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
            Shard(index=i, items=self.items[i * self.chunk_size : (i + 1) * self.chunk_size])
            for i in range(self.n_shards)
        ]

    def shard_seeds(self, root: np.random.Generator, label: str) -> tuple[tuple[int, ...], ...]:
        """Seed material for one independent RNG stream per shard.

        Drawn from ``root`` once per shard, in shard order and *before* any
        dispatch, so the streams are identical no matter which backend or
        worker count later consumes the shards.  ``label`` namespaces the
        streams per stage.  ``np.random.default_rng(seed)`` over a shard's
        tuple is the generator :func:`repro._util.spawn_rng` would spawn
        for ``f"{label}.shard-{i}"``; the tuple pickles in tens of bytes,
        so a shard can carry its own stream.
        """
        return tuple(spawn_seed(root, f"{label}.shard-{i}") for i in range(self.n_shards))
