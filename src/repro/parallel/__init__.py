"""Deterministic parallel execution for the measurement pipeline.

The pipeline is embarrassingly parallel at two hot spots — the latency
campaign (one column of pings per offnet IP) and the per-ISP OPTICS
clustering — and this package fans both out without giving up
bit-reproducibility:

* :class:`ShardPlan` partitions the work units into contiguous chunks as a
  pure function of the items and a chunk size (never of the worker count);
* per-shard RNG streams are spawned from the stage's root generator in
  shard order *before* dispatch (:meth:`ShardPlan.shard_rngs` — or their
  compact wire form, :meth:`ShardPlan.shard_seeds`), so every shard sees
  the same randomness on every backend;
* :func:`run_sharded` executes the shards on the configured backend
  (:class:`SerialExecutor` or the persistent, supervised
  :class:`PoolExecutor`) and merges results in shard order — dispatch is
  largest-cost-first (:func:`steal_order`) but the merge is keyed by shard
  index, so scheduling never touches bytes;
* large read-only arrays cross the process boundary by *reference* through
  :mod:`repro.parallel.shm` (``multiprocessing.shared_memory``) instead of
  being pickled per shard, with a guaranteed-unlink registry lifecycle.

Consequently a study's exported artifacts are byte-identical across
``backend="serial"`` and ``backend="pool"`` at any worker count — the
property ``tests/test_parallel_equivalence.py`` proves differentially.
"""

from repro.parallel.executor import (
    BACKENDS,
    Executor,
    ParallelConfig,
    PoolExecutor,
    SerialExecutor,
    make_executor,
    preferred_start_method,
    process_backend_available,
    resolve_workers,
    run_sharded,
    usable_cpu_count,
)
from repro.parallel.plan import Shard, ShardPlan, steal_order
from repro.parallel.pool import (
    WorkerPool,
    get_pool,
    pool_snapshot,
    shutdown_pools,
)
from repro.parallel.shm import (
    SharedArray,
    ShmRegistry,
    measure_payload,
    shared_memory_available,
    sweep_orphan_segments,
)

__all__ = [
    "BACKENDS",
    "Executor",
    "ParallelConfig",
    "PoolExecutor",
    "SerialExecutor",
    "Shard",
    "ShardPlan",
    "SharedArray",
    "ShmRegistry",
    "WorkerPool",
    "get_pool",
    "make_executor",
    "measure_payload",
    "pool_snapshot",
    "preferred_start_method",
    "process_backend_available",
    "resolve_workers",
    "run_sharded",
    "shared_memory_available",
    "shutdown_pools",
    "steal_order",
    "sweep_orphan_segments",
    "usable_cpu_count",
]
