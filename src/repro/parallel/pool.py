"""The persistent worker pool: one supervised pool, many stages.

A :class:`ProcessPoolExecutor` built per fan-out would make a study pay
spawn + import warmup twice (campaign, then clustering) and a sweep or
timeline campaign pay it per cell stage.  The ``pool`` backend instead
leases a process-wide :class:`WorkerPool` keyed by worker count:

* the first stage to ask for ``N`` workers creates the pool; every later
  stage (and, under ``repro serve``, every later *campaign*) reuses it;
* a broken or hung pool is **rebuilt in place** — same handle, fresh
  processes, ``restarts`` incremented — by the supervision loop in
  :class:`~repro.parallel.executor.PoolExecutor`, which then requeues,
  falls back or quarantines the shards it lost;
* :func:`shutdown_pools` tears everything down (registered at interpreter
  exit; the serve scheduler also calls it on drain).

The handle exposes identity (``pool_id``), ``restarts`` and
``stages_served`` so the flight recorder shows one pool serving every
stage of a run.
"""

from __future__ import annotations

import atexit
import itertools
import os
import threading
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Any, Callable

import multiprocessing

_COUNTER = itertools.count()

_LOCK = threading.Lock()

#: Live pools, keyed by worker count.
_POOLS: dict[int, "WorkerPool"] = {}


class WorkerPool:
    """A reusable, rebuildable :class:`ProcessPoolExecutor` lease."""

    def __init__(self, workers: int, start_method: str) -> None:
        self.workers = workers
        self.start_method = start_method
        self.pool_id = f"pool-{os.getpid()}-{next(_COUNTER)}"
        #: How many times a broken/hung pool was replaced with fresh
        #: processes over this handle's lifetime.
        self.restarts = 0
        #: How many fan-outs have leased this handle.
        self.stages_served = 0
        self._executor: ProcessPoolExecutor | None = None

    def _ensure(self) -> ProcessPoolExecutor:
        if self._executor is None:
            context = multiprocessing.get_context(self.start_method)
            self._executor = ProcessPoolExecutor(max_workers=self.workers, mp_context=context)
        return self._executor

    def submit(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Future:
        """Submit one task to the live pool (created lazily)."""
        return self._ensure().submit(fn, *args, **kwargs)

    def rebuild(self) -> None:
        """Replace a poisoned pool with fresh processes, in place.

        The old executor is abandoned without waiting (its workers are
        dead or hung); in-flight futures were already failed or will be
        cancelled.  The handle keeps its identity so callers see the
        restart in ``restarts`` rather than a brand-new pool.
        """
        self.restarts += 1
        self.shutdown()

    def shutdown(self) -> None:
        """Terminate the pool's workers (the handle can be re-leased)."""
        old = self._executor
        self._executor = None
        if old is not None:
            old.shutdown(wait=False, cancel_futures=True)

    def info(self) -> dict[str, Any]:
        """Identity snapshot for the flight recorder / bench trajectory."""
        return {
            "pool": self.pool_id,
            "workers": self.workers,
            "restarts": self.restarts,
            "stages_served": self.stages_served,
            "persistent": True,
        }


def get_pool(workers: int, start_method: str) -> WorkerPool:
    """Lease the process-wide pool for ``workers`` (created on first use).

    Keyed by worker count so heterogeneous configs coexist; a config that
    always asks for the same ``--workers`` always lands on one pool.
    """
    with _LOCK:
        pool = _POOLS.get(workers)
        if pool is None or pool.start_method != start_method:
            pool = WorkerPool(workers, start_method)
            _POOLS[workers] = pool
        pool.stages_served += 1
        return pool


def pool_snapshot() -> list[dict[str, Any]]:
    """Every live pool's :meth:`~WorkerPool.info` (observability surface)."""
    with _LOCK:
        return [pool.info() for _workers, pool in sorted(_POOLS.items())]


def shutdown_pools() -> None:
    """Shut down and forget every persistent pool (idempotent).

    Called at interpreter exit, by the serve scheduler on drain, and by
    tests that need a cold pool.
    """
    with _LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.shutdown()


atexit.register(shutdown_pools)
