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
import signal
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Any, Callable

import multiprocessing

_COUNTER = itertools.count()

_LOCK = threading.Lock()

#: Live pools, keyed by worker count.
_POOLS: dict[int, "WorkerPool"] = {}


def _init_worker(parent_pid: int) -> None:
    """Make a pool worker die with the process that created its pool.

    An idle worker blocks on its call queue, whose pipe it holds open
    itself, so a SIGKILLed parent never wakes it; a daemon thread exits
    the worker once it is re-parented.  Polling ``getppid`` works on
    every platform, and unlike Linux's ``PR_SET_PDEATHSIG`` it does not
    fire when only the forking *thread* exits (``repro serve`` forks from
    its scheduler thread).  SIGTERM goes back to its default, undoing an
    inherited drain handler.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    threading.Thread(target=_exit_when_orphaned, args=(parent_pid,), daemon=True).start()


def _exit_when_orphaned(parent_pid: int) -> None:
    while os.getppid() == parent_pid:
        time.sleep(1.0)
    os._exit(1)


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
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=context,
                initializer=_init_worker,
                initargs=(os.getpid(),),
            )
        return self._executor

    def submit(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Future:
        """Submit one task to the live pool (created lazily)."""
        return self._ensure().submit(fn, *args, **kwargs)

    def rebuild(self) -> None:
        """Replace a poisoned pool with fresh processes, in place.

        The old executor's workers are SIGKILLed and reaped first: a hung
        worker would otherwise sleep out its task, and interpreter exit
        would wait for it.  SIGKILL because a task may have installed its
        own SIGTERM handler.  In-flight futures were already failed or
        will be cancelled.  The handle keeps its identity so callers see
        the restart in ``restarts`` rather than a brand-new pool.
        """
        self.restarts += 1
        if self._executor is not None:
            # ProcessPoolExecutor has no public handle on its workers
            # before Python 3.14's kill_workers().
            workers = list(self._executor._processes.values())
            for process in workers:
                process.kill()
            for process in workers:
                process.join()
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
