"""Execution backends: run a shard task serially or on a persistent pool.

A *shard task* is a picklable callable ``task(shard, telemetry) -> result``.
Both backends return results **in shard-index order**, so a sharded stage
is a drop-in replacement for its serial loop: determinism comes from the
:class:`~repro.parallel.plan.ShardPlan` (partition and RNG streams fixed
before dispatch), not from execution order.  The pool submits shards in
index order but they finish in any order; the merge keyed by
``shard.index`` keeps the result list — and therefore every artifact
byte — identical.

Two backends:

* ``serial`` — in-process, in order; the reference implementation.
* ``pool`` — a supervised, **persistent** process-wide
  :class:`~repro.parallel.pool.WorkerPool`, reused across stages,
  campaign cells, and (under ``repro serve``) whole campaigns, so spawn +
  import warmup is paid once per process instead of once per stage.

A shard carries its own inputs.  A stage passes :func:`run_sharded` a
``payload`` function that cuts one shard's slice of the stage's arrays;
the executor calls it in the parent when it first dispatches that shard
and hands the task the cut shard, so a pool submission pickles only its
own slice, and only the slices of shards in flight are alive at once.
The pool keeps :data:`IN_FLIGHT_PER_WORKER` submissions per worker in
flight, so a worker that finishes a shard takes the next one from the
pool's queue instead of waiting for the parent to harvest and submit.

Telemetry crosses the process boundary by value: each worker records into a
fresh private bundle, returns its snapshot alongside the shard result, and
the parent merges snapshots back — counters add, histogram observations
extend, and the worker's span forest is adopted under the stage's fan-out
span, in shard order.  Nothing is recorded twice: on the pool the parent
records only the fan-out span and the merge, never the per-shard work the
workers already accounted for.  The span tree is the one record of each
dispatch: a completed attempt's ``<label>.shard`` span carries its
``attempt``, an adopted worker span also its ``worker``, queue wait and
submission size in pickled bytes, and a pool fan-out's span carries the
pool's identity.  :class:`repro.obs.flight.FlightView` reads them back.
Queue wait runs from submit to the worker's start, so it includes the time
a submission waited inside the pool behind the others in flight.

Both backends are *supervised* when given a
:class:`~repro.resilience.ResilienceConfig` and/or a
:class:`~repro.faults.FaultPlan`:

* a shard that fails with a retryable error (transient injected fault,
  dead worker, broken pool, per-shard timeout) is retried/requeued at
  once, up to the policy's attempt limit;
* the pool detects dead workers (``BrokenProcessPool``, whether it
  surfaces from a result or from the next submit) and hung workers
  (``ParallelConfig.shard_timeout_s``, which counts from worker pickup:
  workers take submissions first in, first out, so a shard's deadline
  starts when it joins the oldest ``workers`` unfinished submissions,
  never before its submit), rebuilds itself in place (keeping
  its identity and counting the restart), re-dispatches what it held
  (charging an attempt only to the oldest ``workers``, which can have
  run), and runs a shard whose pool attempts are exhausted *in-process*
  before quarantining it;
* a quarantined shard yields a :class:`~repro.resilience.ShardLoss`
  sentinel in the result list, and :func:`run_sharded` aborts with
  :class:`~repro.resilience.ShardQuarantinedError` if the losses exceed
  the stage's :class:`~repro.resilience.ErrorBudget`.

With no faults and no resilience config (the default), every supervised
code path collapses to the plain fast path — fault injection is zero-cost
when disabled.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from typing import Any, Callable

from repro._util import require
from repro.faults import (
    CRASH_EXIT_CODE,
    FaultPlan,
    WorkerCrashError,
    raise_injected,
)
from repro.obs import MetricsRegistry, StageProfiler, Telemetry, ensure_telemetry
from repro.obs.export import telemetry_to_json
from repro.obs.logging import NULL_LOGGER
from repro.obs.trace import Span, Tracer, shift_spans
from repro.resilience import (
    ErrorBudget,
    ResilienceConfig,
    ShardLoss,
    ShardQuarantinedError,
    ShardTimeoutError,
    is_retryable,
)

from repro.parallel.plan import Shard, ShardPlan
from repro.parallel.pool import get_pool
from repro.parallel.shm import measure_payload

#: Recognised backend names, in preference order.
BACKENDS = ("serial", "pool")

ShardTask = Callable[[Shard, Telemetry | None], Any]

#: Cuts one shard's own inputs, which the task reads as ``shard.payload``.
ShardPayload = Callable[[Shard], Any]

#: Submissions a pool fan-out keeps in flight per worker.  Beyond the
#: ``workers`` a worker can be running, each waits inside the pool, so a
#: worker that finishes a shard picks up the next one at once instead of
#: idling through the parent's harvest-and-submit round trip.
IN_FLIGHT_PER_WORKER = 3


def usable_cpu_count() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def resolve_workers(workers: int | str) -> int:
    """Resolve a worker-count spec: ``"auto"`` → ``max(1, cpus - 1)``.

    One core is left for the parent (merge, supervision, telemetry);
    integers (and integer strings) pass through unchanged.
    """
    if isinstance(workers, str):
        if workers == "auto":
            return max(1, usable_cpu_count() - 1)
        require(workers.isdigit(), f"workers must be a positive integer or 'auto', got {workers!r}")
        return int(workers)
    return workers


@dataclass(frozen=True)
class ParallelConfig:
    """How sharded pipeline stages execute.

    Every field is execution-only: ``backend``, ``workers`` and
    ``shard_timeout_s`` decide *where* shards run and how long a worker
    may hold one, never how the work is partitioned, so changing them
    never changes results.  The stages fix their own shard sizes
    (:data:`repro.mlab.matrix.CAMPAIGN_CHUNK`,
    :data:`repro.core.pipeline.CLUSTERING_ISPS_PER_SHARD`).  ``workers``
    accepts ``"auto"`` (resolved to ``max(1, cpus - 1)`` at construction,
    so telemetry and bench snapshots always see the concrete count).
    """

    backend: str = "serial"
    workers: int | str = 1
    #: Per-shard execution timeout, counted from worker pickup (time a
    #: shard waits queued inside the pool is not charged); ``None``
    #: (default) never times out.
    #: On the pool a shard past its deadline is treated as a hung worker;
    #: retry/fallback behaviour then follows the stage's
    #: :class:`~repro.resilience.ResilienceConfig` (or the timeout error
    #: propagates when none is configured).
    shard_timeout_s: float | None = None

    def __post_init__(self) -> None:
        require(self.backend in BACKENDS, f"backend must be one of {BACKENDS}, got {self.backend!r}")
        object.__setattr__(self, "workers", resolve_workers(self.workers))
        require(self.workers >= 1, "workers must be >= 1")
        if self.shard_timeout_s is not None:
            require(self.shard_timeout_s > 0, "shard_timeout_s must be > 0 (or None)")


def _shard_sites(label: str) -> tuple[str, ...]:
    """Site aliases a shard fault can be addressed by (a sweep shard is one cell)."""
    sites = ("parallel.shard", f"{label}.shard")
    return sites + ("sweep.cell",) if label == "sweep" else sites


def _trip_shard_fault(
    faults: FaultPlan | None,
    label: str,
    shard_index: int,
    attempt: int,
    shard_timeout_s: float | None = None,
    in_worker: bool = False,
) -> None:
    """Apply a shard-site fault, for real in a worker or emulated in-process.

    In a worker a crash kills the process and a hang really sleeps, so the
    pool's supervisor meets the genuine failure.  In-process (the serial
    backend and the pool's fallback) a crash becomes
    :class:`WorkerCrashError` and a hang that ``shard_timeout_s`` would
    have caught becomes :class:`ShardTimeoutError`, so both backends make
    identical retry decisions from the same plan.
    """
    if faults is None:
        return
    spec = faults.decide_any(_shard_sites(label), shard_index, attempt)
    if spec is None:
        return
    if spec.kind == "error":
        raise_injected(spec, spec.site, shard_index)
    elif spec.kind == "crash":
        if in_worker:
            os._exit(CRASH_EXIT_CODE)
        raise WorkerCrashError(f"injected worker crash at shard {shard_index}")
    elif spec.kind == "hang":
        if shard_timeout_s is not None and spec.hang_s > shard_timeout_s:
            raise ShardTimeoutError(
                f"shard {shard_index} exceeded its {shard_timeout_s}s timeout (injected hang)"
            )
        time.sleep(spec.hang_s)


def _cut(shard: Shard, payload: ShardPayload | None) -> Shard:
    """``shard`` carrying its own inputs (unchanged without ``payload``)."""
    return shard if payload is None else dataclasses.replace(shard, payload=payload(shard))


def _run_in_process(
    task: ShardTask,
    shard: Shard,
    telemetry: Telemetry | None,
    label: str,
    attempt: int,
    faults: FaultPlan | None,
    shard_timeout_s: float | None,
    fallback: bool = False,
) -> Any:
    """One in-process shard attempt: trip its fault, run it, trace it.

    The pool's ``fallback`` span carries ``worker="fallback"``; serial
    spans carry no worker, so Chrome traces keep them on the main row.
    Only a completed attempt's span gets its ``attempt``.
    """
    obs = ensure_telemetry(telemetry)
    _trip_shard_fault(faults, label, shard.index, attempt, shard_timeout_s)
    worker = {"worker": "fallback"} if fallback else {}
    with obs.span(f"{label}.shard", shard=shard.index, n_items=len(shard), **worker) as span:
        value = task(shard, telemetry)
        span.set(attempt=attempt)
    return value


class SerialExecutor:
    """Runs shards in-process, in order; the reference backend.

    With a resilience config, a shard whose attempts are exhausted is
    quarantined into a :class:`ShardLoss` instead of aborting the stage.
    """

    name = "serial"

    #: No pool serves a serial fan-out.
    pool_info: dict[str, Any] = {}

    def __init__(
        self,
        faults: FaultPlan | None = None,
        resilience: ResilienceConfig | None = None,
        shard_timeout_s: float | None = None,
    ) -> None:
        self.faults = faults
        self.resilience = resilience
        self.shard_timeout_s = shard_timeout_s

    def map_shards(
        self,
        task: ShardTask,
        shards: list[Shard],
        telemetry: Telemetry | None,
        label: str,
        payload: ShardPayload | None = None,
    ) -> list[Any]:
        obs = ensure_telemetry(telemetry)
        results: list[Any] = []
        for shard in shards:
            # Cut just before the shard runs: one shard's slice at a time.
            results.append(self._run_one(task, _cut(shard, payload), telemetry, obs, label))
            obs.progress(label, len(results), len(shards))
            obs.heartbeat(label=label)
        return results

    def _run_one(
        self, task: ShardTask, shard: Shard, telemetry: Telemetry | None, obs: Telemetry, label: str
    ) -> Any:
        policy = self.resilience.retry if self.resilience is not None else None
        attempt = 0
        while True:
            try:
                return _run_in_process(
                    task, shard, telemetry, label, attempt, self.faults, self.shard_timeout_s
                )
            except Exception as error:  # noqa: BLE001 — classified below
                if policy is not None and is_retryable(error) and policy.retries_left(attempt):
                    obs.count("resilience.retries")
                    attempt += 1
                    continue
                if self.resilience is not None:
                    obs.count("resilience.quarantined_shards")
                    return ShardLoss(
                        index=shard.index,
                        error=f"{type(error).__name__}: {error}",
                        attempts=attempt + 1,
                    )
                raise


class PoolExecutor:
    """The ``pool`` backend: supervised shards on a persistent worker pool.

    The pool is leased from :func:`repro.parallel.pool.get_pool`
    (process-wide, keyed by worker count) and survives stage exit, so
    spawn + import warmup is paid once per process, not once per fan-out.
    Supervision is a polling loop over in-flight futures: completed shards
    are harvested in completion order (results re-ordered by shard index
    at the end); a broken pool or a shard past its deadline rebuilds the
    pool **in place** — its identity and restart count persist — and
    re-dispatches the survivors; exhausted shards fall back to in-process
    execution before quarantine.  After a fan-out, :attr:`pool_info`
    holds the pool's identity plus this stage's ``stage_restarts``.
    """

    name = "pool"

    #: Poll interval while any shard has a deadline to watch.
    _POLL_S = 0.05

    #: Poll interval while an event stream wants heartbeats (no deadline).
    _HEARTBEAT_POLL_S = 1.0

    def __init__(
        self,
        workers: int,
        faults: FaultPlan | None = None,
        resilience: ResilienceConfig | None = None,
        shard_timeout_s: float | None = None,
    ) -> None:
        require(workers >= 1, "workers must be >= 1")
        self.workers = workers
        self.faults = faults
        self.resilience = resilience
        self.shard_timeout_s = shard_timeout_s
        self.pool_info: dict[str, Any] = {}

    def map_shards(
        self,
        task: ShardTask,
        shards: list[Shard],
        telemetry: Telemetry | None,
        label: str,
        payload: ShardPayload | None = None,
    ) -> list[Any]:
        capture = telemetry is not None and telemetry.enabled
        # CPU time and peak RSS are per-process readings: a profiled parent
        # has each worker profile its own shard spans.
        profile = capture and telemetry.tracer.profiler is not None
        obs = ensure_telemetry(telemetry)
        # The pool always holds the configured worker count; ``window``
        # bounds in-flight submissions, fewer for small stages.
        window = min(IN_FLIGHT_PER_WORKER * self.workers, len(shards))
        results: dict[int, Any] = {}
        snapshots: dict[int, tuple[dict[str, Any], float, int, int]] = {}
        # Fresh shards go out in index order, each cut just before its
        # first submit; ``queue`` holds shards already cut (requeues, and
        # a submit that met a broken pool), which go first and are never
        # cut again.  The merge below is keyed by shard.index.
        fresh: deque[Shard] = deque(shards)
        queue: deque[tuple[Shard, int]] = deque()
        # In submit order, which is the order the workers take them in.
        active: dict[Future, tuple[Shard, int, float, int]] = {}
        # Deadlines of the submissions a worker can have picked up.
        deadlines: dict[Future, float] = {}
        restarts = 0
        task_bytes = measure_payload(task)[0] if capture else 0
        pool = get_pool(self.workers, preferred_start_method())
        while fresh or queue or active:
            pool_broken = False
            while (fresh or queue) and len(active) < window:
                shard, attempt = queue.popleft() if queue else (_cut(fresh.popleft(), payload), 0)
                try:
                    future = pool.submit(
                        _invoke_shard, task, shard, label, capture, self.faults, attempt, profile
                    )
                except BrokenProcessPool:
                    # A worker died after the last harvest.  This shard
                    # never ran: it goes back to the front with its
                    # attempt unchanged, and the pool is rebuilt below
                    # once the futures that already finished are in.
                    queue.appendleft((shard, attempt))
                    pool_broken = True
                    break
                # Submission wall time gives the shard span's queue wait
                # (worker start wall − submit wall).
                active[future] = (
                    shard,
                    attempt,
                    time.time() if capture else 0.0,
                    task_bytes + measure_payload(shard)[0] if capture else 0,
                )
            if self.shard_timeout_s is not None:
                # Workers take submissions first in, first out, so only the
                # oldest ``workers`` unfinished ones can have been picked
                # up.  A shard's deadline starts when it joins them, after
                # its submit, so time queued in the pool is never charged.
                now = time.monotonic()
                for future in islice(active, self.workers):
                    deadlines.setdefault(future, now + self.shard_timeout_s)
            if pool_broken:
                poll: float | None = 0.0  # harvest what already finished
            elif self.shard_timeout_s is not None:
                poll = self._POLL_S
            elif obs.stream.enabled:
                poll = self._HEARTBEAT_POLL_S
            else:
                poll = None
            done, _pending = wait(list(active), timeout=poll, return_when=FIRST_COMPLETED)
            broken: dict[Future, Exception] = {}  # torn down below, in submit order
            for future in done:
                deadlines.pop(future, None)
                try:
                    value, snapshot = future.result()
                except BrokenProcessPool as error:
                    broken[future] = error
                    pool_broken = True
                    continue
                except Exception as error:  # noqa: BLE001 — classified in _dispose
                    shard, attempt, _submit, _bytes = active.pop(future)
                    self._dispose(task, shard, attempt, error, queue, results, telemetry, obs, label)
                    continue
                shard, attempt, submit_wall, payload_bytes = active.pop(future)
                results[shard.index] = value
                if snapshot is not None:
                    snapshots[shard.index] = (snapshot, submit_wall, attempt, payload_bytes)
            if done:
                obs.progress(label, len(results), len(shards))
            obs.heartbeat(label=label, in_flight=len(active))
            now = time.monotonic()
            hung = {future for future, deadline in deadlines.items() if now > deadline}
            if pool_broken or hung:
                # A broken pool fails every in-flight future; a hung worker
                # permanently occupies a slot.  Either way this pool is
                # unusable: rebuild it and re-dispatch what it held.
                if pool_broken:
                    obs.count("resilience.worker_crashes")
                obs.count("resilience.timeouts", len(hung))
                torn = []
                for future, (shard, attempt, _submit, _bytes) in active.items():
                    if future in hung:
                        error: Exception = ShardTimeoutError(
                            f"shard {shard.index} exceeded its {self.shard_timeout_s}s timeout"
                        )
                    else:
                        error = broken.get(future) or WorkerCrashError(
                            "worker pool torn down mid-shard"
                        )
                    torn.append((shard, attempt, error))
                active.clear()
                deadlines.clear()
                restarts += 1
                pool.rebuild()
                # First in, first out again: only the oldest ``workers``
                # torn-down shards can have run, and each is charged an
                # attempt.  The rest never ran; like a shard whose submit
                # met a broken pool, they go back with their attempt.
                for shard, attempt, _error in torn[self.workers:]:
                    queue.appendleft((shard, attempt))
                for shard, attempt, error in torn[: self.workers]:
                    self._dispose(task, shard, attempt, error, queue, results, telemetry, obs, label)
        # Handle-cumulative ``restarts`` plus this stage's own share.
        self.pool_info = dict(pool.info(), stage_restarts=restarts)
        for index in sorted(snapshots):  # captured runs only, merged in shard order
            _merge_worker_snapshot(obs, *snapshots[index])
        return [results[shard.index] for shard in shards]

    def _dispose(
        self,
        task: ShardTask,
        shard: Shard,
        attempt: int,
        error: Exception,
        queue: deque,
        results: dict[int, Any],
        telemetry: Telemetry | None,
        obs: Telemetry,
        label: str,
    ) -> None:
        """Decide a failed shard attempt's fate: requeue, fallback, or loss."""
        policy = self.resilience.retry if self.resilience is not None else None
        if policy is not None and is_retryable(error) and policy.retries_left(attempt):
            obs.count("resilience.requeues")
            # Requeued shards go to the front: they have already waited a
            # full dispatch cycle, and running them next keeps the
            # stage's tail short.
            queue.appendleft((shard, attempt + 1))
            return
        if self.resilience is None:
            raise error
        attempts = attempt + 1
        if self.resilience.fallback_in_process:
            obs.count("resilience.fallbacks")
            attempts += 1
            try:
                results[shard.index] = _run_in_process(
                    task, shard, telemetry, label, attempt + 1,
                    self.faults, self.shard_timeout_s, fallback=True,
                )
                return
            except Exception as fallback_error:  # noqa: BLE001 — quarantined below
                error = fallback_error
        obs.count("resilience.quarantined_shards")
        results[shard.index] = ShardLoss(
            index=shard.index,
            error=f"{type(error).__name__}: {error}",
            attempts=attempts,
        )


Executor = SerialExecutor | PoolExecutor


def make_executor(
    config: ParallelConfig,
    faults: FaultPlan | None = None,
    resilience: ResilienceConfig | None = None,
) -> Executor:
    """The executor for ``config`` (``serial`` unless told otherwise)."""
    if config.backend == "pool":
        return PoolExecutor(
            config.workers,
            faults=faults,
            resilience=resilience,
            shard_timeout_s=config.shard_timeout_s,
        )
    return SerialExecutor(
        faults=faults, resilience=resilience, shard_timeout_s=config.shard_timeout_s
    )


def run_sharded(
    task: ShardTask,
    plan: ShardPlan,
    config: ParallelConfig | None = None,
    *,
    telemetry: Telemetry | None = None,
    label: str = "parallel",
    faults: FaultPlan | None = None,
    resilience: ResilienceConfig | None = None,
    payload: ShardPayload | None = None,
) -> list[Any]:
    """Execute ``task`` over every shard of ``plan``; ordered results.

    The fan-out is traced as ``<label>.fanout`` (attributes: backend,
    workers, shard/item counts, and on the pool its identity) and every
    completed shard as one ``<label>.shard`` span, whichever backend ran
    it.

    ``payload`` (optional) cuts a shard's own inputs — its RNG seed, its
    columns of a stage-wide array — which the task reads as
    ``shard.payload``, so a submission carries only its own slice.  The
    executor calls it in the parent once per shard, when it first
    dispatches that shard (serial: just before running it; pool: just
    before its first submit); retries, requeues and the in-process
    fallback reuse the cut shard.

    With ``resilience``, a shard that exhausts its attempts is replaced
    by a :class:`~repro.resilience.ShardLoss` sentinel in the returned
    list; when the losses exceed ``resilience.budget`` the stage aborts
    with :class:`~repro.resilience.ShardQuarantinedError` instead.
    Without ``resilience`` (the default) the first failure propagates.
    """
    config = config or ParallelConfig()
    shards = plan.shards()
    if not shards:
        return []
    obs = ensure_telemetry(telemetry)
    executor = make_executor(config, faults=faults, resilience=resilience)
    effective_workers = config.workers if executor.name != "serial" else 1
    obs.gauge("parallel.workers_resolved", effective_workers)
    with obs.span(
        f"{label}.fanout",
        backend=executor.name,
        workers=effective_workers,
        n_shards=len(shards),
        n_items=plan.n_items,
    ) as fanout:
        results = executor.map_shards(task, shards, telemetry, label, payload)
        fanout.set(**executor.pool_info)
    losses = [result for result in results if isinstance(result, ShardLoss)]
    if losses:
        budget = resilience.budget if resilience is not None else ErrorBudget()
        obs.count("resilience.shards_lost", len(losses))
        obs.gauge(f"resilience.{label}.budget_used_fraction", len(losses) / len(shards))
        if not budget.allows(len(losses), len(shards)):
            raise ShardQuarantinedError(
                f"stage {label!r} lost {len(losses)}/{len(shards)} shards, over its error "
                f"budget of {budget.shard_loss_fraction:.0%}; first loss: {losses[0].error}"
            )
    obs.count(f"{label}.shards_executed", len(shards) - len(losses))
    return results


# -- worker-side machinery --------------------------------------------------------


def _invoke_shard(
    task: ShardTask,
    shard: Shard,
    label: str,
    capture: bool,
    faults: FaultPlan | None = None,
    attempt: int = 0,
    profile: bool = False,
) -> tuple[Any, dict[str, Any] | None]:
    """Run one shard in a worker process; optionally capture its telemetry.

    The captured snapshot carries a ``worker`` entry (pid, wall-clock span
    start) so the parent can rebase the worker's spans onto its own
    timeline and tag them.  With ``profile`` the worker's spans also carry
    the worker's own ``cpu_ms`` and ``rss_peak_kb``.
    """
    _trip_shard_fault(faults, label, shard.index, attempt, in_worker=True)
    if not capture:
        return task(shard, None), None
    tracer = Tracer(profiler=StageProfiler() if profile else None)
    worker = Telemetry(tracer=tracer, metrics=MetricsRegistry(), logger=NULL_LOGGER)
    with worker.span(f"{label}.shard", shard=shard.index, n_items=len(shard)):
        value = task(shard, worker)
    snapshot = telemetry_to_json(worker, name=f"{label}.shard", include_values=True)
    snapshot["worker"] = {"pid": os.getpid(), "wall_origin": worker.tracer.wall_origin}
    return value, snapshot


def _merge_worker_snapshot(
    telemetry: Telemetry,
    snapshot: dict[str, Any],
    submit_wall: float,
    attempt: int,
    payload_bytes: int,
) -> None:
    """Fold one worker's snapshot into the parent bundle.

    Metrics merge through :meth:`MetricsRegistry.merge_json`; the worker's
    span forest is adopted by the currently-open parent span (the stage's
    fan-out span), preserving recorded durations.  Worker spans were
    recorded against the worker tracer's own origin, so they are rebased
    onto the parent timeline first (wall-clock origin delta,
    :func:`~repro.obs.trace.shift_spans`) and tagged with the worker id,
    the completed ``attempt``, the submission's ``payload_bytes``, and
    ``queue_wait_ms``: worker start minus submission, both in parent wall
    time, so it includes the time the submission waited inside the pool.
    """
    if telemetry.metrics.enabled:
        telemetry.metrics.merge_json(snapshot)
    if not telemetry.tracer.enabled:
        return
    worker_info = snapshot.get("worker") or {}
    parent_wall = telemetry.tracer.wall_origin
    worker_wall = worker_info.get("wall_origin")
    spans = [Span.from_json(entry) for entry in snapshot.get("spans", ())]
    if parent_wall is not None and worker_wall is not None:
        shift_spans(spans, worker_wall - parent_wall)
    queue_wait_s = max(0.0, worker_wall - submit_wall) if worker_wall is not None else 0.0
    for span in spans:
        span.set(
            worker=f"pid-{worker_info['pid']}" if "pid" in worker_info else "worker",
            attempt=attempt,
            queue_wait_ms=round(1000.0 * queue_wait_s, 3),
            payload_bytes=payload_bytes,
        )
    telemetry.tracer.adopt(spans)


def _probe_worker() -> int:
    """Trivial round-trip payload for :func:`process_backend_available`."""
    return 42


def preferred_start_method() -> str:
    """The multiprocessing start method the worker pool uses.

    ``fork`` when the platform offers it (cheapest, inherits the parent's
    imports), otherwise whatever the platform default is (``spawn`` on
    macOS/Windows, which re-imports :mod:`repro` in each worker).
    """
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else multiprocessing.get_start_method()


@lru_cache(maxsize=1)
def process_backend_available() -> bool:
    """Whether a worker pool can actually run here (probed once, cached).

    Sandboxes and some CI runners restrict process creation or semaphores;
    callers (and ``tests/conftest.py``) use this to degrade gracefully to
    the serial backend instead of crashing mid-pipeline.
    """
    try:
        context = multiprocessing.get_context(preferred_start_method())
        with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
            return pool.submit(_probe_worker).result(timeout=60) == 42
    except Exception:
        return False
