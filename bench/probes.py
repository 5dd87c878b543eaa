"""Outside-in per-layer tracing for the benchmark.

Probes time calls into each layer's public functions from the benchmark's
own files, so the program under test is not edited.  :func:`install`
replaces every reference to each probed function across the loaded
``repro.*`` modules (and the class attributes of the probed store
methods) with a timing wrapper; :func:`restore` puts the originals back.

Spans are ``(id, parent, key, start_ns, end_ns, pid, attrs)`` tuples on
``time.monotonic_ns`` -- CLOCK_MONOTONIC, shared by every process on the
host -- so spans recorded inside forked pool workers line up with the
parent's.  The task handed to ``run_sharded`` is wrapped so that the
worker-side spans of each shard ride back with its result and are
unwrapped before the program sees it; a ``ShardLoss`` placeholder, which
the executor makes without running the task, passes through untouched.

Install the probes before the first pool is forked: workers inherit the
wrapped functions through ``fork``.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable

#: The span every timed op is recorded under; probes called directly by
#: the op become its children.
OP_KEY = "bench.op"
SHARD_KEY = "parallel.shard"


@dataclass(frozen=True)
class Probe:
    """One probed function: ``layer.name`` in metric names."""

    layer: str
    name: str
    module: str
    #: ``function`` or ``Class.method`` inside ``module``.
    attr: str
    #: ``(args, kwargs, result) -> attrs`` recorded on the span.
    note: Callable[[tuple, dict, Any], dict] | None = None

    @property
    def key(self) -> str:
        return f"{self.layer}.{self.name}"


def _note_targets(args, kwargs, result):
    return {"n": len(args[0])}


def _note_ips(args, kwargs, result):
    return {"n": len(args[1])}


def _note_distance(args, kwargs, result):
    n_vps, n_ips = args[0].shape
    return {"ops": n_ips * (n_ips - 1) // 2 * n_vps}


def _note_archive(args, kwargs, result):
    return {"bytes": sum(entry.stat().st_size for entry in os.scandir(result) if entry.is_file())}


def _note_hit(args, kwargs, result):
    return {"hit": int(result is not None)}


def _note_stage_bytes(args, kwargs, result):
    return {"bytes": args[0].entry_path(result).stat().st_size}


def _note_cells(args, kwargs, result):
    return {"from_store": result.cache_hits}


PROBES: tuple[Probe, ...] = (
    Probe("mlab", "ping_rtts", "repro.mlab.pings", "ping_rtts", _note_targets),
    Probe("mlab", "measure_offnets", "repro.mlab.matrix", "measure_offnets"),
    Probe("mlab", "base_rtt_matrix", "repro.mlab.latency", "base_rtt_matrix"),
    Probe("mlab", "apply_quality_filters", "repro.mlab.matrix", "apply_quality_filters"),
    Probe("mlab", "build_vantage_points", "repro.mlab.vantage", "build_vantage_points"),
    Probe("clustering", "cluster_isp_offnets", "repro.clustering.sites", "cluster_isp_offnets", _note_ips),
    Probe(
        "clustering",
        "pairwise_trimmed_manhattan",
        "repro.clustering.distance",
        "pairwise_trimmed_manhattan",
        _note_distance,
    ),
    Probe("clustering", "optics_order", "repro.clustering.optics", "optics_order"),
    Probe("clustering", "extract_xi_clusters", "repro.clustering.xi", "extract_xi_clusters"),
    Probe("parallel", "run_sharded", "repro.parallel.executor", "run_sharded"),
    Probe("io", "save_archive", "repro.io.archive", "save_archive", _note_archive),
    Probe("io", "load_archive", "repro.io.archive", "load_archive"),
    Probe("store", "study_get", "repro.store.store", "StudyStore.get", _note_hit),
    Probe("store", "study_put", "repro.store.store", "StudyStore.put"),
    Probe("store", "stage_get", "repro.store.stages", "StageStore.get", _note_hit),
    Probe("store", "stage_put", "repro.store.stages", "StageStore.put", _note_stage_bytes),
    Probe("timeline", "build_substrate", "repro.timeline.engine", "build_substrate"),
    Probe("timeline", "run_timeline", "repro.timeline.campaign", "run_timeline"),
    Probe("timeline", "compute_epoch", "repro.timeline.engine", "compute_epoch"),
    Probe("timeline", "run_detect_stage", "repro.timeline.engine", "run_detect_stage"),
    Probe("timeline", "run_measure_stage", "repro.timeline.engine", "run_measure_stage"),
    Probe("timeline", "run_cluster_stage", "repro.timeline.engine", "run_cluster_stage"),
    Probe("sweep", "run_campaign", "repro.sweep.campaign", "run_campaign", _note_cells),
    Probe("topology", "generate_internet", "repro.topology.generator", "generate_internet"),
    Probe("deployment", "build_deployment_history", "repro.deployment.growth", "build_deployment_history"),
    Probe("scan", "run_scan", "repro.scan.scanner", "run_scan"),
    Probe("scan", "detect_offnets", "repro.scan.detection", "detect_offnets"),
    Probe("rdns", "build_ptr_dataset", "repro.rdns.ptr", "build_ptr_dataset"),
    Probe("rdns", "validate_clusters", "repro.rdns.validation", "validate_clusters"),
    Probe("core", "run_study", "repro.core.pipeline", "run_study"),
    Probe("core", "build_colocation_table", "repro.core.colocation", "build_colocation_table"),
    Probe("core", "single_facility_concentration", "repro.core.concentration", "single_facility_concentration"),
    Probe("core", "country_hosting_fractions", "repro.core.country", "country_hosting_fractions"),
)

#: Which end-to-end metric, on which workload, each layer should move.
LAYER_EFFECTS: dict[str, str] = {
    "mlab": "op_s on study-default (largest share) and study-small-pool2; op_s on durable-campaigns via phase.timeline_s",
    "clustering": "op_s on study-default and study-small-pool2; op_s on durable-campaigns via phase.sweep_cold_s",
    "parallel": "op_s on study-small-pool2; prediction for study-default: no change",
    "io": "op_s on every study workload (phase.archive_write_s, phase.reanalysis_s); phase.sweep_replay_s",
    "store": "op_s on durable-campaigns (phase.sweep_*_s, phase.timeline_s); prediction for study-*: no change",
    "timeline": "op_s on durable-campaigns via phase.timeline_s; setup_s on durable-campaigns",
    "sweep": "op_s on durable-campaigns via phase.sweep_cold_s and phase.sweep_replay_s",
    "topology": "op_s on study-small-pool2 (fixed costs); phase.sweep_replay_s (rehydration replays it)",
    "deployment": "op_s on study-small-pool2 (fixed costs); phase.sweep_replay_s",
    "scan": "op_s on study-small-pool2 (fixed costs); phase.sweep_replay_s",
    "rdns": "op_s on study-small-pool2 (fixed costs); phase.sweep_replay_s",
    "core": "op_s on every study workload; core.run_study self time is pipeline glue",
}


# -- recording ------------------------------------------------------------------


class Recorder:
    """In-memory span buffer for one process.

    ``collecting`` gates every probe: it is on in the parent while ops
    are timed and, in a pool worker, only while a wrapped shard task
    runs (fork resets a worker's copy, see :func:`install`).
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.collecting = False
        self._stack: list[int] = []
        self._pid = os.getpid()
        self._next = 0

    def reset(self) -> None:
        """Forget every span (a forked worker's inherited copy, or warm-up)."""
        self.spans = []
        self._stack = []
        self._pid = os.getpid()

    def open(self) -> tuple[int, int | None]:
        """Start a span; returns ``(id, parent id)``."""
        self._next += 1
        sid = (self._pid << 32) | self._next
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def close(self, sid: int, parent: int | None, key: str, start: int, attrs: dict | None) -> None:
        """End the innermost span and keep it."""
        end = time.monotonic_ns()
        self._stack.pop()
        self.spans.append((sid, parent, key, start, end, self._pid, attrs))

    def span(self, key: str, **attrs: Any) -> "_SpanContext":
        """Context manager recording one span under the current one."""
        return _SpanContext(self, key, attrs or None)

    def adopt(self, spans: list[tuple], parent: int | None) -> None:
        """Take spans recorded elsewhere; their root gets ``parent``."""
        for span in spans:
            if span[1] is None:
                span = (span[0], parent, *span[2:])
            self.spans.append(span)


class _SpanContext:
    def __init__(self, recorder: Recorder, key: str, attrs: dict | None) -> None:
        self.recorder = recorder
        self.key = key
        self.attrs = attrs

    def __enter__(self) -> "_SpanContext":
        self.sid, self.parent = self.recorder.open()
        self.start = time.monotonic_ns()
        return self

    def __exit__(self, *exc: object) -> None:
        self.recorder.close(self.sid, self.parent, self.key, self.start, self.attrs)


#: The recorder the installed probes write to.  Module-level because the
#: wrapped functions and forked pool workers must find it without being
#: handed it; :func:`install` sets it and :func:`restore` clears it.
_active: Recorder | None = None


def _collecting() -> Recorder | None:
    recorder = _active
    return recorder if recorder is not None and recorder.collecting else None


def _wrap(probe: Probe, original: Callable) -> Callable:
    key = probe.key
    note = probe.note

    @functools.wraps(original)
    def probed(*args, **kwargs):
        recorder = _collecting()
        if recorder is None:
            return original(*args, **kwargs)
        sid, parent = recorder.open()
        start = time.monotonic_ns()
        attrs = None
        try:
            result = original(*args, **kwargs)
            if note is not None:
                attrs = note(args, kwargs, result)
            return result
        finally:
            recorder.close(sid, parent, key, start, attrs)

    probed.__probe_original__ = original
    return probed


@dataclass
class _TracedResult:
    value: Any
    spans: list[tuple]


class _TracedTask:
    """A shard task that returns its spans alongside its value."""

    def __init__(self, task: Callable) -> None:
        self.task = task

    def __call__(self, shard, telemetry):
        recorder = _active
        saved = (recorder.spans, recorder._stack, recorder.collecting)
        recorder.spans, recorder._stack, recorder.collecting = [], [], True
        try:
            with recorder.span(SHARD_KEY, items=len(shard)):
                value = self.task(shard, telemetry)
            spans = recorder.spans
        finally:
            recorder.spans, recorder._stack, recorder.collecting = saved
        return _TracedResult(value, spans)


def _wrap_run_sharded(probe: Probe, original: Callable) -> Callable:
    from repro.parallel.shm import measure_payload

    key = probe.key

    @functools.wraps(original)
    def probed(task, plan, config=None, **kwargs):
        recorder = _collecting()
        if recorder is None:
            return original(task, plan, config, **kwargs)
        workers = config.workers if config is not None and config.backend != "serial" else 1
        payload = 0
        if workers > 1:
            task_bytes, _ = measure_payload(task)
            payload = task_bytes + max(measure_payload(shard)[0] for shard in plan.shards())
        with recorder.span(key) as span:
            results = original(_TracedTask(task), plan, config, **kwargs)
            unwrapped = []
            task_ns = 0
            for result in results:
                if isinstance(result, _TracedResult):
                    recorder.adopt(result.spans, span.sid)
                    shard_span = result.spans[-1]  # closes after everything inside it
                    task_ns += shard_span[4] - shard_span[3]
                    result = result.value
                unwrapped.append(result)
            span.attrs = {
                "workers": workers,
                "shards": len(results),
                "task_ns": task_ns,
                "payload_bytes": payload,
            }
        return unwrapped

    probed.__probe_original__ = original
    return probed


# -- install / restore ----------------------------------------------------------


def _repro_modules() -> list[Any]:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def _resolve(probe: Probe) -> tuple[Any, str, Callable]:
    """``(owner, attribute, original)`` for a probe's target."""
    owner: Any = importlib.import_module(probe.module)
    *path, name = probe.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, owner.__dict__[name]


def _reset_after_fork() -> None:
    if _active is not None:
        _active.reset()
        _active.collecting = False


_fork_hook_registered = False


def install() -> Recorder:
    """Wrap every probe target; returns the (not yet collecting) recorder."""
    global _active, _fork_hook_registered
    if _active is not None:
        raise RuntimeError("probes are already installed")
    targets = [(probe, *_resolve(probe)) for probe in PROBES]
    wrappers: dict[int, Callable] = {}
    for probe, owner, name, original in targets:
        wrap = _wrap_run_sharded if probe.key == "parallel.run_sharded" else _wrap
        wrapper = wrap(probe, original)
        wrappers[id(original)] = wrapper
        if isinstance(owner, type):
            setattr(owner, name, wrapper)
    for module in _repro_modules():
        for attr, value in list(vars(module).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None and getattr(wrapper, "__probe_original__", None) is value:
                setattr(module, attr, wrapper)
    _active = Recorder()
    if not _fork_hook_registered:
        os.register_at_fork(after_in_child=_reset_after_fork)
        _fork_hook_registered = True
    return _active


def restore() -> None:
    """Put every original back, wherever a wrapper was bound."""
    global _active
    owners = [_resolve(probe)[0] for probe in PROBES if "." in probe.attr]
    for owner in [*_repro_modules(), *owners]:
        for attr, value in list(vars(owner).items()):
            original = getattr(value, "__probe_original__", None)
            if original is not None:
                setattr(owner, attr, original)
    _active = None


# -- per-layer metrics --------------------------------------------------------------


def union_ns(intervals: list[tuple[int, int]]) -> int:
    """Total length covered by possibly overlapping ``(start, end)`` intervals."""
    total = 0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times_ns(spans: list[tuple]) -> dict[int, int]:
    """Span id -> duration minus the union of its children's intervals.

    Children are clipped to the parent's interval; overlapping children
    (shards running on several workers at once) count once.
    """
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    bounds = {span[0]: (span[3], span[4]) for span in spans}
    for span in spans:
        parent = span[1]
        if parent in bounds:
            lo, hi = bounds[parent]
            start, end = max(span[3], lo), min(span[4], hi)
            if end > start:
                children[parent].append((start, end))
    return {
        sid: (end - start) - union_ns(children.get(sid, []))
        for sid, (start, end) in bounds.items()
    }


def tail(values: list[float]) -> tuple[float | None, float]:
    """The highest of p50/p90/p99/p99.9 with at least ten samples beyond it.

    Returns ``(percentile, value)``; ``(None, max)`` when even the median
    has fewer than ten samples above it.
    """
    ordered = sorted(values)
    if not ordered:
        return None, 0.0
    chosen = (None, ordered[-1])
    for pct in (50.0, 90.0, 99.0, 99.9):
        index = round((len(ordered) - 1) * pct / 100)
        if len(ordered) - 1 - index >= 10:
            chosen = (pct, ordered[index])
    return chosen


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _timed_keys() -> list[str]:
    """Every span key with call/time metrics: the probes plus the shard task."""
    return [probe.key for probe in PROBES] + [SHARD_KEY]


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """``(name, unit, better)`` of every metric :func:`layer_metrics` emits."""
    timed = [
        (f"{key}.{stat}", unit, "lower")
        for key in _timed_keys()
        for stat, unit in (("calls", "count"), ("ms", "ms"), ("self_ms", "ms"))
    ]
    return timed + list(DERIVED)


#: Derived per-layer metrics: ``(name, unit, better)``.
DERIVED: tuple[tuple[str, str, str], ...] = (
    ("mlab.ping_rtts.targets_per_s", "1/s", "higher"),
    ("clustering.cluster_isp_offnets.p50_ms", "ms", "lower"),
    ("clustering.cluster_isp_offnets.tail_ms", "ms", "lower"),
    ("clustering.pairwise_trimmed_manhattan.ops", "count", "lower"),
    ("clustering.pairwise_trimmed_manhattan.pairs_per_s", "1/s", "higher"),
    ("clustering.memo_reuse", "ratio", "higher"),
    ("parallel.shard.p50_ms", "ms", "lower"),
    ("parallel.overhead_ms", "ms", "lower"),
    ("parallel.utilisation", "ratio", "higher"),
    ("parallel.payload_bytes_max", "B", "lower"),
    ("io.save_archive.archive_bytes", "B", "lower"),
    ("io.save_archive.mb_per_s", "MB/s", "higher"),
    ("store.study_get.hit_ratio", "ratio", "higher"),
    ("store.stage_get.hit_ratio", "ratio", "higher"),
    ("store.stage_put.bytes_written", "B", "lower"),
    ("timeline.compute_epoch.p50_ms", "ms", "lower"),
    ("timeline.compute_epoch.max_ms", "ms", "lower"),
    ("sweep.run_campaign.cells_from_store", "count", "higher"),
    ("trace.op_s", "s", "lower"),
    ("trace.covered_share", "ratio", "higher"),
)


def layer_metrics(spans: list[tuple]) -> dict[str, float]:
    """Per-op per-layer metrics from the spans of the timed ops.

    Counts and times are divided by the number of ``bench.op`` spans, so
    runs that fit a different number of ops stay comparable.
    """
    ops = [span for span in spans if span[2] == OP_KEY]
    n_ops = max(1, len(ops))
    self_ns = self_times_ns(spans)
    by_key: dict[str, list[tuple]] = defaultdict(list)
    for span in spans:
        by_key[span[2]].append(span)

    def durations_ms(key: str) -> list[float]:
        return [(span[4] - span[3]) / 1e6 for span in by_key.get(key, [])]

    def attr_sum(key: str, name: str) -> float:
        return float(sum((span[6] or {}).get(name, 0) for span in by_key.get(key, [])))

    metrics: dict[str, float] = {}
    for key in _timed_keys():
        group = by_key.get(key, [])
        metrics[f"{key}.calls"] = len(group) / n_ops
        metrics[f"{key}.ms"] = sum(durations_ms(key)) / n_ops
        metrics[f"{key}.self_ms"] = sum(self_ns[span[0]] for span in group) / 1e6 / n_ops

    ping_s = sum(durations_ms("mlab.ping_rtts")) / 1e3
    metrics["mlab.ping_rtts.targets_per_s"] = attr_sum("mlab.ping_rtts", "n") / ping_s if ping_s else 0.0

    cluster_ms = durations_ms("clustering.cluster_isp_offnets")
    metrics["clustering.cluster_isp_offnets.p50_ms"] = _median(cluster_ms)
    metrics["clustering.cluster_isp_offnets.tail_ms"] = tail(cluster_ms)[1]
    distance_ops = attr_sum("clustering.pairwise_trimmed_manhattan", "ops")
    distance_s = sum(durations_ms("clustering.pairwise_trimmed_manhattan")) / 1e3
    metrics["clustering.pairwise_trimmed_manhattan.ops"] = distance_ops / n_ops
    metrics["clustering.pairwise_trimmed_manhattan.pairs_per_s"] = (
        distance_ops / distance_s if distance_s else 0.0
    )
    multi_ip = sum(
        1 for span in by_key.get("clustering.cluster_isp_offnets", []) if (span[6] or {}).get("n", 0) >= 2
    )
    distance_calls = len(by_key.get("clustering.pairwise_trimmed_manhattan", []))
    metrics["clustering.memo_reuse"] = 1 - distance_calls / multi_ip if multi_ip else 0.0

    metrics["parallel.shard.p50_ms"] = _median(durations_ms(SHARD_KEY))
    fanouts = by_key.get("parallel.run_sharded", [])
    overhead_ms = busy_ns = capacity_ns = 0.0
    for span in fanouts:
        attrs = span[6] or {}
        wall = span[4] - span[3]
        workers = attrs.get("workers", 1)
        overhead_ms += (wall - attrs.get("task_ns", 0) / workers) / 1e6
        busy_ns += attrs.get("task_ns", 0)
        capacity_ns += wall * workers
    metrics["parallel.overhead_ms"] = overhead_ms / n_ops
    metrics["parallel.utilisation"] = busy_ns / capacity_ns if capacity_ns else 0.0
    metrics["parallel.payload_bytes_max"] = float(
        max((span[6] or {}).get("payload_bytes", 0) for span in fanouts) if fanouts else 0
    )

    archive_bytes = attr_sum("io.save_archive", "bytes")
    archive_s = sum(durations_ms("io.save_archive")) / 1e3
    metrics["io.save_archive.archive_bytes"] = archive_bytes / n_ops
    metrics["io.save_archive.mb_per_s"] = archive_bytes / 1e6 / archive_s if archive_s else 0.0

    for store in ("study_get", "stage_get"):
        key = f"store.{store}"
        calls = len(by_key.get(key, []))
        metrics[f"{key}.hit_ratio"] = attr_sum(key, "hit") / calls if calls else 0.0
    metrics["store.stage_put.bytes_written"] = attr_sum("store.stage_put", "bytes") / n_ops

    epoch_ms = durations_ms("timeline.compute_epoch")
    metrics["timeline.compute_epoch.p50_ms"] = _median(epoch_ms)
    metrics["timeline.compute_epoch.max_ms"] = max(epoch_ms, default=0.0)
    metrics["sweep.run_campaign.cells_from_store"] = attr_sum("sweep.run_campaign", "from_store") / n_ops

    op_ns = [span[4] - span[3] for span in ops]
    metrics["trace.op_s"] = _median(op_ns) / 1e9
    covered = sum(op_ns) - sum(self_ns[span[0]] for span in ops)
    metrics["trace.covered_share"] = covered / sum(op_ns) if op_ns else 0.0
    return metrics


def chrome_trace(spans: list[tuple], workload: str) -> dict:
    """Chrome trace-event JSON (Perfetto-loadable) with parent ids in args."""
    origin = min((span[3] for span in spans), default=0)
    events: list[dict] = [
        {"name": "process_name", "ph": "M", "pid": pid, "args": {"name": f"{workload} pid {pid}"}}
        for pid in sorted({span[5] for span in spans})
    ]
    for sid, parent, key, start, end, pid, attrs in spans:
        events.append(
            {
                "name": key,
                "cat": key.split(".")[0],
                "ph": "X",
                "ts": (start - origin) / 1e3,
                "dur": (end - start) / 1e3,
                "pid": pid,
                "tid": pid,
                "args": {"id": sid, "parent": parent, **(attrs or {})},
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}
