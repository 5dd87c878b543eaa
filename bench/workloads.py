"""The benchmark's workloads, and the child process that times one of them.

Every workload is a closed loop: a single caller, whose next op starts
only after the previous one completed.  The pool workloads run a
persistent pool of two worker processes.

Inputs come from ``--seed``.  The ops of one run differ only in the
latency model's path-inflation seed: the Internet, the deployments and
the vantage points stay the same, so every op does the same amount of
work, yet no op can be answered from an earlier op's result.  Seed 0,
op 0 is exactly the canonical preset.

While set-up and ops run, a fixed kernel is timed ten times a second in
the measuring process and its pool workers (see :class:`SpeedSampler`),
so every timed interval carries a measure of how fast the host was
during it.
"""

from __future__ import annotations

import gc
import hashlib
import json
import multiprocessing
import os
import shutil
import signal
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Any, Callable, ContextManager

import numpy

# Probed functions are called through their modules, so that installed
# probes (which rebind module attributes) see these calls too.
import repro.core.colocation as colocation
import repro.core.pipeline as pipeline
import repro.io.archive as archive
import repro.sweep.campaign as sweep
import repro.timeline.campaign as timeline
from repro.core.pipeline import StudyConfig
from repro.experiments.scenarios import DEFAULT_SCENARIO, SMALL_SCENARIO
from repro.parallel import ParallelConfig, shutdown_pools
from repro.store import StageStore, StudyStore
from repro.sweep import MetricSpec, ParameterGrid
from repro.timeline import TimelineConfig, TimelineSpec
from repro.topology.generator import InternetConfig

import probes

#: Inflation-seed distance between two benchmark seeds (ops per run stay
#: far below it, so two seeds never share an op's inputs).
SEED_STRIDE = 100_000

FIGURE1_KS = (2, 3, 4)

POOL2 = ParallelConfig(backend="pool", workers=2)

#: The warm-up op's inputs: small enough to cost well under a second, and
#: run through the workload's own code path and backend, so set-up pays
#: for imports, the pool fork and first-call costs.
TINY_STUDY = StudyConfig(
    internet=InternetConfig(seed=5, n_access_isps=25, n_ixps=8), n_vantage_points=10, seed=5
)
TINY_TIMELINE = TimelineConfig(
    internet=InternetConfig(seed=5, n_access_isps=25, n_ixps=8),
    spec=TimelineSpec(start="2022Q1", end="2022Q1", seed=3),
    n_vantage_points=10,
    seed=7,
)

#: The seed sweep of the durable-campaigns workload: four cells, each its
#: own 60-ISP Internet measured from 32 vantage points.
SWEEP_BASE = StudyConfig(
    internet=InternetConfig(seed=3, n_access_isps=60, n_ixps=22), n_vantage_points=32, seed=3
)
SWEEP_SEEDS = (3, 4, 5, 6)

#: The six-quarter timeline of the durable-campaigns workload.
TIMELINE_BASE = TimelineConfig(
    internet=InternetConfig(seed=5, n_access_isps=40, n_ixps=16),
    spec=TimelineSpec(start="2022Q1", end="2023Q2", seed=3),
    n_vantage_points=24,
    seed=7,
)


def _shifted(config: Any, seed: int, index: int) -> Any:
    """``config`` with its path-inflation seed moved to op ``index`` of ``seed``."""
    inflation = config.campaign.inflation_seed + SEED_STRIDE * seed + index
    return replace(config, campaign=replace(config.campaign, inflation_seed=inflation))


def _sha256(*parts: str | bytes) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode() if isinstance(part, str) else part)
    return digest.hexdigest()


def export_digest(directory: Path) -> str:
    """Composite sha256 of an exported archive: every file's name and bytes."""
    digest = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


@dataclass
class Op:
    """One completed op: its timings, the digests of what it produced, and
    any failed correctness checks."""

    seconds: float
    phases: dict[str, float]
    parts: dict[str, str]
    problems: list[str] = field(default_factory=list)

    @property
    def digest(self) -> str:
        return _sha256(*(f"{name}={value}" for name, value in sorted(self.parts.items())))

    def to_json(self) -> dict:
        return {
            "seconds": self.seconds,
            "phases": self.phases,
            "digest": self.digest,
            "parts": self.parts,
            "problems": self.problems,
        }


# -- study workloads ------------------------------------------------------------------


def study_op(config: StudyConfig, directory: Path, timed: Callable[[], ContextManager]) -> Op:
    """One study: the pipeline, Table 2, Figures 1-2, §3.2 validation and the
    exported archive, then Table 2 recomputed from the archive alone."""
    with timed():
        started = time.perf_counter()
        study = pipeline.run_study(config)
        tables = {xi: study.colocation_table(xi).render() for xi in config.xis}
        figure2 = [study.concentration(xi) for xi in config.xis]
        figure1 = [study.country_result(k) for k in FIGURE1_KS]
        validation = [study.validation(xi) for xi in config.xis]
        computed = time.perf_counter()
        archive.save_archive(study, directory)
        written = time.perf_counter()
        loaded = archive.load_archive(directory)
        reloaded = {
            xi: colocation.build_colocation_table(
                xi,
                loaded.clusterings[xi],
                loaded.hypergiant_of_ip("2023"),
                loaded.hypergiants_by_isp("2023"),
            ).render()
            for xi in loaded.manifest.xis
        }
        finished = time.perf_counter()
    problems = []
    if reloaded != tables:
        problems.append("Table 2 recomputed from the exported archive differs from the study's")
    return Op(
        seconds=finished - started,
        phases={
            "study_s": computed - started,
            "archive_write_s": written - computed,
            "reanalysis_s": finished - written,
        },
        parts={
            "export": export_digest(directory),
            "outputs": _sha256(repr(tables), repr(figure2), repr(figure1), repr(validation)),
        },
        problems=problems,
    )


@dataclass(frozen=True)
class StudyWorkload:
    name: str
    base: StudyConfig
    parallel: ParallelConfig

    def inputs(self, seed: int, index: int) -> StudyConfig:
        return replace(_shifted(self.base, seed, index), parallel=self.parallel)

    def warmup_inputs(self) -> StudyConfig:
        return replace(TINY_STUDY, parallel=self.parallel)

    def run_op(self, config: StudyConfig, directory: Path, timed=nullcontext) -> Op:
        return study_op(config, directory, timed)

    def check(self, config: StudyConfig, first: Op, directory: Path) -> list[str]:
        """Recompute a pool run's first op serially: the export must be
        byte-identical (a serial run has no other backend to agree with)."""
        if self.parallel.backend == "serial":
            return []
        again = study_op(replace(config, parallel=ParallelConfig()), directory, nullcontext)
        return [
            f"{part} digest of op 0 differs from a serial recomputation"
            for part in ("export", "outputs")
            if again.parts[part] != first.parts[part]
        ]


# -- durable campaigns ------------------------------------------------------------------


def _n_detections(study) -> float:
    return float(len(study.latest_inventory))


def _n_analyzable(study) -> float:
    return float(len(study.campaign.analyzable_isp_asns))


SWEEP_METRICS = (
    MetricSpec("detections", _n_detections, 1.0, 1e9, "n/a"),
    MetricSpec("analyzable ISPs", _n_analyzable, 1.0, 1e9, "n/a"),
)


@dataclass(frozen=True)
class DurableInputs:
    grid: ParameterGrid
    timeline: TimelineConfig


def _canonical(report) -> str:
    return json.dumps(report.to_json(), sort_keys=True)


def durable_op(inputs: DurableInputs, directory: Path, timed: Callable[[], ContextManager]) -> Op:
    """A seed sweep cold into a fresh study store, the same sweep replayed
    from that store, then a timeline cold into a fresh stage store."""
    with timed():
        started = time.perf_counter()
        cold = sweep.run_campaign(inputs.grid, SWEEP_METRICS, store=StudyStore(directory / "studies"))
        swept = time.perf_counter()
        replay = sweep.run_campaign(inputs.grid, SWEEP_METRICS, store=StudyStore(directory / "studies"))
        replayed = time.perf_counter()
        series = timeline.run_timeline(inputs.timeline, store=StageStore(directory / "stages"))
        finished = time.perf_counter()
    n_cells = inputs.grid.n_cells
    n_quarters = len(inputs.timeline.spec.quarters)
    problems = []
    if (cold.cache_hits, cold.cache_misses) != (0, n_cells):
        problems.append(f"cold sweep hits/misses {(cold.cache_hits, cold.cache_misses)} != (0, {n_cells})")
    if (replay.cache_hits, replay.cache_misses) != (n_cells, 0):
        problems.append(f"replay hits/misses {(replay.cache_hits, replay.cache_misses)} != ({n_cells}, 0)")
    if cold.n_failed:
        problems.append(f"{cold.n_failed} sweep cells failed")
    if _canonical(replay) != _canonical(cold):
        problems.append("replayed sweep report differs from the cold report")
    if series.n_lost or len(series.epochs) != n_quarters:
        problems.append(f"timeline has {series.n_lost} lost of {len(series.epochs)} epochs")
    return Op(
        seconds=finished - started,
        phases={
            "sweep_cold_s": swept - started,
            "sweep_replay_s": replayed - swept,
            "timeline_s": finished - replayed,
        },
        parts={"sweep": _sha256(_canonical(cold)), "timeline": _sha256(_canonical(series))},
        problems=problems,
    )


@dataclass(frozen=True)
class DurableWorkload:
    name: str

    def inputs(self, seed: int, index: int) -> DurableInputs:
        base = _shifted(SWEEP_BASE, seed, index)
        return DurableInputs(
            grid=ParameterGrid.of(base, {"seed,internet.seed": list(SWEEP_SEEDS)}),
            timeline=_shifted(TIMELINE_BASE, seed, index),
        )

    def warmup_inputs(self) -> DurableInputs:
        return DurableInputs(
            grid=ParameterGrid.of(TINY_STUDY, {"seed,internet.seed": [5]}),
            timeline=TINY_TIMELINE,
        )

    def run_op(self, inputs: DurableInputs, directory: Path, timed=nullcontext) -> Op:
        return durable_op(inputs, directory, timed)

    def check(self, inputs: DurableInputs, first: Op, directory: Path) -> list[str]:
        """Recompute op 0's timeline with no store: incremental ≡ full rerun."""
        full = timeline.run_timeline(inputs.timeline, store=None)
        if _sha256(_canonical(full)) != first.parts["timeline"]:
            return ["op 0's incremental timeline differs from a full uncached rerun"]
        return []


WORKLOADS: dict[str, StudyWorkload | DurableWorkload] = {
    workload.name: workload
    for workload in (
        StudyWorkload("study-default", DEFAULT_SCENARIO.config, ParallelConfig()),
        StudyWorkload("study-small-pool2", SMALL_SCENARIO.config, POOL2),
        DurableWorkload("durable-campaigns"),
    )
}


# -- speed sampling -----------------------------------------------------------------------

#: Seconds between two speed samples (SIGALRM interval).
SAMPLE_INTERVAL_S = 0.1

#: An interval with fewer samples than this is topped up right after it.
MIN_SAMPLES = 5

#: Slots for sampling processes: the measuring process and the pool
#: workers it forks (a rebuilt pool forks new ones; past this many, new
#: workers do not sample).
MAX_SAMPLERS = 64


def sample_kernel() -> float:
    """About a millisecond of the program's kinds of work, independent of its
    code: log-normal draws, a column sort and broadcast absolute differences
    (numpy), then a dict-update loop (interpreter)."""
    rng = numpy.random.default_rng(7)
    rtts = rng.lognormal(3.0, 0.5, size=(40, 100))
    columns = numpy.sort(rtts[:, :24], axis=0)
    distance = numpy.abs(columns[:, :, None] - columns[:, None, :]).sum(axis=0)
    counts: dict[int, int] = {}
    for index in range(4_000):
        key = index % 97
        counts[key] = counts.get(key, 0) + index
    return float(distance.sum()) + len(counts)


class SpeedSampler:
    """Times :func:`sample_kernel` every :data:`SAMPLE_INTERVAL_S` from a
    SIGALRM handler, on each sampling process's own CPU, while the program
    runs.

    The host's CPUs are shared and their speed drifts by tens of percent
    within seconds, so how fast this kernel ran during an interval says how
    fast the host was during it.  Pool workers forked while the sampler
    runs sample too (a fork hook arms their timer): a fan-out keeps both
    CPUs busy, and the two CPUs' speeds drift apart.  Every process adds
    its samples to a slot of its own in a shared array, so no handler
    takes a lock.  Sampling costs each process about 1 % of its time; only
    the measuring process's share is taken off an interval's wall time
    (:meth:`take`), the workers' stays in it, the same on every commit.
    """

    def __init__(self) -> None:
        # Per slot: samples taken, seconds spent taking them.  Slot 0 is
        # the process that starts the sampler, slot n its n-th fork.
        self._slots = multiprocessing.RawArray("d", 2 * MAX_SAMPLERS)
        self._slot = 0
        self._forks = 0
        self._root: int | None = None
        self._mark = (0.0, 0.0, 0.0)
        os.register_at_fork(before=self._before_fork, after_in_child=self._after_fork_in_child)

    def _before_fork(self) -> None:
        self._forks += 1

    def _after_fork_in_child(self) -> None:
        self._slot = self._forks
        if self._root == os.getppid() and self._slot < MAX_SAMPLERS:
            self._arm()

    def _sample(self, _signum, _frame) -> None:
        started = time.perf_counter()
        sample_kernel()
        elapsed = time.perf_counter() - started
        self._slots[2 * self._slot] += 1
        self._slots[2 * self._slot + 1] += elapsed

    def _arm(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def start(self) -> None:
        self._root = os.getpid()
        self._arm()

    def stop(self) -> None:
        self._root = None
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _totals(self) -> tuple[float, float, float]:
        """Samples and their seconds over every slot, and this process's seconds."""
        values = self._slots[:]
        return sum(values[0::2]), sum(values[1::2]), values[2 * self._slot + 1]

    def reset(self) -> None:
        self._mark = self._totals()

    def take(self) -> tuple[float, float]:
        """``(seconds this process spent sampling, mean sample seconds over
        every process)`` since the last take or reset.  Too few samples are
        topped up with direct runs, which are not counted as time spent
        inside the interval."""
        totals = self._totals()
        count, seconds, own = (now - then for now, then in zip(totals, self._mark))
        self._mark = totals
        while count < MIN_SAMPLES:
            started = time.perf_counter()
            sample_kernel()
            seconds += time.perf_counter() - started
            count += 1
        return own, seconds / count


# -- the child process ------------------------------------------------------------------


def _pids() -> list[int]:
    """This process and every live pool worker."""
    return [os.getpid(), *(child.pid for child in multiprocessing.active_children())]


def reset_peak_rss() -> None:
    """Restart the VmHWM high-water mark of this process and its pool workers."""
    for pid in _pids():
        with open(f"/proc/{pid}/clear_refs", "w") as clear_refs:
            clear_refs.write("5")


def peak_rss_mb() -> float:
    """VmHWM of this process plus every live pool worker, in MiB.

    Pages shared after fork count once per process, so this overcounts,
    but it does so the same way on every commit.
    """
    total_kb = 0
    for pid in _pids():
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
    return total_kb / 1024


def _measure(workload, seed: int, seconds: float, workdir: Path, recorder, sampler: SpeedSampler) -> dict:
    """Run ops back to back for ``seconds`` (at least one), then check op 0.

    Each op's peak memory is measured on its own (high-water marks reset
    before it), so the figure does not depend on how many ops fit.  Each
    op records ``sampled_s`` (sampling time inside it) and ``sample_s``
    (its mean speed sample).
    """
    ops: list[dict | None] = []
    first: Op | None = None
    timed: Callable[[], ContextManager] = nullcontext
    if recorder is not None:
        recorder.reset()
        recorder.collecting = True
        timed = partial(recorder.span, probes.OP_KEY)
    started = time.perf_counter()
    while not ops or time.perf_counter() - started < seconds:
        index = len(ops)
        directory = workdir / f"op-{index}"
        reset_peak_rss()
        sampler.reset()
        try:
            op = workload.run_op(workload.inputs(seed, index), directory, timed)
        except Exception:  # noqa: BLE001 - a failed op is counted, the loop goes on
            traceback.print_exc()
            ops.append(None)
        else:
            sampled_s, sample_s = sampler.take()
            ops.append(
                {**op.to_json(), "peak_rss_mb": peak_rss_mb(), "sampled_s": sampled_s, "sample_s": sample_s}
            )
            if index == 0:
                first = op
        shutil.rmtree(directory, ignore_errors=True)
        # Free the op's garbage before the next one starts, so every op
        # begins from the same footprint.
        gc.collect()
    result: dict[str, Any] = {"ops": ops, "check": []}
    if recorder is not None:
        recorder.collecting = False
        result["spans"] = recorder.spans
    if first is not None:
        try:
            result["check"] = workload.check(workload.inputs(seed, 0), first, workdir / "check")
        except Exception as error:  # noqa: BLE001 - reported as a failed check
            traceback.print_exc()
            result["check"] = [f"check step raised {type(error).__name__}: {error}"]
    return result


def child_main(args) -> int:
    """Set up, signal readiness, and (unless ``--setup-only``) measure.

    Prints one JSON line: ``ready_ns`` (CLOCK_MONOTONIC, comparable with
    the launching process's clock), the sampling time and mean speed
    sample of the set-up (``setup_sampled_s``, ``setup_sample_s``), plus,
    when measuring, the ops.  Traced runs take no speed samples.
    """
    workload = WORKLOADS[args.workload]
    recorder = probes.install() if args.trace else None
    sampler = SpeedSampler()
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.workdir))
    try:
        if recorder is None:
            sampler.start()
        workload.run_op(workload.warmup_inputs(), workdir / "warmup")
        shutil.rmtree(workdir / "warmup", ignore_errors=True)
        result: dict[str, Any] = {"ready_ns": time.monotonic_ns()}
        result["setup_sampled_s"], result["setup_sample_s"] = sampler.take()
        if not args.setup_only:
            result.update(_measure(workload, args.seed, args.seconds, workdir, recorder, sampler))
            result["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__}
            if recorder is not None:
                spans = result.pop("spans")
                result["layers"] = probes.layer_metrics(spans)
                if args.trace_dir:
                    first_op = next(i for i, span in enumerate(spans) if span[2] == probes.OP_KEY)
                    trace_path = Path(args.trace_dir) / f"trace-{args.workload}.json"
                    trace_path.write_text(
                        json.dumps(probes.chrome_trace(spans[: first_op + 1], args.workload))
                    )
    finally:
        sampler.stop()
        shutdown_pools()
        if recorder is not None:
            probes.restore()
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0
