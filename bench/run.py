#!/usr/bin/env python3
"""The repository's benchmark of record.

One workload, the form a benchmark runner invokes (the last stdout line is
the result object)::

    python3 bench/run.py --workload study-default --seed 0 --seconds 15 --trace 0

Every workload, each in fresh subprocesses, with a results file that
``--compare`` reads, and optionally a traced pass writing per-layer
numbers (``layers.json``) and Chrome traces into a directory::

    python3 bench/run.py [--seed N] [--seconds S] [--out results.json] [--trace-dir DIR]

Two sets of results files (comma-separated, one or more runs per side)::

    python3 bench/run.py --compare A1.json,A2.json B1.json,B2.json

The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with status 2 before measuring anything.
See ``bench/README.md`` for the workloads, metrics and bounds.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import probes

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

WORKLOADS = ("study-default", "study-small-pool2", "durable-campaigns")

#: End-to-end metrics and their units (bounds live in BENCHMARK.json).
END_TO_END = {"op_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

#: Seconds ``workloads.sample_kernel`` takes on the baseline host
#: (``bench/baseline.json``).  ``op_s`` and ``setup_s`` are wall times,
#: less the time spent sampling, rescaled to that speed: times
#: NOMINAL_SAMPLE_S / the mean speed sample taken during them.
NOMINAL_SAMPLE_S = 0.001

#: The timed phases of an op, reported per layer as ``phase.<name>``:
#: the study workloads' ops have the first three, durable-campaigns the rest.
PHASES = ("study_s", "archive_write_s", "reanalysis_s", "sweep_cold_s", "sweep_replay_s", "timeline_s")

#: Set-up is timed this many times per untraced run (fresh processes);
#: the last of them goes on to measure.
SETUP_REPEATS = 3

#: One workload run, set-ups and checks included, must finish within this.
RUN_DEADLINE_S = 170.0

SCHEMA = "bench-results-v1"


class BenchError(RuntimeError):
    """A run that produced no result to report."""


# -- statistics ---------------------------------------------------------------------


def summary(values: list[float]) -> dict:
    """Median, quartiles, sample count and the tail percentile (see
    :func:`probes.tail`) of ``values``."""
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    pct, tail = probes.tail(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values), "tail_pct": pct, "tail": tail}


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    stats = summary(values)
    return (stats["q3"] - stats["q1"]) / stats["median"]


def verdict(a: list[float], b: list[float], bound: float, better: str = "lower") -> str:
    """regressed / improved / unchanged / unresolved for B against A.

    Unresolved when either side's spread is wider than the bound, unless
    every B run reads better than every A run.
    """
    sign = 1.0 if better == "lower" else -1.0
    if max(spread(a), spread(b)) > bound:
        if all(sign * (y - x) < 0 for x in a for y in b):
            return "improved"
        return "unresolved"
    median_a = statistics.median(a)
    worse = sign * (statistics.median(b) - median_a) / median_a
    if worse > bound:
        return "regressed"
    if -worse > bound:
        return "improved"
    return "unchanged"


# -- running one workload ---------------------------------------------------------------


def _run_child(arguments: list[str], deadline: float) -> dict:
    """Run ``run.py --child`` to completion; returns its JSON result line."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path for path in paths if path))
    command = [sys.executable, str(BENCH / "run.py"), "--child", *arguments]
    # Its own session, so a timeout takes its pool workers down with it.
    child = subprocess.Popen(
        command, stdout=subprocess.PIPE, cwd=ROOT, env=env, start_new_session=True
    )
    try:
        output, _ = child.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException as error:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        if isinstance(error, subprocess.TimeoutExpired):
            raise BenchError(f"{' '.join(arguments[:2])}: no result within {RUN_DEADLINE_S:.0f} s") from None
        raise
    lines = output.decode().splitlines()
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    if child.returncode != 0 or not lines:
        raise BenchError(f"{' '.join(arguments[:2])}: child exited with status {child.returncode}")
    return json.loads(lines[-1])


def run_workload(
    name: str, seed: int, seconds: float, trace: bool = False, trace_dir: Path | None = None
) -> dict:
    """Set up (timed, in fresh processes), measure, check; the run's record."""
    workdir = ROOT / ".bench_tmp"
    workdir.mkdir(exist_ok=True)
    deadline = time.monotonic() + RUN_DEADLINE_S
    arguments = [
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(int(trace)), "--workdir", str(workdir),
    ]  # fmt: skip
    if trace_dir is not None:
        trace_dir.mkdir(parents=True, exist_ok=True)
        arguments += ["--trace-dir", str(trace_dir.resolve())]
    repeats = 1 if trace else SETUP_REPEATS
    setups = []
    try:
        for repeat in range(repeats):
            launched = time.monotonic_ns()
            measuring = repeat == repeats - 1
            child = _run_child(arguments if measuring else [*arguments, "--setup-only"], deadline)
            wall = (child["ready_ns"] - launched) / 1e9
            setups.append((wall, at_reference_speed(wall, child["setup_sampled_s"], child["setup_sample_s"])))
    finally:
        try:
            workdir.rmdir()
        except OSError:
            pass
    return _record(child, setups, seed, seconds, trace)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """``(name, unit, better)`` of every per-layer metric, in BENCHMARK.json order."""
    return probes.per_layer_metrics() + [(f"phase.{name}", "s", "lower") for name in PHASES]


def at_reference_speed(wall_s: float, sampled_s: float, sample_s: float) -> float:
    """``wall_s`` without its ``sampled_s`` of speed sampling, rescaled from
    the speed its mean sample ``sample_s`` shows to the baseline host's."""
    return (wall_s - sampled_s) * NOMINAL_SAMPLE_S / sample_s


def _record(
    child: dict, setups: list[tuple[float, float]], seed: int, seconds: float, trace: bool
) -> dict:
    ops = child["ops"]
    completed = [op for op in ops if op is not None]
    if not completed:
        raise BenchError("no op completed")
    failed = sum(1 for op in ops if op is None or op["problems"])
    if child["check"] and ops[0] is not None and not ops[0]["problems"]:
        failed += 1
    op_s = [at_reference_speed(op["seconds"], op["sampled_s"], op["sample_s"]) for op in completed]
    setup_s = [scaled for _, scaled in setups]
    phases = {name: summary([op["phases"][name] for op in completed]) for name in completed[0]["phases"]}
    if trace:
        values = dict(child["layers"])
        values.update({f"phase.{name}": phases[name]["median"] if name in phases else 0.0 for name in PHASES})
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in per_layer_metrics()}
    else:
        values = {
            "op_s": statistics.median(op_s),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": statistics.median([op["peak_rss_mb"] for op in completed]),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
        "detail": {
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "op_s": summary(op_s),
            "setup_s": summary(setup_s),
            "op_wall_s": summary([op["seconds"] for op in completed]),
            "setup_wall_s": summary([wall for wall, _ in setups]),
            "sample_s": summary([op["sample_s"] for op in completed]),
            "peak_rss_mb": summary([op["peak_rss_mb"] for op in completed]),
            "phases": phases,
            "digests": [op["digest"] if op else None for op in ops],
            "first_op_parts": ops[0]["parts"] if ops[0] else None,
            "problems": [problem for op in completed for problem in op["problems"]],
            "check": child["check"],
            "versions": child["versions"],
        },
    }


def _describe(name: str, record: dict) -> str:
    detail = record["detail"]
    lines = [
        f"{name}: {'correct' if record['correct'] else 'INCORRECT'}, "
        f"{record['failed']}/{record['attempted']} ops failed"
    ]
    for metric, scale, unit in (
        ("op_s", 1, "s"), ("setup_s", 1, "s"), ("op_wall_s", 1, "s"), ("setup_wall_s", 1, "s"), ("sample_s", 1e3, "ms"),
    ):  # fmt: skip
        stats = detail[metric]
        lines.append(
            f"  {metric:<12} median {stats['median'] * scale:.4f} {unit}  "
            f"[q1 {stats['q1'] * scale:.4f}, q3 {stats['q3'] * scale:.4f}]  n={stats['n']}"
        )
    for phase, stats in detail["phases"].items():
        lines.append(f"    {phase:<16} median {stats['median']:.4f} s")
    lines.append(f"  peak_rss_mb  median {detail['peak_rss_mb']['median']:.1f} MB")
    lines += [f"  problem: {problem}" for problem in detail["problems"] + detail["check"]]
    return "\n".join(lines)


# -- every workload ---------------------------------------------------------------------


def host_info(versions: dict) -> dict:
    return {
        "cpu_count": len(os.sched_getaffinity(0)),
        "machine": os.uname().machine,
        **versions,
    }


def run_all(seed: int, seconds: float, out: Path | None, trace_dir: Path | None) -> int:
    records = {}
    for name in WORKLOADS:
        records[name] = run_workload(name, seed, seconds)
        print(_describe(name, records[name]), flush=True)
    versions = records[WORKLOADS[0]]["detail"]["versions"]
    results = {
        "schema": SCHEMA,
        "host": host_info(versions),
        "seed": seed,
        "seconds": seconds,
        "workloads": records,
    }
    if trace_dir is not None:
        write_layers(trace_dir, records, seed, seconds)
    if out is not None:
        out.write_text(json.dumps(results, indent=1) + "\n")
    return 0 if all(r["correct"] for r in records.values()) else 1


def write_layers(trace_dir: Path, untraced: dict[str, dict], seed: int, seconds: float) -> None:
    """Traced runs of every workload in ``untraced`` -> ``layers.json``."""
    workloads = {}
    for name, record in untraced.items():
        traced = run_workload(name, seed, seconds, trace=True, trace_dir=trace_dir)
        # Wall times: traced runs take no speed samples to rescale with.
        traced_wall_s = traced["detail"]["op_wall_s"]["median"]
        untraced_wall_s = record["detail"]["op_wall_s"]["median"]
        workloads[name] = {
            "correct": traced["correct"],
            "traced_op_wall_s": traced_wall_s,
            "untraced_op_wall_s": untraced_wall_s,
            "tracing_overhead": traced_wall_s / untraced_wall_s - 1,
            "metrics": {metric: entry["value"] for metric, entry in traced["metrics"].items()},
        }
        print(f"{name}: traced op wall {traced_wall_s:.4f} s, overhead {workloads[name]['tracing_overhead']:+.1%}")
    layers = {"schema": SCHEMA, "effects": probes.LAYER_EFFECTS, "workloads": workloads}
    (trace_dir / "layers.json").write_text(json.dumps(layers, indent=1) + "\n")


# -- comparing two sets of runs --------------------------------------------------------------


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def compare(side_a: str, side_b: str) -> int:
    """Print a verdict per (workload, end-to-end metric); 1 if any regressed."""
    runs_a = [json.loads(Path(path).read_text()) for path in side_a.split(",")]
    runs_b = [json.loads(Path(path).read_text()) for path in side_b.split(",")]
    rows = []
    for workload in WORKLOADS:
        a = [run["workloads"][workload] for run in runs_a if workload in run["workloads"]]
        b = [run["workloads"][workload] for run in runs_b if workload in run["workloads"]]
        if not a or not b:
            continue
        for metric in benchmark_spec()["end_to_end"]:
            values_a = [record["metrics"][metric["name"]]["value"] for record in a]
            values_b = [record["metrics"][metric["name"]]["value"] for record in b]
            stats_a, stats_b = summary(values_a), summary(values_b)
            rows.append((
                workload,
                metric["name"],
                f"{stats_a['median']:.4g} [{stats_a['q1']:.4g}, {stats_a['q3']:.4g}] n={stats_a['n']}",
                f"{stats_b['median']:.4g} [{stats_b['q1']:.4g}, {stats_b['q3']:.4g}] n={stats_b['n']}",
                f"{(stats_b['median'] - stats_a['median']) / stats_a['median']:+.1%}",
                f"{max(spread(values_a), spread(values_b)):.1%}",
                verdict(values_a, values_b, metric["bound"], metric["better"]),
            ))  # fmt: skip
        rate_a, rate_b = (
            sum(r["failed"] for r in side) / sum(r["attempted"] for r in side) for side in (a, b)
        )
        rate_verdict = "regressed" if rate_b > rate_a else "improved" if rate_b < rate_a else "unchanged"
        rows.append((workload, "error_rate", f"{rate_a:.4g}", f"{rate_b:.4g}", "-", "-", rate_verdict))
        seeds_match = {r["detail"]["seed"] for r in a} == {r["detail"]["seed"] for r in b}
        digests_a = {json.dumps(r["detail"]["first_op_parts"], sort_keys=True) for r in a}
        digests_b = {json.dumps(r["detail"]["first_op_parts"], sort_keys=True) for r in b}
        if seeds_match and digests_a != digests_b:
            rows.append((workload, "export_digest", "-", "-", "-", "-", "changed"))
    header = ("workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "delta", "spread", "verdict")
    for row in (header, *rows):
        print(f"{row[0]:<22} {row[1]:<13} {row[2]:<30} {row[3]:<30} {row[4]:>7} {row[5]:>7}  {row[6]}")
    return 1 if any(row[6] == "regressed" for row in rows) else 0


# -- command line ----------------------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0, help="input seed; 0 reproduces the canonical presets")
    parser.add_argument("--seconds", type=float, help="measuring time per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: report per-layer metrics")
    parser.add_argument("--trace-dir", type=Path, help="write layers.json and Chrome traces here")
    parser.add_argument("--out", type=Path, help="write the results file here")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two sets of results files")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    if args.child:
        import workloads

        return workloads.child_main(args)
    # SIGTERM unwinds like Ctrl-C, so a running child's process group is killed.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(128 + signal.SIGTERM))
    seconds = args.seconds if args.seconds is not None else benchmark_spec()["run_seconds"]
    try:
        if args.workload is None:
            return run_all(args.seed, seconds, args.out, args.trace_dir)
        record = run_workload(args.workload, args.seed, seconds, bool(args.trace), args.trace_dir)
    except BenchError as error:
        print(f"bench: {error}", file=sys.stderr)
        return 1
    print(_describe(args.workload, record))
    if args.out is not None:
        results = {
            "schema": SCHEMA,
            "host": host_info(record["detail"]["versions"]),
            "seed": args.seed,
            "seconds": seconds,
            "workloads": {args.workload: record},
        }
        args.out.write_text(json.dumps(results, indent=1) + "\n")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
