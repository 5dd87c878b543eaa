"""Self-tests of the benchmark harness.

Run from the repository root::

    PYTHONPATH=src python -m pytest bench/test_harness.py -q

The smoke tests run every workload for one op at ``--seed 1``, so the
file takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import probes
import run

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*arguments: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *arguments],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


# -- probes --------------------------------------------------------------------------


def _bindings() -> dict[tuple[str, str], int]:
    """Identity of every attribute of every loaded repro module and probed class."""
    owners = {name: vars(module) for name, module in sys.modules.items() if name.startswith("repro")}
    for probe in probes.PROBES:
        if "." in probe.attr:
            owner, _name, _original = probes._resolve(probe)
            owners[f"{probe.module}.{owner.__name__}"] = vars(owner)
    return {(owner, attr): id(value) for owner, values in owners.items() for attr, value in values.items()}


def test_install_then_restore_leaves_every_attribute_in_place():
    import workloads  # noqa: F401 - loads every module the workloads touch
    from repro.core import pipeline
    from repro.store import StudyStore

    before = _bindings()
    original_run_study = pipeline.run_study
    original_get = StudyStore.get
    probes.install()
    try:
        assert pipeline.run_study is not original_run_study
        assert pipeline.run_study.__probe_original__ is original_run_study
        assert StudyStore.get is not original_get
        # Re-exports are rebound too: every reference, not just the definition.
        import repro.sweep

        assert repro.sweep.run_campaign.__probe_original__ is not None
    finally:
        probes.restore()
    assert _bindings() == before


def test_self_time_is_duration_minus_union_of_children():
    spans = [
        (1, None, "root", 0, 100, 7, None),
        (2, 1, "a", 10, 40, 7, None),
        (3, 1, "b", 30, 60, 8, None),  # overlaps a (another worker)
        (4, 1, "c", 90, 120, 8, None),  # runs past the parent: clipped to 100
        (5, 2, "leaf", 15, 20, 7, None),
    ]
    self_ns = probes.self_times_ns(spans)
    assert self_ns[1] == 100 - (50 + 10)
    assert self_ns[2] == 30 - 5
    assert self_ns[3] == 30
    assert self_ns[5] == 5
    assert probes.union_ns([(0, 10), (5, 15), (20, 25)]) == 20


def test_speed_sampler_samples_while_code_runs_and_stops_cleanly():
    import signal
    import time

    import workloads

    sampler = workloads.SpeedSampler()
    sampler.start()
    try:
        deadline = time.monotonic() + 0.55
        while time.monotonic() < deadline:
            sum(range(1000))
        spent, mean = sampler.take()
    finally:
        sampler.stop()
    assert 0 < mean < spent < 0.5  # several samples, about 1 ms each
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    # An interval without samples is topped up outside it.
    spent, mean = sampler.take()
    assert spent == 0 and mean > 0


def _spin(seconds: float) -> None:
    import time

    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        sum(range(1000))


def test_speed_sampler_samples_in_forked_workers_too():
    import multiprocessing

    import workloads

    sampler = workloads.SpeedSampler()
    sampler.start()
    try:
        worker = multiprocessing.get_context("fork").Process(target=_spin, args=(0.55,))
        worker.start()
        worker.join()
    finally:
        sampler.stop()
    assert worker.exitcode == 0
    assert sampler._slots[2] >= 3  # the worker's slot: samples it took itself


def test_timings_are_rescaled_to_the_nominal_sample_speed():
    # 10 ms of sampling is taken off, and a host running at half speed halves the time.
    assert run.at_reference_speed(2.01, 0.01, 2 * run.NOMINAL_SAMPLE_S) == pytest.approx(1.0)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert probes.tail([float(v) for v in range(100)]) == (90.0, 89.0)
    assert probes.tail([float(v) for v in range(1000)])[0] == 99.0
    assert probes.tail([1.0, 2.0, 3.0]) == (None, 3.0)


# -- compare -----------------------------------------------------------------------


def test_verdicts():
    assert run.verdict([10.0, 10.1, 9.9], [10.2, 10.0, 10.1], bound=0.1) == "unchanged"
    assert run.verdict([10.0, 10.1, 9.9], [12.0, 12.1, 11.9], bound=0.1) == "regressed"
    assert run.verdict([10.0, 10.1, 9.9], [8.0, 8.1, 7.9], bound=0.1) == "improved"
    # higher-is-better flips the direction
    assert run.verdict([10.0, 10.1, 9.9], [8.0, 8.1, 7.9], bound=0.1, better="higher") == "regressed"
    # A spread wider than the bound is unresolved...
    assert run.verdict([8.0, 10.0, 12.0, 9.0], [12.5, 9.5, 11.0, 13.0], bound=0.1) == "unresolved"
    # ...unless every B run beats every A run.
    assert run.verdict([8.0, 10.0, 12.0, 9.0], [5.0, 6.0, 7.0, 7.5], bound=0.1) == "improved"


def _results(op_s: float, failed: int, parts: dict) -> dict:
    metrics = {
        name: {"value": op_s if name == "op_s" else 1.0, "unit": unit}
        for name, unit in run.END_TO_END.items()
    }
    record = {
        "correct": failed == 0,
        "attempted": 10,
        "failed": failed,
        "metrics": metrics,
        "detail": {"seed": 0, "first_op_parts": parts},
    }
    return {"schema": run.SCHEMA, "workloads": {"study-small-pool2": record}}


def test_compare_flags_error_rate_increase_and_digest_change(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_results(1.0, 0, {"export": "x"})))
    b.write_text(json.dumps(_results(1.01, 1, {"export": "y"})))
    assert run.compare(str(a), str(b)) == 1
    rows = {line.split()[1]: line.split()[-1] for line in capsys.readouterr().out.splitlines()[1:]}
    assert rows["op_s"] == "unchanged"
    assert rows["error_rate"] == "regressed"
    assert rows["export_digest"] == "changed"


def test_compare_accepts_several_runs_per_side(tmp_path, capsys):
    paths = []
    for index, op_s in enumerate((1.0, 1.02, 0.99, 1.01)):
        path = tmp_path / f"{index}.json"
        path.write_text(json.dumps(_results(op_s, 0, {"export": "x"})))
        paths.append(str(path))
    assert run.compare(",".join(paths[:2]), ",".join(paths[2:])) == 0
    assert "regressed" not in capsys.readouterr().out


# -- names ----------------------------------------------------------------------------


def test_benchmark_json_names_match_the_harness():
    import workloads

    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == run.per_layer_metrics()
    emitted = probes.layer_metrics([(1, None, probes.OP_KEY, 0, 10, 1, None)])
    assert list(emitted) == [name for name, _unit, _better in probes.per_layer_metrics()]


# -- end to end ---------------------------------------------------------------------------


def _result_line(completed: subprocess.CompletedProcess) -> dict:
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_one_op_smoke(workload):
    result = _result_line(_bench("--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "0"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 1, 0)
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_traced_pool_run_reports_worker_side_probes(tmp_path):
    result = _result_line(
        _bench(
            "--workload", "study-small-pool2", "--seed", "1", "--seconds", "0", "--trace", "1",
            "--trace-dir", str(tmp_path),
        )  # fmt: skip
    )
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    assert metrics["parallel.shard.calls"] > 0 and metrics["parallel.overhead_ms"] > 0
    events = json.loads((tmp_path / "trace-study-small-pool2.json").read_text())["traceEvents"]
    parent = next(e["pid"] for e in events if e["name"] == probes.OP_KEY)
    worker_layers = {e["cat"] for e in events if e["ph"] == "X" and e["pid"] != parent}
    assert {"clustering", "mlab", "parallel"} <= worker_layers


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = _bench("--workload", "study-default", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
