"""Tests for :mod:`repro.parallel`: plans, executors, and telemetry merge.

The differential serial≡pool study harness lives in
``tests/test_parallel_equivalence.py``; this module covers the building
blocks — partition invariants (hypothesis property tests), ordered merge,
per-shard RNG stability, and worker-telemetry accounting.
"""

from __future__ import annotations

import dataclasses
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util import make_rng
from repro.obs import MetricsRegistry, Telemetry, Tracer, aggregate_stages
from repro.parallel import (
    ParallelConfig,
    PoolExecutor,
    SerialExecutor,
    Shard,
    ShardPlan,
    ShmRegistry,
    make_executor,
    measure_payload,
    resolve_workers,
    run_sharded,
    shared_memory_available,
    shutdown_pools,
    steal_order,
    sweep_orphan_segments,
    usable_cpu_count,
)


# Module-level so the pool backend can pickle them.
def _sum_shard(shard: Shard, telemetry) -> int:
    if telemetry is not None:
        telemetry.count("test.items_seen", len(shard.items))
        telemetry.observe("test.shard_items", len(shard.items))
    return sum(shard.items)


def _echo_shard(shard: Shard, telemetry) -> tuple[int, tuple]:
    return shard.index, shard.items


def _boom_shard(shard: Shard, telemetry) -> None:
    raise RuntimeError(f"shard {shard.index} exploded")


class TestShardPlan:
    @given(n=st.integers(0, 500), chunk=st.integers(1, 64))
    @settings(max_examples=200, deadline=None)
    def test_partition_exhaustive_disjoint_ordered(self, n, chunk):
        items = list(range(n))
        plan = ShardPlan.of(items, chunk_size=chunk)
        shards = plan.shards()
        # Exhaustive + order-stable: concatenation reproduces the input.
        flattened = [item for shard in shards for item in shard.items]
        assert flattened == items
        # Disjoint: no item lands in two shards.
        assert len(set(flattened)) == len(flattened)
        # Index order and sizes.
        assert [s.index for s in shards] == list(range(plan.n_shards))
        assert all(len(s) <= chunk for s in shards)
        assert all(len(s) == chunk for s in shards[:-1])

    @given(n=st.integers(0, 300), chunk_a=st.integers(1, 64), chunk_b=st.integers(1, 64))
    @settings(max_examples=200, deadline=None)
    def test_coverage_stable_under_chunk_size_changes(self, n, chunk_a, chunk_b):
        items = tuple(range(n))
        flat_a = [x for s in ShardPlan.of(items, chunk_a).shards() for x in s.items]
        flat_b = [x for s in ShardPlan.of(items, chunk_b).shards() for x in s.items]
        assert flat_a == flat_b == list(items)

    def test_empty_plan(self):
        plan = ShardPlan.of([], chunk_size=8)
        assert plan.n_shards == 0 and plan.shards() == []
        assert run_sharded(_sum_shard, plan) == []

    def test_chunk_size_validation(self):
        with pytest.raises(ValueError):
            ShardPlan.of([1, 2], chunk_size=0)

    def test_shard_rngs_deterministic_and_distinct(self):
        plan = ShardPlan.of(range(40), chunk_size=10)
        rngs_a = plan.shard_rngs(make_rng(9), "stage")
        rngs_b = plan.shard_rngs(make_rng(9), "stage")
        assert len(rngs_a) == plan.n_shards == 4
        draws_a = [rng.random(5).tolist() for rng in rngs_a]
        draws_b = [rng.random(5).tolist() for rng in rngs_b]
        # Same root seed -> identical streams; different shards -> distinct.
        assert draws_a == draws_b
        assert len({tuple(d) for d in draws_a}) == len(draws_a)

    def test_shard_rngs_label_namespacing(self):
        plan = ShardPlan.of(range(10), chunk_size=5)
        a = plan.shard_rngs(make_rng(1), "campaign")[0].random(4).tolist()
        b = plan.shard_rngs(make_rng(1), "clustering")[0].random(4).tolist()
        assert a != b


class TestStealOrder:
    @given(
        costs=st.lists(st.floats(0.0, 1e6, allow_nan=False), min_size=0, max_size=50),
        chunk=st.integers(1, 7),
    )
    @settings(max_examples=200, deadline=None)
    def test_permutation_sorted_by_cost_index_stable(self, costs, chunk):
        plan = ShardPlan.of(range(len(costs)), chunk_size=chunk, costs=costs)
        shards = plan.shards()
        ordered = steal_order(shards)
        # A permutation: same shards, nothing dropped or duplicated.
        assert sorted(s.index for s in ordered) == [s.index for s in shards]
        # Non-increasing cost, and ties resolve in index order.
        keys = [(-s.cost_estimate, s.index) for s in ordered]
        assert keys == sorted(keys)

    @given(n=st.integers(0, 60), chunk=st.integers(1, 8))
    @settings(max_examples=100, deadline=None)
    def test_default_costs_preserve_index_order(self, n, chunk):
        # Without estimates every full shard ties (and the tail shard is
        # smallest), so dispatch order degenerates to nearly index order —
        # crucially it is *deterministic* for any input.
        shards = ShardPlan.of(range(n), chunk_size=chunk).shards()
        ordered = steal_order(shards)
        full = [s.index for s in ordered if len(s) == chunk]
        assert full == sorted(full)

    def test_merge_unaffected_by_dispatch_order(self):
        # The executors key results by shard.index, so any dispatch
        # permutation yields identical output — spot-check via costs that
        # force reverse dispatch.
        items = list(range(20))
        plan_costed = ShardPlan.of(items, chunk_size=3, costs=list(range(20)))
        plan_plain = ShardPlan.of(items, chunk_size=3)
        assert run_sharded(_echo_shard, plan_costed) == run_sharded(_echo_shard, plan_plain)

    def test_costs_length_validated(self):
        with pytest.raises(ValueError):
            ShardPlan.of(range(4), chunk_size=2, costs=[1.0])


class TestShardSeeds:
    @given(n=st.integers(1, 80), chunk=st.integers(1, 16), seed=st.integers(0, 2**31))
    @settings(max_examples=50, deadline=None)
    def test_seeds_reproduce_shard_rngs(self, n, chunk, seed):
        plan = ShardPlan.of(range(n), chunk_size=chunk)
        rngs = plan.shard_rngs(make_rng(seed), "campaign")
        seeds = plan.shard_seeds(make_rng(seed), "campaign")
        assert len(seeds) == len(rngs) == plan.n_shards
        for rng, seed_material in zip(rngs, seeds):
            rebuilt = np.random.default_rng(seed_material)
            assert rng.random(8).tolist() == rebuilt.random(8).tolist()

    def test_seeds_consume_root_identically_to_rngs(self):
        # Downstream draws from the root generator must not depend on
        # whether a stage asked for generators or seed material.
        root_a, root_b = make_rng(7), make_rng(7)
        plan = ShardPlan.of(range(30), chunk_size=4)
        plan.shard_rngs(root_a, "stage")
        plan.shard_seeds(root_b, "stage")
        assert root_a.random(4).tolist() == root_b.random(4).tolist()

    def test_seeds_label_namespacing(self):
        plan = ShardPlan.of(range(10), chunk_size=5)
        a = plan.shard_seeds(make_rng(1), "campaign")
        b = plan.shard_seeds(make_rng(1), "clustering")
        assert a != b


class TestParallelConfig:
    def test_defaults_are_serial(self):
        config = ParallelConfig()
        assert config.backend == "serial" and config.workers == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"backend": "threads"},
            {"workers": 0},
            {"shard_timeout_s": 0},
            {"workers": "two"},
            {"backend": "process"},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ParallelConfig(**kwargs)

    def test_fields_are_execution_only(self):
        """No field partitions the work: shard sizes belong to the stages."""
        assert [field.name for field in dataclasses.fields(ParallelConfig)] == [
            "backend",
            "workers",
            "shard_timeout_s",
        ]

    def test_factory(self):
        assert isinstance(make_executor(ParallelConfig()), SerialExecutor)
        pooled = make_executor(ParallelConfig(backend="pool", workers=2))
        assert isinstance(pooled, PoolExecutor) and pooled.workers == 2

    def test_workers_auto_resolves_at_construction(self):
        config = ParallelConfig(backend="pool", workers="auto")
        assert config.workers == max(1, usable_cpu_count() - 1)
        assert isinstance(config.workers, int)

    def test_resolve_workers(self):
        assert resolve_workers("auto") == max(1, usable_cpu_count() - 1)
        assert resolve_workers(5) == 5
        assert resolve_workers("3") == 3
        with pytest.raises(ValueError):
            resolve_workers("sideways")


class TestSerialExecution:
    def test_ordered_results(self):
        plan = ShardPlan.of(range(25), chunk_size=4)
        results = run_sharded(_echo_shard, plan)
        assert [index for index, _ in results] == list(range(plan.n_shards))
        assert [x for _, items in results for x in items] == list(range(25))

    def test_telemetry_spans_and_histogram(self):
        telemetry = Telemetry(tracer=Tracer(), metrics=MetricsRegistry())
        plan = ShardPlan.of(range(10), chunk_size=3)
        run_sharded(_sum_shard, plan, telemetry=telemetry, label="stage")
        assert "stage.fanout" in telemetry.tracer.span_names()
        assert aggregate_stages(telemetry)["stage.shard"]["count"] == plan.n_shards
        assert telemetry.metrics.histogram("test.shard_items").count == plan.n_shards
        assert telemetry.metrics.counter("test.items_seen") == 10
        assert telemetry.metrics.counter("stage.shards_executed") == plan.n_shards

    def test_exceptions_propagate(self):
        with pytest.raises(RuntimeError, match="exploded"):
            run_sharded(_boom_shard, ShardPlan.of(range(4), chunk_size=2))


@pytest.mark.parallel
class TestProcessExecution:
    """Shards run in worker processes (the pool backend)."""

    def test_ordered_despite_completion_order(self):
        plan = ShardPlan.of(range(30), chunk_size=2)
        config = ParallelConfig(backend="pool", workers=4)
        try:
            results = run_sharded(_echo_shard, plan, config)
        finally:
            shutdown_pools()
        assert [index for index, _ in results] == list(range(plan.n_shards))

    def test_worker_telemetry_merges_without_double_counting(self):
        plan = ShardPlan.of(range(22), chunk_size=4)
        serial_telemetry = Telemetry(tracer=Tracer(), metrics=MetricsRegistry())
        run_sharded(_sum_shard, plan, telemetry=serial_telemetry, label="stage")
        process_telemetry = Telemetry(tracer=Tracer(), metrics=MetricsRegistry())
        try:
            run_sharded(
                _sum_shard,
                plan,
                ParallelConfig(backend="pool", workers=3),
                telemetry=process_telemetry,
                label="stage",
            )
        finally:
            shutdown_pools()
        # Worker-side counters, histograms and shard spans arrive exactly once.
        for telemetry in (serial_telemetry, process_telemetry):
            assert telemetry.metrics.counter("test.items_seen") == 22
            assert telemetry.metrics.histogram("test.shard_items").count == plan.n_shards
            assert aggregate_stages(telemetry)["stage.shard"]["count"] == plan.n_shards
        # Worker spans appear under the fan-out span, in shard order.
        fanout = process_telemetry.tracer.find("stage.fanout")
        shard_spans = [span for span in fanout.children if span.name == "stage.shard"]
        assert [span.attributes["shard"] for span in shard_spans] == list(range(plan.n_shards))
        assert serial_telemetry.tracer.span_names() == process_telemetry.tracer.span_names()


class TestMetricsMerge:
    def test_merge_json_counters_gauges_histograms(self):
        parent = MetricsRegistry()
        parent.count("a", 2)
        parent.observe("h", 1.0)
        child = MetricsRegistry()
        child.count("a", 3)
        child.count("b", 1)
        child.gauge("g", 7.0)
        child.observe("h", 2.0)
        child.observe("h", 3.0)
        parent.merge_json(child.to_json(include_values=True))
        assert parent.counter("a") == 5 and parent.counter("b") == 1
        assert parent.gauges["g"] == 7.0
        assert parent.histogram_values("h") == [1.0, 2.0, 3.0]

    def test_merge_registry_and_summary_fallback(self):
        child = MetricsRegistry()
        child.observe("h", 4.0)
        child.observe("h", 6.0)
        parent = MetricsRegistry()
        parent.merge(child)
        assert parent.histogram("h").count == 2
        # Snapshots without raw values degrade to mean-replicated entries.
        lossy = MetricsRegistry()
        lossy.merge_json(child.to_json(include_values=False))
        assert lossy.histogram("h").count == 2
        assert lossy.histogram("h").mean == pytest.approx(5.0)

    def test_tracer_adopt_under_open_span(self):
        tracer = Tracer()
        orphan = Tracer().span("orphan")
        with orphan:
            pass
        with tracer.span("parent") as parent:
            tracer.adopt([orphan])
        assert parent.children == [orphan]
        # With no open span, adopted spans become roots.
        tracer.adopt([orphan])
        assert tracer.roots[-1] is orphan


class TestCampaignSharding:
    """measure_offnets-level determinism (study-level lives in the harness)."""

    @pytest.fixture(scope="class")
    def campaign_setup(self, small_internet, state23):
        from repro.mlab.vantage import build_vantage_points

        vps = build_vantage_points(small_internet.world, 12, seed=3)
        ips = [s.ip for s in state23.servers][:400]
        return small_internet, state23, ips, vps

    def test_serial_identical_across_worker_counts(self, campaign_setup):
        from repro.mlab.matrix import measure_offnets

        internet, state, ips, vps = campaign_setup
        matrices = [
            measure_offnets(
                internet, state, ips, vps, seed=4, parallel=ParallelConfig(workers=w)
            ).rtt_ms
            for w in (1, 3)
        ]
        assert np.array_equal(matrices[0], matrices[1], equal_nan=True)

    @pytest.mark.parallel
    def test_process_identical_to_serial(self, campaign_setup):
        from repro.mlab.matrix import measure_offnets

        internet, state, ips, vps = campaign_setup
        serial = measure_offnets(internet, state, ips, vps, seed=4)
        try:
            process = measure_offnets(
                internet,
                state,
                ips,
                vps,
                seed=4,
                parallel=ParallelConfig(backend="pool", workers=4),
            )
        finally:
            shutdown_pools()
        assert np.array_equal(serial.rtt_ms, process.rtt_ms, equal_nan=True)
        assert serial.split_location_ips == process.split_location_ips

    def test_chunk_size_is_part_of_the_artifact(self, campaign_setup, monkeypatch):
        # The shard size shapes the shard RNG streams, so it is a constant
        # of the campaign (CAMPAIGN_CHUNK) rather than a ParallelConfig
        # knob: another size re-draws the measurements.
        import repro.mlab.matrix
        from repro.mlab.matrix import measure_offnets

        internet, state, ips, vps = campaign_setup
        default = measure_offnets(internet, state, ips, vps, seed=4)
        monkeypatch.setattr(repro.mlab.matrix, "CAMPAIGN_CHUNK", 32)
        a = measure_offnets(internet, state, ips, vps, seed=4)
        b = measure_offnets(internet, state, ips, vps, seed=4)
        assert np.array_equal(a.rtt_ms, b.rtt_ms, equal_nan=True)
        assert not np.array_equal(default.rtt_ms, a.rtt_ms, equal_nan=True)


needs_shm = pytest.mark.skipif(
    not shared_memory_available(), reason="shared memory unavailable on this host"
)


class TestSharedMemory:
    @needs_shm
    def test_share_roundtrip_is_byte_identical(self):
        import pickle

        rng = np.random.default_rng(3)
        array = rng.random((17, 23))
        array[0, 0] = np.nan
        with ShmRegistry() as registry:
            shared = registry.share(array)
            assert shared.shm_backed
            blob = pickle.dumps(shared)
            # Reference-shaped: a handful of bytes, not the 17*23 floats.
            assert len(blob) < 256
            back = pickle.loads(blob)
            assert back.array.tobytes() == array.tobytes()
            assert back.array.dtype == array.dtype and back.array.shape == array.shape

    def test_disabled_registry_carries_by_value(self):
        import pickle

        array = np.arange(6.0)
        with ShmRegistry(enabled=False) as registry:
            shared = registry.share(array)
            assert not shared.shm_backed
            back = pickle.loads(pickle.dumps(shared))
            assert back.array.tobytes() == array.tobytes()

    def test_share_none_passthrough(self):
        with ShmRegistry() as registry:
            assert registry.share(None) is None

    @needs_shm
    def test_close_unlinks_and_is_idempotent(self):
        import os

        registry = ShmRegistry()
        shared = registry.share(np.arange(10.0))
        path = f"/dev/shm/{shared.name}"
        assert os.path.exists(path)
        registry.close()
        assert not os.path.exists(path)
        registry.close()  # idempotent

    @needs_shm
    def test_measure_payload_marks_shm(self):
        with ShmRegistry() as registry:
            shared = registry.share(np.zeros((50, 50)))
            size, used_shm = measure_payload({"matrix": shared, "k": 1})
            assert used_shm and size < 512
        size, used_shm = measure_payload({"k": 1})
        assert not used_shm

    @needs_shm
    def test_orphan_sweep_reaps_dead_owner_segments_only(self):
        import os
        import subprocess
        import sys
        from multiprocessing import resource_tracker, shared_memory

        from repro.parallel.shm import SHM_PREFIX

        # A pid guaranteed dead: a subprocess that already exited.
        probe = subprocess.run(
            [sys.executable, "-c", "import os; print(os.getpid())"],
            capture_output=True,
            text=True,
            check=True,
        )
        dead_pid = int(probe.stdout)
        orphan_name = f"{SHM_PREFIX}_{dead_pid}_orphantest"
        orphan = shared_memory.SharedMemory(create=True, size=64, name=orphan_name)
        orphan.close()
        # This process created the simulated orphan, so detach it from our
        # resource tracker — the "owner" it is simulating is already dead.
        resource_tracker.unregister(f"/{orphan_name}", "shared_memory")
        with ShmRegistry() as registry:
            live = registry.share(np.arange(4.0))
            removed = sweep_orphan_segments()
            assert removed >= 1
            assert not os.path.exists(f"/dev/shm/{orphan_name}")
            # Live segments of a live process survive the sweep.
            assert os.path.exists(f"/dev/shm/{live.name}")


@pytest.mark.parallel
class TestPoolBackend:
    def test_results_match_serial(self):
        plan = ShardPlan.of(range(57), chunk_size=5)
        config = ParallelConfig(backend="pool", workers=2)
        try:
            assert run_sharded(_sum_shard, plan, config) == run_sharded(_sum_shard, plan)
        finally:
            shutdown_pools()

    def test_pool_persists_across_stages(self):
        config = ParallelConfig(backend="pool", workers=2)
        try:
            infos = []
            for stage in ("alpha", "beta"):
                telemetry = Telemetry(tracer=Tracer(), metrics=MetricsRegistry())
                run_sharded(
                    _sum_shard,
                    ShardPlan.of(range(12), chunk_size=3),
                    config,
                    telemetry=telemetry,
                    label=stage,
                )
                infos.append(telemetry.flight.pools[stage])
            # Same pool identity across both stages, reuse counted.
            assert infos[0]["pool"] == infos[1]["pool"]
            assert infos[0]["persistent"] and infos[1]["persistent"]
            assert infos[1]["stages_served"] > infos[0]["stages_served"]
        finally:
            shutdown_pools()

    def test_worker_exceptions_propagate(self):
        config = ParallelConfig(backend="pool", workers=2)
        try:
            with pytest.raises(RuntimeError, match="exploded"):
                run_sharded(_boom_shard, ShardPlan.of(range(4), chunk_size=2), config)
            # The pool survives a task exception and serves the next stage.
            assert run_sharded(_sum_shard, ShardPlan.of(range(9), chunk_size=3), config) == [
                3,
                12,
                21,
            ]
        finally:
            shutdown_pools()

    def test_payload_bytes_recorded(self):
        telemetry = Telemetry(tracer=Tracer(), metrics=MetricsRegistry())
        config = ParallelConfig(backend="pool", workers=2)
        try:
            run_sharded(
                _sum_shard,
                ShardPlan.of(range(8), chunk_size=2),
                config,
                telemetry=telemetry,
                label="stage",
            )
        finally:
            shutdown_pools()
        stats = telemetry.flight.payload_stats()
        assert stats["measured_shards"] == 4 and stats["total_bytes"] > 0


@pytest.mark.parallel
class TestProcessBackendCli:
    def test_trace_output_stable_across_backends(self, capsys):
        """`--trace` with the pool backend reports the same stage set."""
        from repro.cli import main

        assert main(["study", "--scenario", "small", "--trace", "--sections", "t1"]) == 0
        serial_err = capsys.readouterr().err
        try:
            assert (
                main(
                    [
                        "study",
                        "--scenario",
                        "small",
                        "--trace",
                        "--sections",
                        "t1",
                        "--backend",
                        "pool",
                        "--workers",
                        "2",
                    ]
                )
                == 0
            )
        finally:
            shutdown_pools()
        process_err = capsys.readouterr().err
        for stage in ("ping_campaign", "clustering", "campaign.fanout", "clustering.fanout"):
            assert stage in serial_err and stage in process_err
        assert "stage timings" in process_err and "filter funnel" in process_err
