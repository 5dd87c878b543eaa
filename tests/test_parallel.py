"""Tests for :mod:`repro.parallel`: plans, executors, and telemetry merge.

The differential serial≡pool study harness lives in
``tests/test_parallel_equivalence.py``; this module covers the building
blocks — partition invariants (hypothesis property tests), ordered merge,
per-shard RNG stability, and worker-telemetry accounting.
"""

from __future__ import annotations

import dataclasses
import io
import pickle
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util import make_rng, spawn_rng
from repro.faults import FaultPlan, FaultSpec
from repro.obs import MetricsRegistry, Telemetry, Tracer, aggregate_stages
from repro.parallel import (
    ParallelConfig,
    PoolExecutor,
    SerialExecutor,
    Shard,
    ShardPlan,
    make_executor,
    measure_payload,
    resolve_workers,
    run_sharded,
    shutdown_pools,
    steal_order,
    usable_cpu_count,
)
from repro.resilience import ResilienceConfig, RetryPolicy


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


def _payload_shard(shard: Shard, telemetry):
    return shard.payload


#: Every shard fails its first attempt, transiently.
_FIRST_ATTEMPT_FAILS = FaultPlan(
    seed=1,
    specs=(FaultSpec(site="parallel.shard", kind="error", rate=1.0, fail_attempts=1),),
)


def _shard_streams(plan: ShardPlan, seed: int, label: str) -> list[list[float]]:
    """Eight draws from each shard's stream, rebuilt from its seed material."""
    return [
        np.random.default_rng(material).random(8).tolist()
        for material in plan.shard_seeds(make_rng(seed), label)
    ]


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
        draws_a = _shard_streams(plan, 9, "stage")
        draws_b = _shard_streams(plan, 9, "stage")
        assert len(draws_a) == plan.n_shards == 4
        # Same root seed -> identical streams; different shards -> distinct.
        assert draws_a == draws_b
        assert len({tuple(d) for d in draws_a}) == len(draws_a)

    def test_shard_rngs_label_namespacing(self):
        plan = ShardPlan.of(range(10), chunk_size=5)
        assert _shard_streams(plan, 1, "campaign")[0] != _shard_streams(plan, 1, "clustering")[0]


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
        """A shard's seed material rebuilds the generator ``spawn_rng``
        spawns for ``<label>.shard-<i>``, drawn from the root in shard order."""
        plan = ShardPlan.of(range(n), chunk_size=chunk)
        root = make_rng(seed)
        spawned = [
            spawn_rng(root, f"campaign.shard-{i}").random(8).tolist() for i in range(plan.n_shards)
        ]
        assert _shard_streams(plan, seed, "campaign") == spawned

    def test_seeds_consume_root_identically_to_rngs(self):
        # Downstream draws from the root generator must not depend on
        # whether a stage asked for generators or seed material.
        root_a, root_b = make_rng(7), make_rng(7)
        plan = ShardPlan.of(range(30), chunk_size=4)
        for i in range(plan.n_shards):
            spawn_rng(root_a, f"stage.shard-{i}")
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

    def test_each_shard_cut_after_the_previous_returns(self):
        """Shard k+1 is cut only after shard k's task returns, and a
        retried shard reuses its cut."""
        events = []

        def cut(shard):
            events.append(("cut", shard.index))
            return 10 * shard.index

        def task(shard, telemetry):
            events.append(("ran", shard.index, shard.payload))
            return shard.payload

        telemetry = Telemetry.capture()
        plan = ShardPlan.of(range(10), chunk_size=3)
        results = run_sharded(
            task,
            plan,
            telemetry=telemetry,
            faults=_FIRST_ATTEMPT_FAILS,
            resilience=ResilienceConfig(),
            payload=cut,
        )
        assert results == [0, 10, 20, 30]
        assert events == [e for i in range(4) for e in (("cut", i), ("ran", i, 10 * i))]
        assert telemetry.metrics.counter("resilience.retries") == plan.n_shards


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


class TestMeasurePayload:
    def test_counts_pickled_bytes(self):
        shard = Shard(index=0, items=(1, 2), payload=np.zeros((50, 50)))
        size, used_shm = measure_payload(shard)
        assert size == len(pickle.dumps(shard, protocol=pickle.HIGHEST_PROTOCOL))
        assert size > 50 * 50 * 8 and not used_shm


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

    @pytest.mark.parametrize(
        "counter, resilience",
        [
            ("resilience.requeues", ResilienceConfig()),
            ("resilience.fallbacks", ResilienceConfig(retry=RetryPolicy(max_attempts=1))),
        ],
    )
    def test_each_shard_cut_once_across_requeues_and_fallbacks(self, counter, resilience):
        """The parent cuts a shard before its first submit; requeued and
        fallen-back attempts reuse that cut."""
        cuts = Counter()

        def cut(shard):
            cuts[shard.index] += 1
            return 10 * shard.index

        telemetry = Telemetry.capture()
        plan = ShardPlan.of(range(14), chunk_size=2)
        try:
            results = run_sharded(
                _payload_shard,
                plan,
                ParallelConfig(backend="pool", workers=2),
                telemetry=telemetry,
                faults=_FIRST_ATTEMPT_FAILS,
                resilience=resilience,
                payload=cut,
            )
        finally:
            shutdown_pools()
        assert results == [10 * i for i in range(plan.n_shards)]
        assert cuts == Counter(range(plan.n_shards))
        assert telemetry.metrics.counter(counter) == plan.n_shards


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
