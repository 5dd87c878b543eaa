"""Unit tests for the deterministic fault-injection plan.

The load-bearing property is *purity*: whether a fault fires is a pure
function of ``(plan seed, site, invocation index, attempt)``, never of
process identity, live RNG state, or call ordering.  Everything the chaos
harness proves downstream rests on that.
"""

from __future__ import annotations

import json

import pytest

from repro.faults import (
    CRASH_EXIT_CODE,
    FatalFaultError,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    TransientFaultError,
    WorkerCrashError,
    load_fault_plan,
    raise_injected,
    stable_index,
)


class TestFaultSpec:
    def test_defaults(self):
        spec = FaultSpec(site="parallel.shard", kind="error")
        assert spec.rate == 1.0
        assert spec.fail_attempts is None
        assert not spec.fatal

    def test_rejects_unknown_site(self):
        with pytest.raises(ValueError, match="unknown injection site"):
            FaultSpec(site="nonexistent.site", kind="error")

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            FaultSpec(site="parallel.shard", kind="meteor")

    def test_rejects_rate_out_of_range(self):
        for rate in (-0.1, 1.5):
            with pytest.raises(ValueError):
                FaultSpec(site="parallel.shard", kind="error", rate=rate)

    def test_rejects_nonpositive_fail_attempts(self):
        with pytest.raises(ValueError):
            FaultSpec(site="parallel.shard", kind="error", fail_attempts=0)

    def test_data_faults_must_be_permanent(self):
        """drop/corrupt are not retried, so a transient one is meaningless
        (and would break the store key's transient-faults-are-inert rule)."""
        for kind in ("drop", "corrupt"):
            site = "scan.record" if kind == "drop" else "store.load"
            with pytest.raises(ValueError, match="permanent by nature"):
                FaultSpec(site=site, kind=kind, fail_attempts=1)

    def test_serve_sites_are_known(self):
        """The serving layer's injection points validate like any other
        site — specs for them round-trip through plan JSON."""
        from repro.faults import KNOWN_SITES

        assert "serve.request" in KNOWN_SITES and "serve.journal" in KNOWN_SITES
        plan = FaultPlan(
            seed=3,
            specs=(
                FaultSpec(site="serve.request", kind="error", rate=0.5, fail_attempts=1),
                FaultSpec(site="serve.request", kind="hang", hang_s=0.1),
                FaultSpec(site="serve.request", kind="drop", rate=0.2),
                FaultSpec(site="serve.journal", kind="error"),
                FaultSpec(site="serve.journal", kind="corrupt", rate=0.1),
                FaultSpec(site="serve.journal", kind="drop", rate=0.1),
            ),
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_serve_data_faults_must_be_permanent(self):
        with pytest.raises(ValueError, match="permanent by nature"):
            FaultSpec(site="serve.journal", kind="corrupt", fail_attempts=1)
        with pytest.raises(ValueError, match="permanent by nature"):
            FaultSpec(site="serve.request", kind="drop", fail_attempts=2)


class TestDecisionPurity:
    def test_decide_is_deterministic(self):
        plan = FaultPlan(seed=3, specs=(FaultSpec(site="mlab.ping", kind="drop", rate=0.3),))
        first = [plan.decide("mlab.ping", i) is not None for i in range(200)]
        second = [plan.decide("mlab.ping", i) is not None for i in range(200)]
        assert first == second

    def test_decide_ignores_call_order(self):
        plan = FaultPlan(seed=3, specs=(FaultSpec(site="mlab.ping", kind="drop", rate=0.3),))
        forward = {i: plan.decide("mlab.ping", i) is not None for i in range(50)}
        backward = {i: plan.decide("mlab.ping", i) is not None for i in reversed(range(50))}
        assert forward == backward

    def test_rate_controls_fire_fraction(self):
        plan = FaultPlan(seed=5, specs=(FaultSpec(site="scan.record", kind="drop", rate=0.2),))
        n = 5000
        fired = sum(plan.decide("scan.record", i) is not None for i in range(n))
        assert 0.15 < fired / n < 0.25

    def test_rate_one_always_fires_rate_zero_never(self):
        always = FaultPlan(seed=1, specs=(FaultSpec(site="rdns.lookup", kind="drop", rate=1.0),))
        never = FaultPlan(seed=1, specs=(FaultSpec(site="rdns.lookup", kind="drop", rate=0.0),))
        assert all(always.decide("rdns.lookup", i) for i in range(20))
        assert not any(never.decide("rdns.lookup", i) for i in range(20))

    def test_seed_changes_the_fire_set(self):
        spec = FaultSpec(site="mlab.ping", kind="drop", rate=0.5)
        a = {i for i in range(200) if FaultPlan(seed=1, specs=(spec,)).decide("mlab.ping", i)}
        b = {i for i in range(200) if FaultPlan(seed=2, specs=(spec,)).decide("mlab.ping", i)}
        assert a != b

    def test_sites_are_independent_streams(self):
        specs = (
            FaultSpec(site="mlab.ping", kind="drop", rate=0.5),
            FaultSpec(site="rdns.lookup", kind="drop", rate=0.5),
        )
        plan = FaultPlan(seed=9, specs=specs)
        pings = [plan.decide("mlab.ping", i) is not None for i in range(200)]
        lookups = [plan.decide("rdns.lookup", i) is not None for i in range(200)]
        assert pings != lookups


class TestAttemptGating:
    def test_transient_fires_only_early_attempts(self):
        plan = FaultPlan(
            seed=2,
            specs=(FaultSpec(site="parallel.shard", kind="error", rate=1.0, fail_attempts=2),),
        )
        assert plan.decide("parallel.shard", 0, attempt=0) is not None
        assert plan.decide("parallel.shard", 0, attempt=1) is not None
        assert plan.decide("parallel.shard", 0, attempt=2) is None

    def test_permanent_fires_every_attempt(self):
        plan = FaultPlan(
            seed=2, specs=(FaultSpec(site="parallel.shard", kind="error", rate=1.0),)
        )
        for attempt in range(5):
            assert plan.decide("parallel.shard", 0, attempt=attempt) is not None

    def test_fires_ever_matches_attempt_zero(self):
        plan = FaultPlan(seed=4, specs=(FaultSpec(site="scan.record", kind="drop", rate=0.4),))
        for i in range(100):
            assert plan.fires_ever("scan.record", i) == (
                plan.decide("scan.record", i, attempt=0) is not None
            )

    def test_decide_any_checks_aliases(self):
        plan = FaultPlan(
            seed=1, specs=(FaultSpec(site="campaign.shard", kind="crash", rate=1.0),)
        )
        assert plan.decide_any(("parallel.shard", "campaign.shard"), 0) is not None
        assert plan.decide_any(("parallel.shard", "clustering.shard"), 0) is None


class TestErrors:
    def test_raise_injected_transient_vs_fatal(self):
        transient = FaultSpec(site="store.load", kind="error", fail_attempts=1)
        fatal = FaultSpec(site="store.load", kind="error", fatal=True)
        with pytest.raises(TransientFaultError, match=r"store\.load\[3\]"):
            raise_injected(transient, "store.load", 3)
        with pytest.raises(FatalFaultError):
            raise_injected(fatal, "store.load", 3)

    def test_error_hierarchy(self):
        assert issubclass(TransientFaultError, InjectedFault)
        assert issubclass(FatalFaultError, InjectedFault)
        assert issubclass(WorkerCrashError, InjectedFault)
        assert CRASH_EXIT_CODE != 0


class TestSerialisation:
    def test_json_round_trip(self, tmp_path):
        plan = FaultPlan(
            seed=42,
            specs=(
                FaultSpec(site="campaign.shard", kind="crash", rate=0.25, fail_attempts=1),
                FaultSpec(site="mlab.ping", kind="drop", rate=0.05),
                FaultSpec(site="parallel.shard", kind="hang", rate=0.1, hang_s=2.0),
            ),
        )
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan.to_json()))
        loaded = load_fault_plan(path)
        assert loaded == plan

    def test_round_trip_preserves_decisions(self):
        plan = FaultPlan(
            seed=11, specs=(FaultSpec(site="rdns.lookup", kind="drop", rate=0.3),)
        )
        clone = FaultPlan.from_json(plan.to_json())
        decisions = [plan.fires_ever("rdns.lookup", i) for i in range(300)]
        assert decisions == [clone.fires_ever("rdns.lookup", i) for i in range(300)]

    def test_stable_index_is_stable(self):
        assert stable_index("some-key") == stable_index("some-key")
        assert stable_index("some-key") != stable_index("other-key")
