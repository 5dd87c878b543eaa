"""Tests for parameter grids and sweep campaigns (``repro.sweep``)."""

import json

import pytest

from repro.core.pipeline import StudyConfig
from repro.faults import FaultPlan, FaultSpec
from repro.resilience import ErrorBudget, ResilienceConfig, RetryPolicy, ShardQuarantinedError
from repro.store import StudyStore
from repro.sweep import (
    CampaignReport,
    MetricSpec,
    ParameterGrid,
    apply_override,
    campaign_status,
    load_grid,
    run_campaign,
)
from repro.topology.generator import InternetConfig

pytestmark = pytest.mark.store


def _base_config() -> StudyConfig:
    return StudyConfig(
        internet=InternetConfig(seed=3, n_access_isps=40, n_ixps=20),
        n_vantage_points=24,
        seed=3,
    )


# Cheap, picklable metric extractors for campaign tests.
def _n_detections(study) -> float:
    return float(len(study.latest_inventory))


def _n_analyzable(study) -> float:
    return float(len(study.campaign.analyzable_isp_asns))


TEST_METRICS = (
    MetricSpec("detections", _n_detections, 1.0, 1e9, "n/a"),
    MetricSpec("analyzable ISPs", _n_analyzable, 1.0, 1e9, "n/a"),
)


class TestOverrides:
    def test_top_level(self):
        config = apply_override(_base_config(), "seed", 9)
        assert config.seed == 9

    def test_nested(self):
        config = apply_override(_base_config(), "internet.n_access_isps", 55)
        assert config.internet.n_access_isps == 55
        assert config.seed == 3  # untouched

    def test_deeply_nested(self):
        config = apply_override(_base_config(), "campaign.ping.pings_per_target", 4)
        assert config.campaign.ping.pings_per_target == 4

    def test_list_coerced_to_tuple(self):
        config = apply_override(_base_config(), "xis", [0.5])
        assert config.xis == (0.5,)

    def test_unknown_field_names_the_path(self):
        with pytest.raises(ValueError, match="internet.bogus"):
            apply_override(_base_config(), "internet.bogus", 1)


class TestGridExpansion:
    def test_cartesian_product_order(self):
        grid = ParameterGrid.of(
            _base_config(), {"seed": [1, 2], "internet.n_access_isps": [40, 50]}
        )
        assert grid.n_cells == 4
        cells = grid.cells()
        assert [cell.cell_id for cell in cells] == [
            "seed=1,internet.n_access_isps=40",
            "seed=1,internet.n_access_isps=50",
            "seed=2,internet.n_access_isps=40",
            "seed=2,internet.n_access_isps=50",
        ]
        assert cells[2].config.seed == 2
        assert cells[2].config.internet.n_access_isps == 40
        assert [cell.index for cell in cells] == [0, 1, 2, 3]

    def test_linked_axis_sets_every_path(self):
        grid = ParameterGrid.of(_base_config(), {"seed,internet.seed": [5, 6]})
        cells = grid.cells()
        assert all(cell.config.seed == cell.config.internet.seed for cell in cells)
        assert [cell.config.seed for cell in cells] == [5, 6]

    def test_axis_free_grid_is_one_base_cell(self):
        grid = ParameterGrid.of(_base_config(), {})
        cells = grid.cells()
        assert len(cells) == 1
        assert cells[0].cell_id == "base"
        assert cells[0].config == _base_config()

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            ParameterGrid.of(_base_config(), {"seed": []})

    def test_expansion_is_deterministic(self):
        grid = ParameterGrid.of(_base_config(), {"seed": [1, 2], "xis": [[0.1], [0.9]]})
        assert [c.cell_id for c in grid.cells()] == [c.cell_id for c in grid.cells()]


class TestSpecFiles:
    def test_json_spec_round_trip(self, tmp_path):
        spec = {
            "scenario": "small",
            "overrides": {"n_vantage_points": 32},
            "axes": {"seed,internet.seed": [1, 2], "xis": [[0.1, 0.9]]},
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        grid = load_grid(path)
        assert grid.n_cells == 2
        cell = grid.cells()[0]
        assert cell.config.n_vantage_points == 32
        assert cell.config.xis == (0.1, 0.9)
        assert cell.config.seed == 1

    def test_unknown_spec_key_rejected(self):
        with pytest.raises(ValueError, match="unknown spec keys"):
            ParameterGrid.from_spec({"cells": []})


class TestCampaign:
    @pytest.fixture(scope="class")
    def grid(self):
        return ParameterGrid.of(_base_config(), {"seed,internet.seed": [3, 4]})

    @pytest.fixture(scope="class")
    def report(self, grid) -> CampaignReport:
        return run_campaign(grid, metrics=TEST_METRICS)

    def test_one_result_per_cell(self, grid, report):
        assert [cell.cell_id for cell in report.cells] == [c.cell_id for c in grid.cells()]
        for cell in report.cells:
            assert set(cell.values) == {"detections", "analyzable ISPs"}
            assert not cell.from_store  # no store configured

    def test_series_and_summary(self, report):
        series = report.series("detections")
        assert len(series) == 2 and all(value > 0 for value in series)
        summary = report.summary()
        assert summary["detections"]["min"] <= summary["detections"]["mean"]
        assert summary["detections"]["violations"] == 0
        assert report.all_within_bands

    def test_render_mentions_cells_and_bands(self, report):
        text = report.render()
        assert "seed,internet.seed=3" in text
        assert "violations" in text

    def test_report_json_is_deterministic_and_provenance_free(self, report, tmp_path):
        data = report.to_json()
        assert data["format"] == "repro-sweep-v2"
        assert data["n_cells"] == 2
        text = json.dumps(data, sort_keys=True)
        assert "cache" not in text and "from_store" not in text
        path = report.write(tmp_path / "report.json")
        assert json.loads(path.read_text()) == data

    def test_max_cells_prefix(self, grid):
        partial = run_campaign(grid, metrics=TEST_METRICS, max_cells=1)
        assert len(partial.cells) == 1
        assert partial.cells[0].cell_id == grid.cells()[0].cell_id

    def test_needs_metrics(self, grid):
        with pytest.raises(ValueError, match="metric"):
            run_campaign(grid, metrics=())


class TestStatus:
    def test_status_tracks_store_contents(self, tmp_path):
        from repro.store import StudyStore

        grid = ParameterGrid.of(_base_config(), {"seed,internet.seed": [3, 4]})
        store = StudyStore(tmp_path / "store")
        status = campaign_status(grid, store)
        assert (status.n_cells, status.n_done, status.n_pending) == (2, 0, 2)
        run_campaign(grid, metrics=TEST_METRICS, store=store, max_cells=1)
        status = campaign_status(grid, store)
        assert status.n_done == 1
        assert status.done == (grid.cells()[0].cell_id,)
        assert "pending" in status.render()


class TestSensitivityEquivalence:
    def test_campaign_matches_historic_serial_loop(self):
        """run_sensitivity's campaign must build exactly the configs the old
        per-seed loop did (values proven equal via a direct run_study)."""
        from repro.core.pipeline import run_study
        from repro.sensitivity import sensitivity_grid

        grid = sensitivity_grid((7,), n_access_isps=40, n_vantage_points=24)
        cell = grid.cells()[0]
        assert cell.config.seed == 7
        assert cell.config.internet.seed == 7
        assert cell.config.internet.n_ixps == 22
        report = run_campaign(grid, metrics=TEST_METRICS)
        study = run_study(cell.config)
        assert report.cells[0].values["detections"] == float(len(study.latest_inventory))


def _partial_cell_fault(n_cells: int) -> FaultPlan:
    """A permanent ``sweep.cell`` error firing on some but not all cells."""
    spec = FaultSpec(site="sweep.cell", kind="error", rate=0.5, fatal=True)
    for seed in range(200):
        plan = FaultPlan(seed=seed, specs=(spec,))
        fires = [plan.fires_ever("sweep.cell", index) for index in range(n_cells)]
        if any(fires) and not all(fires):
            return plan
    raise AssertionError("no seed under 200 produced a partial fire set")


class TestCellFaults:
    """A sweep cell is a one-cell shard: its faults meet the executor's
    retry and the stage's error budget, like any other shard's."""

    @pytest.fixture(scope="class")
    def grid(self):
        return ParameterGrid.of(_base_config(), {"seed,internet.seed": [3, 4]})

    @pytest.mark.parametrize("site", ["sweep.cell", "sweep.shard"])
    def test_failed_cell_spends_the_error_budget(self, grid, site):
        plan = FaultPlan(seed=0, specs=(FaultSpec(site=site, kind="error", fatal=True),))
        resilience = ResilienceConfig(retry=RetryPolicy(max_attempts=2))
        with pytest.raises(ShardQuarantinedError, match="lost 2/2 shards"):
            run_campaign(grid, metrics=TEST_METRICS, faults=plan, resilience=resilience)

    def test_cache_misses_count_only_computed_cells(self, grid, tmp_path):
        store = StudyStore(tmp_path / "store")
        report = run_campaign(
            grid,
            metrics=TEST_METRICS,
            store=store,
            faults=_partial_cell_fault(grid.n_cells),
            resilience=ResilienceConfig(
                retry=RetryPolicy(max_attempts=2), budget=ErrorBudget(shard_loss_fraction=1.0)
            ),
        )
        assert report.n_failed == 1
        assert report.cache_hits == 0
        assert report.cache_misses == grid.n_cells - report.n_failed
        assert store.stats().entries == report.cache_misses
