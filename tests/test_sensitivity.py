"""Tests for the seed-sensitivity harness."""

import copy

import pytest

from repro.sensitivity import DEFAULT_METRICS, MetricSpec, run_sensitivity


@pytest.fixture(scope="module")
def report():
    return run_sensitivity(seeds=(7, 77), n_access_isps=50, n_vantage_points=30)


class TestSensitivity:
    def test_collects_every_metric(self, report):
        assert set(report.summary()) == {spec.name for spec in DEFAULT_METRICS}
        for spec in DEFAULT_METRICS:
            assert len(report.series(spec.name)) == 2

    def test_statistics(self, report):
        name = DEFAULT_METRICS[0].name
        assert report.summary()[name]["mean"] == pytest.approx(sum(report.series(name)) / 2)
        assert report.summary()[name]["std"] >= 0

    def test_bands_checked(self, report):
        for name in report.summary():
            assert 0 <= report.out_of_band(name) <= 2

    def test_render(self, report):
        text = report.render()
        assert "violations" in text
        assert "Google growth" in text

    def test_metric_spec_band(self):
        spec = MetricSpec("m", lambda s: 0.0, 0.0, 1.0, "x")
        assert spec.within_band(0.5)
        assert not spec.within_band(1.5)

    def test_default_metrics_skip_cluster_validation(self, small_study, monkeypatch):
        from repro.core.pipeline import Study
        from repro.sweep.metrics import evaluate_metrics

        expected = evaluate_metrics(small_study, DEFAULT_METRICS)

        def refuse(study, xi):
            raise AssertionError("a sweep metric ran the hostname validation")

        monkeypatch.setattr(Study, "validation", refuse)
        # A copy no evaluation has seen, so every experiment runs under the patch.
        assert evaluate_metrics(copy.copy(small_study), DEFAULT_METRICS) == expected

    def test_each_experiment_runs_once_per_study(self, small_study, monkeypatch):
        from repro.experiments import figure2, section41_capacity, table1
        from repro.sweep.metrics import evaluate_metrics

        calls = {"run_table1": 0, "run_figure2": 0, "run_covid_experiment": 0}

        def count_calls(module, name):
            experiment = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return experiment(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        count_calls(table1, "run_table1")
        count_calls(figure2, "run_figure2")
        count_calls(section41_capacity, "run_covid_experiment")
        study = copy.copy(small_study)  # an object no earlier evaluation has seen
        evaluate_metrics(study, DEFAULT_METRICS)
        assert calls == {"run_table1": 1, "run_figure2": 1, "run_covid_experiment": 1}

    def test_requires_seeds(self):
        with pytest.raises(ValueError):
            run_sensitivity(seeds=())
