"""Tests for the text-mode figure rendering."""

import numpy as np
import pytest

from repro.topology.geo import default_world
from repro.viz import render_ccdf, render_world_map
from repro.viz.ccdf import SERIES_GLYPHS
from repro.viz.worldmap import SHADE_RAMP, shade_for


class TestCcdf:
    def test_basic_plot_structure(self):
        x = np.linspace(0, 1, 20)
        y = 1.0 - x
        text = render_ccdf({"s": (x, y)}, x_range=(0, 1))
        lines = text.splitlines()
        assert any("legend" in line for line in lines)
        assert any("1.00" in line for line in lines)
        assert any("0.00" in line for line in lines)

    def test_two_series_distinct_glyphs(self):
        x = np.linspace(0, 1, 10)
        text = render_ccdf({"a": (x, 1 - x), "b": (x, (1 - x) ** 2)}, x_range=(0, 1))
        assert SERIES_GLYPHS[0] in text and SERIES_GLYPHS[1] in text
        assert f"{SERIES_GLYPHS[0]} a" in text and f"{SERIES_GLYPHS[1]} b" in text

    def test_too_many_series_rejected(self):
        x = np.array([0.0, 1.0])
        y = np.array([1.0, 0.0])
        series = {f"s{i}": (x, y) for i in range(5)}
        with pytest.raises(ValueError):
            render_ccdf(series)

    def test_mismatched_series_rejected(self):
        with pytest.raises(ValueError):
            render_ccdf({"s": (np.array([1.0]), np.array([1.0, 0.5]))})

    def test_degenerate_x_range_handled(self):
        text = render_ccdf({"s": (np.array([3.0]), np.array([1.0]))})
        assert "legend" in text

    def test_study_figure2_renders(self, small_study):
        from repro.experiments.figure2 import run_figure2

        result = run_figure2(small_study)
        series = {f"xi={xi}": result.ccdf(xi) for xi in sorted(result.concentrations)}
        text = render_ccdf(series, x_range=(0.0, 1.0))
        assert "xi=0.1" in text and "xi=0.9" in text


class TestWorldMap:
    def test_shade_ramp_monotone(self):
        indices = [SHADE_RAMP.index(shade_for(v)) for v in (0.0, 0.3, 0.6, 1.0)]
        assert indices == sorted(indices)
        assert shade_for(0.0) == " " and shade_for(1.0) == "@"

    def test_map_contains_land_and_ocean(self):
        world = default_world()
        values = {c.code: 1.0 for c in world.countries}
        text = render_world_map(world, values)
        lines = text.splitlines()
        assert any("@" in line for line in lines)
        assert any(line.strip() == "" or " " in line for line in lines)

    def test_values_control_shading(self):
        world = default_world()
        dark = render_world_map(world, {c.code: 1.0 for c in world.countries})
        light = render_world_map(world, {c.code: 0.05 for c in world.countries})
        assert dark.count("@") > light.count("@")

    def test_missing_countries_default_light(self):
        world = default_world()
        text = render_world_map(world, {})
        map_lines = [line for line in text.splitlines() if not line.startswith("legend")]
        assert "@" not in "\n".join(map_lines)

    def test_title_and_legend(self):
        world = default_world()
        text = render_world_map(world, {}, title="Figure 1a")
        assert text.splitlines()[0] == "Figure 1a"
        assert "legend" in text

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            render_world_map(default_world(), {}, width=5)

