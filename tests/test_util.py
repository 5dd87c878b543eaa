"""Unit and property tests for :mod:`repro._util`."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro._util import (
    atomic_write_text,
    ccdf,
    format_table,
    great_circle_m,
    make_rng,
    propagation_rtt_ms,
    require,
    require_fraction,
    require_non_negative,
    require_positive,
    spawn_rng,
    zipf_weights,
)


class TestRng:
    def test_make_rng_from_int_is_deterministic(self):
        assert make_rng(42).integers(0, 1_000_000) == make_rng(42).integers(0, 1_000_000)

    def test_make_rng_passes_through_generator(self):
        generator = np.random.default_rng(7)
        assert make_rng(generator) is generator

    def test_spawn_rng_differs_by_label(self):
        root = make_rng(1)
        a = spawn_rng(root, "a")
        root = make_rng(1)
        b = spawn_rng(root, "b")
        assert a.integers(0, 2**31) != b.integers(0, 2**31)

    def test_spawn_rng_same_label_same_parent_state_matches(self):
        a = spawn_rng(make_rng(1), "x")
        b = spawn_rng(make_rng(1), "x")
        assert a.integers(0, 2**31) == b.integers(0, 2**31)


class TestValidators:
    def test_require_raises_with_message(self):
        with pytest.raises(ValueError, match="boom"):
            require(False, "boom")

    def test_require_passes(self):
        require(True, "never")

    @pytest.mark.parametrize("value", [-0.1, 1.1, 2.0])
    def test_require_fraction_rejects(self, value):
        with pytest.raises(ValueError):
            require_fraction(value, "v")

    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
    def test_require_fraction_accepts(self, value):
        assert require_fraction(value, "v") == value

    def test_require_positive_rejects_zero(self):
        with pytest.raises(ValueError):
            require_positive(0, "v")

    def test_require_non_negative_accepts_zero(self):
        assert require_non_negative(0, "v") == 0.0


class TestZipf:
    def test_weights_sum_to_one(self):
        assert math.isclose(zipf_weights(10).sum(), 1.0)

    def test_weights_decrease(self):
        weights = zipf_weights(20, exponent=1.1)
        assert all(a > b for a, b in zip(weights, weights[1:]))

    def test_single_element(self):
        assert zipf_weights(1)[0] == 1.0

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            zipf_weights(0)

    @given(st.integers(1, 200), st.floats(0.1, 3.0))
    def test_property_normalised_and_positive(self, n, exponent):
        weights = zipf_weights(n, exponent)
        assert math.isclose(weights.sum(), 1.0, rel_tol=1e-9)
        assert (weights > 0).all()


class TestGeodesy:
    def test_zero_distance(self):
        assert great_circle_m(10, 20, 10, 20) == pytest.approx(0.0)

    def test_known_distance_london_paris(self):
        distance = great_circle_m(51.51, -0.13, 48.86, 2.35)
        assert 330_000 < distance < 360_000

    def test_symmetry(self):
        assert great_circle_m(1, 2, 3, 4) == pytest.approx(great_circle_m(3, 4, 1, 2))

    def test_antipodal_half_circumference(self):
        distance = great_circle_m(0, 0, 0, 180)
        assert distance == pytest.approx(math.pi * 6_371_000, rel=1e-6)

    @given(
        st.floats(-90, 90), st.floats(-180, 180), st.floats(-90, 90), st.floats(-180, 180)
    )
    def test_property_non_negative_and_bounded(self, lat1, lon1, lat2, lon2):
        distance = great_circle_m(lat1, lon1, lat2, lon2)
        assert 0 <= distance <= math.pi * 6_371_000 * 1.0001

    def test_propagation_rtt_scales_with_distance(self):
        assert propagation_rtt_ms(2_000_000) == pytest.approx(2 * propagation_rtt_ms(1_000_000))

    def test_propagation_rtt_inflation(self):
        assert propagation_rtt_ms(1_000_000, 2.0) == pytest.approx(2 * propagation_rtt_ms(1_000_000))

    def test_propagation_rejects_deflation(self):
        with pytest.raises(ValueError):
            propagation_rtt_ms(1000, 0.9)

    def test_light_speed_sanity(self):
        # 1000 km of fibre: ~5 ms one way, ~10 ms RTT.
        assert propagation_rtt_ms(1_000_000) == pytest.approx(10.0)


class TestCcdf:
    def test_simple_unweighted(self):
        values, tail = ccdf([1.0, 2.0, 3.0])
        assert values.tolist() == [1.0, 2.0, 3.0]
        assert tail.tolist() == pytest.approx([1.0, 2 / 3, 1 / 3])

    def test_weighted(self):
        values, tail = ccdf([1.0, 2.0], weights=[1.0, 3.0])
        assert tail.tolist() == pytest.approx([1.0, 0.75])

    def test_empty(self):
        values, tail = ccdf([])
        assert values.size == 0 and tail.size == 0

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            ccdf([1.0], weights=[-1.0])

    @given(st.lists(st.floats(0, 100), min_size=1, max_size=50))
    def test_property_monotone_nonincreasing(self, raw):
        values, tail = ccdf(raw)
        assert (np.diff(tail) <= 1e-12).all()
        assert tail[0] == pytest.approx(1.0)


class TestFormatting:
    def test_format_table_alignment(self):
        table = format_table(["a", "bb"], [["x", "y"], ["longer", "z"]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert "longer" in lines[3]

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["a"], [["x", "y"]])


class TestAtomicWriteText:
    def test_writes_content_and_returns_path(self, tmp_path):
        target = tmp_path / "out.json"
        assert atomic_write_text(target, "hello\n") == target
        assert target.read_text(encoding="utf-8") == "hello\n"

    def test_creates_parent_directories(self, tmp_path):
        target = tmp_path / "a" / "b" / "out.txt"
        atomic_write_text(target, "deep")
        assert target.read_text(encoding="utf-8") == "deep"

    def test_overwrite_is_atomic_no_staging_left(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write_text(target, "one")
        atomic_write_text(target, "two")
        assert target.read_text(encoding="utf-8") == "two"
        # No .tmp staging files survive a successful publish.
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_failed_write_leaves_no_staging(self, tmp_path):
        class Exploding:
            def __str__(self):
                raise RuntimeError("cannot serialise")

        target = tmp_path / "out.txt"
        with pytest.raises(TypeError):
            atomic_write_text(target, Exploding())  # type: ignore[arg-type]
        assert list(tmp_path.iterdir()) == []
