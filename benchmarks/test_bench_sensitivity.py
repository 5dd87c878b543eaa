"""Seed sensitivity: every headline metric across an unseen seed set.

Not a paper artifact — this is the robustness evidence for the synthetic
substrate: the reproduced shapes are properties of the model, not of one
lucky seed.
"""

import pytest

from benchmarks.conftest import emit
from repro.sensitivity import run_sensitivity


@pytest.mark.benchmark(group="sensitivity")
def test_seed_sensitivity(benchmark):
    report = benchmark.pedantic(
        run_sensitivity, kwargs={"seeds": (11, 22, 33, 44, 55)}, rounds=1, iterations=1
    )
    emit("Seed sensitivity of the headline metrics", report.render())
    assert report.all_within_bands
    # The growth percentages are tight by construction; the capacity
    # metrics must also be stable.
    summary = report.summary()
    assert summary["COVID offnet change"]["std"] < 0.05
    assert summary["COVID interdomain ratio"]["std"] < 0.3
