"""Longitudinal trend (§3.1 via the SIGCOMM'21 curves): cohosting rises.

"ISPs tended to host more hypergiants over time ... multi-hypergiant
hosting will continue to increase over time."  The 2017-2023 epoch series
regenerates the trend the paper extrapolates from.
"""

import pytest

from benchmarks.conftest import emit
from repro._util import format_table
from repro.deployment.growth import DEFAULT_EPOCH_TRAJECTORIES
from repro.timeline import TimelineSpec, build_timeline


@pytest.mark.benchmark(group="longitudinal")
def test_longitudinal_cohosting(benchmark, default_study):
    spec = TimelineSpec(start="2017Q1", end="2023Q1", anchors=DEFAULT_EPOCH_TRAJECTORIES, seed=3)
    timeline = benchmark.pedantic(
        build_timeline, args=(default_study.internet, spec), rounds=1, iterations=1
    )
    rows = []
    cohosting_by_epoch = []
    for epoch in ("2017", "2019", "2021", "2023"):
        state = timeline.state_at(f"{epoch}Q1")
        hosting = state.hosting_isps()
        at_least_2 = sum(1 for isp in hosting if len(state.hypergiants_in(isp)) >= 2)
        cohosting_by_epoch.append(at_least_2)
        rows.append(
            [epoch]
            + [len(state.isps_hosting(hg)) for hg in ("Google", "Netflix", "Meta", "Akamai")]
            + [at_least_2]
        )
    emit(
        "Longitudinal footprint & cohosting (2017-2023)",
        format_table(["epoch", "Google", "Netflix", "Meta", "Akamai", "ISPs >=2 HGs"], rows),
    )
    assert cohosting_by_epoch == sorted(cohosting_by_epoch)
    assert cohosting_by_epoch[-1] > 1.3 * cohosting_by_epoch[0]
