"""T2 — regenerate Table 2 (colocation buckets per hypergiant and xi).

Paper shape: colocation widespread everywhere; xi = 0.9 reports more full
colocation than xi = 0.1; most ISPs colocate at least some offnets.
"""

import pytest

from benchmarks.conftest import emit
from repro.core.colocation import ColocationBucket
from repro.experiments.table2 import run_table2


@pytest.mark.benchmark(group="table2")
def test_table2_colocation(benchmark, default_study):
    result = benchmark.pedantic(run_table2, args=(default_study,), rounds=1, iterations=1)
    emit("Table 2: % offnets colocated with another hypergiant", result.render())
    for hypergiant in ("Google", "Netflix", "Meta", "Akamai"):
        for xi in (0.1, 0.9):
            table = result.tables[xi]
            assert table.percentage(hypergiant, ColocationBucket.NONE) < 0.3
        assert result.majority_colocation(hypergiant, 0.9) > 0.5
        assert result.tables[0.9].percentage(hypergiant, ColocationBucket.FULL) >= result.tables[
            0.1
        ].percentage(hypergiant, ColocationBucket.FULL)
