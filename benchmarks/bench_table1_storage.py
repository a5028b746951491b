"""Table 1: input bytes, injected-Store bytes per heuristic, final output.

Paper: HA stores far less than NH and usually close to HC, except for
wide-group queries (L6) where HA stores much more than HC. Note that in
this reproduction NH is close to HA on most queries because our compiled
plans are minimal (the paper's Pig plans contain implicit operators that
NH also materializes) — see README.md's benchmark–figure index.
"""

import pytest

from repro.harness import table1_storage


@pytest.mark.benchmark(group="table1")
def test_table1_storage(benchmark, record_experiment):
    result = benchmark.pedantic(table1_storage, args=("default",),
                                rounds=1, iterations=1)
    record_experiment(result)
    for row in result.rows:
        # HC <= HA <= NH for every query.
        assert row["HC_GB"] <= row["HA_GB"] * 1.001
        assert row["HA_GB"] <= row["NH_GB"] * 1.001
        # Stored sub-jobs are a small fraction of the input.
        assert row["HA_GB"] < row["input_GB"] * 0.5
    # L6's wide group makes HA store much more than HC (paper's callout).
    l6 = result.row_for("query", "L6")
    assert l6["HA_GB"] > l6["HC_GB"] * 1.5
    # L2's join feeds a Store directly, so HA == HC there (paper: 3.1/3.1).
    l2 = result.row_for("query", "L2")
    assert l2["HA_GB"] == pytest.approx(l2["HC_GB"])
