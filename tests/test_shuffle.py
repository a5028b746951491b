"""The shuffle and the job runner's data path: partitions, what a Store is
charged, what a bad record says."""

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    compile_query,
    make_cost_model,
    outcome,
    reference_grouped_partitions,
)
from repro.common.errors import ExecutionError
from repro.dfs import DistributedFileSystem
from repro.mapreduce import WorkflowExecutor
from repro.mapreduce.shuffle import grouped_partitions

# Keys that collide on purpose: 2 and 2.0 are one group, None sorts first,
# composite keys carry nulls, nan cannot be hashed for partitioning at all.
# No bools: True hashed apart from 1 yet sorted equal to it, so whether the
# two shared a group depended on the partition count.
_SCALAR_KEYS = st.one_of(
    st.none(), st.integers(-3, 3), st.sampled_from([2.0, -1.0, 0.5, 1e300]),
    st.sampled_from(["", "a", "b", "é"]),
)
_KEYS = st.one_of(
    _SCALAR_KEYS, _SCALAR_KEYS, st.tuples(_SCALAR_KEYS, _SCALAR_KEYS),
    st.sampled_from([float("nan"), (1, float("nan")), float("inf")]),
)
_KEYED_ROWS = st.lists(
    st.tuples(st.integers(0, 2), _KEYS, st.tuples(st.integers(0, 99))),
    max_size=40)


class TestGroupedPartitions:
    @settings(max_examples=400, deadline=None)
    @given(_KEYED_ROWS, st.integers(1, 40))
    def test_same_partitions_keys_and_rows_as_sort_then_scan(
            self, keyed_rows, num_partitions):
        # repr, not ==: the group of 2 and 2.0 must report the same one.
        assert (outcome(grouped_partitions, keyed_rows, num_partitions)
                == outcome(reference_grouped_partitions, keyed_rows,
                            num_partitions))

    def test_equal_keys_share_a_group_named_by_the_first(self):
        keyed = [(0, 2.0, ("a",)), (1, 2, ("b",)), (0, 2, ("c",))]
        (groups,) = grouped_partitions(keyed, 1)
        assert repr(groups) == "[(2.0, {0: [('a',), ('c',)], 1: [('b',)]})]"

    def test_a_key_is_hashed_once_however_many_rows_carry_it(self, monkeypatch):
        import repro.mapreduce.shuffle as shuffle

        hashed = []
        real = shuffle.stable_hash
        monkeypatch.setattr(shuffle, "stable_hash",
                            lambda key: hashed.append(key) or real(key))
        keyed = [(0, f"k{index % 3}", (index,)) for index in range(30)]
        grouped_partitions(keyed, 4)
        assert sorted(hashed) == ["k0", "k1", "k2"]


QUERY = """
A = load '/data/t' as (k:chararray, v:int);
B = group A by k;
C = foreach B generate group, SUM(A.v);
store C into '/out/sums';
"""


def _run(dfs, name):
    workflow = compile_query(QUERY, name, dfs)
    result = WorkflowExecutor(dfs, make_cost_model()).execute(workflow)
    (job,) = workflow.jobs
    return result.stats_of(job.job_id)


class TestRunnerDataPath:
    def test_store_is_charged_the_bytes_the_dfs_holds(self):
        dfs = DistributedFileSystem()
        dfs.write_lines("/data/t", ["a\t1", "b\t2", "a\t3", "é\t4"])
        stats = _run(dfs, "first")
        assert dfs.read_lines("/out/sums") == ["a\t4", "b\t2", "é\t4"]
        assert stats.output_bytes == dfs.file_size("/out/sums") == 13
        assert stats.reduce_store_bytes == stats.final_output_bytes == 13
        assert stats.op_charges[("store", "reduce")] == [3, 13]
        # A second run rewrites identical content: the DFS leaves the file
        # alone, the job is charged for writing it all the same.
        version = dfs.status("/out/sums").version
        again = _run(dfs, "second")
        assert dfs.status("/out/sums").version == version
        assert again.output_bytes == 13
        assert again.op_charges == stats.op_charges
        assert again.map_output_bytes == stats.map_output_bytes

    @pytest.mark.parametrize("lines, complaint", [
        (["a\t1", "b\tx"], "line 2: bad int literal 'x'"),
        (["a\t1\t2"], "line 1: line has 3 fields, schema expects 2: 'a\\t1\\t2'"),
        (["a\t1", "b\t2", "c\\\t3"], "line 3: dangling escape in 'c\\\\'"),
        (["a\\q\t1"], "line 1: unknown escape \\q in 'a\\\\q'"),
    ])
    def test_bad_record_names_file_line_and_fault(self, lines, complaint):
        dfs = DistributedFileSystem()
        dfs.write_lines("/data/t", lines)
        with pytest.raises(ExecutionError) as caught:
            _run(dfs, "bad")
        assert str(caught.value) == f"bad record in '/data/t': {complaint}"
