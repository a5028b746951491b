"""Unit tests for plan rewriting surgery and sub-job Store injection."""


import pytest

from repro.common.errors import PlanError
from repro.logical import build_logical_plan
from repro.mrcompiler import compile_to_workflow
from repro.physical import logical_to_physical
from repro.physical.operators import POLoad, POSplit, POStore
from repro.piglatin import parse_query
from repro.restore import (
    AggressiveHeuristic,
    ConservativeHeuristic,
    NoHeuristic,
)
from repro.restore.enumerator import enumerate_and_inject
from repro.restore.heuristics import SubJobHeuristic
from repro.restore.matcher import find_containment
from repro.restore.rewriter import (
    apply_rewrite,
    classify_copy_stores,
    restamp_stages,
    skip_splits,
)
from repro.restore.repository import RepositoryEntry
from repro.restore.stats import EntryStats
from repro.dfs import DistributedFileSystem

from tests.helpers import Q1_TEXT, Q2_TEXT


def job_for(text, name="wf"):
    plan = logical_to_physical(build_logical_plan(parse_query(text)))
    workflow = compile_to_workflow(plan, name)
    return workflow, workflow.topological_jobs()[0]


def make_entry(text, output_path):
    plan = logical_to_physical(build_logical_plan(parse_query(text)))
    return RepositoryEntry(plan, output_path, EntryStats(1000, 10, 60.0))


PROJECT_PV = """
A = load '/data/page_views' as (user:chararray, timestamp:int,
    est_revenue:double, page_info:chararray, page_links:chararray);
B = foreach A generate user, est_revenue;
store B into '/stored/proj';
"""


class TestApplyRewrite:
    def _dfs_with(self, path):
        dfs = DistributedFileSystem()
        dfs.write_lines(path, ["a\t1.0"])
        return dfs

    def test_subplan_replaced_by_load(self):
        workflow, job = job_for(Q1_TEXT)
        entry = make_entry(PROJECT_PV, "/stored/proj")
        match = find_containment(entry.plan, job.plan)
        dfs = self._dfs_with("/stored/proj")
        new_load = apply_rewrite(job, match, entry, dfs)
        loads = {load.path for load in job.plan.loads()}
        assert "/stored/proj" in loads
        assert "/data/page_views" not in loads  # old branch unreachable
        assert new_load.version == 1
        assert new_load.stage == "map"

    def test_rewrite_that_removes_shuffle_restamps_job(self):
        workflow, job = job_for(Q1_TEXT)
        entry = make_entry(Q1_TEXT.replace("/out/L2_out", "/stored/join"),
                           "/stored/join")
        match = find_containment(entry.plan, job.plan)
        dfs = self._dfs_with("/stored/join")
        apply_rewrite(job, match, entry, dfs)
        assert job.shuffle_op is None
        assert all(op.stage == "map" for op in job.plan.operators())
        # Plan degenerated to Load -> Store.
        kinds = [op.kind for op in job.plan.operators()]
        assert kinds == ["load", "store"]

    def test_rewrite_missing_output_defaults_version_zero(self):
        workflow, job = job_for(Q1_TEXT)
        entry = make_entry(PROJECT_PV, "/stored/missing")
        match = find_containment(entry.plan, job.plan)
        dfs = DistributedFileSystem()
        new_load = apply_rewrite(job, match, entry, dfs)
        assert new_load.version == 0


class TestRestampStages:
    def test_multiple_blocking_ops_rejected(self):
        # Hand-build an illegal single-job plan with two blocking ops.
        text = (
            "A = load '/d' as (x:int);"
            "B = group A by x;"
            "C = foreach B generate group, COUNT(A);"
            "store C into '/o';"
        )
        workflow, job = job_for(text)
        # Fake a second blocking operator wired into the same plan.
        from repro.physical.operators import PODistinct

        store = job.plan.stores()[0]
        distinct = PODistinct(store.inputs[0])
        job.plan.replace_input(store, store.inputs[0], distinct)
        with pytest.raises(PlanError):
            restamp_stages(job)


class TestClassifyCopyStores:
    def test_normal_job_has_no_copies(self):
        _, job = job_for(Q1_TEXT)
        removable, kept = classify_copy_stores(job)
        assert removable == [] and kept == []

    def test_temp_copy_store_is_removable(self):
        workflow, job = job_for(Q2_TEXT)
        # Rewrite job1 completely: store(tmp) now reads a bare load.
        entry = make_entry(Q1_TEXT.replace("/out/L2_out", "/stored/join"),
                           "/stored/join")
        match = find_containment(entry.plan, job.plan)
        dfs = DistributedFileSystem()
        dfs.write_lines("/stored/join", ["x\tx\t1.0"])
        apply_rewrite(job, match, entry, dfs)
        removable, kept = classify_copy_stores(job)
        assert len(removable) == 1
        assert kept == []
        store, load = removable[0]
        assert store.temporary
        assert load.path == "/stored/join"

    def test_final_copy_with_different_path_is_kept(self):
        _, job = job_for(Q1_TEXT)
        entry = make_entry(Q1_TEXT.replace("/out/L2_out", "/stored/join"),
                           "/stored/join")
        match = find_containment(entry.plan, job.plan)
        dfs = DistributedFileSystem()
        dfs.write_lines("/stored/join", ["x\tx\t1.0"])
        apply_rewrite(job, match, entry, dfs)
        removable, kept = classify_copy_stores(job)
        assert removable == []
        assert len(kept) == 1  # user output must still be produced

    def test_skip_splits_helper(self):
        _, job = job_for(Q1_TEXT)
        some_op = job.plan.stores()[0].inputs[0]
        split = POSplit(some_op)
        assert skip_splits(split) is some_op


class _OnlyFilters(SubJobHeuristic):
    name = "only-filters"

    def should_materialize(self, op):
        return op.kind == "filter"


class TestEnumerator:
    def test_injects_split_and_store(self):
        _, job = job_for(Q1_TEXT)
        candidates = enumerate_and_inject(job, AggressiveHeuristic())
        assert len(candidates) == 2  # the two projections (join feeds Store)
        for candidate in candidates:
            assert candidate.store.injected
            split = candidate.store.inputs[0]
            assert isinstance(split, POSplit) and split.injected
            # The split sits between the operator and its old consumers.
            assert split.inputs[0] is candidate.operator

    def test_injected_stage_matches_operator(self):
        text = (
            "A = load '/d' as (x:int, y:int);"
            "B = foreach A generate x;"
            "C = group B by x;"
            "D = foreach C generate group, COUNT(B);"
            "E = filter D by group > 0;"
            "store E into '/o';"
        )
        _, job = job_for(text)
        candidates = enumerate_and_inject(job, NoHeuristic())
        by_kind = {c.operator.kind: c for c in candidates}
        assert by_kind["foreach"].store.stage in ("map", "reduce")
        # The group's store runs on the reduce side.
        assert by_kind["group"].store.stage == "reduce"

    def test_store_fed_operator_skipped(self):
        # The operator feeding a Store is never re-materialized.
        text = (
            "A = load '/d' as (x:int);"
            "B = filter A by x > 0;"
            "store B into '/o';"
        )
        _, job = job_for(text)
        candidates = enumerate_and_inject(job, _OnlyFilters())
        assert candidates == []

    def test_injected_ops_not_reinjected(self):
        _, job = job_for(Q1_TEXT)
        first = enumerate_and_inject(job, AggressiveHeuristic())
        second = enumerate_and_inject(job, AggressiveHeuristic())
        assert len(first) == 2
        assert second == []  # consumers now read the injected splits

    def test_custom_heuristic_protocol(self):
        text = (
            "A = load '/d' as (x:int, y:int);"
            "B = filter A by x > 0;"
            "C = group B by y;"
            "D = foreach C generate group, COUNT(B);"
            "store D into '/o';"
        )
        _, job = job_for(text)
        candidates = enumerate_and_inject(job, _OnlyFilters())
        assert [c.operator.kind for c in candidates] == ["filter"]

    def test_heuristic_membership_table(self):
        conservative = ConservativeHeuristic()
        aggressive = AggressiveHeuristic()
        nh = NoHeuristic()

        class FakeOp:
            def __init__(self, kind):
                self.kind = kind

        assert conservative.should_materialize(FakeOp("filter"))
        assert conservative.should_materialize(FakeOp("foreach"))
        assert not conservative.should_materialize(FakeOp("join"))
        assert aggressive.should_materialize(FakeOp("join"))
        assert aggressive.should_materialize(FakeOp("cogroup"))
        assert not aggressive.should_materialize(FakeOp("union"))
        assert nh.should_materialize(FakeOp("union"))
        assert not nh.should_materialize(FakeOp("load"))
        assert not nh.should_materialize(FakeOp("split"))
