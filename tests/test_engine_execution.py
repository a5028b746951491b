"""End-to-end execution tests: parse -> compile -> run on the engine."""

import pytest

from repro.data import decode_row, DataType, Field, Schema
from repro.dfs import DistributedFileSystem
from repro.mapreduce import WorkflowExecutor
from repro.mrcompiler import JobControl

from tests.helpers import (
    compile_query,
    make_cost_model,
    Q1_TEXT,
    Q2_TEXT,
    seed_page_views,
    seed_users,
    write_rows,
)


def run_query(text, name, dfs, use_jobcontrol=False):
    workflow = compile_query(text, name, dfs)
    cost_model = make_cost_model()
    if use_jobcontrol:
        return JobControl(dfs, cost_model).run(workflow)
    return WorkflowExecutor(dfs, cost_model).execute(workflow)


def read_output(dfs, path, schema):
    return [decode_row(line, schema) for line in dfs.read_lines(path)]


class TestQ1Q2:
    def setup_method(self):
        self.dfs = DistributedFileSystem()
        self.page_views = seed_page_views(self.dfs)
        self.users = seed_users(self.dfs, include=range(6))  # u0..u5 known

    def test_q1_join_results(self):
        run_query(Q1_TEXT, "q1", self.dfs)
        schema = Schema(
            [
                Field("name", DataType.CHARARRAY),
                Field("user", DataType.CHARARRAY),
                Field("est_revenue", DataType.DOUBLE),
            ]
        )
        rows = read_output(self.dfs, "/out/L2_out", schema)
        expected = sorted(
            (user, user, revenue)
            for (user, _, revenue, _, _) in self.page_views
            if int(user[1:]) < 6
        )
        assert sorted(rows) == expected
        # Join output: name always equals user (equi-join key).
        assert all(name == user for name, user, _ in rows)

    def test_q2_grouped_revenue(self):
        run_query(Q2_TEXT, "q2", self.dfs)
        schema = Schema(
            [Field("group", DataType.CHARARRAY), Field("sum", DataType.DOUBLE)]
        )
        rows = read_output(self.dfs, "/out/L3_out", schema)
        expected = {}
        for user, _, revenue, _, _ in self.page_views:
            if int(user[1:]) < 6:
                expected[user] = expected.get(user, 0.0) + revenue
        assert {user: round(total, 6) for user, total in rows} == {
            user: round(total, 6) for user, total in expected.items()
        }

    def test_q2_temp_outputs_deleted_after_run(self):
        # "The current practice is to delete these intermediate results"
        # (paper, abstract) — the plain executor does exactly that.
        workflow = compile_query(Q2_TEXT, "q2tmp", self.dfs)
        WorkflowExecutor(self.dfs, make_cost_model()).execute(workflow)
        for path in workflow.temp_paths:
            assert not self.dfs.exists(path)

    def test_jobcontrol_matches_executor(self):
        run_query(Q2_TEXT, "a", self.dfs)
        first = self.dfs.read_lines("/out/L3_out")
        run_query(Q2_TEXT, "b", self.dfs, use_jobcontrol=True)
        second = self.dfs.read_lines("/out/L3_out")
        assert first == second

    def test_equation1_completion_times(self):
        workflow = compile_query(Q2_TEXT, "eq1", self.dfs)
        result = WorkflowExecutor(self.dfs, make_cost_model()).execute(workflow)
        by_kind = {job.shuffle_op.kind: job for job in workflow.jobs}
        join_id = by_kind["join"].job_id
        group_id = by_kind["group"].job_id
        # Ttotal(group) = ET(group) + Ttotal(join)  (Equation 1)
        assert result.completion_times[group_id] == pytest.approx(
            result.job_results[group_id].execution_time
            + result.completion_times[join_id]
        )
        assert result.total_time == result.completion_times[group_id]


class TestOperatorSemantics:
    def setup_method(self):
        self.dfs = DistributedFileSystem()

    def run(self, text, name="t"):
        return run_query(text, name, self.dfs)

    def test_filter_and_projection(self):
        schema = Schema([Field("x", DataType.INT), Field("y", DataType.CHARARRAY)])
        write_rows(self.dfs, "/d", [(1, "a"), (5, "b"), (9, "c")], schema)
        self.run(
            "A = load '/d' as (x:int, y:chararray);"
            "B = filter A by x > 2;"
            "C = foreach B generate y;"
            "store C into '/o';"
        )
        assert self.dfs.read_lines("/o") == ["b", "c"]

    def test_group_all_aggregates(self):
        schema = Schema([Field("x", DataType.INT)])
        write_rows(self.dfs, "/d", [(1,), (2,), (3,), (None,)], schema)
        self.run(
            "A = load '/d' as (x:int);"
            "B = group A all;"
            "C = foreach B generate COUNT(A), SUM(A.x), AVG(A.x);"
            "store C into '/o';"
        )
        out_schema = Schema(
            [Field("c", DataType.INT), Field("s", DataType.INT),
             Field("a", DataType.DOUBLE)]
        )
        (row,) = [decode_row(line, out_schema) for line in self.dfs.read_lines("/o")]
        assert row == (4, 6, 2.0)

    def test_group_composite_key_with_flatten(self):
        schema = Schema([Field("u", DataType.CHARARRAY), Field("q", DataType.CHARARRAY),
                         Field("t", DataType.INT)])
        write_rows(self.dfs, "/d",
                   [("a", "x", 1), ("a", "x", 2), ("a", "y", 4), ("b", "x", 8)],
                   schema)
        self.run(
            "A = load '/d' as (u:chararray, q:chararray, t:int);"
            "B = group A by (u, q);"
            "C = foreach B generate flatten(group), SUM(A.t);"
            "store C into '/o';"
        )
        out_schema = Schema([Field("u", DataType.CHARARRAY),
                             Field("q", DataType.CHARARRAY),
                             Field("s", DataType.INT)])
        rows = sorted(decode_row(line, out_schema) for line in self.dfs.read_lines("/o"))
        assert rows == [("a", "x", 3), ("a", "y", 4), ("b", "x", 8)]

    def test_distinct(self):
        schema = Schema([Field("x", DataType.INT)])
        write_rows(self.dfs, "/d", [(1,), (2,), (1,), (2,), (3,)], schema)
        self.run("A = load '/d' as (x:int); B = distinct A; store B into '/o';")
        assert sorted(self.dfs.read_lines("/o")) == ["1", "2", "3"]

    def test_union_then_distinct(self):
        schema = Schema([Field("x", DataType.INT)])
        write_rows(self.dfs, "/d1", [(1,), (2,)], schema)
        write_rows(self.dfs, "/d2", [(2,), (3,)], schema)
        self.run(
            "A = load '/d1' as (x:int); B = load '/d2' as (x:int);"
            "C = union A, B; D = distinct C; store D into '/o';"
        )
        assert sorted(self.dfs.read_lines("/o")) == ["1", "2", "3"]

    def test_cogroup_anti_join(self):
        # L5-style anti-join: users in A with no match in B.
        left = Schema([Field("u", DataType.CHARARRAY)])
        write_rows(self.dfs, "/a", [("x",), ("y",), ("z",)], left)
        write_rows(self.dfs, "/b", [("x",)], left)
        self.run(
            "A = load '/a' as (u:chararray); B = load '/b' as (u:chararray);"
            "C = cogroup A by u, B by u;"
            "D = filter C by COUNT(B) == 0;"
            "E = foreach D generate group;"
            "store E into '/o';"
        )
        assert sorted(self.dfs.read_lines("/o")) == ["y", "z"]

    def test_order_by_desc_then_limit(self):
        schema = Schema([Field("x", DataType.INT)])
        write_rows(self.dfs, "/d", [(3,), (1,), (4,), (1,), (5,)], schema)
        self.run(
            "A = load '/d' as (x:int);"
            "B = order A by x desc;"
            "C = limit B 3;"
            "store C into '/o';"
        )
        assert self.dfs.read_lines("/o") == ["5", "4", "3"]

    def test_join_drops_null_keys(self):
        schema = Schema([Field("k", DataType.CHARARRAY), Field("v", DataType.INT)])
        write_rows(self.dfs, "/a", [("x", 1), (None, 2)], schema)
        write_rows(self.dfs, "/b", [("x", 10), (None, 20)], schema)
        self.run(
            "A = load '/a' as (k:chararray, v:int);"
            "B = load '/b' as (k:chararray, v:int);"
            "C = join A by k, B by k;"
            "store C into '/o';"
        )
        assert self.dfs.read_lines("/o") == ["x\t1\tx\t10"]

    def test_deterministic_across_runs(self):
        seed_page_views(self.dfs)
        seed_users(self.dfs)
        run_query(Q2_TEXT, "r1", self.dfs)
        first = self.dfs.read_lines("/out/L3_out")
        run_query(Q2_TEXT, "r2", self.dfs)
        assert self.dfs.read_lines("/out/L3_out") == first


class TestStatsCollection:
    def test_counters_populated(self):
        dfs = DistributedFileSystem()
        seed_page_views(dfs)
        seed_users(dfs)
        workflow = compile_query(Q2_TEXT, "stats", dfs)
        result = WorkflowExecutor(dfs, make_cost_model()).execute(workflow)
        by_kind = {job.shuffle_op.kind: job for job in workflow.jobs}
        join_stats = result.stats_of(by_kind["join"].job_id)
        assert join_stats.map_input_bytes > 0
        assert join_stats.map_input_records == 70  # 60 page views + 10 users
        assert join_stats.map_output_records > 0
        assert join_stats.num_reducers >= 1
        assert join_stats.output_bytes > 0
        assert ("join", "reduce") in join_stats.op_charges

    def test_execution_time_positive_and_deterministic(self):
        dfs = DistributedFileSystem()
        seed_page_views(dfs)
        seed_users(dfs)
        times = []
        for name in ("t1", "t2"):
            workflow = compile_query(Q2_TEXT, name, dfs)
            result = WorkflowExecutor(dfs, make_cost_model()).execute(workflow)
            times.append(result.total_time)
        assert times[0] > 0
        assert times[0] == times[1]
