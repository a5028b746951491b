"""Tests for the PigSystem facade and the EXPLAIN tool."""

import pytest

from repro import PigSystem
from repro.data import DataType, Field, Schema
from repro.tools import explain

SCHEMA = Schema([Field("x", DataType.INT), Field("y", DataType.CHARARRAY)])
QUERY = (
    "A = load '/data/t' as (x:int, y:chararray);"
    "B = filter A by x > 1;"
    "store B into '/out/r';"
)


class TestPigSystem:
    def test_write_table_and_run(self):
        system = PigSystem()
        system.write_table("/data/t", [(1, "a"), (2, "b"), (3, "c")], SCHEMA)
        result = system.run(QUERY)
        assert system.dfs.read_lines("/out/r") == ["2\tb", "3\tc"]
        assert result.total_time > 0

    def test_compile_names_are_unique(self):
        system = PigSystem()
        first = system.compile(QUERY, "same")
        second = system.compile(QUERY, "same")
        assert first.name != second.name

    def test_content_addressed_temp_paths_stable(self):
        system = PigSystem()
        system.write_table("/data/t", [(1, "a")], SCHEMA)
        two_job_query = (
            "A = load '/data/t' as (x:int, y:chararray);"
            "B = group A by y;"
            "C = foreach B generate group, COUNT(A);"
            "D = order C by group;"
            "store D into '/out/r';"
        )
        first = system.compile(two_job_query)
        second = system.compile(two_job_query)
        assert first.temp_paths == second.temp_paths

    def test_temp_paths_change_when_data_changes(self):
        system = PigSystem()
        system.write_table("/data/t", [(1, "a")], SCHEMA)
        two_job_query = (
            "A = load '/data/t' as (x:int, y:chararray);"
            "B = group A by y;"
            "C = foreach B generate group, COUNT(A);"
            "D = order C by group;"
            "store D into '/out/r';"
        )
        first = system.compile(two_job_query)
        system.write_table("/data/t", [(9, "z")], SCHEMA)  # version bump
        second = system.compile(two_job_query)
        assert first.temp_paths != second.temp_paths

    def test_with_scale_shares_dfs(self):
        system = PigSystem()
        system.write_table("/data/t", [(1, "a")], SCHEMA)
        scaled = system.with_scale(100.0)
        assert scaled.dfs is system.dfs
        assert scaled.cost_model.config.scale == 100.0
        assert system.cost_model.config.scale == 1.0

    def test_restore_binds_cluster(self):
        system = PigSystem()
        restore = system.restore()
        assert restore.dfs is system.dfs
        assert restore.clock is system.clock

    def test_run_uses_current_dataset_version(self):
        system = PigSystem()
        system.write_table("/data/t", [(5, "x")], SCHEMA)
        system.run(QUERY)
        assert system.dfs.read_lines("/out/r") == ["5\tx"]
        system.write_table("/data/t", [(9, "y")], SCHEMA)
        system.run(QUERY)
        assert system.dfs.read_lines("/out/r") == ["9\ty"]


class TestExplain:
    def test_sections_present(self):
        text = explain(QUERY)
        assert "-- logical plan" in text
        assert "-- physical plan" in text
        assert "-- mapreduce workflow" in text
        assert "FILTER[>($0,1)]" in text

    def test_multi_job_workflow_shown(self):
        query = (
            "A = load '/data/t' as (x:int, y:chararray);"
            "B = group A by y;"
            "C = foreach B generate group, COUNT(A);"
            "D = order C by group;"
            "store D into '/out/r';"
        )
        text = explain(query)
        assert "2 job(s)" in text

    def test_main_entry(self, capsys):
        from repro.tools.explain import main

        assert main([QUERY]) == 0
        captured = capsys.readouterr()
        assert "mapreduce workflow" in captured.out
