"""Tests for workflow orchestration: topology, Equation 1, JobControl hooks."""

import pytest

from repro.common.errors import ExecutionError
from repro.data import DataType, encode_row, Field, Schema
from repro.dfs import DistributedFileSystem
from repro.mapreduce import Workflow, WorkflowExecutor
from repro.mapreduce.runner import JobRunResult
from repro.mrcompiler import JobControl

from tests.helpers import compile_query, make_cost_model

DIAMOND_QUERY = """
A = load '/data/a' as (x:int);
B = distinct A;
C = load '/data/c' as (x:int);
D = distinct C;
E = union B, D;
F = distinct E;
store F into '/out/diamond';
"""

SCHEMA = Schema([Field("x", DataType.INT)])


def seeded_dfs():
    dfs = DistributedFileSystem()
    dfs.write_lines("/data/a", [encode_row((i,), SCHEMA) for i in range(20)])
    dfs.write_lines("/data/c", [encode_row((i,), SCHEMA) for i in range(10, 30)])
    return dfs


class TestTopology:
    def test_topological_order_respects_dependencies(self):
        dfs = seeded_dfs()
        workflow = compile_query(DIAMOND_QUERY, "d", dfs)
        order = workflow.topological_jobs()
        positions = {job.job_id: pos for pos, job in enumerate(order)}
        for job in workflow.jobs:
            for dep in job.dependencies:
                assert positions[dep.job_id] < positions[job.job_id]

    def test_cycle_detection(self):
        dfs = seeded_dfs()
        workflow = compile_query(DIAMOND_QUERY, "d", dfs)
        a, b = workflow.jobs[0], workflow.jobs[-1]
        a.dependencies.append(b)
        b.dependencies.append(a)
        with pytest.raises(ExecutionError):
            workflow.topological_jobs()

    def test_describe_lists_all_jobs(self):
        dfs = seeded_dfs()
        workflow = compile_query(DIAMOND_QUERY, "d", dfs)
        text = workflow.describe()
        for job in workflow.jobs:
            assert job.job_id in text

    def test_final_output_paths(self):
        dfs = seeded_dfs()
        workflow = compile_query(DIAMOND_QUERY, "d", dfs)
        assert workflow.final_output_paths() == ["/out/diamond"]


class TestEquation1:
    def test_diamond_critical_path(self):
        dfs = seeded_dfs()
        workflow = compile_query(DIAMOND_QUERY, "d", dfs)
        result = WorkflowExecutor(dfs, make_cost_model()).execute(workflow)
        final = [job for job in workflow.jobs if job.dependencies][0]
        dep_times = [result.completion_times[dep.job_id]
                     for dep in final.dependencies]
        expected = result.job_results[final.job_id].execution_time + max(dep_times)
        assert result.completion_times[final.job_id] == pytest.approx(expected)
        # The workflow time is the critical path, NOT the sum of all jobs.
        assert result.total_time < result.total_execution_time

    def test_union_output_correct(self):
        dfs = seeded_dfs()
        workflow = compile_query(DIAMOND_QUERY, "d", dfs)
        WorkflowExecutor(dfs, make_cost_model()).execute(workflow)
        values = sorted(int(line) for line in dfs.read_lines("/out/diamond"))
        assert values == list(range(30))

    def test_result_describe(self):
        dfs = seeded_dfs()
        workflow = compile_query(DIAMOND_QUERY, "d", dfs)
        result = WorkflowExecutor(dfs, make_cost_model()).execute(workflow)
        assert "total" in result.describe()


class _SkippingControl(JobControl):
    """Skips every job with no dependencies (for hook testing)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.prepared = []
        self.after = []

    def prepare_job(self, job, workflow, result):
        self.prepared.append(job.job_id)
        return bool(job.dependencies)

    def after_job(self, job, run_result, executed):
        self.after.append((job.job_id, executed, run_result.skipped))


class TestJobControlHooks:
    def test_hooks_called_in_dependency_order(self):
        dfs = seeded_dfs()
        workflow = compile_query(DIAMOND_QUERY, "d", dfs)
        control = _SkippingControl(dfs, make_cost_model())
        # Skipping the producer jobs leaves the final job without inputs:
        # the missing temp file surfaces as a DFS error.
        from repro.common.errors import DfsError

        with pytest.raises(DfsError):
            control.run(workflow)
        assert control.prepared  # prepare ran before the failure

    def test_skipped_jobs_have_zero_time(self):
        result = JobRunResult.skipped_job("j1")
        assert result.skipped
        assert result.execution_time == 0.0

    def test_plain_jobcontrol_cleans_temps(self):
        dfs = seeded_dfs()
        workflow = compile_query(DIAMOND_QUERY, "d", dfs)
        JobControl(dfs, make_cost_model()).run(workflow)
        for path in workflow.temp_paths:
            assert not dfs.exists(path)

    def test_keep_temps_flag(self):
        dfs = seeded_dfs()
        workflow = compile_query(DIAMOND_QUERY, "d", dfs)
        JobControl(dfs, make_cost_model(), keep_temps=True).run(workflow)
        assert any(dfs.exists(path) for path in workflow.temp_paths)

    def test_deadlock_detection(self):
        dfs = seeded_dfs()
        workflow = compile_query(DIAMOND_QUERY, "d", dfs)
        # An external dependency that is never part of the workflow.
        ghost_workflow = compile_query(DIAMOND_QUERY, "ghost", dfs)
        workflow.jobs[0].dependencies.append(ghost_workflow.jobs[0])
        with pytest.raises(ExecutionError):
            JobControl(dfs, make_cost_model()).run(workflow)
