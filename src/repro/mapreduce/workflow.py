"""Workflows of MapReduce jobs: the DAG, execution, and Equation 1.

``Workflow`` is what the dataflow compiler hands to ReStore (or directly to
the executor). ``WorkflowExecutor`` runs jobs in dependency order and
computes per-job and workflow completion times with the paper's Equation 1:

    Ttotal(Job_n) = ET(Job_n) + max_{i in deps} Ttotal(Job_i)
"""

from repro.common.errors import ExecutionError
from repro.mapreduce.runner import JobRunner


class Workflow:
    """A DAG of :class:`MRJob` with temp-output bookkeeping."""

    def __init__(self, name, jobs, temp_paths=()):
        self.name = name
        self.jobs = list(jobs)
        self.temp_paths = set(temp_paths)

    def topological_jobs(self):
        """Jobs ordered so that dependencies come first.

        Raises when the DAG is cyclic or when a job depends on a job that
        is not part of this workflow.
        """
        members = {id(job) for job in self.jobs}
        seen, visiting, ordered = set(), set(), []
        for job in self.jobs:
            self._visit(job, members, seen, visiting, ordered)
        return ordered

    def _visit(self, job, members, seen, visiting, ordered):
        if id(job) not in members:
            raise ExecutionError(
                f"workflow {self.name!r}: job {job.job_id} is a dependency "
                "but not a member"
            )
        if id(job) in seen:
            return
        if id(job) in visiting:
            raise ExecutionError(f"cycle in workflow {self.name!r}")
        visiting.add(id(job))
        for dep in job.dependencies:
            self._visit(dep, members, seen, visiting, ordered)
        visiting.discard(id(job))
        seen.add(id(job))
        ordered.append(job)

    def final_output_paths(self):
        paths = []
        for job in self.jobs:
            for store in job.final_stores():
                paths.append(store.path)
        return paths

    def describe(self):
        lines = [f"Workflow {self.name!r}: {len(self.jobs)} job(s)"]
        for job in self.topological_jobs():
            deps = ", ".join(dep.job_id for dep in job.dependencies) or "none"
            lines.append(f"- {job.job_id} (depends on: {deps})")
            lines.append("  " + job.describe().replace("\n", "\n  "))
        return "\n".join(lines)

    def __repr__(self):
        return f"<Workflow {self.name!r} jobs={len(self.jobs)}>"


class WorkflowResult:
    """Execution record: per-job results plus Equation 1 completion times."""

    def __init__(self, workflow):
        self.workflow = workflow
        self.job_results = {}        # job_id -> JobRunResult
        self.completion_times = {}   # job_id -> Ttotal(job), Equation 1

    @property
    def total_time(self):
        """Workflow completion time: the slowest critical path."""
        if not self.completion_times:
            return 0.0
        return max(self.completion_times.values())

    @property
    def total_execution_time(self):
        """Sum of all job ETs (cluster work, ignoring the DAG)."""
        return sum(result.execution_time for result in self.job_results.values())

    def stats_of(self, job_id):
        return self.job_results[job_id].stats

    def describe(self):
        lines = [f"Workflow {self.workflow.name!r}: total {self.total_time:.1f}s"]
        for job in self.workflow.topological_jobs():
            result = self.job_results[job.job_id]
            lines.append(
                f"- {job.job_id}: ET={result.execution_time:.1f}s, "
                f"Ttotal={self.completion_times[job.job_id]:.1f}s "
                f"({result.stats.summary()})"
            )
        return "\n".join(lines)


class WorkflowExecutor:
    """Runs workflows on the engine; deletes temp outputs afterwards
    (the "current practice" the paper's introduction describes) unless
    ``keep_temps`` — ReStore's mode — is set.
    """

    def __init__(self, dfs, cost_model, keep_temps=False):
        self.dfs = dfs
        self.cost_model = cost_model
        self.keep_temps = keep_temps
        self._runner = JobRunner(dfs, cost_model)

    def execute(self, workflow):
        result = WorkflowResult(workflow)
        for job in workflow.topological_jobs():
            job_result = self._runner.run(job)
            result.job_results[job.job_id] = job_result
            dep_total = max(
                (result.completion_times[dep.job_id] for dep in job.dependencies),
                default=0.0,
            )
            result.completion_times[job.job_id] = job_result.execution_time + dep_total
        if not self.keep_temps:
            for path in workflow.temp_paths:
                self.dfs.delete_if_exists(path)
        return result
