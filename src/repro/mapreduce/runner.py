"""The job runner: executes one MapReduce job's physical plan for real.

Evaluation is a memoized pull over the job DAG: map-side pipelines feed the
blocking operator's shuffle (partition → sort → group → merge), whose output
feeds the reduce-side pipeline; every Store writes real lines to the DFS.
Counters are collected along the way and priced by the cost model.
"""

from itertools import compress, repeat

from repro.common.errors import DataError, ExecutionError
from repro.data.codec import decode_lines, encode_rows
from repro.data.comparators import key_sort_key
from repro.mapreduce.counters import JobStats
from repro.mapreduce.shuffle import estimate_row_bytes, grouped_partitions


class JobRunResult:
    """Outcome of one job run: counters + Equation 2 breakdown."""

    __slots__ = ("job_id", "stats", "breakdown", "skipped")

    def __init__(self, job_id, stats, breakdown, skipped=False):
        self.job_id = job_id
        self.stats = stats
        self.breakdown = breakdown
        self.skipped = skipped

    @classmethod
    def skipped_job(cls, job_id):
        """Result for a job eliminated by whole-job reuse (ET = 0)."""
        from repro.mapreduce.costmodel import CostBreakdown

        return cls(job_id, JobStats(job_id), CostBreakdown(0, 0, 0, 0, 0, 0, 0),
                   skipped=True)

    @property
    def execution_time(self):
        """ET(Job) in simulated seconds (Equation 2)."""
        return self.breakdown.total

    def __repr__(self):
        return f"JobRunResult({self.job_id}, ET={self.execution_time:.1f}s)"


class JobRunner:
    def __init__(self, dfs, cost_model):
        self.dfs = dfs
        self.cost_model = cost_model

    def run(self, job):
        execution = _JobExecution(job, self.dfs, self.cost_model)
        stats = execution.execute()
        breakdown = self.cost_model.job_time(stats)
        return JobRunResult(job.job_id, stats, breakdown)


def _bytes_estimate(rows):
    """Approximate serialized size of ``rows`` from a bounded sample."""
    if not rows:
        return 0
    sample = rows[:64]
    average = sum(map(estimate_row_bytes, sample)) / len(sample)
    return int(average * len(rows))


class _JobExecution:
    def __init__(self, job, dfs, cost_model):
        self.job = job
        self.dfs = dfs
        self.cost_model = cost_model
        self.stats = JobStats(job.job_id)
        self._memo = {}

    def execute(self):
        for store in self.job.plan.stores():
            self._run_store(store)
        return self.stats

    # Store execution ------------------------------------------------------

    def _run_store(self, store):
        rows = self._rows_of(store.inputs[0])
        lines = encode_rows(rows, store.schema)
        # The DFS sizes every line; the status carries the sum (also when
        # identical content made the write a no-op).
        num_bytes = self.dfs.write_lines(
            store.path, lines, overwrite=True).size_bytes
        stats = self.stats
        stats.output_paths.append(store.path)
        stats.output_bytes += num_bytes
        stats.charge_op("store", store.stage, len(rows), num_bytes)
        if store.stage == "map":
            stats.map_store_bytes += num_bytes
            stats.num_map_side_stores += 1
        else:
            stats.reduce_store_bytes += num_bytes
            stats.num_reduce_side_stores += 1
        if store.injected:
            stats.injected_store_bytes += num_bytes
        elif not store.temporary:
            stats.final_output_bytes += num_bytes

    # Pipeline evaluation -----------------------------------------------------

    def _rows_of(self, op):
        cached = self._memo.get(id(op))
        if cached is not None:
            return cached
        handler = getattr(self, f"_eval_{op.kind}", None)
        if handler is None:
            raise ExecutionError(f"job runner cannot execute operator kind {op.kind!r}")
        rows = handler(op)
        self._memo[id(op)] = rows
        return rows

    def _eval_load(self, op):
        try:
            rows = decode_lines(self.dfs.read_lines(op.path), op.schema)
        except DataError as exc:
            raise ExecutionError(f"bad record in {op.path!r}: {exc}") from exc
        self.stats.map_input_bytes += self.dfs.file_size(op.path)
        self.stats.map_input_records += len(rows)
        self.stats.input_paths.append(op.path)
        self.stats.charge_op("load", op.stage, len(rows), self.dfs.file_size(op.path))
        return rows

    def _eval_foreach(self, op):
        source = self._rows_of(op.inputs[0])
        rows = [op.eval_row(row) for row in source]
        self.stats.charge_op("foreach", op.stage, len(source), _bytes_estimate(source))
        return rows

    def _eval_filter(self, op):
        source = self._rows_of(op.inputs[0])
        rows = [row for row in source if op.eval_row(row)]
        self.stats.charge_op("filter", op.stage, len(source), _bytes_estimate(source))
        return rows

    def _eval_limit(self, op):
        source = self._rows_of(op.inputs[0])
        self.stats.charge_op("limit", op.stage, len(source), _bytes_estimate(source))
        return source[: op.count]

    def _eval_union(self, op):
        rows = []
        for parent in op.inputs:
            rows.extend(self._rows_of(parent))
        self.stats.charge_op("union", op.stage, len(rows), _bytes_estimate(rows))
        return rows

    def _eval_split(self, op):
        rows = self._rows_of(op.inputs[0])
        self.stats.charge_op("split", op.stage, len(rows), 0)
        return rows

    # Blocking operators (the job's shuffle) ---------------------------------------

    def _shuffled_groups(self, op, keyed_rows, total_rows, total_bytes):
        stats = self.stats
        stats.map_output_records += total_rows
        stats.map_output_bytes += total_bytes
        num_reducers = self.cost_model.choose_num_reducers(
            stats.map_output_bytes, self.job.parallel
        )
        stats.num_reducers = num_reducers
        partitions = grouped_partitions(keyed_rows, num_reducers)
        stats.reduce_input_groups += sum(len(groups) for groups in partitions)
        return partitions

    def _check_is_shuffle(self, op):
        if op is not self.job.shuffle_op:
            raise ExecutionError(
                f"blocking operator {op.signature()} is not this job's shuffle; "
                "the MR compiler must split it into its own job"
            )

    def _branch_keyed_rows(self, op, drop_null_keys):
        keyed = []
        total_bytes = 0
        for branch, (key_fn, parent) in enumerate(
                zip(op.key_functions(), op.inputs)):
            rows = self._rows_of(parent)
            keys = list(map(key_fn, rows))
            if drop_null_keys:
                kept = [not _key_is_null(key) for key in keys]
                if not all(kept):
                    rows = list(compress(rows, kept))
                    keys = list(compress(keys, kept))
            keyed.extend(zip(repeat(branch), keys, rows))
            total_bytes += sum(map(estimate_row_bytes, rows)) + 4 * len(rows)
        return keyed, len(keyed), total_bytes

    def _eval_join(self, op):
        self._check_is_shuffle(op)
        # Inner equi-join: null keys never match (Pig semantics), so they
        # are dropped at the map side.
        keyed, total_rows, total_bytes = self._branch_keyed_rows(op, drop_null_keys=True)
        partitions = self._shuffled_groups(op, keyed, total_rows, total_bytes)
        rows = []
        for groups in partitions:
            for _, by_branch in groups:
                left_rows = by_branch.get(0, ())
                right_rows = by_branch.get(1, ())
                for left in left_rows:
                    for right in right_rows:
                        rows.append(left + right)
        self.stats.charge_op("join", "reduce", total_rows + len(rows), total_bytes)
        self.stats.reduce_output_records += len(rows)
        return rows

    def _eval_group(self, op):
        self._check_is_shuffle(op)
        keyed, total_rows, total_bytes = self._branch_keyed_rows(op, drop_null_keys=False)
        partitions = self._shuffled_groups(op, keyed, total_rows, total_bytes)
        composite = not op.is_group_all and len(op.keys) > 1
        rows = []
        for groups in partitions:
            for key, by_branch in groups:
                bag = tuple(by_branch.get(0, ()))
                if composite:
                    rows.append(tuple(key) + (bag,))
                else:
                    rows.append((key, bag))
        self.stats.charge_op("group", "reduce", total_rows, total_bytes)
        self.stats.reduce_output_records += len(rows)
        return rows

    def _eval_cogroup(self, op):
        self._check_is_shuffle(op)
        keyed, total_rows, total_bytes = self._branch_keyed_rows(op, drop_null_keys=False)
        partitions = self._shuffled_groups(op, keyed, total_rows, total_bytes)
        composite = len(op.key_lists[0]) > 1
        num_branches = len(op.inputs)
        rows = []
        for groups in partitions:
            for key, by_branch in groups:
                bags = tuple(tuple(by_branch.get(b, ())) for b in range(num_branches))
                if composite:
                    rows.append(tuple(key) + bags)
                else:
                    rows.append((key,) + bags)
        self.stats.charge_op("cogroup", "reduce", total_rows, total_bytes)
        self.stats.reduce_output_records += len(rows)
        return rows

    def _eval_distinct(self, op):
        self._check_is_shuffle(op)
        keyed, total_rows, total_bytes = self._branch_keyed_rows(op, drop_null_keys=False)
        partitions = self._shuffled_groups(op, keyed, total_rows, total_bytes)
        rows = []
        for groups in partitions:
            for key, _ in groups:
                rows.append(key)  # the key IS the whole row
        self.stats.charge_op("distinct", "reduce", total_rows, total_bytes)
        self.stats.reduce_output_records += len(rows)
        return rows

    def _eval_sort(self, op):
        self._check_is_shuffle(op)
        keyed, total_rows, total_bytes = self._branch_keyed_rows(op, drop_null_keys=False)
        # Total order: a single reducer (job.parallel forces 1 for sorts).
        self.stats.map_output_records += total_rows
        self.stats.map_output_bytes += total_bytes
        self.stats.num_reducers = 1
        rows = [row for _, _, row in keyed]
        # Stable multi-pass sort honours per-key ASC/DESC.
        for compiled, direction in reversed(op.keys):
            fn = compiled.fn
            rows.sort(key=lambda row: key_sort_key(fn(row)), reverse=direction == "desc")
        self.stats.reduce_input_groups += len(rows)
        self.stats.charge_op("sort", "reduce", total_rows, total_bytes)
        self.stats.reduce_output_records += len(rows)
        return rows


def _key_is_null(key):
    if key is None:
        return True
    if isinstance(key, tuple):
        return any(item is None for item in key)
    return False
