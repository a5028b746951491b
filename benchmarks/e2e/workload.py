"""The four submit streams, their oracle, and what one run measures.

One operation is ``system.compile(text, name)`` + ``restore.submit(workflow)``
timed together; one client thread issues the next operation when the
previous one returns (closed loop), and the measured window ends after
``restore.flush()``. Only the public ``PigSystem`` / ``ReStore`` API is
used; see README.md for why each workload exists and how every metric is
defined.
"""

import resource
import statistics
import sys
import threading
import time
import traceback

import repro.api
import repro.restore.manager
from repro import PigSystem
from repro.common.units import GB
from repro.mapreduce.runner import JobRunner
from repro.pigmix.datagen import PAGE_VIEWS_SCHEMA
from repro.restore import (
    HeuristicRetentionPolicy,
    IngestQueue,
    load_repository,
    RepositoryLog,
    save_repository,
    ShardedRepository,
)

import querygen
from tracer import Tracer

#: ``--seconds`` at which the sizes below apply: the windows of a run then
#: add up to about that many seconds of submits on the box the sizes were
#: chosen on. Other values scale operation counts, pools and (down to
#: MIN_ROWS) tables in proportion.
NOMINAL_SECONDS = 20
MIN_ROWS = 100
#: cost-model scale: page_views_0 counts as this many bytes, as in the
#: harness's 15 GB PigMix instance
TARGET_BYTES = 15 * GB
REPOSITORY_FILES = "/restore/repository.jsonl"


class Spec:
    def __init__(self, why, rounds, rows, ops, pool, picks, prefill=False,
                 churn=False, fabric=False):
        self.why = why
        self.rounds = rounds        # times a run sets up, measures, reloads
        self.rows = rows            # rows per page-views table
        self.ops = ops              # submits in one measured window
        self.pool = pool            # distinct queries to draw from
        self.picks = picks          # skewed | uniform | ordered
        self.prefill = prefill      # set-up submits the whole pool, twice
        self.churn = churn          # sharded + durable + evicting, tables overwritten
        self.fabric = fabric        # worker processes + async ingest


#: A run sets up and measures ``rounds`` times on identical inputs and
#: reports the least disturbed window: the box slows down by a tenth to a
#: half for seconds on end (README.md, "Noise"), and a run has to outlast
#: that. The counts are what the driver's time limit leaves room for.
SPECS = {
    "pigmix_reuse": Spec(
        "skewed PigMix stream: hits collapse to copies, misses run the "
        "engine, which dominates; manager changes must not show here",
        rounds=4, rows=1200, ops=800, pool=100, picks="skewed"),
    "hot_probe": Spec(
        "read path: every job is rewritten or eliminated against a full "
        "repository; matcher, index and compile dominate, inserts are absent",
        rounds=6, rows=100, ops=1600, pool=200, picks="uniform",
        prefill=True),
    "ingest_churn": Spec(
        "write path: all-distinct queries, table overwrites, eviction and "
        "a checkpoint per submit; insert, sweep, removal and log dominate",
        rounds=5, rows=100, ops=500, pool=500, picks="ordered", churn=True),
    "fabric_stream": Spec(
        "ingest_churn's inputs byte for byte through worker processes and "
        "async ingest; the difference of the two rows is the fabric's cost",
        rounds=3, rows=100, ops=500, pool=500, picks="ordered", churn=True,
        fabric=True),
}
#: ingest_churn / fabric_stream at NOMINAL_SECONDS: one table overwritten
#: every OVERWRITE_EVERY submits, Rule 3 window of WINDOW_TICKS submits
OVERWRITE_EVERY = 75
WINDOW_TICKS = 150


def planned_ops(spec, seconds):
    return max(20, round(spec.ops * seconds / NOMINAL_SECONDS))


class Stream:
    """Everything one run feeds the program, made from the seed alone."""

    def __init__(self, spec, seed, seconds):
        scale = seconds / NOMINAL_SECONDS
        self.seed = seed
        self.rows = max(MIN_ROWS, round(spec.rows * min(1.0, scale)))
        self.ops = planned_ops(spec, seconds)
        pool_size = max(5, round(spec.pool * scale))
        self.pool = querygen.querygen(seed, pool_size)
        if spec.picks == "skewed":
            self.picks = querygen.skewed_picks(seed, pool_size, self.ops)
        elif spec.picks == "uniform":
            self.picks = querygen.uniform_picks(seed, pool_size, self.ops)
        else:
            self.picks = list(range(self.ops))
        #: what set-up submits before the window; see set_up for "twice"
        self.prefill = self.pool * 2 if spec.prefill else []
        self.window_ticks = max(4, round(WINDOW_TICKS * scale))
        #: position in the stream -> (table, rows) written just before it
        self.overwrites = {}
        if spec.churn:
            every = max(2, round(OVERWRITE_EVERY * scale))
            for number, position in enumerate(range(every, self.ops, every)):
                table = querygen.PAGE_VIEWS[number % len(querygen.PAGE_VIEWS)]
                self.overwrites[position] = (table, querygen.page_views_rows(
                    seed * 1000 + 100 + number, self.rows))


def build_system(stream):
    """A PigSystem holding the stream's tables, its cost model scaled so
    that the first page-views table counts as TARGET_BYTES."""
    base = PigSystem()
    input_bytes = querygen.install_tables(base, stream.seed, stream.rows)
    scale = TARGET_BYTES / base.dfs.file_size(querygen.PAGE_VIEWS[0])
    return base.with_scale(scale), input_bytes


def oracle(stream):
    """Per stream position: (output lines, simulated seconds) of the query
    run with no reuse on a twin system that sees the same overwrites.
    Each distinct (query, versions of its tables) runs once."""
    twin, _ = build_system(stream)
    versions = dict.fromkeys(querygen.PAGE_VIEWS + querygen.USER_TABLES, 0)
    known = {}
    expected = []
    for position, pick in enumerate(stream.picks):
        overwrite = stream.overwrites.get(position)
        if overwrite is not None:
            twin.write_table(overwrite[0], overwrite[1], PAGE_VIEWS_SCHEMA)
            versions[overwrite[0]] += 1
        query = stream.pool[pick]
        key = (pick, tuple(versions[table] for table in query.tables))
        if key not in known:
            result = twin.run(query.text, f"ref{pick}")
            known[key] = (twin.dfs.read_lines(query.out), result.total_time)
        expected.append(known[key])
    return expected


def set_up(spec, stream):
    """What ``setup_s`` times: data generation, system and manager
    construction, hot_probe's pre-fill, fabric_stream's first worker
    spawn."""
    system, input_bytes = build_system(stream)
    kwargs = {}
    if spec.churn:
        kwargs = dict(
            repository=ShardedRepository(
                num_shards=4,
                executor="processes" if spec.fabric else "serial"),
            persistence=RepositoryLog(system.dfs), checkpoint_every=1,
            retention=HeuristicRetentionPolicy(
                window_ticks=stream.window_ticks, require_reduction=False,
                require_benefit=False))
        if spec.fabric:
            kwargs["ingest"] = "async"
    restore = system.restore(**kwargs)
    # Pre-fill submits the pool twice: a join's second job is stored under
    # the first query's temp path and registers once more when its join is
    # first reused; after the second pass the window registers nothing.
    prefill_sim = sum(
        restore.submit(system.compile(query.text, f"fill{query.index}"))
        .total_time for query in stream.prefill)
    restore.flush()
    if spec.fabric:
        # Workers spawn on the first probe of their shard.
        for job in system.compile(stream.pool[0].text, "warm").jobs:
            restore.repository.match_candidates(job.plan)
    return system, restore, input_bytes, prefill_sim


# Tracing -------------------------------------------------------------------


class _DfsBytes:
    """Counts bytes written, per call, from the file sizes the DFS
    reports (an append's argument may be a one-shot iterable)."""

    def __init__(self):
        self.sizes = {}

    def _account(self, counts, path, written, lines_appended=0):
        counts["dfs.bytes_written"] += written
        if path.startswith(REPOSITORY_FILES):
            counts["wal.bytes_written"] += written
            counts["wal.records_appended"] += lines_appended

    def wrote(self, counts, args, status):
        self.sizes[status.path] = (status.size_bytes, status.num_lines)
        self._account(counts, status.path, status.size_bytes)

    def appended(self, counts, args, status):
        size, lines = self.sizes.get(status.path, (0, 0))
        self.sizes[status.path] = (status.size_bytes, status.num_lines)
        self._account(counts, status.path, status.size_bytes - size,
                      status.num_lines - lines)

    def deleted(self, counts, args, result):
        self.sizes.pop(args[0], None)


def _offered(counts, args, candidates):
    counts["repository.candidates_offered"] += len(candidates)


def _report_of(args):
    """Registration and submit-end records carry their submit's report."""
    return args[0].report


def install_tracer(system, restore):
    """Wrap every layer's entry points, on the names this file can reach."""
    tracer = Tracer()
    wrap = tracer.wrap
    wrap(repro.api, "parse_query", "piglatin.parse")
    wrap(repro.api, "build_logical_plan", "logical.build")
    wrap(repro.api, "logical_to_physical", "physical.translate")
    wrap(repro.api, "compile_to_workflow", "mrcompiler.compile")
    wrap(system, "compile", "api.compile")
    wrap(JobRunner, "run", "mapreduce.run_job")
    wrap(repro.restore.manager, "find_containment", "matcher.find_containment")
    wrap(repro.restore.manager, "apply_rewrite", "rewriter.apply_rewrite")
    wrap(repro.restore.manager, "enumerate_and_inject", "enumerator.inject")
    wrap(IngestQueue, "put", "ingest.enqueue")
    wrap(IngestQueue, "put_control", "ingest.enqueue")
    dfs, written = system.dfs, _DfsBytes()
    wrap(dfs, "write_lines", "dfs.write", measure=written.wrote)
    wrap(dfs, "append_lines", "dfs.append", measure=written.appended)
    wrap(dfs, "read_lines", "dfs.read")
    wrap(dfs, "delete_if_exists", "dfs.delete", measure=written.deleted)
    repository = restore.repository
    wrap(repository, "match_candidates", "repository.match_candidates",
         measure=_offered)
    for method in ("find_equivalent", "insert", "remove", "record_use"):
        wrap(repository, method, f"repository.{method}")
    wrap(repository, "close", "service.close")
    wrap(restore.retention, "sweep", "selector.sweep")
    wrap(restore.retention, "should_keep", "selector.should_keep")
    wrap(restore, "submit", "manager.submit")
    wrap(restore, "apply_register", "manager.apply_register",
         trace_of=_report_of)
    wrap(restore, "apply_submit_end", "manager.apply_submit_end",
         trace_of=_report_of)
    wrap(restore, "flush", "manager.flush")
    if restore.persistence is not None:
        for method in ("checkpoint", "compact", "flush"):
            wrap(restore.persistence, method, f"wal.{method}")
    if repository.worker_pool is not None:
        wrap(repository.worker_pool, "flush_shards", "service.flush_shards")
    return tracer


# One measured run ----------------------------------------------------------


class Run:
    """Raw results of one measured window and of the recovery after it."""

    def __init__(self):
        self.failed = 0
        self.first_error = None
        self.latencies = []     # seconds per operation, in stream order
        self.reports = []       # the ReStoreReport of each operation
        self.sim_reuse = 0.0
        self.tracer = None


def _window(run, stream, expected, system, restore):
    """The closed loop: one client, next operation when the previous one
    returned; ends after the flush, so an async drain is paid for."""
    run.start = time.perf_counter()
    for position, pick in enumerate(stream.picks):
        overwrite = stream.overwrites.get(position)
        if overwrite is not None:
            system.write_table(overwrite[0], overwrite[1], PAGE_VIEWS_SCHEMA)
        query = stream.pool[pick]
        if run.tracer is not None:
            run.tracer.trace_id = position
        begin = time.perf_counter()
        try:
            result = restore.submit(
                system.compile(query.text, f"q{query.index}"))
        except Exception:  # the stream must go on; the op counts as failed
            run.latencies.append(time.perf_counter() - begin)
            run.failed += 1
            if run.first_error is None:
                run.first_error = traceback.format_exc()
            continue
        run.latencies.append(time.perf_counter() - begin)
        run.sim_reuse += result.total_time
        run.reports.append(restore.last_report)
        if system.dfs.read_lines(query.out) != expected[position][0]:
            run.failed += 1
    begin = time.perf_counter()
    restore.flush()
    run.end = time.perf_counter()
    run.final_flush = run.end - begin
    run.window = run.end - run.start


def _recover(run, system, restore, live_order):
    """Cold reload from what is durable after ``close()``; the reloaded
    repository must be the live one, entry for entry, in scan order."""
    if restore.persistence is None:
        save_repository(restore.repository, system.dfs)
    run.durable_bytes = sum(system.dfs.file_size(path) for path in
                            system.dfs.list_files(REPOSITORY_FILES))
    begin = time.perf_counter()
    loaded = load_repository(system.dfs)
    run.recover = time.perf_counter() - begin
    run.loader = loaded.loader_report.as_dict()
    if ([entry.fingerprint for entry in loaded.scan()] != live_order
            or run.loader["entries_loaded"] != run.entries):
        run.failed += 1


def drive(stream, expected, system, restore, input_bytes, prefill_sim,
          traced):
    """The measured window over a set-up system, then close and recover."""
    run = Run()
    main_thread = threading.get_ident()
    if traced:
        run.tracer = install_tracer(system, restore)
    try:
        _window(run, stream, expected, system, restore)
        repository = restore.repository
        run.entries = len(repository)
        run.stored_bytes = repository.total_stored_bytes()
        run.input_bytes = input_bytes
        ingest = restore.last_report.ingest   # None when ingest is inline
        run.ingest = ingest.as_dict() if ingest is not None else {}
        # A refused registration loses a result the stream should have stored.
        run.failed += run.ingest.get("rejected", 0)
        run.shard_stats = (repository.merged_shard_stats()
                           if isinstance(repository, ShardedRepository) else {})
        live_order = [entry.fingerprint for entry in repository.scan()]
        restore.close()
    finally:
        if traced:
            run.tracer.unwrap_all()
    # Simulated seconds over every submit the manager served, pre-fill
    # included (a window that eliminates every job costs 0 of them).
    plain_of = {pick: expected[position][1]
                for position, pick in enumerate(stream.picks)}
    run.sim_plain = (sum(sim for _, sim in expected)
                     + sum(plain_of[query.index] for query in stream.prefill))
    run.sim_reuse += prefill_sim
    _recover(run, system, restore, live_order)
    if traced:
        run.tracer.resolve_traces(
            {id(report): position
             for position, report in enumerate(run.reports)})
        run.unattributed = 1.0 - run.tracer.root_time(
            main_thread, run.start, run.end) / run.window
    return run


def percentile(ordered, fraction):
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def end_to_end(rounds, setups):
    """Timings come from the least disturbed round, each on its own: the
    most submits per second, the least median, the least 95th percentile.
    What is counted is identical over the rounds unless ingest is
    asynchronous; the median is reported."""
    windows = [sorted(run.latencies) for run in rounds]
    usage = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
             + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    def median(value):
        return statistics.median(value(run) for run in rounds)

    return {
        "setup_s": (statistics.median(setups), "s"),
        "submits_per_s": (max(len(run.latencies) / run.window
                              for run in rounds), "1/s"),
        "submit_p50_ms": (min(percentile(window, 0.50)
                              for window in windows) * 1e3, "ms"),
        "submit_p95_ms": (min(percentile(window, 0.95)
                              for window in windows) * 1e3, "ms"),
        "sim_speedup": (median(lambda run: run.sim_plain / run.sim_reuse),
                        "ratio"),
        "stored_bytes_ratio": (
            median(lambda run: run.stored_bytes / run.input_bytes), "ratio"),
        "recover_s": (min(run.recover for run in rounds), "s"),
        "durable_bytes_per_entry": (
            median(lambda run: run.durable_bytes / run.entries), "bytes"),
        "peak_rss_mb": (usage / 1024.0, "MB"),
    }


#: per-layer ``<span>_s`` metrics: the span's self time over the traced run
SELF_TIME_SPANS = [
    "piglatin.parse", "logical.build", "physical.translate",
    "mrcompiler.compile", "mapreduce.run_job", "dfs.write", "dfs.append",
    "dfs.read", "dfs.delete", "repository.match_candidates",
    "matcher.find_containment", "rewriter.apply_rewrite",
    "repository.record_use", "enumerator.inject", "manager.apply_register",
    "repository.find_equivalent", "repository.insert", "repository.remove",
    "selector.sweep", "wal.checkpoint", "wal.compact", "wal.flush",
    "ingest.enqueue", "service.flush_shards", "service.close",
]
#: what service.overhead_s sums on fabric_stream and on its serial twin
_REPOSITORY_AND_LOG = ["repository.match_candidates", "repository.record_use",
                       "repository.find_equivalent", "repository.insert",
                       "repository.remove", "wal.checkpoint", "wal.compact",
                       "wal.flush"]


def per_layer(run, plain_window, twin=None):
    """Per-layer metrics of a traced run. ``plain_window`` is the untraced
    window on the same inputs; ``twin`` the traced serial run of the same
    stream (fabric_stream only)."""
    totals = run.tracer.totals()
    counts = run.tracer.counts

    def self_time(name, of=totals):
        return of[name]["self"] if name in of else 0.0

    def calls(name):
        return totals[name]["count"] if name in totals else 0

    def longest(name):
        return max(totals[name]["durations"]) if name in totals else 0.0

    reports = run.reports
    matcher = [report.match_counters.as_dict() for report in reports]
    tried = sum(counters["candidates_tried"] for counters in matcher)
    matched = sum(counters["matched"] for counters in matcher)
    registered = sum(len(report.registered_entries) for report in reports)
    rejected = sum(len(report.rejected_candidates) for report in reports)
    checkpoints = [report.checkpoint for report in reports
                   if report.checkpoint is not None]
    submits = sorted(totals["manager.submit"]["durations"])
    metrics = {f"{name}_s": (self_time(name), "s") for name in SELF_TIME_SPANS}
    overhead = 0.0
    if twin is not None:
        twin_totals = twin.tracer.totals()
        overhead = sum(self_time(name) - self_time(name, twin_totals)
                       for name in _REPOSITORY_AND_LOG)
    metrics.update({
        "api.compile_self_s": (self_time("api.compile"), "s"),
        "mapreduce.jobs_run": (calls("mapreduce.run_job"), "count"),
        "mapreduce.jobs_eliminated": (
            sum(len(report.eliminated_jobs) for report in reports), "count"),
        "mapreduce.sim_time_s": (run.sim_reuse, "s"),
        "dfs.writes": (calls("dfs.write"), "count"),
        "dfs.appends": (calls("dfs.append"), "count"),
        "dfs.bytes_written": (counts["dfs.bytes_written"], "bytes"),
        "repository.match_candidates_calls": (
            calls("repository.match_candidates"), "count"),
        "repository.candidates_offered": (
            counts["repository.candidates_offered"], "count"),
        "matcher.calls": (calls("matcher.find_containment"), "count"),
        "matcher.hit_ratio": (matched / tried if tried else 0.0, "ratio"),
        "matcher.skipped_missing_output": (
            sum(counters["skipped_missing_output"] for counters in matcher),
            "count"),
        "rewriter.rewrites": (
            sum(len(report.rewrites) for report in reports), "count"),
        "enumerator.stores_injected": (
            sum(len(report.injected_stores) for report in reports), "count"),
        "manager.submit_self_s": (self_time("manager.submit"), "s"),
        "manager.apply_submit_end_self_s": (
            self_time("manager.apply_submit_end"), "s"),
        "manager.registered": (registered, "count"),
        "manager.duplicates": (
            calls("manager.apply_register") - registered - rejected, "count"),
        "manager.submit_p99_ms": (percentile(submits, 0.99) * 1e3, "ms"),
        "manager.submit_max_ms": (submits[-1] * 1e3, "ms"),
        "repository.inserts": (calls("repository.insert"), "count"),
        "repository.removes": (calls("repository.remove"), "count"),
        "repository.entries_final": (run.entries, "count"),
        "selector.evictions": (
            sum(len(report.evicted_entries) for report in reports), "count"),
        "selector.admission_rejects": (rejected, "count"),
        "wal.checkpoint_max_ms": (longest("wal.checkpoint") * 1e3, "ms"),
        "wal.compactions": (calls("wal.compact"), "count"),
        "wal.sections_rewritten": (
            sum(len(outcome["compacted_shards"]) for outcome in checkpoints),
            "count"),
        "wal.records_appended": (counts["wal.records_appended"], "count"),
        "wal.bytes_written": (counts["wal.bytes_written"], "bytes"),
        "wal.write_amp": (
            counts["wal.bytes_written"] / run.durable_bytes, "ratio"),
        "persistence.load_s": (run.recover, "s"),
        "persistence.entries_loaded": (run.loader["entries_loaded"], "count"),
        "persistence.records_replayed": (run.loader["replayed_records"],
                                         "count"),
        "ingest.final_flush_s": (run.final_flush, "s"),
        "ingest.lag_p50_ms": ((run.ingest.get("drain_p50") or 0.0) * 1e3,
                              "ms"),
        "ingest.lag_p99_ms": ((run.ingest.get("drain_p99") or 0.0) * 1e3,
                              "ms"),
        "ingest.max_depth": (run.ingest.get("max_queue_depth", 0), "count"),
        "ingest.batches": (run.ingest.get("batches", 0), "count"),
        "sharding.probes": (run.shard_stats.get("probes", 0), "count"),
        "sharding.candidates_returned": (
            run.shard_stats.get("candidates_returned", 0), "count"),
        "service.overhead_s": (overhead, "s"),
        "trace.window_s": (run.window, "s"),
        "trace.spans": (len(run.tracer.spans), "count"),
        "trace.overhead_ratio": (run.window / plain_window, "ratio"),
        "trace.unattributed_share": (run.unattributed, "ratio"),
    })
    return metrics


def run_workload(name, seed, seconds, trace, trace_path=None):
    """One benchmark run; returns the result object the command prints."""
    spec = SPECS[name]
    stream = Stream(spec, seed, seconds)
    expected = oracle(stream)
    setups = []
    rounds = []
    for number in range(spec.rounds):
        begin = time.perf_counter()
        context = set_up(spec, stream)
        setups.append(time.perf_counter() - begin)
        # A traced run traces its last round; the untraced ones before it
        # give the tracing overhead on identical inputs.
        rounds.append(drive(stream, expected, *context,
                            traced=trace and number == spec.rounds - 1))
    if trace:
        *plain, traced = rounds
        twin = None
        if spec.fabric:
            serial = set_up(SPECS["ingest_churn"], stream)
            twin = drive(stream, expected, *serial, traced=True)
            rounds.append(twin)
        metrics = per_layer(
            traced, statistics.median(run.window for run in plain), twin)
        if trace_path is not None:
            traced.tracer.write(trace_path)
    else:
        metrics = end_to_end(rounds, setups)
    for run in rounds:
        if run.first_error is not None:
            print(run.first_error, file=sys.stderr)
    attempted = stream.ops * len(rounds)
    failed = min(attempted, sum(run.failed for run in rounds))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {key: {"value": value, "unit": unit}
                        for key, (value, unit) in metrics.items()}}
