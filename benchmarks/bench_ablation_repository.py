"""Ablations beyond the paper's figures (design choices in
docs/ARCHITECTURE.md):

* matcher cost as the repository grows (ReStore scans sequentially, so
  matching is linear in repository size — Section 5 motivates eviction
  partly by "the increasing number of plans to match");
* repository ordering on/off: first-match must be best-match only when
  the partial order is maintained;
* retention policy: Rules 1-4 keep the repository small at little cost;
* **naive vs indexed repository** (PR 1): scan/insert/match timings of
  the frozen seed linear scan against the fingerprint-indexed
  repository at 10/100/1000 entries;
* **incremental persistence** (PR 4): per-checkpoint cost of
  ``save_repository`` — one full compaction, O(repository) — vs the
  append-only ``RepositoryLog`` checkpoint (O(delta)) at 1000 entries under a steady stream of
  small deltas — with the replayed state verified bit-identical;
* **segmented persistence** (PR 5): dirty-only compaction vs
  whole-repository compaction at 1000 entries across 8 shards with
  mutations confined to one shard — only the dirty shard's snapshot
  section and the manifest are rewritten and only its segment
  truncated (O(dirty shards), bar ≥3x), replay verified bit-identical;
* **worker-process service** (PR 6): the 8-shard workload with each
  partition promoted to a worker process behind the routing front-end,
  probed one plan at a time — candidate sequences bit-identical to the
  serial executor (asserted on any hardware), throughput bar ≥1.2x
  enforced on ≥4 cores;
* scan snapshot: ``scan()`` hands back one cached tuple per order.
"""

import json
import os
import time

import pytest

from repro import PigSystem
from repro.dfs import DistributedFileSystem
from repro.harness.reporting import ExperimentResult
from repro.physical.operators import POLoad, POStore
from repro.physical.plan import PhysicalPlan
from repro.pigmix import PigMixConfig, PigMixData
from repro.pigmix.queries import query_text
from repro.restore import (
    HeuristicRetentionPolicy,
    KeepEverythingPolicy,
    LinearScanRepository,
    load_repository,
    Repository,
    RepositoryEntry,
    RepositoryLog,
    save_repository,
    ShardedRepository,
)
from repro.restore.matcher import find_containment
from repro.restore.persistence import SkeletonOp
from repro.restore.stats import EntryStats


def _system_with_data():
    system = PigSystem()
    PigMixData(PigMixConfig(num_page_views=400, num_users=40,
                            num_power_users=8)).install(system.dfs)
    return system


def _populated_repository(system, num_queries):
    """Fill a repository by running PigMix queries repeatedly with
    slightly different projections (distinct plans)."""
    restore = system.restore()
    names = ["L2", "L3", "L4", "L5", "L6", "L7", "L8", "L11"]
    for index in range(num_queries):
        name = names[index % len(names)]
        restore.submit(system.compile(query_text(name), f"fill{index}"))
    return restore.repository


@pytest.mark.benchmark(group="ablation-matcher-scaling")
@pytest.mark.parametrize("fill", [4, 8, 16])
def test_matcher_cost_vs_repository_size(benchmark, fill):
    system = _system_with_data()
    repository = _populated_repository(system, fill)
    workflow = system.compile(query_text("L3"), "probe")
    job = workflow.topological_jobs()[0]

    def scan_all():
        hits = 0
        for entry in repository.scan():
            if find_containment(entry.plan, job.plan) is not None:
                hits += 1
        return hits

    hits = benchmark(scan_all)
    assert hits >= 1  # the join structure is in the repository


@pytest.mark.benchmark(group="ablation-ordering")
def test_repository_ordering_first_match_is_best(benchmark):
    """With the partial order maintained, the first matching entry for Q2
    is the subsuming join plan, not one of the projection sub-plans.

    Rewriting is disabled while populating so that the whole-job entries
    stay expressed over the original datasets (a rewritten job registers
    its plan over materialized inputs, forming chains that the manager's
    rescan loop walks instead)."""
    system = _system_with_data()
    restore = system.restore(enable_rewrite=False)
    restore.submit(system.compile(query_text("L2"), "l2"))
    restore.submit(system.compile(query_text("L3"), "l3"))
    repository = restore.repository
    workflow = system.compile(query_text("L3"), "probe")
    join_job = workflow.topological_jobs()[0]

    def first_match():
        for entry in repository.scan():
            if find_containment(entry.plan, join_job.plan) is not None:
                return entry
        return None

    entry = benchmark(first_match)
    assert entry is not None
    matched_kinds = {op.kind for op in entry.plan.operators()}
    # Best match contains the join, not just a projection.
    assert "join" in matched_kinds


@pytest.mark.benchmark(group="ablation-retention")
def test_retention_policy_bounds_repository(benchmark, record_experiment):
    """Rules 1-4 vs keep-everything: entries and stored bytes."""

    def run_policy(policy_factory, window):
        system = _system_with_data()
        restore = system.restore(retention=policy_factory())
        if window is not None:
            restore.retention.window_ticks = window
        for round_index in range(3):
            for name in ("L2", "L3", "L6"):
                restore.submit(system.compile(query_text(name), name))
        return restore

    def measure():
        keep_all = run_policy(KeepEverythingPolicy, None)
        pruned = run_policy(lambda: HeuristicRetentionPolicy(window_ticks=3), 3)
        return keep_all, pruned

    keep_all, pruned = benchmark.pedantic(measure, rounds=1, iterations=1)
    assert len(pruned.repository) <= len(keep_all.repository)
    # Both policies still allow reuse of the shared join.
    assert any(
        "join" in {op.kind for op in entry.plan.operators()}
        for entry in pruned.repository
    )

    from repro.harness.reporting import ExperimentResult

    record_experiment(ExperimentResult(
        "ablation_retention",
        "Retention policy ablation (3 rounds of L2/L3/L6)",
        ["policy", "entries", "stored_bytes"],
        [
            {"policy": "keep-everything",
             "entries": len(keep_all.repository),
             "stored_bytes": keep_all.repository.total_stored_bytes()},
            {"policy": "rules-1-4 (window=3)",
             "entries": len(pruned.repository),
             "stored_bytes": pruned.repository.total_stored_bytes()},
        ],
        notes=["beyond the paper: quantifies Section 5's guidelines"],
    ))


# --- Naive (seed linear scan) vs indexed repository (PR 1) --------------------
#
# Fabricated single-chain skeleton plans keep the fixture cheap while
# exercising exactly what the repository indexes: signatures, DAG edges,
# and leaf loads. Entries share a small pool of load paths so the
# leaf-load index has real work to do (candidate sets are non-trivial),
# and every entry's operator chain is unique so the subsumption DAG stays
# sparse — the common shape of a production repository.

_MARGINAL_INSERTS = 3
_MATCH_PROBES = 8
_EQUIV_PROBES = 8


def _fabricated_plan(index, pool_size, extra_op=None):
    load = POLoad(f"/data/d{index % pool_size}", None, 0)
    chain = SkeletonOp("filter", f"FILTER[a>{index}]", None, [load])
    if extra_op is not None:
        chain = SkeletonOp("foreach", f"FOREACH[{extra_op}]", None, [chain])
    return PhysicalPlan([POStore(chain, f"/stored/s{index}")])


def _entry_pair(index, pool_size):
    """Twin entries (indexed repo, naive repo) over one fabricated plan."""
    plan = _fabricated_plan(index, pool_size)
    stats = EntryStats(
        input_bytes=1000 + (index % 7) * 500,
        output_bytes=10 + (index % 5) * 30,
        producing_job_time=1.0 + (index % 11),
    )
    path = f"/stored/s{index}"
    return (RepositoryEntry(plan, path, stats),
            RepositoryEntry(plan, path, stats))


def _bulk_load_naive(naive, entries):
    """Populate the seed repository without paying O(n^3): the greedy
    order is a pure function of the entry set, so appending everything
    and reordering once is equivalent to n sequential inserts."""
    for sequence, entry in enumerate(entries):
        entry._sequence = sequence
    naive._entries = list(entries)
    naive._sequence = len(entries)
    naive._resort()


def _run_matcher_pass(repository, probe):
    hits = 0
    for entry in repository.match_candidates(probe):
        if find_containment(entry.plan, probe) is not None:
            hits += 1
    return hits


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


@pytest.mark.benchmark(group="ablation-indexed-repository")
@pytest.mark.parametrize("size", [10, 100, 1000])
def test_indexed_repository_vs_naive(benchmark, record_experiment, size):
    """Insert+match timings, seed linear scan vs indexed repository.

    The acceptance bar for PR 1: >=5x combined insert+match speedup at
    1000 entries, with bit-identical scan orders throughout.
    """
    pool_size = max(4, size // 10)
    pairs = [_entry_pair(index, pool_size) for index in range(size)]

    indexed = Repository()
    for indexed_entry, _ in pairs:
        indexed.insert(indexed_entry)
    naive = LinearScanRepository()
    _bulk_load_naive(naive, [naive_entry for _, naive_entry in pairs])
    assert [e.output_path for e in indexed.scan()] == \
        [e.output_path for e in naive.scan()]

    fresh = [_entry_pair(size + offset, pool_size)
             for offset in range(_MARGINAL_INSERTS)]
    # Half the probes contain a stored chain (a hit), half are foreign.
    probes = [
        _fabricated_plan(index if index % 2 == 0 else size * 2 + index,
                         pool_size, extra_op=f"probe{index}")
        for index in range(_MATCH_PROBES)
    ]
    equiv_plans = [_fabricated_plan(index * (size // _EQUIV_PROBES or 1),
                                    pool_size)
                   for index in range(_EQUIV_PROBES)]

    def measure():
        timings = {}
        timings["naive_insert"], _ = _timed(
            lambda: [naive.insert(entry) for _, entry in fresh])
        timings["indexed_insert"], _ = _timed(
            lambda: [indexed.insert(entry) for entry, _ in fresh])
        timings["naive_match"], naive_hits = _timed(
            lambda: [_run_matcher_pass(naive, probe) for probe in probes])
        timings["indexed_match"], indexed_hits = _timed(
            lambda: [_run_matcher_pass(indexed, probe) for probe in probes])
        assert naive_hits == indexed_hits
        timings["naive_equiv"], naive_found = _timed(
            lambda: [naive.find_equivalent(plan) for plan in equiv_plans])
        timings["indexed_equiv"], indexed_found = _timed(
            lambda: [indexed.find_equivalent(plan) for plan in equiv_plans])
        assert ([e and e.output_path for e in naive_found]
                == [e and e.output_path for e in indexed_found])
        return timings

    timings = benchmark.pedantic(measure, rounds=1, iterations=1)
    assert [e.output_path for e in indexed.scan()] == \
        [e.output_path for e in naive.scan()]

    naive_total = timings["naive_insert"] + timings["naive_match"]
    indexed_total = timings["indexed_insert"] + timings["indexed_match"]
    speedup = naive_total / max(indexed_total, 1e-9)
    record_experiment(ExperimentResult(
        f"ablation_indexed_repository_{size}",
        f"Naive vs indexed repository at {size} entries "
        f"({_MARGINAL_INSERTS} inserts, {_MATCH_PROBES} matcher passes, "
        f"{_EQUIV_PROBES} find_equivalent probes)",
        ["operation", "naive_s", "indexed_s", "speedup"],
        [
            {"operation": op,
             "naive_s": round(timings[f"naive_{op}"], 6),
             "indexed_s": round(timings[f"indexed_{op}"], 6),
             "speedup": round(timings[f"naive_{op}"]
                              / max(timings[f"indexed_{op}"], 1e-9), 1)}
            for op in ("insert", "match", "equiv")
        ],
        notes=[f"combined insert+match speedup: {speedup:.1f}x"],
    ))
    if size >= 1000:
        assert speedup >= 5.0, (
            f"indexed repository must be >=5x faster at {size} entries, "
            f"got {speedup:.1f}x (naive {naive_total:.4f}s, "
            f"indexed {indexed_total:.4f}s)"
        )


# --- Worker-process service: routed probes vs the serial lookup ------------
#
# A 1000-entry 8-shard workload, with the partitions promoted to worker
# processes behind the routing front-end. Each match_candidates call
# sends its probe to the routed workers before collecting any answer,
# so the per-worker filters overlap across cores. Candidate sequences
# must be bit-identical to the serial executor's throughout — that
# assertion is unconditional; the throughput bar only applies on
# hardware that can actually overlap the workers.

_SERVICE_SIZE = 1000
_SERVICE_SHARDS = 8
_SERVICE_ROUNDS = 3


@pytest.mark.benchmark(group="ablation-worker-service")
def test_worker_service_match_throughput(benchmark, record_experiment):
    """The service arm of the ablation: match throughput of the
    process-backed 8-shard repository vs the serial executor, one
    ``match_candidates`` call per plan on both, decisions bit-identical.
    On >=4 cores the overlapped workers must win (bar: >=1.2x)."""
    pool_size = max(4, _SERVICE_SIZE // 10)
    plans = [_fabricated_plan(index, pool_size)
             for index in range(_SERVICE_SIZE)]

    def populate(repository):
        for index, plan in enumerate(plans):
            stats = EntryStats(
                input_bytes=1000 + (index % 7) * 500,
                output_bytes=10 + (index % 5) * 30,
                producing_job_time=1.0 + (index % 11),
            )
            repository.insert(
                RepositoryEntry(plan, f"/stored/s{index}", stats))
        return repository

    serial = populate(ShardedRepository(num_shards=_SERVICE_SHARDS,
                                        executor="serial"))
    service = populate(ShardedRepository(num_shards=_SERVICE_SHARDS,
                                         executor="processes"))
    probes = [_fabricated_plan(_SERVICE_SIZE * 2 + index, pool_size,
                               extra_op=f"svcprobe{index}")
              for index in range(pool_size)]

    # Unconditional: the routed workers answer exactly what the serial
    # lookup answers, probe for probe, entry for entry.
    reference = [[e.output_path for e in serial.match_candidates(probe)]
                 for probe in probes]
    assert [[e.output_path for e in service.match_candidates(probe)]
            for probe in probes] == reference

    def measure():
        timings = {}
        for label, run in (
                ("serial",
                 lambda: [serial.match_candidates(probe)
                          for _ in range(_SERVICE_ROUNDS)
                          for probe in probes]),
                ("processes",
                 lambda: [service.match_candidates(probe)
                          for _ in range(_SERVICE_ROUNDS)
                          for probe in probes])):
            passes = []
            for _ in range(3):
                seconds, _ = _timed(run)
                passes.append(seconds)
            timings[label] = min(passes)
        return timings

    try:
        timings = benchmark.pedantic(measure, rounds=1, iterations=1)
    finally:
        service.close()
        serial.close()
    num_probes = len(probes) * _SERVICE_ROUNDS
    throughput = {label: num_probes / max(seconds, 1e-9)
                  for label, seconds in timings.items()}
    speedup = throughput["processes"] / max(throughput["serial"], 1e-9)
    cores = os.cpu_count() or 1
    record_experiment(ExperimentResult(
        "ablation_worker_service",
        f"Worker-process service vs serial executor "
        f"({_SERVICE_SIZE} entries, {_SERVICE_SHARDS} shards, "
        f"{num_probes} probes, one plan per call, {cores} core(s))",
        ["arm", "seconds", "probes_per_s", "speedup"],
        [
            {"arm": "serial executor",
             "seconds": round(timings["serial"], 6),
             "probes_per_s": round(throughput["serial"], 1),
             "speedup": 1.0},
            {"arm": "worker processes",
             "seconds": round(timings["processes"], 6),
             "probes_per_s": round(throughput["processes"], 1),
             "speedup": round(speedup, 2)},
        ],
        notes=[
            "decisions bit-identical to the serial lookup (asserted "
            "unconditionally)",
            f"service vs serial throughput: {speedup:.2f}x on {cores} "
            f"core(s) (bar >=1.2x, enforced at >=4 cores)",
        ],
    ))
    if cores >= 4:
        assert speedup >= 1.2, (
            f"the worker-process service must beat the serial executor "
            f"on {cores} cores at {_SERVICE_SHARDS} shards, got "
            f"{speedup:.2f}x (serial {timings['serial']:.4f}s, "
            f"processes {timings['processes']:.4f}s)"
        )


# --- Incremental persistence: append-only log vs full rewrite (PR 4) ----------
#
# The steady-state checkpoint scenario the append-only segments exist for: a
# repository of 1000 entries, mutated by a small delta (2 inserts + 1
# use-stamp) between checkpoints. The full-rewrite arm re-serializes all
# ~1000 entries every time; the incremental arm appends 3 records. Both
# arms maintain bit-identical repository state, and the incremental
# arm's durability is verified by reloading snapshot+log at the end.

_PERSIST_SIZE = 1000
_PERSIST_CHECKPOINTS = 30
_PERSIST_INSERTS_PER_ROUND = 2


@pytest.mark.benchmark(group="ablation-incremental-persistence")
def test_incremental_checkpoint_beats_full_rewrite(benchmark, record_experiment):
    """The acceptance bar for PR 4: steady-state incremental
    checkpointing must beat the full rewrite by >=5x at 1000 entries
    with small deltas, while replay rebuilds the exact same state."""
    pool_size = max(4, _PERSIST_SIZE // 10)
    full_dfs = DistributedFileSystem()
    inc_dfs = DistributedFileSystem()
    full_repo = Repository()
    inc_repo = Repository()
    for index in range(_PERSIST_SIZE):
        full_entry, inc_entry = _entry_pair(index, pool_size)
        full_repo.insert(full_entry)
        inc_repo.insert(inc_entry)
    # Baseline durability (untimed): one full save each. The default
    # compact_ratio never triggers inside the measured window (90 log
    # records over ~1000 entries), so the timings isolate the append
    # path — the steady state between compactions.
    save_repository(full_repo, full_dfs)
    log = RepositoryLog(inc_dfs).attach(inc_repo)

    def run_checkpoints():
        timings = {"full": 0.0, "incremental": 0.0}
        next_index = _PERSIST_SIZE
        for round_index in range(_PERSIST_CHECKPOINTS):
            for _ in range(_PERSIST_INSERTS_PER_ROUND):
                full_entry, inc_entry = _entry_pair(next_index, pool_size)
                next_index += 1
                full_repo.insert(full_entry)
                inc_repo.insert(inc_entry)
            position = round_index % _PERSIST_SIZE
            full_repo.scan()[position].stats.record_use(round_index)
            inc_repo.record_use(inc_repo.scan()[position], round_index)
            seconds, _ = _timed(lambda: save_repository(full_repo, full_dfs))
            timings["full"] += seconds
            seconds, outcome = _timed(log.checkpoint)
            assert not outcome["compacted"]  # steady state: appends only
            timings["incremental"] += seconds
        return timings

    timings = benchmark.pedantic(run_checkpoints, rounds=1, iterations=1)
    # Durability check: the incremental arm's snapshot+log replay must be
    # bit-identical to the live state (which equals the full arm's).
    reloaded = load_repository(inc_dfs)
    assert [e.output_path for e in reloaded.scan()] == \
        [e.output_path for e in inc_repo.scan()] == \
        [e.output_path for e in full_repo.scan()]
    assert [(e.stats.use_count, e.stats.last_used_tick)
            for e in reloaded.scan()] == \
        [(e.stats.use_count, e.stats.last_used_tick)
         for e in inc_repo.scan()]

    speedup = timings["full"] / max(timings["incremental"], 1e-9)
    per_checkpoint = {label: seconds / _PERSIST_CHECKPOINTS
                      for label, seconds in timings.items()}
    record_experiment(ExperimentResult(
        "ablation_incremental_persistence",
        f"Full rewrite vs append-only log over {_PERSIST_CHECKPOINTS} "
        f"checkpoints at {_PERSIST_SIZE}+ entries "
        f"({_PERSIST_INSERTS_PER_ROUND} inserts + 1 use-stamp per delta)",
        ["arm", "total_s", "per_checkpoint_s", "speedup"],
        [
            {"arm": "full compaction (save_repository)",
             "total_s": round(timings["full"], 6),
             "per_checkpoint_s": round(per_checkpoint["full"], 6),
             "speedup": 1.0},
            {"arm": "incremental (RepositoryLog checkpoint)",
             "total_s": round(timings["incremental"], 6),
             "per_checkpoint_s": round(per_checkpoint["incremental"], 6),
             "speedup": round(speedup, 1)},
        ],
        notes=[
            "steady-state checkpoint cost is O(delta), not O(repository)",
            f"incremental vs full rewrite: {speedup:.1f}x "
            f"(acceptance bar: >=5x)",
        ],
    ))
    assert speedup >= 5.0, (
        f"incremental checkpointing must be >=5x cheaper than the full "
        f"rewrite at {_PERSIST_SIZE} entries, got {speedup:.1f}x "
        f"(full {timings['full']:.4f}s, "
        f"incremental {timings['incremental']:.4f}s)"
    )


# --- Segmented persistence: dirty-only vs whole-repository compaction (PR 5) ---
#
# The steady-state compaction scenario the per-shard files exist for: a
# 1000-entry repository partitioned across 8 shards, with a mutation
# burst confined to a single shard. The dirty-only arm compacts just
# that shard (one section rewrite + one segment truncation + the
# keys-only manifest line); the full arm re-serializes every section.
# Both arms are driven from identical twin states, and the dirty twin's
# durability is verified by reloading manifest+sections+segments.

_SEGMENTED_SIZE = 1000
_SEGMENTED_SHARDS = 8
_SEGMENTED_STAMPS = 400


@pytest.mark.benchmark(group="ablation-segmented-persistence")
def test_segmented_compaction_is_dirty_only(benchmark, record_experiment):
    """The acceptance bar for PR 5: with 8 shards and mutations confined
    to one shard, ``compact()`` rewrites only that shard's snapshot
    section and truncates only its segment — >=3x cheaper than
    compacting the whole repository."""
    from repro.restore.persistence import (
        DEFAULT_REPOSITORY_PATH,
        section_file_prefix,
        shard_label,
    )

    pool_size = max(4, _SEGMENTED_SIZE // 10)

    def build():
        dfs = DistributedFileSystem()
        repository = ShardedRepository(num_shards=_SEGMENTED_SHARDS)
        for index in range(_SEGMENTED_SIZE):
            entry, _ = _entry_pair(index, pool_size)
            repository.insert(entry)
        # The initial full snapshot (untimed) seeds every section.
        log = RepositoryLog(dfs).attach(repository)
        return dfs, repository, log

    dirty_dfs, dirty_repo, dirty_log = build()
    full_dfs, full_repo, full_log = build()
    # Both twins share the layout (placement is a pure load-key hash).
    target = dirty_repo.shard_id_of(dirty_repo.scan()[0])
    target_label = shard_label(target)

    def stamp_one_shard(repository, log):
        victims = [entry for entry in repository.scan()
                   if repository.shard_id_of(entry) == target]
        for tick in range(_SEGMENTED_STAMPS):
            repository.record_use(victims[tick % len(victims)], tick + 1)
        log.flush()

    stamp_one_shard(dirty_repo, dirty_log)
    stamp_one_shard(full_repo, full_log)
    assert dirty_log.dirty_shards() == [target_label]

    section_prefix = section_file_prefix(DEFAULT_REPOSITORY_PATH)
    sections_before = {file: dirty_dfs.status(file).version
                       for file in dirty_dfs.list_files(prefix=section_prefix)}
    segments_before = {file: dirty_dfs.status(file).version
                       for file in dirty_dfs.list_files(
                           prefix=f"{dirty_log.log_path}.")}

    def measure():
        timings = {}
        timings["dirty_only"], compacted = _timed(
            lambda: dirty_log.compact(dirty_log.dirty_shards()))
        assert compacted == [target_label]
        timings["full"], _ = _timed(full_log.compact)
        return timings

    timings = benchmark.pedantic(measure, rounds=1, iterations=1)

    # Only the dirty shard's section was rewritten: every clean section
    # is the same file at the same version, and the one replaced file
    # belongs to the target shard.
    sections_after = {file: dirty_dfs.status(file).version
                      for file in dirty_dfs.list_files(prefix=section_prefix)}
    replaced = set(sections_before) ^ set(sections_after)
    assert {file.split(".sec-")[1].split(".g")[0] for file in replaced} \
        == {target_label}
    for file in set(sections_before) & set(sections_after):
        assert sections_before[file] == sections_after[file]
    # Only the dirty shard's segment was truncated.
    for file, version in segments_before.items():
        if file == dirty_log.segment_path(target):
            assert dirty_dfs.read_lines(file) == []
        else:
            assert dirty_dfs.status(file).version == version
    # Durability: the dirty-only twin replays bit-identical state.
    reloaded = load_repository(dirty_dfs)
    for twin in (dirty_repo, full_repo):
        assert [(e.output_path, e.stats.use_count, e.stats.last_used_tick)
                for e in reloaded.scan()] == \
            [(e.output_path, e.stats.use_count, e.stats.last_used_tick)
             for e in twin.scan()]

    # No file records the scan order (a function of the entries): the
    # dirty-only compaction wrote one section file and the manifest.
    manifest = json.loads(
        dirty_dfs.read_lines(DEFAULT_REPOSITORY_PATH)[0])
    assert not {"order", "order_log", "order_gen"} & set(manifest)
    assert dirty_dfs.list_files(
        prefix=f"{DEFAULT_REPOSITORY_PATH}.order") == []

    speedup = timings["full"] / max(timings["dirty_only"], 1e-9)
    record_experiment(ExperimentResult(
        "ablation_segmented_persistence",
        f"Dirty-only vs whole-repository compaction at {_SEGMENTED_SIZE} "
        f"entries across {_SEGMENTED_SHARDS} shards "
        f"({_SEGMENTED_STAMPS} use-stamps confined to shard "
        f"{target_label})",
        ["arm", "seconds", "sections_rewritten", "speedup"],
        [
            {"arm": "full compaction (every section)",
             "seconds": round(timings["full"], 6),
             "sections_rewritten": _SEGMENTED_SHARDS,
             "speedup": 1.0},
            {"arm": "dirty-only (v5 RepositoryLog)",
             "seconds": round(timings["dirty_only"], 6),
             "sections_rewritten": 1,
             "speedup": round(speedup, 1)},
        ],
        notes=[
            "steady-state compaction cost is O(dirty shards), not "
            "O(repository)",
            f"dirty-only vs full compaction: {speedup:.1f}x "
            f"(acceptance bar: >=3x)",
        ],
    ))
    assert speedup >= 3.0, (
        f"dirty-only compaction must be >=3x cheaper than the full "
        f"rewrite when 1 of {_SEGMENTED_SHARDS} shards is dirty, got "
        f"{speedup:.1f}x (full {timings['full']:.4f}s, "
        f"dirty-only {timings['dirty_only']:.4f}s)"
    )


@pytest.mark.benchmark(group="ablation-scan-snapshot")
def test_scan_returns_cached_immutable_snapshot(benchmark):
    """The matcher's rescan loop calls scan() per pass; the repository
    must hand back one cached tuple, not allocate a fresh list per call
    (micro-benchmark assertion for the PR 1 satellite fix)."""
    repository = Repository()
    for index in range(50):
        entry, _ = _entry_pair(index, pool_size=8)
        repository.insert(entry)

    snapshot = benchmark(repository.scan)
    assert isinstance(snapshot, tuple)
    assert repository.scan() is snapshot  # cached: no per-call allocation
