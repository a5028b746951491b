"""Managing the ReStore repository: retention and eviction (Section 5).

The paper's experiments keep every candidate output, but Section 5
proposes four rules for a production deployment:

1. keep a candidate only if its output is smaller than its input;
2. keep a candidate only if Equation 1 predicts a time reduction;
3. evict outputs not reused within a window of time;
4. evict outputs whose inputs were deleted or modified.

This example submits a stream of queries under both policies, then
modifies the source data to show Rule 4 invalidation, runs the same
stream against a sharded repository to show the partition layout
(identical decisions, per-shard counters), and finishes with segmented
persistence: a manager wired to a RepositoryLog checkpoints
O(delta) change records per submit into per-shard segment files, a
restart replays manifest+sections+segments into the exact same
repository, and a mutation burst confined to one shard compacts only
that shard's snapshot section (printed file listing before/after).

Run:  python examples/repository_management.py
"""

from repro import PigSystem
from repro.pigmix import PigMixConfig, PigMixData
from repro.pigmix.queries import query_text
from repro.restore import (
    HeuristicRetentionPolicy,
    KeepEverythingPolicy,
    load_repository,
    RepositoryLog,
    ShardedRepository,
)


def build_system():
    system = PigSystem()
    PigMixData(PigMixConfig(num_page_views=1_500, num_users=80)).install(system.dfs)
    scale = 150 * 1024**3 / system.dfs.file_size("/data/page_views")
    return system.with_scale(scale)


def submit_stream(restore, system, names):
    for name in names:
        restore.submit(system.compile(query_text(name), name))


def main():
    stream = ["L2", "L3", "L6", "L2", "L3", "L7", "L8", "L4"]

    print("=== keep-everything (the paper's experimental mode) ===")
    system = build_system()
    keeper = system.restore(retention=KeepEverythingPolicy())
    submit_stream(keeper, system, stream)
    print(f"entries: {len(keeper.repository)}, "
          f"stored bytes (actual): {keeper.repository.total_stored_bytes():,}")

    print("\n=== Rules 1-4, reuse window = 3 workflows ===")
    system = build_system()
    pruned = system.restore(retention=HeuristicRetentionPolicy(window_ticks=3))
    submit_stream(pruned, system, stream)
    print(f"entries: {len(pruned.repository)}, "
          f"stored bytes (actual): {pruned.repository.total_stored_bytes():,}")
    print("(smaller: Rule 1 rejects outputs bigger than their inputs, Rule 2")
    print(" rejects outputs cheaper to recompute than to reload, and Rule 3")
    print(" evicted entries idle for more than 3 workflows)")

    print("\n=== Rule 4: modifying an input invalidates stored outputs ===")
    before = len(pruned.repository)
    # Simulate a new day of logs: overwrite page_views with fresh data.
    PigMixData(PigMixConfig(num_page_views=1_500, num_users=80, seed=99)).install(
        system.dfs
    )
    pruned.submit(system.compile(query_text("L3"), "L3-after-reload"))
    report = pruned.last_report
    print(f"entries before reload: {before}, after: {len(pruned.repository)}")
    print(f"evicted by the sweep: {len(report.evicted_entries)}")
    print(f"rewrites against stale data: {report.num_rewrites} (must be 0)")
    assert report.num_rewrites == 0

    print("\nrepository after the sweep:")
    print(pruned.repository.describe())

    print("\n=== sharded repository: same decisions, partitioned layout ===")
    system = build_system()
    repository = ShardedRepository(num_shards=4)
    sharded = system.restore(repository=repository)
    submit_stream(sharded, system, stream)
    print(f"entries: {len(repository)} across {repository.num_shards} shards")
    for row in repository.shard_report():
        print(f"  shard {row['shard']:>2}: {row['occupancy']} entr(ies), "
              f"{row['probes']} probe(s), "
              f"{row['candidates_returned']} candidate(s), "
              f"{row['match_hits']} hit(s)")
    merged = repository.merged_shard_stats()
    print(f"merged: {merged['probes']} logical probe(s) over "
          f"{merged['shard_consults']} shard routing(s), "
          f"{merged['candidates_returned']} candidate(s), "
          f"{merged['match_hits']} hit(s)")
    print("(a probe is answered by the same fingerprint lookup as the")
    print(" plain repository; it counts once for each partition its load")
    print(" keys route to, and each candidate counts for its owning shard)")
    print(f"last workflow's matcher: "
          f"{sharded.last_report.match_counters.describe()}")

    print("\n=== segmented persistence: O(delta) checkpoints, "
          "O(dirty shards) compaction ===")
    system = build_system()
    log = RepositoryLog(system.dfs, compact_ratio=2.0)
    durable = system.restore(repository=ShardedRepository(num_shards=4),
                             persistence=log)
    for name in stream:
        durable.submit(system.compile(query_text(name), name))
        outcome = durable.last_report.checkpoint
        if outcome["compacted"]:
            what = (f"compacted shard(s) "
                    f"{', '.join(outcome['compacted_shards'])}")
        else:
            what = "appended to their shards' segments"
        print(f"  {name}: {outcome['appended']} change record(s) {what}")
    print(log.describe())
    restarted = load_repository(system.dfs)
    print(f"restart replayed {restarted.loader_report.replayed_records} "
          f"log record(s): {len(restarted)} entr(ies), scan order "
          f"{'identical' if [e.output_path for e in restarted.scan()] == [e.output_path for e in durable.repository.scan()] else 'DIVERGED'}")

    print("\n=== on disk: per-shard sections + segments, dirty-only "
          "compaction ===")

    def show_layout(header):
        print(header)
        for path in system.dfs.list_files("/restore/repository.jsonl"):
            print(f"  {path}  ({system.dfs.status(path).num_lines} line(s))")

    # A burst of use-stamps confined to one shard dirties only it.
    repo = durable.repository
    target = repo.shard_id_of(repo.scan()[0])
    victims = [e for e in repo.scan() if repo.shard_id_of(e) == target]
    for tick in range(100, 100 + 2 * len(repo)):
        repo.record_use(victims[tick % len(victims)], tick)
    log.flush()
    show_layout("after the burst (one shard's segment has the backlog):")
    print(f"  dirty shard(s): {log.dirty_shards()} "
          f"(mutations were confined to shard {target})")
    compacted = log.compact(log.dirty_shards())
    show_layout(f"after compacting only {compacted} — the other shards' "
                f"section files are untouched:")


if __name__ == "__main__":
    main()
