"""Incremental persistence: the change-event channel, the segmented
repository log (per-shard segments + dirty-only compaction), and
crash-safe replay (PR 4, segmented in PR 5)."""

import json
import random
import re
import threading

import pytest

from repro.common import LogicalClock
from repro.common.errors import DfsError, RepositoryError
from repro.dfs import DistributedFileSystem
from repro.physical.operators import POLoad, POStore
from repro.physical.plan import PhysicalPlan
from repro.restore import (
    HeuristicRetentionPolicy,
    load_repository,
    Repository,
    RepositoryEntry,
    RepositoryLog,
    save_repository,
    ShardedRepository,
)
from repro.restore.persistence import (
    CATCHALL_LABEL,
    MANIFEST_VERSION,
    log_key,
    MANIFEST_KEY,
    segment_file_path,
    shard_label,
    SkeletonOp,
)
from repro.restore.sharding import CATCHALL_SHARD
from repro.restore.stats import EntryStats

from tests.helpers import Q1_TEXT, Q2_TEXT, seed_page_views, seed_users

SNAPSHOT = "/restore/repository.jsonl"
LOG_BASE = "/restore/repository.jsonl.log"
#: a plain repository's single partition is the catch-all segment
SEG = f"{LOG_BASE}.{CATCHALL_LABEL}"


def fabricated_entry(index, pool=4):
    """A cheap single-chain entry over a small pool of load paths."""
    load = POLoad(f"/data/d{index % pool}", None, 0)
    chain = SkeletonOp("filter", f"FILTER[a>{index}]", None, [load])
    plan = PhysicalPlan([POStore(chain, f"/stored/s{index}")])
    stats = EntryStats(
        input_bytes=1000 + (index % 7) * 500,
        output_bytes=10 + (index % 5) * 30,
        producing_job_time=1.0 + (index % 11),
    )
    return RepositoryEntry(plan, f"/stored/s{index}", stats)


def entry_fingerprints(repository):
    return [(entry.output_path, entry.fingerprint,
             entry.stats.use_count, entry.stats.last_used_tick)
            for entry in repository.scan()]


def manifest_of(dfs, path=SNAPSHOT):
    return json.loads(dfs.read_lines(path)[0])


def segment_files(dfs, base=LOG_BASE):
    return dfs.list_files(prefix=f"{base}.")


def segment_lines(dfs, path=SEG):
    """A segment's lines, with a never-created segment (its pending
    records were subsumed by compaction before any flush) reading as
    empty — same as a truncated one."""
    return dfs.read_lines(path) if dfs.exists(path) else []


def all_segment_records(dfs, base=LOG_BASE):
    """Every parseable record across all segments, in sequence order."""
    records = []
    for file in segment_files(dfs, base):
        for line in dfs.read_lines(file):
            try:
                records.append(json.loads(line))
            except ValueError:
                pass
    return sorted(records, key=lambda record: record.get("seq", 0))


def pigmix_system():
    from repro import PigSystem

    system = PigSystem()
    seed_page_views(system.dfs)
    seed_users(system.dfs, include=range(6))
    return system


class TestChangeEventChannel:
    def test_insert_remove_use_events(self):
        repo = Repository()
        events = []
        repo.add_listener(lambda op, entry: events.append((op, entry)))
        first = repo.insert(fabricated_entry(0))
        repo.record_use(first, tick=3)
        repo.remove(first)
        assert [(op, e.output_path) for op, e in events] == [
            ("insert", "/stored/s0"),
            ("use", "/stored/s0"),
            ("remove", "/stored/s0"),
        ]
        assert first.stats.use_count == 1
        assert first.stats.last_used_tick == 3

    def test_remove_listener(self):
        repo = Repository()
        events = []
        listener = lambda op, entry: events.append(op)
        repo.add_listener(listener)
        repo.remove_listener(listener)
        repo.remove_listener(listener)  # absent: no-op
        repo.insert(fabricated_entry(0))
        assert events == []

    def test_shard_id_resolvable_during_events(self):
        repo = ShardedRepository(num_shards=4)
        shard_ids = []
        repo.add_listener(
            lambda op, entry: shard_ids.append((op, repo.shard_id_of(entry))))
        entry = repo.insert(fabricated_entry(1))
        owned = repo.shard_id_of(entry)
        repo.remove(entry)
        assert shard_ids == [("insert", owned), ("remove", owned)]
        assert owned is not None
        # After removal the ownership is gone.
        assert repo.shard_id_of(entry) is None

    def test_plain_repository_has_no_shard_ids(self):
        repo = Repository()
        entry = repo.insert(fabricated_entry(0))
        assert repo.shard_id_of(entry) is None

    def test_catchall_shard_id(self):
        repo = ShardedRepository(num_shards=2)
        # A store of a bare chain with an unkeyable load signature goes
        # to the catch-all.
        chain = SkeletonOp("filter", "FILTER[x]", None,
                           [SkeletonOp("load", "opaque-load", None, [])])
        plan = PhysicalPlan([POStore(chain, "/stored/odd")])
        entry = repo.insert(RepositoryEntry(plan, "/stored/odd",
                                            EntryStats(100, 10, 1.0)))
        assert repo.shard_id_of(entry) == CATCHALL_SHARD

    def test_shard_sizes_and_members(self):
        plain = Repository()
        entry = plain.insert(fabricated_entry(0))
        assert plain.shard_sizes() == {None: 1}
        assert plain.shard_members(None) == (entry,)
        with pytest.raises(RepositoryError):
            plain.shard_members(0)
        sharded = ShardedRepository(num_shards=2)
        entry = sharded.insert(fabricated_entry(1))
        sizes = sharded.shard_sizes()
        assert set(sizes) == {0, 1, CATCHALL_SHARD}
        assert sum(sizes.values()) == 1
        owned = sharded.shard_id_of(entry)
        assert sharded.shard_members(owned) == (entry,)
        with pytest.raises(RepositoryError):
            sharded.shard_members(99)


class TestRepositoryLogBasics:
    def test_attach_writes_initial_v5_manifest(self):
        dfs = DistributedFileSystem()
        repo = Repository()
        repo.insert(fabricated_entry(0))
        log = RepositoryLog(dfs).attach(repo)
        manifest = manifest_of(dfs)
        assert manifest[MANIFEST_KEY] == MANIFEST_VERSION
        assert manifest["log"] == LOG_BASE
        assert manifest["num_shards"] == 0
        assert manifest["entries"] == 1
        # One catch-all section + segment slot, and no record of the
        # scan order: it is a function of the entries.
        [section] = manifest["sections"]
        assert section["shard"] is None
        assert section["segment"] == SEG
        assert not {"order", "order_log", "order_gen"} & set(manifest)
        assert [json.loads(line)["key"]
                for line in dfs.read_lines(section["file"])] == ["k0"]
        assert dfs.list_files(prefix=f"{SNAPSHOT}.order") == []
        assert log.segment_path(None) == SEG

    def test_flush_appends_one_record_per_mutation(self):
        dfs = DistributedFileSystem()
        repo = Repository()
        log = RepositoryLog(dfs).attach(repo)
        first = repo.insert(fabricated_entry(0))
        repo.record_use(first, tick=1)
        repo.remove(first)
        assert log.pending_records == 3
        assert log.flush() == 3
        records = [json.loads(line) for line in dfs.read_lines(SEG)]
        assert [r["op"] for r in records] == ["insert", "use", "remove"]
        assert [r["seq"] for r in records] == [1, 2, 3]
        # Insert records carry the serialized entry; the others only the
        # stable key.
        assert "entry" in records[0]
        assert records[1]["key"] == records[2]["key"] == records[0]["key"]
        assert records[1]["use_count"] == 1
        assert records[1]["last_used_tick"] == 1

    def test_unattached_operations_raise_repository_error(self):
        # Regression: checkpoint()/compact() on a never-attached log
        # used to die with a bare AttributeError deep in the writer.
        log = RepositoryLog(DistributedFileSystem())
        with pytest.raises(RepositoryError, match="not attached"):
            log.checkpoint()
        with pytest.raises(RepositoryError, match="not attached"):
            log.compact()
        with pytest.raises(RepositoryError, match="not attached"):
            log.partition_snapshot(None)

    def test_unkeyed_events_write_no_record_and_burn_no_seq(self):
        dfs = DistributedFileSystem()
        repo = Repository()
        log = RepositoryLog(dfs).attach(repo)
        repo.insert(fabricated_entry(0))
        # Events for an entry the log never keyed (e.g. raced past a
        # detach) must not append a useless {"key": null} record — and
        # must not consume a sequence number either.
        stranger = fabricated_entry(99)
        log._on_event("remove", stranger)
        log._on_event("use", stranger)
        assert log.pending_records == 1  # just the tracked insert
        repo.insert(fabricated_entry(1))
        log.flush()
        records = [json.loads(line) for line in dfs.read_lines(SEG)]
        assert [r["seq"] for r in records] == [1, 2]  # no phantom gap

    def test_records_routed_to_owning_segments(self):
        dfs = DistributedFileSystem()
        repo = ShardedRepository(num_shards=4)
        log = RepositoryLog(dfs).attach(repo)
        entries = [repo.insert(fabricated_entry(index)) for index in range(8)]
        repo.record_use(entries[0], tick=1)
        log.flush()
        seen_shards = set()
        for file in segment_files(dfs):
            for line in dfs.read_lines(file):
                record = json.loads(line)
                seen_shards.add(record["shard"])
                # Every record sits in the segment of its own shard.
                assert file == segment_file_path(
                    LOG_BASE, shard_label(record["shard"]))
        assert seen_shards == {repo.shard_id_of(e) for e in entries}

    def test_checkpoint_appends_until_ratio_then_compacts(self):
        dfs = DistributedFileSystem()
        repo = Repository()
        for index in range(4):
            repo.insert(fabricated_entry(index))
        log = RepositoryLog(dfs, compact_ratio=0.25).attach(repo)
        repo.insert(fabricated_entry(10))
        outcome = log.checkpoint()
        assert outcome["appended"] == 1 and outcome["compacted"] is False
        assert log.log_records == 1
        repo.insert(fabricated_entry(11))
        repo.insert(fabricated_entry(12))
        # 3 log records over 7 entries crosses 0.25 -> compaction: the
        # catch-all section is rewritten and its segment truncated.
        outcome = log.checkpoint()
        assert outcome["compacted"] is True
        assert outcome["compacted_shards"] == [CATCHALL_LABEL]
        assert log.log_records == 0
        assert dfs.read_lines(SEG) == []
        assert manifest_of(dfs)["entries"] == 7

    def test_invalid_compact_ratio_rejected(self):
        with pytest.raises(ValueError):
            RepositoryLog(DistributedFileSystem(), compact_ratio=0)

    def test_double_attach_rejected(self):
        dfs = DistributedFileSystem()
        log = RepositoryLog(dfs).attach(Repository())
        with pytest.raises(RepositoryError):
            log.attach(Repository())

    def test_baseline_repository_rejected_cleanly(self):
        """The frozen seed baseline has no change-event channel; a
        failed attach must not leave the log half-attached."""
        from repro.restore import LinearScanRepository

        dfs = DistributedFileSystem()
        log = RepositoryLog(dfs)
        with pytest.raises(RepositoryError, match="change-event"):
            log.attach(LinearScanRepository())
        assert log.repository is None
        log.attach(Repository())  # still usable afterwards

    def test_attach_discards_stale_pending_from_previous_binding(self):
        """Regression: records buffered for a previously attached
        repository (detached without flushing) must not leak into the
        segments of the next attachment — they would replay ghost
        mutations and reuse sequence numbers."""
        dfs = DistributedFileSystem()
        first_repo = Repository()
        log = RepositoryLog(dfs).attach(first_repo)
        for index in range(3):
            first_repo.insert(fabricated_entry(index))
        log.flush()
        log.close()

        other = RepositoryLog(dfs).attach(load_repository(dfs))
        other.repository.insert(fabricated_entry(9))  # buffered, never flushed
        other.detach()
        assert other.pending_records == 1  # the ghost really was buffered

        reloaded = load_repository(dfs)
        other.attach(reloaded)  # same instance, new repository
        assert other.pending_records == 0  # stale buffer discarded
        reloaded.record_use(reloaded.scan()[0], tick=4)
        other.flush()
        after = load_repository(dfs)
        assert len(after) == 3  # no ghost insert replayed
        assert entry_fingerprints(after) == entry_fingerprints(reloaded)

    def test_attach_refuses_to_wipe_durable_state_with_empty_repository(self):
        """Regression: a restart that forgets load_repository() must not
        silently compact an empty repository over the durable snapshot."""
        dfs = DistributedFileSystem()
        live = Repository()
        log = RepositoryLog(dfs).attach(live)
        for index in range(3):
            live.insert(fabricated_entry(index))
        log.checkpoint()
        log.close()

        with pytest.raises(RepositoryError, match="refusing to attach"):
            RepositoryLog(dfs).attach(Repository())  # forgot to load
        assert len(load_repository(dfs)) == 3  # durable state intact
        # The correct restart path still works.
        RepositoryLog(dfs).attach(load_repository(dfs))
        # And a repository genuinely emptied *after* loading from this
        # snapshot is exempt (its loader report vouches for it).
        emptied = load_repository(dfs)
        for entry in list(emptied.scan()):
            emptied.remove(entry)
        RepositoryLog(dfs).attach(emptied)
        assert len(load_repository(dfs)) == 0

    def test_wipe_guard_not_bypassed_by_other_filesystem_load(self):
        """Regression: a loader report from a *different* DFS (same path
        string) must not vouch for this one — an empty repository loaded
        from a fresh filesystem would otherwise slip past the guard and
        compact over real durable state."""
        dfs_a = DistributedFileSystem()
        dfs_b = DistributedFileSystem()
        live = Repository()
        log = RepositoryLog(dfs_b).attach(live)
        live.insert(fabricated_entry(0))
        log.checkpoint()
        log.close()

        empty = load_repository(dfs_a)  # wrong filesystem, same path
        with pytest.raises(RepositoryError, match="refusing to attach"):
            RepositoryLog(dfs_b).attach(empty)
        assert len(load_repository(dfs_b)) == 1  # durable state intact

    def test_full_save_subsumes_segments(self):
        """save_repository on the path an attached log owns *is*
        log.compact(): the checkpointed records move into the sections,
        the segment is truncated, and the log keeps appending to files
        the new manifest references — so a post-save insert + checkpoint
        reloads (a second writer used to strand it)."""
        dfs = DistributedFileSystem()
        live = Repository()
        log = RepositoryLog(dfs, compact_ratio=100.0).attach(live)
        live.insert(fabricated_entry(0))
        log.checkpoint()
        assert len(dfs.read_lines(SEG)) == 1
        save_repository(live, dfs, SNAPSHOT)
        assert segment_lines(dfs) == []
        assert live.persistence_log is log
        reloaded = load_repository(dfs)
        assert len(reloaded) == 1
        assert reloaded.loader_report.replayed_records == 0
        live.insert(fabricated_entry(1))
        log.checkpoint()
        after = load_repository(dfs)
        assert after.loader_report.replayed_records == 1
        assert entry_fingerprints(after) == entry_fingerprints(live)

    def test_full_save_elsewhere_leaves_the_attached_log_alone(self):
        dfs = DistributedFileSystem()
        live = Repository()
        log = RepositoryLog(dfs, compact_ratio=100.0).attach(live)
        live.insert(fabricated_entry(0))
        log.checkpoint()
        owned = {file: dfs.read_lines(file)
                 for file in dfs.list_files(prefix=SNAPSHOT)}
        save_repository(live, dfs, "/backup/repository.jsonl")
        assert live.persistence_log is log
        assert {file: dfs.read_lines(file)
                for file in dfs.list_files(prefix=SNAPSHOT)} == owned
        backup = load_repository(dfs, "/backup/repository.jsonl")
        assert entry_fingerprints(backup) == entry_fingerprints(live)
        live.insert(fabricated_entry(1))
        log.checkpoint()
        assert entry_fingerprints(load_repository(dfs)) == \
            entry_fingerprints(live)

    def test_deleted_snapshot_does_not_let_attach_wipe_the_segments(self):
        """Regression: deleting the manifest while the segments still
        hold records must not turn into a silent wipe — the load warns
        about the un-replayable segments, and the empty reload does not
        vouch its way past attach's wipe guard."""
        dfs = DistributedFileSystem()
        live = Repository()
        log = RepositoryLog(dfs, compact_ratio=100.0).attach(live)
        for index in range(3):
            live.insert(fabricated_entry(index))
        log.checkpoint()
        log.close()
        dfs.delete(SNAPSHOT)  # operator cleanup gone wrong

        with pytest.warns(RuntimeWarning, match="cannot be replayed"):
            empty = load_repository(dfs)
        assert len(empty) == 0
        assert empty.loader_report.orphaned_log_records == 3
        with pytest.raises(RepositoryError, match="refusing to attach"):
            RepositoryLog(dfs).attach(empty)
        assert len(dfs.read_lines(SEG)) == 3  # the segment survives

    def test_second_log_on_same_repository_rejected(self):
        """Regression: two RepositoryLogs on one repository would buffer
        every mutation twice (one forever) and interleave independent
        sequence counters into shared files."""
        dfs = DistributedFileSystem()
        repo = Repository()
        first = RepositoryLog(dfs).attach(repo)
        with pytest.raises(RepositoryError, match="already has an attached"):
            RepositoryLog(dfs, "/restore/elsewhere").attach(repo)
        first.close()
        RepositoryLog(dfs).attach(repo)  # fine after detach

    def test_full_save_subsumes_custom_log_path(self):
        """The full save truncates the *custom-path* segments the
        manifest it overwrites points at, and keeps pointing at them —
        attached (the log's own base) or not (the base is read from the
        manifest), so no pre-save record is stranded."""
        custom = f"/custom/wal.{CATCHALL_LABEL}"
        dfs = DistributedFileSystem()
        live = Repository()
        log = RepositoryLog(dfs, log_path="/custom/wal",
                            compact_ratio=100.0).attach(live)
        live.insert(fabricated_entry(0))
        log.checkpoint()
        assert len(dfs.read_lines(custom)) == 1
        save_repository(live, dfs, SNAPSHOT)
        assert dfs.read_lines(custom) == []
        live.insert(fabricated_entry(1))
        log.checkpoint()
        assert entry_fingerprints(load_repository(dfs)) == \
            entry_fingerprints(live)
        log.close()
        save_repository(live, dfs, SNAPSHOT)  # no log attached any more
        assert manifest_of(dfs)["log"] == "/custom/wal"
        assert dfs.read_lines(custom) == []
        assert entry_fingerprints(load_repository(dfs)) == \
            entry_fingerprints(live)

    def test_reattach_same_repository_is_idempotent(self):
        dfs = DistributedFileSystem()
        repo = Repository()
        log = RepositoryLog(dfs).attach(repo)
        assert log.attach(repo) is log
        repo.insert(fabricated_entry(0))
        assert log.pending_records == 1  # exactly one subscription

    def test_describe_mentions_paths_and_ratio(self):
        dfs = DistributedFileSystem()
        log = RepositoryLog(dfs, compact_ratio=2.0)
        # Safe before attach too (debuggers repr freely).
        assert "unattached" in log.describe()
        assert log.log_ratio() == 0.0
        log.attach(Repository())
        text = log.describe()
        assert SNAPSHOT in text and LOG_BASE in text and "2.0" in text
        assert repr(log).startswith("<RepositoryLog")

    def test_failed_compaction_keeps_pending_records(self):
        """Regression: compact() must not drop the buffered records
        until the section writes actually land — a caller that catches
        the error and retries must still be able to persist them."""
        dfs = DistributedFileSystem()
        repo = Repository()
        log = RepositoryLog(dfs, compact_ratio=0.01).attach(repo)
        repo.insert(fabricated_entry(0))
        assert log.pending_records == 1
        log.path = "relative-and-invalid"  # section write will raise
        with pytest.raises(DfsError):
            log.checkpoint()
        assert log.pending_records == 1  # nothing lost
        log.path = SNAPSHOT
        assert log.checkpoint()["compacted"] is True
        reloaded = load_repository(dfs)
        assert entry_fingerprints(reloaded) == entry_fingerprints(repo)

    def test_close_flushes_and_detaches(self):
        dfs = DistributedFileSystem()
        repo = Repository()
        log = RepositoryLog(dfs).attach(repo)
        repo.insert(fabricated_entry(0))
        log.close()
        assert len(dfs.read_lines(SEG)) == 1
        repo.insert(fabricated_entry(1))  # no longer observed
        assert log.pending_records == 0


class TestDirtyOnlyCompaction:
    def _sharded_state(self, num_entries=24, num_shards=4):
        dfs = DistributedFileSystem()
        live = ShardedRepository(num_shards=num_shards)
        for index in range(num_entries):
            live.insert(fabricated_entry(index, pool=num_entries // 2))
        log = RepositoryLog(dfs).attach(live)  # initial full compaction
        return dfs, live, log

    def _stamp_shard(self, live, shard_id, count, start_tick=1):
        victims = [e for e in live.scan() if live.shard_id_of(e) == shard_id]
        for tick in range(start_tick, start_tick + count):
            live.record_use(victims[tick % len(victims)], tick)

    def test_compact_rewrites_only_dirty_sections(self):
        dfs, live, log = self._sharded_state()
        target = live.shard_id_of(live.scan()[0])
        label = shard_label(target)
        before = {file: dfs.status(file).version
                  for file in dfs.list_files(prefix=f"{SNAPSHOT}.sec-")}
        # Mutations confined to one shard dirty only that shard.
        self._stamp_shard(live, target, count=2 * len(live))
        assert log.dirty_shards() == [label]
        outcome = log.checkpoint()
        assert outcome["compacted"] is True
        assert outcome["compacted_shards"] == [label]
        after = {file: dfs.status(file).version
                 for file in dfs.list_files(prefix=f"{SNAPSHOT}.sec-")}
        # Exactly one section changed: the dirty shard got a fresh
        # generation file, every clean section is byte-for-byte the same
        # file (same name, same version — reused, not rewritten).
        changed_out = set(before) - set(after)
        changed_in = set(after) - set(before)
        assert {file.split(".sec-")[1].split(".g")[0]
                for file in changed_out | changed_in} == {label}
        for file in set(before) & set(after):
            assert before[file] == after[file]
        # Only the dirty shard's segment was truncated.
        assert segment_lines(dfs, log.segment_path(target)) == []
        reloaded = load_repository(dfs)
        assert entry_fingerprints(reloaded) == entry_fingerprints(live)

    def test_clean_segments_untouched_by_dirty_compaction(self):
        dfs, live, log = self._sharded_state()
        target = live.shard_id_of(live.scan()[0])
        other = next(live.shard_id_of(e) for e in live.scan()
                     if live.shard_id_of(e) != target)
        # One record in the clean shard, many in the dirty one.
        self._stamp_shard(live, other, count=1)
        self._stamp_shard(live, target, count=2 * len(live), start_tick=50)
        log.flush()
        clean_version = dfs.status(log.segment_path(other)).version
        assert log.dirty_shards() == [shard_label(target)]
        log.checkpoint()
        assert dfs.status(log.segment_path(other)).version == clean_version
        assert len(dfs.read_lines(log.segment_path(other))) == 1
        reloaded = load_repository(dfs)
        assert entry_fingerprints(reloaded) == entry_fingerprints(live)

    def test_full_compact_truncates_every_segment(self):
        dfs, live, log = self._sharded_state()
        self._stamp_shard(live, live.shard_id_of(live.scan()[0]), count=3)
        log.flush()
        compacted = log.compact()
        sizes = {shard_label(s) for s in live.shard_sizes()}
        assert set(compacted) == sizes
        assert log.log_records == 0
        for file in segment_files(dfs):
            assert dfs.read_lines(file) == []

    def test_compact_unknown_shard_rejected(self):
        dfs, live, log = self._sharded_state()
        with pytest.raises(RepositoryError, match="unknown partition"):
            log.compact(["nope"])

    def test_segment_record_counts_track_per_shard(self):
        dfs, live, log = self._sharded_state()
        target = live.shard_id_of(live.scan()[0])
        self._stamp_shard(live, target, count=3)
        log.flush()
        assert log.segment_record_counts() == {shard_label(target): 3}

    def test_superseded_generations_are_collected(self):
        dfs, live, log = self._sharded_state()
        target = live.shard_id_of(live.scan()[0])
        self._stamp_shard(live, target, count=2 * len(live))
        log.checkpoint()
        manifest = manifest_of(dfs)
        referenced = {section["file"] for section in manifest["sections"]
                      if section["file"] is not None}
        on_disk = set(dfs.list_files(prefix=f"{SNAPSHOT}.sec-"))
        assert on_disk == referenced  # no orphan generations left behind


class TestExecutorsWriteTheSameBytes:
    def test_every_durable_file_matches(self):
        """One seeded insert / remove / use-stamp stream with periodic
        checkpoints, through ``executor="serial"`` and
        ``executor="processes"``: the front-end log is the only writer
        either way, so every file under the repository path must match
        byte for byte — manifest, section generations, segments, order
        log — dirty-only compactions included."""
        rng = random.Random(2407)
        serial_dfs, procs_dfs = DistributedFileSystem(), DistributedFileSystem()
        serial = ShardedRepository(num_shards=4, executor="serial")
        procs = ShardedRepository(num_shards=4, executor="processes")
        repositories = (serial, procs)
        logs = (RepositoryLog(serial_dfs).attach(serial),
                RepositoryLog(procs_dfs).attach(procs))
        compacted_counts = set()
        try:
            for step in range(150):
                action = rng.random()
                if action < 0.35 or not len(serial):
                    for live in repositories:
                        live.insert(fabricated_entry(step, pool=6))
                elif action < 0.45:
                    position = rng.randrange(len(serial))
                    for live in repositories:
                        live.remove(live.scan()[position])
                else:
                    position = rng.randrange(len(serial))
                    for live in repositories:
                        live.record_use(live.scan()[position], step)
                if step % 5 == 4:
                    # A probe first, so the process arm's workers are
                    # live (and fed) when the checkpoint runs.
                    probe = fabricated_entry(1000 + step, pool=6).plan
                    assert [e.output_path
                            for e in procs.match_candidates(probe)] \
                        == [e.output_path
                            for e in serial.match_candidates(probe)], step
                    outcome = logs[0].checkpoint()
                    assert logs[1].checkpoint() == outcome, step
                    compacted_counts.add(len(outcome["compacted_shards"]))
            assert procs.worker_pool._workers  # really process-backed
            # The stream crossed both checkpoint kinds: plain appends and
            # compactions of a strict subset of the partitions.
            assert 0 in compacted_counts
            assert any(0 < count < len(serial.shard_sizes())
                       for count in compacted_counts)
            files = sorted(serial_dfs.list_files(prefix="/restore/"))
            assert files == sorted(procs_dfs.list_files(prefix="/restore/"))
            assert any(".sec-" in file for file in files)
            assert any(serial_dfs.read_lines(file)
                       for file in segment_files(serial_dfs))
            for file in files:
                assert serial_dfs.read_lines(file) \
                    == procs_dfs.read_lines(file), file
        finally:
            for live, log in zip(repositories, logs):
                log.close()
                live.close()


class TestSnapshotCompactionBarrier:
    def test_concurrent_snapshot_during_compact(self):
        """``partition_snapshot`` holds the log mutex for its whole read
        — the mutex *is* the compaction barrier (worker re-seeds race
        checkpoints in the process-backed pools). A barrier-less read
        could catch compaction's window between the manifest swap and
        the segment truncation/GC: a superseded section file already
        deleted (keys vanish) or a pending buffer popped before its
        records are subsumed durably (use counts regress). Hammer
        snapshots from a thread through many use-stamp/compact rounds:
        every observed snapshot must hold the full key set with
        monotonically non-decreasing use counts."""
        dfs = DistributedFileSystem()
        live = ShardedRepository(num_shards=2)
        entries = [fabricated_entry(index) for index in range(10)]
        for entry in entries:
            live.insert(entry)
        log = RepositoryLog(dfs).attach(live)
        try:
            sizes = live.shard_sizes()
            shard_id = max(sizes, key=lambda sid: sizes[sid])
            expected_keys = set(log.partition_snapshot(shard_id))
            assert expected_keys
            failures = []
            stop = threading.Event()

            def hammer():
                last_counts = {}
                while not stop.is_set():
                    try:
                        snapshot = log.partition_snapshot(shard_id)
                    except Exception as error:
                        failures.append(("raised", repr(error)))
                        return
                    if set(snapshot) != expected_keys:
                        failures.append(("keys", set(snapshot)))
                        return
                    for key, entry_json in snapshot.items():
                        count = entry_json["stats"]["use_count"]
                        if count < last_counts.get(key, 0):
                            failures.append(("regressed", key, count,
                                             last_counts[key]))
                            return
                        last_counts[key] = count

            thread = threading.Thread(target=hammer)
            thread.start()
            tick = 0
            rounds = 30
            try:
                for _ in range(rounds):
                    for entry in entries:
                        tick += 1
                        live.record_use(entry, tick)
                    log.compact()
            finally:
                stop.set()
                thread.join(timeout=30.0)
            assert not thread.is_alive()
            assert not failures, failures[0]
            final = log.partition_snapshot(shard_id)
            assert set(final) == expected_keys
            assert all(entry_json["stats"]["use_count"] == rounds
                       for entry_json in final.values())
        finally:
            log.close()
            live.close()


class TestReplay:
    def _mutate(self, repo, log):
        entries = [repo.insert(fabricated_entry(i)) for i in range(6)]
        repo.record_use(entries[2], tick=5)
        repo.remove(entries[1])
        repo.record_use(entries[2], tick=9)
        log.flush()
        return entries

    def test_legacy_null_key_records_are_noops_not_dangling(self):
        # A pre-fix writer could leave {"key": null} remove/use records
        # in a segment. The loader must treat them as no-ops referencing
        # nothing durable — not count them as dangling removes.
        dfs = DistributedFileSystem()
        repo = Repository()
        log = RepositoryLog(dfs).attach(repo)
        for index in range(3):
            repo.insert(fabricated_entry(index))
        log.flush()
        dfs.append_lines(SEG, [
            json.dumps({"op": "remove", "shard": None, "seq": 90,
                        "key": None}),
            json.dumps({"op": "use", "shard": None, "seq": 91, "key": None,
                        "use_count": 3, "last_used_tick": 7}),
        ])
        reloaded = load_repository(dfs)
        assert len(reloaded) == 3
        assert reloaded.loader_report.dangling_records == 0
        assert entry_fingerprints(reloaded) == entry_fingerprints(repo)

    @pytest.mark.parametrize("make_repo", [
        Repository, lambda: ShardedRepository(num_shards=4)])
    def test_sections_plus_segments_replay_is_bit_identical(self, make_repo):
        dfs = DistributedFileSystem()
        live = make_repo()
        log = RepositoryLog(dfs).attach(live)
        self._mutate(live, log)
        reloaded = load_repository(dfs)
        assert type(reloaded) is type(live)
        assert entry_fingerprints(reloaded) == entry_fingerprints(live)
        report = reloaded.loader_report
        assert report.format_version == MANIFEST_VERSION
        assert report.replayed_records == report.log_records == 9
        assert report.torn_tail_dropped == 0

    def test_sharded_layout_survives_replay(self):
        dfs = DistributedFileSystem()
        live = ShardedRepository(num_shards=4)
        log = RepositoryLog(dfs).attach(live)
        self._mutate(live, log)
        reloaded = load_repository(dfs)
        assert [[e.output_path for e in shard] for shard in reloaded.partitions()] \
            == [[e.output_path for e in shard] for shard in live.partitions()]

    def test_torn_final_line_is_dropped_not_fatal(self):
        dfs = DistributedFileSystem()
        live = Repository()
        log = RepositoryLog(dfs).attach(live)
        self._mutate(live, log)
        # A crash mid-append leaves a partial final line.
        dfs.append_lines(SEG, ['{"seq": 999, "op": "ins'])
        reloaded = load_repository(dfs)
        assert entry_fingerprints(reloaded) == entry_fingerprints(live)
        assert reloaded.loader_report.torn_tail_dropped == 1

    def test_torn_tails_tolerated_per_segment(self):
        """Each segment independently tolerates its own torn final line
        — a crash mid-flush can leave several (one per appended file)."""
        dfs = DistributedFileSystem()
        live = ShardedRepository(num_shards=4)
        log = RepositoryLog(dfs).attach(live)
        self._mutate(live, log)
        torn = 0
        for file in segment_files(dfs):
            if dfs.read_lines(file):
                dfs.append_lines(file, ['{"seq": 999, "op'])
                torn += 1
        assert torn >= 2  # the mutations really did span shards
        reloaded = load_repository(dfs)
        assert entry_fingerprints(reloaded) == entry_fingerprints(live)
        assert reloaded.loader_report.torn_tail_dropped == torn

    def test_torn_middle_line_is_fatal(self):
        dfs = DistributedFileSystem()
        live = Repository()
        log = RepositoryLog(dfs).attach(live)
        self._mutate(live, log)
        lines = dfs.read_lines(SEG)
        dfs.write_lines(SEG, lines[:2] + ['{"torn'] + lines[2:], overwrite=True)
        with pytest.raises(RepositoryError):
            load_repository(dfs)

    def test_log_referencing_removed_entry_is_skipped(self):
        """A use/remove record whose target was removed earlier in the
        segment counts as dangling instead of failing the restart."""
        dfs = DistributedFileSystem()
        live = Repository()
        log = RepositoryLog(dfs).attach(live)
        entry = live.insert(fabricated_entry(0))
        live.remove(entry)
        log.flush()
        key = json.loads(dfs.read_lines(SEG)[0])["key"]
        dfs.append_lines(SEG, [
            json.dumps({"seq": 3, "op": "use", "shard": None, "key": key,
                        "use_count": 4, "last_used_tick": 9}),
            json.dumps({"seq": 4, "op": "remove", "shard": None, "key": key}),
            json.dumps({"seq": 5, "op": "frobnicate", "shard": None}),
        ])
        reloaded = load_repository(dfs)
        assert len(reloaded) == 0
        assert reloaded.loader_report.dangling_records == 3
        assert reloaded.loader_report.replayed_records == 2

    def test_tie_break_sequences_survive_replay(self):
        """Regression: the insertion sequence (the scan order's final
        tie-break) must round-trip. A subsumption edge can hold an early
        entry back so the snapshot's scan order inverts metric-tied
        entries relative to insertion order; if reload re-minted
        sequences from scan positions, the next order recompute would
        break the tie differently than the live repository."""
        def chain_entry(signature, path, stats, wrap=None):
            op = SkeletonOp("filter", signature, None,
                            [POLoad("/data/t", None, 0)])
            if wrap is not None:
                op = SkeletonOp("foreach", wrap, None, [op])
            return RepositoryEntry(PhysicalPlan([POStore(op, path)]), path,
                                   stats)

        dfs = DistributedFileSystem()
        live = Repository()
        log = RepositoryLog(dfs).attach(live)
        # X and Y tie on every metric; W strictly contains X but has the
        # worst metrics, so the greedy order is [Y, W, X] — X (inserted
        # first) scans after Y.
        x = live.insert(chain_entry("FILTER[x]", "/s/x",
                                    EntryStats(1000, 10, 5.0)))
        y = live.insert(chain_entry("FILTER[y]", "/s/y",
                                    EntryStats(1000, 10, 5.0)))
        w = live.insert(chain_entry("FILTER[x]", "/s/w",
                                    EntryStats(1000, 1000, 1.0),
                                    wrap="FOREACH[w]"))
        assert [e.output_path for e in live.scan()] == ["/s/y", "/s/w", "/s/x"]
        log.compact()
        # Removing W frees X; the insert of Z recomputes the order, and
        # the X-vs-Y tie resolves by insertion sequence: X first.
        live.remove(w)
        live.insert(chain_entry("FILTER[z]", "/s/z",
                                EntryStats(1000, 20, 1.0)))
        log.flush()
        assert [e.output_path for e in live.scan()] == ["/s/x", "/s/y", "/s/z"]
        reloaded = load_repository(dfs)
        assert [e.output_path for e in reloaded.scan()] == \
            [e.output_path for e in live.scan()]

    def test_insert_after_reload_orders_tied_entries_like_live(self):
        """The loader inserts section entries before the segment records
        of uncompacted shards, each under its recorded tie-break
        sequence. With every metric tied, only the sequence orders the
        entries, so the order after the next insert must see the
        recorded sequences."""
        def tied_entry(index):
            load = POLoad(f"/data/d{index % 4}", None, 0)
            chain = SkeletonOp("filter", f"FILTER[a>{index}]", None, [load])
            plan = PhysicalPlan([POStore(chain, f"/stored/t{index}")])
            return RepositoryEntry(plan, f"/stored/t{index}",
                                   EntryStats(1000, 10, 5.0))

        dfs = DistributedFileSystem()
        live = ShardedRepository(num_shards=4)
        log = RepositoryLog(dfs).attach(live)
        entries = [live.insert(tied_entry(index)) for index in range(8)]
        live.remove(entries[1])
        # Only the youngest entry's shard gets a section; the older
        # entries of the other shards stay segment records.
        log.compact(shards=[shard_label(live.shard_id_of(entries[-1]))])
        reloaded = load_repository(dfs)
        assert [e.output_path for e in reloaded.scan()] == \
            [e.output_path for e in live.scan()]
        live.insert(tied_entry(99))
        reloaded.insert(tied_entry(99))
        assert [e.output_path for e in reloaded.scan()] == \
            [e.output_path for e in live.scan()]

    def test_compaction_mid_stream(self):
        """Mutations → compaction → more mutations → reload: replay
        starts from the compacted sections, not the full history."""
        dfs = DistributedFileSystem()
        live = Repository()
        log = RepositoryLog(dfs).attach(live)
        before = [live.insert(fabricated_entry(i)) for i in range(4)]
        live.remove(before[0])
        log.compact()
        assert segment_lines(dfs) == []
        live.insert(fabricated_entry(10))
        live.record_use(before[2], tick=7)
        log.flush()
        assert log.log_records == 2
        reloaded = load_repository(dfs)
        assert entry_fingerprints(reloaded) == entry_fingerprints(live)
        assert reloaded.loader_report.replayed_records == 2

    def test_crash_between_section_rewrite_and_truncation(self):
        """Compaction re-points the manifest before truncating the dirty
        segments; a crash in between leaves pre-compaction records,
        which replay must skip as stale (their seq is covered by the new
        section's base_seq watermark)."""
        dfs = DistributedFileSystem()
        live = Repository()
        log = RepositoryLog(dfs).attach(live)
        entries = [live.insert(fabricated_entry(i)) for i in range(3)]
        live.record_use(entries[0], tick=2)
        log.flush()
        old_segment = dfs.read_lines(SEG)
        log.compact()
        # Simulate the crash: the old segment contents come back.
        dfs.write_lines(SEG, old_segment, overwrite=True)
        reloaded = load_repository(dfs)
        assert entry_fingerprints(reloaded) == entry_fingerprints(live)
        assert reloaded.loader_report.stale_records == len(old_segment)
        assert reloaded.loader_report.replayed_records == 0

    def test_crash_between_one_shards_rewrite_and_truncation(self):
        """The same crash window, per shard: only the compacted shard's
        segment reverts, and only its records are stale — the clean
        shards' records still replay."""
        dfs = DistributedFileSystem()
        live = ShardedRepository(num_shards=4)
        log = RepositoryLog(dfs).attach(live)
        for index in range(12):
            live.insert(fabricated_entry(index, pool=8))
        target = live.shard_id_of(live.scan()[0])
        log.flush()
        old_segment = dfs.read_lines(log.segment_path(target))
        assert old_segment  # the target shard really has records
        log.compact([shard_label(target)])
        dfs.write_lines(log.segment_path(target), old_segment, overwrite=True)
        reloaded = load_repository(dfs)
        assert entry_fingerprints(reloaded) == entry_fingerprints(live)
        assert reloaded.loader_report.stale_records == len(old_segment)
        assert reloaded.loader_report.replayed_records > 0  # clean shards

    def test_unreferenced_section_generation_is_ignored(self):
        """A crash between writing a new section file and the manifest
        swap leaves an unreferenced generation on disk: the loader must
        ignore it, and the next compaction collects it."""
        dfs = DistributedFileSystem()
        live = Repository()
        log = RepositoryLog(dfs).attach(live)
        entries = [live.insert(fabricated_entry(i)) for i in range(3)]
        log.compact()
        orphan = f"{SNAPSHOT}.sec-{CATCHALL_LABEL}.g999"
        dfs.write_lines(orphan, ["{bogus"])
        reloaded = load_repository(dfs)
        assert entry_fingerprints(reloaded) == entry_fingerprints(live)
        live.record_use(entries[0], tick=3)
        log.compact()
        assert not dfs.exists(orphan)  # collected

    def test_nonresumable_attach_compaction_crash_leaves_no_fresh_ghosts(self):
        """Regression: a non-resumable attach over existing durable
        state must compact with watermarks above every sequence already
        in the old segments — otherwise a crash between the manifest
        swap and the segment truncation leaves the era-1 records
        replaying as fresh mutations on top of sections that never saw
        them."""
        dfs = DistributedFileSystem()
        era1 = Repository()
        log1 = RepositoryLog(dfs).attach(era1)
        for index in range(3):
            era1.insert(fabricated_entry(index))
        log1.flush()  # the catch-all segment holds seqs 1..3
        log1.close()
        old_segment = dfs.read_lines(SEG)

        # A new process attaches a *non-empty* in-memory repository at
        # the same path (bypassing the empty-repo wipe guard); attach
        # compacts. Simulate a crash between the manifest swap and the
        # segment truncation by restoring the era-1 segment afterwards.
        era2 = Repository()
        era2.insert(fabricated_entry(10))
        RepositoryLog(dfs).attach(era2)
        dfs.write_lines(SEG, old_segment, overwrite=True)

        reloaded = load_repository(dfs)
        assert entry_fingerprints(reloaded) == entry_fingerprints(era2)
        assert len(reloaded) == 1  # the era-1 records were stale, not fresh
        assert reloaded.loader_report.stale_records == len(old_segment)

    def test_missing_segment_file_loads_sections_alone(self):
        dfs = DistributedFileSystem()
        live = Repository()
        log = RepositoryLog(dfs).attach(live)
        live.insert(fabricated_entry(0))
        log.compact()
        dfs.delete_if_exists(SEG)
        reloaded = load_repository(dfs)
        assert entry_fingerprints(reloaded) == entry_fingerprints(live)

    def test_truncated_section_rejected(self):
        dfs = DistributedFileSystem()
        live = Repository()
        log = RepositoryLog(dfs).attach(live)
        for i in range(3):
            live.insert(fabricated_entry(i))
        log.compact()
        [section_file] = dfs.list_files(prefix=f"{SNAPSHOT}.sec-")
        dfs.write_lines(section_file, dfs.read_lines(section_file)[:-1],
                        overwrite=True)
        with pytest.raises(RepositoryError, match="truncated"):
            load_repository(dfs)

class TestResume:
    def test_reattach_resumes_sequence_and_keys(self):
        dfs = DistributedFileSystem()
        live = Repository()
        log = RepositoryLog(dfs).attach(live)
        entries = [live.insert(fabricated_entry(i)) for i in range(3)]
        live.record_use(entries[1], tick=4)
        log.flush()
        log.close()

        reloaded = load_repository(dfs)
        snapshot_version = dfs.status(SNAPSHOT).version
        resumed = RepositoryLog(dfs).attach(reloaded)
        # Clean resume: no snapshot rewrite, appending continues.
        assert dfs.status(SNAPSHOT).version == snapshot_version
        target = next(e for e in reloaded.scan()
                      if e.output_path == entries[1].output_path)
        reloaded.record_use(target, tick=8)
        reloaded.insert(fabricated_entry(20))
        resumed.flush()
        second = load_repository(dfs)
        assert entry_fingerprints(second) == entry_fingerprints(reloaded)
        # The resumed records extend the original sequence numbers.
        seqs = [record["seq"] for record in all_segment_records(dfs)]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)

    def test_replay_state_is_single_use(self):
        """Regression: the loader's replay state describes the
        repository *as loaded*. A second attach — after mutations were
        logged and compacted through another RepositoryLog — must not
        rewind the sequence counter to load time, or records appended
        afterwards would sit at or below the on-DFS watermarks and be
        silently skipped as stale on the next reload."""
        dfs = DistributedFileSystem()
        live = Repository()
        first = RepositoryLog(dfs).attach(live)
        entries = [live.insert(fabricated_entry(i)) for i in range(3)]
        first.flush()
        first.close()

        reloaded = load_repository(dfs)
        second = RepositoryLog(dfs).attach(reloaded)
        # Mutate and compact: the on-DFS watermarks move past load time.
        for tick in range(4, 8):
            reloaded.record_use(reloaded.scan()[0], tick)
        second.compact()
        second.detach()

        third = RepositoryLog(dfs).attach(reloaded)
        reloaded.record_use(reloaded.scan()[0], 9)
        third.flush()
        after_crash = load_repository(dfs)
        assert entry_fingerprints(after_crash) == entry_fingerprints(reloaded)
        assert after_crash.loader_report.stale_records == 0
        assert after_crash.scan()[0].stats.last_used_tick == 9

    def test_mutations_between_load_and_attach_are_persisted(self):
        """Regression: removals and use-stamps applied to a reloaded
        repository *before* a RepositoryLog attaches happen outside the
        listener, so the clean-resume path must notice them and compact
        — otherwise a later reload resurrects the removed entry and
        drops the stamp."""
        dfs = DistributedFileSystem()
        live = Repository()
        first = RepositoryLog(dfs).attach(live)
        for index in range(3):
            live.insert(fabricated_entry(index))
        first.flush()
        first.close()

        reloaded = load_repository(dfs)
        reloaded.remove(reloaded.scan()[0])
        reloaded.record_use(reloaded.scan()[0], tick=5)
        RepositoryLog(dfs).attach(reloaded).checkpoint()

        after = load_repository(dfs)
        assert entry_fingerprints(after) == entry_fingerprints(reloaded)
        assert len(after) == 2
        assert after.scan()[0].stats.use_count == 1

    def test_removed_keys_are_not_minted_again_after_a_resume(self):
        """Regression: a removed entry's key lives on in its shard's
        segment. A resumed log that minted it again for an entry of
        another shard, then compacted only that shard, left the old
        remove record to delete the new entry on the next reload."""
        dfs = DistributedFileSystem()
        live = ShardedRepository(num_shards=3)
        log = RepositoryLog(dfs).attach(live)
        live.insert(fabricated_entry(0))
        live.remove(live.insert(fabricated_entry(4)))  # same shard
        log.flush()
        reloaded = load_repository(dfs)
        log = RepositoryLog(dfs).attach(reloaded)
        added = reloaded.insert(fabricated_entry(1))
        assert reloaded.shard_id_of(added) != \
            reloaded.shard_id_of(reloaded.scan()[0])
        log.compact(shards=[shard_label(reloaded.shard_id_of(added))])
        assert entry_fingerprints(load_repository(dfs)) == \
            entry_fingerprints(reloaded)

    def test_removed_top_sequence_is_not_reissued_after_a_reload(self):
        dfs = DistributedFileSystem()
        live = Repository()
        log = RepositoryLog(dfs).attach(live)
        for index in range(3):
            live.insert(fabricated_entry(index))
        log.compact()
        top = live.insert(fabricated_entry(3))
        live.remove(top)
        log.flush()
        reloaded = load_repository(dfs)
        RepositoryLog(dfs).attach(reloaded)
        assert reloaded.insert(fabricated_entry(4))._sequence > top._sequence

    def test_keys_not_derived_from_sequences_load_and_heal(self):
        """A file keyed apart from the entries' sequences (as a
        per-log key allocator wrote them) loads, and attach rewrites it
        under the derived keys, which later records then name."""
        dfs = DistributedFileSystem()
        live = ShardedRepository(num_shards=2)
        log = RepositoryLog(dfs).attach(live)
        entries = [live.insert(fabricated_entry(i)) for i in range(6)]
        log.compact()
        live.remove(entries[1])
        live.record_use(entries[2], tick=3)
        live.insert(fabricated_entry(6))
        log.close()
        for file in dfs.list_files(prefix=f"{SNAPSHOT}."):
            dfs.write_lines(file, [
                re.sub(r'"k(\d+)"', lambda m: f'"k{int(m[1]) + 100}"', line)
                for line in dfs.read_lines(file)], overwrite=True)

        reloaded = load_repository(dfs)
        assert entry_fingerprints(reloaded) == entry_fingerprints(live)
        # Every entry record is counted, the removed entry's included.
        assert reloaded.loader_report.foreign_keys == len(live) + 1
        resumed = RepositoryLog(dfs).attach(reloaded)
        sections = [json.loads(line)
                    for file in dfs.list_files(prefix=f"{SNAPSHOT}.sec-")
                    for line in dfs.read_lines(file)]
        assert sorted(record["key"] for record in sections) == \
            sorted(log_key(entry) for entry in reloaded)
        assert all(segment_lines(dfs, file) == []
                   for file in segment_files(dfs))
        reloaded.remove(reloaded.scan()[0])
        resumed.flush()
        again = load_repository(dfs)
        assert again.loader_report.foreign_keys == 0
        assert entry_fingerprints(again) == entry_fingerprints(reloaded)

    def test_a_sequence_recorded_twice_is_replaced_and_healed(self):
        """Two entry records under one sequence (a process that
        numbered entries afresh on every reload could write them): the
        second entry gets a new sequence, and attach rewrites the file."""
        dfs = DistributedFileSystem()
        live = Repository()
        log = RepositoryLog(dfs).attach(live)
        for index in range(3):
            live.insert(fabricated_entry(index))
        log.close()
        *head, last = dfs.read_lines(SEG)
        record = json.loads(last)
        record["entry"]["sequence"] = 0
        dfs.write_lines(SEG, head + [json.dumps(record, sort_keys=True)],
                        overwrite=True)

        reloaded = load_repository(dfs)
        assert entry_fingerprints(reloaded) == entry_fingerprints(live)
        assert len({entry.entry_id for entry in reloaded}) == 3
        assert reloaded.loader_report.foreign_keys == 1
        RepositoryLog(dfs).attach(reloaded)
        assert load_repository(dfs).loader_report.foreign_keys == 0

    def test_attach_into_different_shard_count_heals(self):
        """A v4 file loaded into an explicit target with a different
        shard layout cannot resume the old sections — attach must
        rewrite the snapshot under the live layout instead of appending
        records the old manifest's sections cannot cover."""
        dfs = DistributedFileSystem()
        live = ShardedRepository(num_shards=2)
        log = RepositoryLog(dfs).attach(live)
        for index in range(4):
            live.insert(fabricated_entry(index))
        log.checkpoint()
        log.close()

        migrated = load_repository(
            dfs, repository=ShardedRepository(num_shards=8))
        RepositoryLog(dfs).attach(migrated)
        manifest = manifest_of(dfs)
        assert manifest["num_shards"] == 8
        reloaded = load_repository(dfs)
        assert isinstance(reloaded, ShardedRepository)
        assert reloaded.num_shards == 8
        assert entry_fingerprints(reloaded) == entry_fingerprints(migrated)

    def test_reattach_after_torn_tail_heals_the_segments(self):
        dfs = DistributedFileSystem()
        live = Repository()
        log = RepositoryLog(dfs).attach(live)
        live.insert(fabricated_entry(0))
        log.flush()
        dfs.append_lines(SEG, ['{"seq": 99, "op'])
        reloaded = load_repository(dfs)
        assert reloaded.loader_report.torn_tail_dropped == 1
        RepositoryLog(dfs).attach(reloaded)
        # The torn garbage is gone: attach compacted sections + segments.
        assert dfs.read_lines(SEG) == []
        healed = load_repository(dfs)
        assert entry_fingerprints(healed) == entry_fingerprints(live)

    @pytest.mark.parametrize("make_repo", [
        Repository, lambda: ShardedRepository(num_shards=4)])
    def test_saved_snapshot_is_a_clean_resume_point(self, make_repo):
        """A save_repository snapshot needs no healing compaction: a log
        attached to its reload keeps the section generation and appends
        the next checkpoint to a segment the manifest references."""
        dfs = DistributedFileSystem()
        live = make_repo()
        entries = [live.insert(fabricated_entry(i)) for i in range(6)]
        live.remove(entries[2])  # removed sequences must stay retired too
        save_repository(live, dfs)
        assert getattr(live, "persistence_log", None) is None
        assert live._listeners == []
        saved = manifest_of(dfs)
        reloaded = load_repository(dfs)
        assert entry_fingerprints(reloaded) == entry_fingerprints(live)
        assert [e._sequence for e in reloaded.scan()] == \
            [e._sequence for e in live.scan()]
        log = RepositoryLog(dfs, compact_ratio=100.0).attach(reloaded)
        assert manifest_of(dfs) == saved
        reloaded.insert(fabricated_entry(20))
        assert log.checkpoint()["compacted"] is False
        assert manifest_of(dfs) == saved
        again = load_repository(dfs)
        assert again.loader_report.replayed_records == 1
        assert entry_fingerprints(again) == entry_fingerprints(reloaded)


def with_order_log(dfs, order, path=SNAPSHOT):
    """Rewrite the files a compaction just wrote into the shape an older
    writer left, when the scan order had a file of its own: the manifest
    names ``order_log`` / ``order_gen``, every section line carries the
    entry's scan ``position``, ``<path>.order.g<gen>`` holds a full order
    record followed by a delta from a compaction that crashed before its
    manifest swap, and an older generation's order file is left behind.
    ``order`` is the scan order at that compaction."""
    manifest = manifest_of(dfs, path)
    generation = max(int(section["file"].rpartition(".g")[2])
                     for section in manifest["sections"] if section["file"])
    pairs = [[log_key(entry), entry._sequence] for entry in order]
    position = {key: index for index, (key, _) in enumerate(pairs)}
    for section in manifest["sections"]:
        if section["file"]:
            records = [json.loads(line)
                       for line in dfs.read_lines(section["file"])]
            dfs.write_lines(section["file"], [
                json.dumps({"position": position[record["key"]], **record},
                           sort_keys=True)
                for record in sorted(records,
                                     key=lambda r: position[r["key"]])],
                overwrite=True)
    order_file = f"{path}.order.g{generation}"
    dfs.write_lines(order_file, [
        json.dumps({"gen": generation, "full": pairs}, sort_keys=True),
        json.dumps({"gen": generation + 1, "removed": [pairs[0][0]],
                    "inserted": []}, sort_keys=True)])
    dfs.write_lines(f"{path}.order.g{generation - 1}", [
        json.dumps({"gen": generation - 1, "full": pairs[1:]},
                   sort_keys=True)])
    manifest.update(order_log=order_file, order_gen=generation)
    dfs.write_lines(path, [json.dumps(manifest, sort_keys=True)],
                    overwrite=True)


class TestMigration:
    def _entries(self, repo, count=5):
        for index in range(count):
            repo.insert(fabricated_entry(index))
        return repo

    def test_files_with_an_order_log_load_and_lose_it(self):
        """A repository saved while the scan order still had a file of
        its own loads the same entries in the same order; the keys,
        fields and files of that order are ignored, and the first
        compaction (a dirty-shard one) deletes every order file."""
        dfs = DistributedFileSystem()
        live = ShardedRepository(num_shards=2)
        log = RepositoryLog(dfs).attach(live)
        entries = [live.insert(fabricated_entry(index, pool=3))
                   for index in range(8)]
        live.remove(entries[3])
        live.record_use(entries[2], tick=3)
        log.compact()
        order = live.scan()
        live.insert(fabricated_entry(8, pool=3))
        live.remove(entries[5])
        log.flush()
        log.detach()
        with_order_log(dfs, order)
        assert len(dfs.list_files(prefix=f"{SNAPSHOT}.order.g")) == 2

        reloaded = load_repository(dfs)
        assert entry_fingerprints(reloaded) == entry_fingerprints(live)
        assert [e.output_path for e in reloaded.scan()] == \
            [e.output_path for e in live.scan()]
        resumed = RepositoryLog(dfs).attach(reloaded)  # a clean resume
        assert len(dfs.list_files(prefix=f"{SNAPSHOT}.order.g")) == 2
        added = reloaded.insert(fabricated_entry(9, pool=3))
        resumed.compact([shard_label(reloaded.shard_id_of(added))])
        assert dfs.list_files(prefix=f"{SNAPSHOT}.order.g") == []
        assert not {"order_log", "order_gen"} & set(manifest_of(dfs))
        again = load_repository(dfs)
        assert [e.output_path for e in again.scan()] == \
            [e.output_path for e in reloaded.scan()]
        resumed.close()

    def test_repeat_compaction_never_rewrites_sections_in_place(self):
        """Regression: a healing compaction can run at an *unchanged*
        sequence number (e.g. an untracked mutation between load and
        attach). It must still write fresh section files — overwriting
        the generation the current manifest references would brick the
        restart if the process crashed before the manifest swap."""
        dfs = DistributedFileSystem()
        live = Repository()
        log = RepositoryLog(dfs).attach(live)
        for index in range(3):
            live.insert(fabricated_entry(index))
        log.compact()
        [referenced] = dfs.list_files(prefix=f"{SNAPSHOT}.sec-")
        before = dfs.read_lines(referenced)

        reloaded = load_repository(dfs)
        reloaded.insert(fabricated_entry(9))  # untracked: forces healing
        healing = RepositoryLog(dfs)
        # Fail the manifest swap mid-compaction: the crash window the
        # immutability guarantee exists for.
        original_write = dfs.write_lines

        def crashing_write(path, lines, overwrite=False):
            if path == SNAPSHOT:
                raise DfsError("simulated crash before the manifest swap")
            return original_write(path, lines, overwrite=overwrite)

        dfs.write_lines = crashing_write
        with pytest.raises(DfsError):
            healing.attach(reloaded)
        dfs.write_lines = original_write
        # The referenced generation is untouched, so the old manifest
        # still loads exactly the pre-crash state.
        assert dfs.read_lines(referenced) == before
        recovered = load_repository(dfs)
        assert len(recovered) == 3

    def test_v4_partial_load_into_prepopulated_target(self):
        """Parity with the v1-v3 loaders: loading into a pre-populated
        explicit target unions the entries instead of failing as
        corrupt."""
        dfs = DistributedFileSystem()
        live = Repository()
        log = RepositoryLog(dfs).attach(live)
        for index in range(3):
            live.insert(fabricated_entry(index))
        log.checkpoint()

        target = Repository()
        target.insert(fabricated_entry(30))
        merged = load_repository(dfs, repository=target)
        assert merged is target
        assert len(merged) == 4
        assert {e.output_path for e in merged.scan()} == \
            {e.output_path for e in live.scan()} | {"/stored/s30"}
        # The merge inserts entry by entry, exactly like a twin target.
        twin = Repository()
        for index in (30, 0, 1, 2):
            twin.insert(fabricated_entry(index))
        assert [e.output_path for e in merged.scan()] == \
            [e.output_path for e in twin.scan()]

    def test_v4_loads_into_explicit_target(self):
        """Cross-format migration works for v4 too: a v4 file written by
        a plain repository loads into a sharded target."""
        dfs = DistributedFileSystem()
        plain = self._entries(Repository())
        log = RepositoryLog(dfs).attach(plain)
        plain.insert(fabricated_entry(9))
        log.flush()
        migrated = load_repository(
            dfs, repository=ShardedRepository(num_shards=8))
        assert isinstance(migrated, ShardedRepository)
        assert [e.output_path for e in migrated.scan()] == \
            [e.output_path for e in plain.scan()]


class TestManagerIntegration:
    def test_manager_checkpoints_every_submit(self):
        system = pigmix_system()
        log = RepositoryLog(system.dfs, compact_ratio=100.0)
        restore = system.restore(persistence=log)
        restore.submit(system.compile(Q1_TEXT))
        assert restore.last_report.checkpoint is not None
        assert restore.last_report.checkpoint["appended"] >= 1
        reloaded = load_repository(system.dfs)
        assert entry_fingerprints(reloaded) == \
            entry_fingerprints(restore.repository)

    def test_persistence_true_builds_default_log(self):
        """Knob plumbing: ReStore(persistence=True) wires a
        default-configured segmented RepositoryLog on the manager's
        DFS."""
        system = pigmix_system()
        restore = system.restore(persistence=True)
        assert isinstance(restore.persistence, RepositoryLog)
        restore.submit(system.compile(Q1_TEXT))
        assert restore.last_report.checkpoint is not None
        reloaded = load_repository(system.dfs)
        assert entry_fingerprints(reloaded) == \
            entry_fingerprints(restore.repository)

    def test_manager_close_flushes_pending_records(self):
        # Regression: records buffered between the checkpoint cadence
        # used to be lost when the manager was simply dropped.
        system = pigmix_system()
        log = RepositoryLog(system.dfs, compact_ratio=100.0)
        restore = system.restore(persistence=log, checkpoint_every=1000)
        restore.submit(system.compile(Q1_TEXT))
        assert log.pending_records >= 1  # cadence never fired
        restore.close()
        assert log.pending_records == 0
        reloaded = load_repository(system.dfs)
        assert entry_fingerprints(reloaded) == \
            entry_fingerprints(restore.repository)
        restore.close()  # idempotent

    def test_manager_is_a_context_manager(self):
        system = pigmix_system()
        log = RepositoryLog(system.dfs, compact_ratio=100.0)
        with system.restore(persistence=log,
                            checkpoint_every=1000) as restore:
            restore.submit(system.compile(Q1_TEXT))
            assert log.pending_records >= 1
        assert log.pending_records == 0
        assert entry_fingerprints(load_repository(system.dfs)) == \
            entry_fingerprints(restore.repository)

    def test_manager_close_releases_repository_executor(self):
        system = pigmix_system()
        repository = ShardedRepository(num_shards=4, executor="processes")
        restore = system.restore(repository=repository)
        restore.submit(system.compile(Q1_TEXT))
        restore.submit(system.compile(Q2_TEXT))
        workers = list(repository.worker_pool._workers.values())
        assert workers and all(handle.alive() for handle in workers)
        restore.close()
        assert not any(handle.alive() for handle in workers)

    def test_checkpoint_every_knob(self):
        system = pigmix_system()
        log = RepositoryLog(system.dfs, compact_ratio=100.0)
        restore = system.restore(persistence=log, checkpoint_every=2)
        restore.submit(system.compile(Q1_TEXT))
        assert restore.last_report.checkpoint is None
        assert log.pending_records >= 1
        restore.submit(system.compile(Q2_TEXT))
        assert restore.last_report.checkpoint is not None
        assert log.pending_records == 0

    def test_reloaded_manager_still_reuses(self):
        """Restart from manifest+segments: Q2 is still rewritten from
        Q1's logged registrations."""
        system = pigmix_system()
        log = RepositoryLog(system.dfs)
        restore = system.restore(persistence=log)
        restore.submit(system.compile(Q1_TEXT))

        reloaded = load_repository(system.dfs)
        fresh = system.restore(repository=reloaded,
                               enable_registration=False, heuristic=None)
        fresh.submit(system.compile(Q2_TEXT))
        assert fresh.last_report.num_rewrites >= 1

    def test_eviction_removals_survive_restart(self):
        """Rule 3/4 sweeps append remove records, so a restart does not
        resurrect evicted entries."""
        system = pigmix_system()
        log = RepositoryLog(system.dfs, compact_ratio=1000.0)
        restore = system.restore(
            persistence=log,
            retention=HeuristicRetentionPolicy(window_ticks=100))
        restore.submit(system.compile(Q1_TEXT))
        assert len(restore.repository) >= 1
        # Rule 4: modify the users dataset; the next sweep evicts every
        # entry that read the old version.
        seed_users(system.dfs, include=range(4))
        probe = ("A = load '/data/page_views' as (user:chararray, "
                 "timestamp:int, est_revenue:double, page_info:chararray, "
                 "page_links:chararray);\n"
                 "B = filter A by timestamp > 10;\n"
                 "store B into '/out/probe';")
        restore.submit(system.compile(probe, "probe"))
        assert restore.last_report.evicted_entries
        reloaded = load_repository(system.dfs)
        assert entry_fingerprints(reloaded) == \
            entry_fingerprints(restore.repository)
        # No compaction happened: the evictions really came from replay.
        assert reloaded.loader_report.replayed_records > 0
        assert any(record["op"] == "remove"
                   for record in all_segment_records(system.dfs))

    def test_use_stamps_survive_restart(self):
        system = pigmix_system()
        log = RepositoryLog(system.dfs)
        restore = system.restore(persistence=log)
        restore.submit(system.compile(Q1_TEXT))
        restore.submit(system.compile(Q2_TEXT))
        assert restore.last_report.num_rewrites >= 1
        reloaded = load_repository(system.dfs)
        live_stats = [(e.output_path, e.stats.use_count, e.stats.last_used_tick)
                      for e in restore.repository.scan()]
        reloaded_stats = [(e.output_path, e.stats.use_count, e.stats.last_used_tick)
                          for e in reloaded.scan()]
        assert reloaded_stats == live_stats
        assert any(count > 0 for _, count, _ in reloaded_stats)
