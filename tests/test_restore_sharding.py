"""Unit tests for the sharded repository (layout, probe routing, the
worker-process service, per-shard statistics, and the manager
integration)."""

import multiprocessing
import os
import subprocess
import sys

import pytest

from repro import PigSystem
from repro.common.errors import RepositoryError
from repro.dfs import DistributedFileSystem
from repro.physical.operators import POLoad, POStore
from repro.physical.plan import PhysicalPlan
from repro.restore import (
    Repository,
    RepositoryEntry,
    RepositoryLog,
    ShardedRepository,
    ShardWorkerPool,
)
from repro.restore.index import LoadIndex
from repro.restore.matcher import PlanDigest
from repro.restore.persistence import entry_to_json, SkeletonOp
from repro.restore.service import (
    _WorkerHandle,
    ShardWorkerState,
    WorkerCrashed,
)
from repro.restore.sharding import (
    CATCHALL_SHARD,
    RepositoryShard,
    shard_index_for_key,
)
from repro.restore.stats import EntryStats

from tests.faultinject import ARTIFACTS, FaultSchedule, install_hang_guard
from tests.helpers import (
    Q1_TEXT,
    Q2_TEXT,
    seed_page_views,
    seed_users,
)


@pytest.fixture(autouse=True)
def _hang_guard():
    # Worker/IPC tests that lose a queue message hang forever; turn a
    # hang into a stack dump + hard failure instead of a stuck CI job.
    cancel = install_hang_guard()
    yield
    cancel()


def test_tripped_hang_guard_leaves_a_dump_naming_the_test():
    """A hung test must not die silently: the guard's dump survives the
    hard exit in a real file, headed by the test's node id."""
    repo_root = os.path.dirname(os.path.dirname(ARTIFACTS))
    hung = subprocess.Popen(
        [sys.executable, "-c",
         "import time\n"
         "from tests.faultinject import install_hang_guard\n"
         "install_hang_guard(0.2)\n"
         "time.sleep(60)\n"],
        cwd=repo_root,
        env=dict(os.environ, PYTHONPATH=os.path.join(repo_root, "src"),
                 PYTEST_CURRENT_TEST="tests/test_x.py::test_hung (call)"))
    assert hung.wait(timeout=60) != 0
    path = os.path.join(ARTIFACTS, f"hang-{hung.pid}.txt")
    with open(path, encoding="utf-8") as handle:
        dump = handle.read()
    os.remove(path)
    assert dump.startswith("tests/test_x.py::test_hung (call) ran past 0.2 s")
    assert "most recent call first" in dump


def _chain_plan(index, path, extra_op=None):
    """Load -> Filter [-> ForEach] -> Store skeleton plan (cheap fixture)."""
    load = POLoad(path, None, 0)
    chain = SkeletonOp("filter", f"FILTER[a>{index}]", [load])
    if extra_op is not None:
        chain = SkeletonOp("foreach", f"FOREACH[{extra_op}]", [chain])
    return PhysicalPlan([POStore(chain, f"/stored/s{index}")])


def _entry(index, path="/data/d0"):
    stats = EntryStats(input_bytes=1000 + index, output_bytes=10 + index,
                       producing_job_time=1.0 + index)
    return RepositoryEntry(_chain_plan(index, path), f"/stored/s{index}", stats)


def _unkeyable_entry(index):
    """An entry whose leaf Load cannot be keyed (foreign signature)."""
    load = SkeletonOp("load", f"FOREIGN[{index}]", [])
    chain = SkeletonOp("filter", f"FILTER[u>{index}]", [load])
    plan = PhysicalPlan([POStore(chain, f"/stored/u{index}")])
    stats = EntryStats(1000, 10, 1.0)
    return RepositoryEntry(plan, f"/stored/u{index}", stats)


def pigmix_system():
    system = PigSystem()
    seed_page_views(system.dfs)
    seed_users(system.dfs, include=range(6))
    return system


class TestShardLayout:
    def test_hash_is_stable_and_in_range(self):
        key = ("/data/page_views", 3)
        first = shard_index_for_key(key, 8)
        assert first == shard_index_for_key(key, 8)  # deterministic
        assert 0 <= first < 8
        assert shard_index_for_key(key, 1) == 0

    def test_every_entry_owned_by_exactly_one_shard(self):
        repo = ShardedRepository(num_shards=4)
        for index in range(20):
            repo.insert(_entry(index, path=f"/data/d{index % 6}"))
        occupancies = [len(shard) for shard in repo.partitions()]
        assert sum(occupancies) == len(repo) == 20
        # The same entry id never appears in two partitions.
        seen = set()
        for shard in repo.partitions():
            for entry in shard:
                assert entry.entry_id not in seen
                seen.add(entry.entry_id)

    def test_layout_reproducible_across_instances(self):
        a, b = ShardedRepository(8), ShardedRepository(8)
        for index in range(12):
            path = f"/data/d{index % 5}"
            a.insert(_entry(index, path))
            b.insert(_entry(index, path))
        layout_a = [[e.output_path for e in shard] for shard in a.partitions()]
        layout_b = [[e.output_path for e in shard] for shard in b.partitions()]
        assert layout_a == layout_b

    def test_unkeyable_entries_live_in_catchall(self):
        repo = ShardedRepository(num_shards=4)
        repo.insert(_unkeyable_entry(1))
        report = repo.shard_report()
        assert report[-1]["shard"] == CATCHALL_SHARD
        assert report[-1]["occupancy"] == 1
        assert all(row["occupancy"] == 0 for row in report[:-1])

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ValueError):
            ShardedRepository(num_shards=0)

    def test_invalid_executor_rejected(self):
        class Mapper:
            def map(self, fn, items):
                return [fn(item) for item in items]

        for executor in ("bogus", "threads", Mapper()):
            with pytest.raises(ValueError, match="'serial' or 'processes'"):
                ShardedRepository(num_shards=2, executor=executor)

    def test_removed_options_are_unknown_keywords(self):
        # No compatibility shim: the replica layer and worker-owned
        # durability are gone, not deprecated. (The names are spelled in
        # pieces so a grep for them over the tree stays empty.)
        removed = {"replicas": 2}
        with pytest.raises(TypeError, match="replicas"):
            ShardedRepository(num_shards=2, executor="processes", **removed)
        removed = {"worker" "_durable": True}
        with pytest.raises(TypeError, match="durable"):
            RepositoryLog(DistributedFileSystem(), **removed)


class TestFanOut:
    def test_probe_consults_only_owning_shards(self):
        repo = ShardedRepository(num_shards=8)
        for index in range(16):
            repo.insert(_entry(index, path=f"/data/d{index % 4}"))
        probe = _chain_plan(0, "/data/d0", extra_op="probe")
        before = {shard.shard_id: shard.stats.probes
                  for shard in repo.partitions()}
        repo.match_candidates(probe)
        probed = [shard.shard_id for shard in repo.partitions()
                  if shard.stats.probes > before[shard.shard_id]]
        # One load key -> at most one shard (catch-all is empty, skipped).
        assert len(probed) == 1
        assert probed[0] == shard_index_for_key(("/data/d0", 0), 8)

    def test_occupied_catchall_always_consulted(self):
        repo = ShardedRepository(num_shards=4)
        keyed = repo.insert(_entry(0, path="/data/d0"))
        unkeyable = repo.insert(_unkeyable_entry(1))
        catchall = repo.partitions()[-1]
        # No load filter can rule the catch-all entry out, so a keyed
        # probe is still routed to the catch-all; the lookup does not
        # return the entry, whose fingerprint is not one of its sites.
        before = catchall.stats.probes
        probe = _chain_plan(0, "/data/d0", extra_op="probe")
        assert repo.match_candidates(probe) == (keyed,)
        assert catchall.stats.probes == before + 1
        # A probe that contains the unkeyable entry's plan gets it as a
        # candidate.
        frontier = unkeyable.plan.stores()[0].inputs[0]
        container = PhysicalPlan([POStore(
            SkeletonOp("foreach", "FOREACH[probe]", [frontier]),
            "/out/p")])
        assert repo.match_candidates(container) == (unkeyable,)

    def test_probe_scans_no_partition(self, monkeypatch):
        # 200 entries on the probe's load key, none filed under one of
        # its sites: the serial answer is the inherited fingerprint
        # lookup, so no partition is iterated and no load index asked.
        repo = ShardedRepository(num_shards=8)
        for index in range(200):
            repo.insert(_entry(index, path="/data/d0"))
        asked = []
        candidate_ids = LoadIndex.candidate_ids
        monkeypatch.setattr(
            LoadIndex, "candidate_ids",
            lambda index, job_loads: asked.append(job_loads)
            or candidate_ids(index, job_loads))
        iterated = []
        iterate = RepositoryShard.__iter__
        monkeypatch.setattr(
            RepositoryShard, "__iter__",
            lambda shard: iterated.append(shard.shard_id) or iterate(shard))
        probe = _chain_plan(9999, "/data/d0", extra_op="probe")
        assert repo.match_candidates(probe) == ()
        assert asked == []
        assert iterated == []
        # The probe still counts for the one partition it is routed to.
        owning = shard_index_for_key(("/data/d0", 0), 8)
        assert [row["shard"] for row in repo.shard_report()
                if row["probes"]] == [owning]

    def test_candidates_match_unsharded_repository(self):
        plain = Repository()
        sharded = ShardedRepository(num_shards=8)
        for index in range(30):
            path = f"/data/d{index % 7}"
            plain.insert(_entry(index, path))
            sharded.insert(_entry(index, path))
        for key_index in range(7):
            probe = _chain_plan(1000 + key_index, f"/data/d{key_index}",
                                extra_op="probe")
            assert [e.output_path for e in sharded.match_candidates(probe)] \
                == [e.output_path for e in plain.match_candidates(probe)]

    def test_unkeyable_probe_falls_back_to_full_scan(self):
        # No shard can be picked for a probe whose loads cannot be
        # keyed: it takes the global scan, restricted to the entries
        # whose fingerprint is one of its sites, in scan order.
        repo = ShardedRepository(num_shards=4)
        for index in range(6):
            repo.insert(_entry(index, path=f"/data/d{index % 2}"))
        probe_load = SkeletonOp("load", "FOREIGN[p]", [])
        probe_chain = SkeletonOp("filter", "FILTER[p]", [probe_load])
        stores = [POStore(probe_chain, "/out/p")]
        for index in (0, 3, 4):
            # Each contains entry ``index`` (a filter over its own Load).
            stores.append(POStore(SkeletonOp(
                "foreach", "FOREACH[probe]",
                [_chain_plan(index, f"/data/d{index % 2}").stores()[0]
                 .inputs[0]]), f"/out/q{index}"))
        probe = PhysicalPlan(stores)
        sites = PlanDigest(probe).sites
        expected = tuple(entry for entry in repo.scan()
                         if entry.fingerprint in sites)
        assert sorted(entry.output_path for entry in expected) == \
            ["/stored/s0", "/stored/s3", "/stored/s4"]
        assert repo.match_candidates(probe) == expected

    def test_removal_updates_shard(self):
        repo = ShardedRepository(num_shards=4)
        entries = [repo.insert(_entry(index, path=f"/data/d{index % 3}"))
                   for index in range(9)]
        repo.remove(entries[4])
        assert sum(len(shard) for shard in repo.partitions()) == 8
        probe = _chain_plan(4, f"/data/d{4 % 3}", extra_op="probe")
        assert entries[4] not in repo.match_candidates(probe)
        with pytest.raises(RepositoryError):
            repo.remove(entries[4])


def _twin_repositories(num_shards=4, count=20, paths=6):
    """A serial and a process-backed repository holding identical
    entries (same paths, same stats) — the lock-step fixture every
    worker-pool parity test drives."""
    serial = ShardedRepository(num_shards=num_shards, executor="serial")
    procs = ShardedRepository(num_shards=num_shards, executor="processes")
    for index in range(count):
        path = f"/data/d{index % paths}"
        serial.insert(_entry(index, path))
        procs.insert(_entry(index, path))
    return serial, procs


def _assert_probe_parity(serial, procs, paths=6, tag="probe"):
    """Probe every load key on both repositories and require identical
    candidate sequences (output paths, in order)."""
    for index in range(paths):
        probe = _chain_plan(1000 + index, f"/data/d{index}", extra_op=tag)
        assert [e.output_path for e in procs.match_candidates(probe)] \
            == [e.output_path for e in serial.match_candidates(probe)]


def _stats_by_shard(repository):
    return {shard.shard_id: (shard.stats.probes,
                             shard.stats.candidates_returned,
                             shard.stats.occupancy)
            for shard in repository.partitions()}


class TestWorkerProcesses:
    """The ``executor="processes"`` flavor: worker-process replicas
    behind the routing front-end (``repro.restore.service``)."""

    def test_worker_pool_matches_serial(self):
        serial, procs = _twin_repositories(num_shards=8, count=40, paths=5)
        try:
            # Multi-load probe: fans out to several workers at once.
            load_a = POLoad("/data/d0", None, 0)
            load_b = POLoad("/data/d1", None, 0)
            join = SkeletonOp("join", "JOIN[k]", [load_a, load_b])
            probe = PhysicalPlan([POStore(join, "/out/j")])
            assert [e.output_path for e in procs.match_candidates(probe)] \
                == [e.output_path for e in serial.match_candidates(probe)]
            _assert_probe_parity(serial, procs, paths=5)
            # The front-end credits per-shard statistics exactly as the
            # in-process probes would, so reports are executor-blind.
            assert _stats_by_shard(procs) == _stats_by_shard(serial)
            assert procs.worker_pool is not None
            assert "worker" in procs.worker_pool.describe()
        finally:
            procs.close()
            procs.close()  # idempotent
            serial.close()

    def test_removal_reaches_the_worker_replica(self):
        serial, procs = _twin_repositories(num_shards=4, count=12, paths=3)
        try:
            victim_path = procs.scan()[0].output_path
            for repo in (serial, procs):
                victim = next(e for e in repo.scan()
                              if e.output_path == victim_path)
                repo.remove(victim)
            _assert_probe_parity(serial, procs, paths=3, tag="after-remove")
        finally:
            procs.close()
            serial.close()

    def test_worker_crash_recovers_from_memory(self):
        serial, procs = _twin_repositories(num_shards=2, count=10, paths=3)
        try:
            _assert_probe_parity(serial, procs, paths=3, tag="warm")
            pool = procs.worker_pool
            shard_id = next(iter(pool._workers))
            pool._workers[shard_id].process.kill()
            pool._workers[shard_id].process.join()
            # No RepositoryLog attached: the fresh worker re-seeds from
            # the front-end's in-memory members.
            _assert_probe_parity(serial, procs, paths=3, tag="post-kill")
            assert pool.recoveries == 1
            assert _stats_by_shard(procs) == _stats_by_shard(serial)
        finally:
            procs.close()
            serial.close()

    def test_worker_crash_replays_durable_partition(self):
        # Satellite: kill one shard worker mid-stream — through the
        # deterministic FaultSchedule, so the crash lands at a fixed
        # point of the message stream rather than a line of test code —
        # and prove the front-end replays that partition's durable
        # section + segment into the fresh worker: scan order, per-shard
        # stats, and match decisions bit-identical to the serial twin.
        dfs = DistributedFileSystem()
        serial, procs = _twin_repositories(num_shards=2, count=8, paths=3)
        log = RepositoryLog(dfs)
        log.attach(procs)
        try:
            log.compact()  # sections exist; later inserts live in segments
            for index in range(8, 14):
                path = f"/data/d{index % 3}"
                serial.insert(_entry(index, path))
                procs.insert(_entry(index, path))
            _assert_probe_parity(serial, procs, paths=3, tag="mid-stream")

            pool = procs.worker_pool
            shard_id = next(iter(pool._workers))

            replays = []
            durable_snapshot = log.partition_snapshot

            def spying_snapshot(requested_shard):
                replays.append(requested_shard)
                return durable_snapshot(requested_shard)

            log.partition_snapshot = spying_snapshot
            # The victim dies as its next message is sent: the probe
            # dispatch observes the crash mid-stream and recovers.
            with FaultSchedule([(shard_id, 1)], pool=pool) as schedule:
                _assert_probe_parity(serial, procs, paths=3, tag="post-kill")
            assert [kill[:2] for kill in schedule.killed] == [(shard_id, 0)]
            assert not schedule.pending
            assert pool.recoveries == 1
            assert replays == [shard_id]  # re-seeded from durable state
            assert log.snapshot_reads == 1
            # The replica rebuilt from section + segment holds exactly
            # the partition's live membership.
            assert pool.worker_size(shard_id) \
                == len(procs.shard_members(shard_id))
            assert [e.output_path for e in procs.scan()] \
                == [e.output_path for e in serial.scan()]
            assert _stats_by_shard(procs) == _stats_by_shard(serial)
        finally:
            log.close()
            procs.close()
            serial.close()

    def test_shard_worker_state_unit(self):
        # The worker's in-process core, driven without multiprocessing.
        state = ShardWorkerState()
        # Admitted first: the front-end repository gives each its id.
        front = Repository()
        entries = [front.insert(_entry(index, f"/data/d{index % 2}"))
                   for index in range(4)]
        state.apply([("add", entry.entry_id, entry_to_json(entry))
                     for entry in entries])
        assert len(state) == 4
        keys = state.probe(frozenset({("/data/d0", 0)}))
        assert set(keys) == {entry.entry_id for entry in entries
                             if entry.output_path.endswith(("0", "2"))}
        state.apply([("discard", entries[0].entry_id)])
        assert len(state) == 3
        assert entries[0].entry_id not in state.probe(
            frozenset({("/data/d0", 0)}))

    def test_pool_rejects_rebind(self):
        repo = ShardedRepository(num_shards=2, executor="processes")
        try:
            pool = repo.worker_pool
            other = ShardedRepository(num_shards=2)
            with pytest.raises(RepositoryError, match="already bound"):
                pool.bind(other)
            pool.bind(repo)  # re-binding the same front-end is fine
            other.close()
        finally:
            repo.close()

    def test_timeout_threads_through_constructors(self):
        timed = ShardedRepository(num_shards=2, executor="processes",
                                  response_timeout=7.5)
        try:
            pool = timed.worker_pool
            assert pool._response_timeout == 7.5
            timed.insert(_entry(0, "/data/d0"))
            shard_id = shard_index_for_key(("/data/d0", 0), 2)
            assert pool.worker_size(shard_id) == 1
            assert pool._workers[shard_id].response_timeout == 7.5
        finally:
            timed.close()
        # The class default still applies when nothing is passed.
        plain = ShardedRepository(num_shards=2, executor="processes")
        try:
            plain.insert(_entry(1, "/data/d0"))
            pool = plain.worker_pool
            assert pool.worker_size(
                shard_index_for_key(("/data/d0", 0), 2)) == 1
            handle = next(iter(pool._workers.values()))
            assert handle.response_timeout == _WorkerHandle.RESPONSE_TIMEOUT
        finally:
            plain.close()

    def test_receive_raises_when_worker_died_unanswered(self):
        # Directed coverage for the first crash branch of receive():
        # the process is gone, nothing is in flight — WorkerCrashed.
        context = multiprocessing.get_context("fork")
        handle = _WorkerHandle(3, context, response_timeout=5.0)
        try:
            handle.process.kill()
            handle.process.join()
            with pytest.raises(WorkerCrashed, match="died before answering"):
                handle.receive()
        finally:
            handle.kill()

    def test_receive_kills_unresponsive_worker_at_deadline(self):
        # Directed coverage for the second crash branch: the worker is
        # alive but silent past the (threaded-through) deadline — the
        # handle kills it and reports it unresponsive.
        context = multiprocessing.get_context("fork")
        handle = _WorkerHandle(4, context, response_timeout=0.3)
        try:
            assert handle.alive()
            with pytest.raises(WorkerCrashed, match="unresponsive"):
                handle.receive()  # no request outstanding: never answers
            assert not handle.process.is_alive()  # deadline killed it
        finally:
            handle.kill()

    def test_manager_runs_on_worker_processes(self):
        results = {}
        for label, repository in (
                ("plain", Repository()),
                ("processes", ShardedRepository(num_shards=4,
                                                executor="processes"))):
            system = pigmix_system()
            restore = system.restore(repository=repository)
            restore.submit(system.compile(Q1_TEXT))
            restore.submit(system.compile(Q2_TEXT))
            results[label] = {
                "rewrites": restore.last_report.num_rewrites,
                "counters": restore.last_report.match_counters.as_dict(),
                "entries": len(repository),
                "output": system.dfs.read_lines("/out/L3_out"),
            }
            restore.close()
        assert results["plain"] == results["processes"]
        assert results["processes"]["rewrites"] >= 1


class TestShardStats:
    def test_probe_and_candidate_counters(self):
        repo = ShardedRepository(num_shards=2)
        for index in range(10):
            repo.insert(_entry(index, path="/data/d0"))
        probe = _chain_plan(3, "/data/d0")  # equivalent to entry 3
        repo.match_candidates(probe)
        owning = shard_index_for_key(("/data/d0", 0), 2)
        report = {row["shard"]: row for row in repo.shard_report()}
        assert report[owning]["probes"] == 1
        assert report[owning]["candidates_returned"] == 1
        assert report[owning]["occupancy"] == 10

    def test_match_hits_credited_to_owning_shard(self):
        system = pigmix_system()
        repository = ShardedRepository(num_shards=4)
        restore = system.restore(repository=repository)
        restore.submit(system.compile(Q1_TEXT))
        restore.submit(system.compile(Q2_TEXT))
        assert restore.last_report.num_rewrites >= 1
        assert sum(row["match_hits"]
                   for row in repository.shard_report()) >= 1

    def test_merged_stats_count_logical_probes_once(self):
        # Regression: a probe whose load keys land in an owned shard
        # while the catch-all is occupied consults BOTH partitions. The
        # per-shard probe counters each record their own consultation,
        # so summing that column counts one logical probe twice; the
        # merged view must report it once.
        repo = ShardedRepository(num_shards=4)
        repo.insert(_entry(0, path="/data/d0"))
        repo.insert(_unkeyable_entry(1))  # occupies the catch-all
        probe = _chain_plan(0, "/data/d0", extra_op="probe")
        repo.match_candidates(probe)
        merged = repo.merged_shard_stats()
        assert merged["probes"] == 1
        assert merged["shard_consults"] == 2  # owned shard + catch-all
        # The naive sum over shard_report() is exactly the double count
        # the merged view corrects.
        assert sum(row["probes"] for row in repo.shard_report()) == 2

    def test_merged_stats_without_catchall_agree_with_sum(self):
        repo = ShardedRepository(num_shards=4)
        repo.insert(_entry(0, path="/data/d0"))
        probe = _chain_plan(0, "/data/d0", extra_op="probe")
        repo.match_candidates(probe)
        repo.match_candidates(probe)
        merged = repo.merged_shard_stats()
        assert merged["probes"] == 2
        assert merged["shard_consults"] == 2  # empty catch-all skipped

    def test_unkeyable_probe_counts_as_one_logical_probe(self):
        repo = ShardedRepository(num_shards=4)
        for index in range(4):
            repo.insert(_entry(index, path=f"/data/d{index}"))
        probe_load = SkeletonOp("load", "FOREIGN[p]", [])
        probe_chain = SkeletonOp("filter", "FILTER[p]", [probe_load])
        probe = PhysicalPlan([POStore(probe_chain, "/out/p")])
        repo.match_candidates(probe)  # full-scan fallback
        assert repo.merged_shard_stats()["probes"] == 1

    def test_merged_candidate_and_hit_totals_are_exact_sums(self):
        system = pigmix_system()
        repository = ShardedRepository(num_shards=4)
        restore = system.restore(repository=repository)
        restore.submit(system.compile(Q1_TEXT))
        restore.submit(system.compile(Q2_TEXT))
        merged = repository.merged_shard_stats()
        report = repository.shard_report()
        assert merged["entries"] == len(repository)
        assert merged["match_hits"] == sum(row["match_hits"] for row in report)
        assert merged["candidates_returned"] == \
            sum(row["candidates_returned"] for row in report)
        assert merged["probes"] <= merged["shard_consults"]

    def test_describe_mentions_shards(self):
        repo = ShardedRepository(num_shards=3)
        repo.insert(_entry(0))
        text = repo.describe()
        assert "3 shard(s)" in text
        assert "shard 0" in text


class TestManagerParity:
    """A ReStore manager behaves identically on sharded and plain repos
    (the property suite drives this at scale; this is the smoke path)."""

    def test_quickstart_scenario_identical(self):
        results = {}
        for label, repository in (("plain", Repository()),
                                  ("sharded", ShardedRepository(num_shards=8))):
            system = pigmix_system()
            restore = system.restore(repository=repository)
            restore.submit(system.compile(Q1_TEXT))
            restore.submit(system.compile(Q2_TEXT))
            results[label] = {
                "rewrites": restore.last_report.num_rewrites,
                "counters": restore.last_report.match_counters.as_dict(),
                "entries": len(repository),
                "output": system.dfs.read_lines("/out/L3_out"),
            }
        assert results["plain"] == results["sharded"]
        assert results["sharded"]["rewrites"] >= 1

    def test_find_equivalent_is_global_across_shards(self):
        # Registering the same computation twice must dedup even when a
        # second insert would land in a different shard's probe path:
        # the fingerprint dict is global.
        repo = ShardedRepository(num_shards=8)
        entry = _entry(7, path="/data/d3")
        repo.insert(entry)
        duplicate_plan = _chain_plan(7, "/data/d3")
        assert repo.find_equivalent(duplicate_plan) is entry
