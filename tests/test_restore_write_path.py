"""The write path's incremental forms: the eviction sweep's one pass
(Rules 3/4 with a per-sweep version memo and a path -> readers cascade)
and a scan order that nothing but a probe's few candidates pay for."""

import random

from repro.common import LogicalClock
from repro.dfs import DistributedFileSystem
from repro.physical.operators import POLoad, POStore
from repro.physical.plan import PhysicalPlan
from repro.restore import (
    HeuristicRetentionPolicy,
    load_repository,
    Repository,
    RepositoryEntry,
    RepositoryLog,
    ShardedRepository,
)
from repro.restore.persistence import SkeletonOp
from repro.restore.stats import EntryStats

#: operator signatures of a chain, outermost last: a deeper chain of the
#: same family strictly contains every shallower one
_CHAIN = ("FILTER[a>{family}]", "PROJECT[{family}]", "DISTINCT")


def chain_entry(family, depth, path, source=None, version=1,
                output_bytes=10, created_tick=0):
    """An entry whose plan is ``depth`` operators of family ``family``
    over ``source`` (read at ``version``)."""
    source = source or f"/data/d{family % 5}"
    op = POLoad(source, None, version)
    for signature in _CHAIN[:depth]:
        op = SkeletonOp("op", signature.format(family=family), [op])
    return RepositoryEntry(
        PhysicalPlan([POStore(op, path)]), path,
        EntryStats(1000, output_bytes, 5.0, created_tick=created_tick),
        input_versions={source: version})


def _paths(entries):
    return [entry.output_path for entry in entries]


def _dfs_with(*paths):
    dfs = DistributedFileSystem()
    for path in paths:
        dfs.write_lines(path, ["x"])
    return dfs


class TestSweep:
    def test_missing_input_is_gone_whatever_its_recorded_version(self):
        # The memo's "does not exist" value must differ from every
        # recorded version, None included.
        repo = Repository()
        dfs = _dfs_with("/data/d1")
        dangling = chain_entry(1, 1, "/stored/n", source="/data/never")
        dangling.input_versions["/data/never"] = None
        kept = chain_entry(1, 2, "/stored/k", source="/data/d1")
        repo.insert(dangling)
        repo.insert(kept)
        policy = HeuristicRetentionPolicy(window_ticks=100)
        assert policy.sweep(repo, dfs, LogicalClock(1)) == [dangling]
        assert _paths(repo.scan()) == ["/stored/k"]

    def test_recreated_input_evicts_every_stale_reader(self):
        repo = Repository()
        dfs = _dfs_with("/data/d0")
        dfs.delete("/data/d0")
        dfs.write_lines("/data/d0", ["new"])  # re-created: version 2
        old_a = chain_entry(0, 1, "/stored/a", version=1)
        current = chain_entry(5, 1, "/stored/b", version=2)
        old_c = chain_entry(10, 1, "/stored/c", version=1)
        for entry in (old_a, current, old_c):
            repo.insert(entry)
        policy = HeuristicRetentionPolicy(window_ticks=100)
        assert policy.sweep(repo, dfs, LogicalClock(1)) == [old_a, old_c]
        assert _paths(repo.scan()) == ["/stored/b"]

    def test_cascade_evicts_in_sequence_order(self):
        # The idle entry's deleted output invalidates three readers; the
        # cascade round removes them in the repository's iteration
        # order, sequence order (not scan order, which output size
        # decides).
        repo = Repository()
        dfs = _dfs_with("/data/d0", "/stored/up", "/data/d9")
        upstream = chain_entry(0, 1, "/stored/up")
        readers = [chain_entry(family, 1, f"/stored/r{family}",
                               source="/stored/up", output_bytes=size,
                               created_tick=10)
                   for family, size in ((1, 100), (2, 10), (3, 50))]
        bystander = chain_entry(9, 1, "/stored/by", source="/data/d9",
                                created_tick=10)
        for entry in [upstream, *readers, bystander]:
            repo.insert(entry)
        assert _paths(repo.scan()) == ["/stored/up", "/stored/r2",
                                       "/stored/by", "/stored/r3",
                                       "/stored/r1"]
        policy = HeuristicRetentionPolicy(window_ticks=5)
        evicted = policy.sweep(repo, dfs, LogicalClock(10))
        assert _paths(evicted) == ["/stored/up", "/stored/r1",
                                   "/stored/r2", "/stored/r3"]
        assert _paths(repo.scan()) == ["/stored/by"]

    def test_deleting_an_owned_output_invalidates_its_memo(self):
        # Round 1 reads /stored/up's version for the reader (present, so
        # the reader survives round 1); the sweep then deletes that file,
        # and round 2 must see it gone rather than the memoized version.
        repo = Repository()
        dfs = _dfs_with("/data/d0", "/stored/up")
        version = dfs.status("/stored/up").version
        reader = chain_entry(1, 1, "/stored/r", source="/stored/up",
                             version=version, output_bytes=1,
                             created_tick=10)
        upstream = chain_entry(0, 1, "/stored/up")
        repo.insert(reader)
        repo.insert(upstream)
        assert _paths(repo.scan()) == ["/stored/r", "/stored/up"]
        policy = HeuristicRetentionPolicy(window_ticks=5)
        assert policy.sweep(repo, dfs, LogicalClock(10)) == [upstream, reader]
        assert len(repo) == 0

    def test_unowned_output_does_not_cascade(self):
        repo = Repository()
        dfs = _dfs_with("/data/d0", "/stored/up")
        upstream = chain_entry(0, 1, "/stored/up")
        upstream.owns_file = False
        reader = chain_entry(1, 1, "/stored/r", source="/stored/up",
                             version=dfs.status("/stored/up").version,
                             created_tick=10)
        repo.insert(upstream)
        repo.insert(reader)
        policy = HeuristicRetentionPolicy(window_ticks=5)
        assert policy.sweep(repo, dfs, LogicalClock(10)) == [upstream]
        assert dfs.exists("/stored/up")


class TestNoWholeRepositoryPass:
    """Nothing on the write path sorts: an insert, a use-stamp, a sweep,
    a checkpoint and a cold reload run no Kahn pass. A probe hands Kahn
    only its candidates and their subsumption ancestors."""

    def _instrument(self, monkeypatch):
        calls = []  # entry ids handed to each Kahn pass
        greedy_order = Repository._greedy_order

        def counting(repository, ids):
            calls.append(set(ids))
            return greedy_order(repository, ids)

        monkeypatch.setattr(Repository, "_greedy_order", counting)
        return calls

    @staticmethod
    def _ancestors(repository, entries):
        """``entries``' ids plus every transitive subsumption ancestor,
        from the public edge view."""
        edges = repository.subsumption_edges_among(
            [entry.entry_id for entry in repository])
        parents = {entry_id: set() for entry_id in edges}
        for above, below in edges.items():
            for entry_id in below:
                parents[entry_id].add(above)
        closure = {entry.entry_id for entry in entries}
        frontier = list(closure)
        while frontier:
            for parent in parents[frontier.pop()] - closure:
                closure.add(parent)
                frontier.append(parent)
        return closure

    def test_churn_stream_and_cold_reload(self, monkeypatch):
        calls = self._instrument(monkeypatch)
        rng = random.Random(7)
        dfs = _dfs_with(*(f"/data/d{index}" for index in range(5)))
        versions = {f"/data/d{index}": 1 for index in range(5)}
        live = ShardedRepository(num_shards=4)
        log = RepositoryLog(dfs).attach(live)
        policy = HeuristicRetentionPolicy(window_ticks=100)
        checked = probed = largest = 0
        for tick in range(400):
            for _ in range(rng.randint(1, 2)):
                family = rng.randrange(150)
                source = f"/data/d{family % 5}"
                entry = chain_entry(family, rng.randint(1, 3),
                                    f"/stored/t{tick}-{family}",
                                    version=versions[source],
                                    output_bytes=rng.choice([10, 10, 40]),
                                    created_tick=tick)
                live.insert(entry)
                assert not calls, tick
                checked += 1
                # The new entry's own plan: it and every shallower entry
                # of its family are candidates.
                candidates = live.match_candidates(entry.plan)
                closure = self._ancestors(live, candidates)
                assert all(handed <= closure for handed in calls), tick
                probed += bool(calls)
                calls.clear()
            if len(live) > 2 and rng.random() < 0.3:
                live.record_use(rng.choice(list(live)), tick)
            if tick % 50 == 49:
                source = f"/data/d{rng.randrange(5)}"
                dfs.write_lines(source, [f"v{tick}"], overwrite=True)
                versions[source] = dfs.status(source).version
            policy.sweep(live, dfs, LogicalClock(tick))
            largest = max(largest, len(live))
            if tick == 300:
                log.compact()
            elif tick % 10 == 0:
                log.checkpoint()
            assert not calls, tick
        log.flush()
        assert largest >= 150 and checked >= 500 and probed >= 50

        reloaded = load_repository(dfs)
        assert reloaded.loader_report.replayed_records > 0
        assert not calls
        assert _paths(reloaded.scan()) == _paths(live.scan())
        log.detach()
