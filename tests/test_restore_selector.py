"""Unit tests for the retention/eviction policies (Section 5, Rules 1-4)."""

import pytest

from repro.common import LogicalClock
from repro.dfs import DistributedFileSystem
from repro.logical import build_logical_plan
from repro.mapreduce import CostModel, CostModelConfig
from repro.physical import logical_to_physical
from repro.piglatin import parse_query
from repro.restore import (
    HeuristicRetentionPolicy,
    KeepEverythingPolicy,
    Repository,
    RepositoryEntry,
)
from repro.restore.stats import EntryStats

PLAN_TEXT = """
A = load '/data/in' as (x:int, y:int);
B = filter A by x > 0;
store B into '/stored/out';
"""


def make_entry(input_bytes=10**9, output_bytes=10**6, time=600.0,
               created_tick=0, versions=None, owns_file=True):
    plan = logical_to_physical(build_logical_plan(parse_query(PLAN_TEXT)))
    stats = EntryStats(input_bytes, output_bytes, time, created_tick=created_tick)
    return RepositoryEntry(plan, "/stored/out", stats,
                           input_versions=versions or {}, owns_file=owns_file)


def cost_model():
    return CostModel(CostModelConfig())


class TestKeepEverything:
    def test_keeps_anything(self):
        policy = KeepEverythingPolicy()
        bad = make_entry(input_bytes=1, output_bytes=10**9, time=0.001)
        assert policy.should_keep(bad, cost_model())

    def test_sweep_evicts_nothing(self):
        repo = Repository()
        repo.insert(make_entry())
        dfs = DistributedFileSystem()
        assert KeepEverythingPolicy().sweep(repo, dfs, LogicalClock(100)) == []
        assert len(repo) == 1


class TestRule1OutputSmallerThanInput:
    def test_accepts_reducing_output(self):
        policy = HeuristicRetentionPolicy()
        assert policy.should_keep(make_entry(), cost_model())

    def test_rejects_expanding_output(self):
        policy = HeuristicRetentionPolicy()
        expanding = make_entry(input_bytes=100, output_bytes=1000)
        assert not policy.should_keep(expanding, cost_model())

    def test_rule_can_be_disabled(self):
        policy = HeuristicRetentionPolicy(require_reduction=False,
                                          require_benefit=False)
        expanding = make_entry(input_bytes=100, output_bytes=1000)
        assert policy.should_keep(expanding, cost_model())


class TestRule2TimeBenefit:
    def test_rejects_when_reload_costs_more_than_recompute(self):
        policy = HeuristicRetentionPolicy()
        # Producing the job took 1 s; reloading its output takes longer
        # than that (startup alone is several seconds).
        cheap = make_entry(time=1.0)
        assert not policy.should_keep(cheap, cost_model())

    def test_accepts_when_recompute_is_expensive(self):
        policy = HeuristicRetentionPolicy()
        expensive = make_entry(time=3600.0, output_bytes=10**6)
        assert policy.should_keep(expensive, cost_model())


class TestRule3ReuseWindow:
    def _repo_with_entry(self, created_tick, versions=None):
        repo = Repository()
        dfs = DistributedFileSystem()
        dfs.write_lines("/data/in", ["1\t2"])
        dfs.write_lines("/stored/out", ["1\t2"])
        entry = make_entry(created_tick=created_tick,
                           versions=versions if versions is not None
                           else {"/data/in": 1})
        repo.insert(entry)
        return repo, dfs, entry

    def test_fresh_entry_survives(self):
        repo, dfs, _ = self._repo_with_entry(created_tick=8)
        policy = HeuristicRetentionPolicy(window_ticks=5)
        assert policy.sweep(repo, dfs, LogicalClock(10)) == []

    def test_idle_entry_evicted(self):
        repo, dfs, entry = self._repo_with_entry(created_tick=1)
        policy = HeuristicRetentionPolicy(window_ticks=5)
        evicted = policy.sweep(repo, dfs, LogicalClock(10))
        assert evicted == [entry]
        assert len(repo) == 0
        assert not dfs.exists("/stored/out")  # owned file reclaimed

    def test_recent_use_resets_window(self):
        repo, dfs, entry = self._repo_with_entry(created_tick=1)
        entry.stats.record_use(9)
        policy = HeuristicRetentionPolicy(window_ticks=5)
        assert policy.sweep(repo, dfs, LogicalClock(10)) == []


class TestRule4InputInvalidation:
    def test_deleted_input_evicts(self):
        repo = Repository()
        dfs = DistributedFileSystem()
        dfs.write_lines("/stored/out", ["x"])
        entry = make_entry(versions={"/data/in": 1})  # /data/in never written
        repo.insert(entry)
        policy = HeuristicRetentionPolicy(window_ticks=100)
        assert policy.sweep(repo, dfs, LogicalClock(1)) == [entry]

    def test_modified_input_evicts(self):
        repo = Repository()
        dfs = DistributedFileSystem()
        dfs.write_lines("/data/in", ["old"])
        dfs.write_lines("/stored/out", ["x"])
        entry = make_entry(versions={"/data/in": 1})
        repo.insert(entry)
        dfs.write_lines("/data/in", ["new"], overwrite=True)  # version 2
        policy = HeuristicRetentionPolicy(window_ticks=100)
        assert policy.sweep(repo, dfs, LogicalClock(1)) == [entry]

    def test_identical_rewrite_does_not_evict(self):
        repo = Repository()
        dfs = DistributedFileSystem()
        dfs.write_lines("/data/in", ["same"])
        dfs.write_lines("/stored/out", ["x"])
        entry = make_entry(versions={"/data/in": 1})
        repo.insert(entry)
        dfs.write_lines("/data/in", ["same"], overwrite=True)  # content-stable
        policy = HeuristicRetentionPolicy(window_ticks=100)
        assert policy.sweep(repo, dfs, LogicalClock(1)) == []

    def _entry_for(self, text, output_path, versions, created_tick=0,
                   time=600.0):
        from repro.logical import build_logical_plan as blp
        from repro.physical import logical_to_physical as l2p
        from repro.piglatin import parse_query as pq

        return RepositoryEntry(
            l2p(blp(pq(text))), output_path,
            EntryStats(10**9, 10**3, time, created_tick=created_tick),
            input_versions=versions,
        )

    def test_eviction_cascade(self):
        # Entry B reads entry A's output; evicting A (deleting its file)
        # must cascade to B via Rule 4.
        repo = Repository()
        dfs = DistributedFileSystem()
        dfs.write_lines("/data/in", ["1\t2"])
        dfs.write_lines("/stored/out", ["1\t2"])
        dfs.write_lines("/stored/downstream", ["1"])
        stale = make_entry(created_tick=0, versions={"/data/in": 1})

        downstream_text = PLAN_TEXT.replace("/data/in", "/stored/out").replace(
            "'/stored/out';", "'/stored/downstream';")
        from repro.logical import build_logical_plan as blp
        from repro.physical import logical_to_physical as l2p
        from repro.piglatin import parse_query as pq

        downstream = RepositoryEntry(
            l2p(blp(pq(downstream_text))),
            "/stored/downstream",
            EntryStats(10**9, 10**3, 600.0, created_tick=10),
            input_versions={"/stored/out": 1},
        )
        repo.insert(stale)
        repo.insert(downstream)
        policy = HeuristicRetentionPolicy(window_ticks=5)
        evicted = policy.sweep(repo, dfs, LogicalClock(10))
        # `stale` idles out (Rule 3); its file deletion invalidates
        # `downstream` (Rule 4).
        assert set(evicted) == {stale, downstream}
        assert len(repo) == 0

    def test_three_level_cascade_reaches_fixpoint(self):
        # A -> B -> C dependency chain of stored outputs: only A is
        # stale, but deleting its file invalidates B (Rule 4), and
        # deleting B's file invalidates C — the sweep's re-check rounds
        # must follow the chain to the fixpoint, not stop after one.
        repo = Repository()
        dfs = DistributedFileSystem()
        dfs.write_lines("/data/in", ["1\t2"])
        for path in ("/stored/a", "/stored/b", "/stored/c"):
            dfs.write_lines(path, ["1\t2"])

        def text(src, dst):
            return PLAN_TEXT.replace("/data/in", src).replace(
                "'/stored/out';", f"'{dst}';")

        a = self._entry_for(text("/data/in", "/stored/a"), "/stored/a",
                            {"/data/in": 1}, created_tick=0)
        b = self._entry_for(text("/stored/a", "/stored/b"), "/stored/b",
                            {"/stored/a": 1}, created_tick=10)
        c = self._entry_for(text("/stored/b", "/stored/c"), "/stored/c",
                            {"/stored/b": 1}, created_tick=10)
        for entry in (a, b, c):
            repo.insert(entry)
        policy = HeuristicRetentionPolicy(window_ticks=5)
        evicted = policy.sweep(repo, dfs, LogicalClock(10))
        assert set(evicted) == {a, b, c}
        assert len(repo) == 0
        for path in ("/stored/a", "/stored/b", "/stored/c"):
            assert not dfs.exists(path)

    def test_evicting_an_entrys_only_subsumption_parent(self):
        # P strictly subsumes Q (same load, P extends Q's plan). Both
        # expire in the same sweep: removing P first prunes its
        # subsumption edge to Q, and the repository must stay coherent —
        # a subsequent insert re-derives the scan order over the pruned
        # edge sets without touching the removed ids.
        repo = Repository()
        dfs = DistributedFileSystem()
        dfs.write_lines("/data/in", ["1\t2"])
        dfs.write_lines("/stored/q", ["1\t2"])
        dfs.write_lines("/stored/p", ["1"])
        q_entry = self._entry_for(
            PLAN_TEXT.replace("/stored/out", "/stored/q"),
            "/stored/q", {"/data/in": 1}, created_tick=0)
        p_text = PLAN_TEXT.replace(
            "store B into '/stored/out';",
            "C = distinct B;\nstore C into '/stored/p';")
        p_entry = self._entry_for(p_text, "/stored/p", {"/data/in": 1},
                                  created_tick=0)
        repo.insert(q_entry)
        repo.insert(p_entry)
        # Rule 1: the subsuming plan scans first.
        assert [e.output_path for e in repo.scan()] == \
            ["/stored/p", "/stored/q"]

        policy = HeuristicRetentionPolicy(window_ticks=5)
        evicted = policy.sweep(repo, dfs, LogicalClock(10))
        assert set(evicted) == {p_entry, q_entry}
        assert len(repo) == 0

        # The repository is still consistent after losing both ends of
        # the subsumption edge: inserting fresh twins rebuilds the same
        # order from scratch.
        fresh_q = self._entry_for(
            PLAN_TEXT.replace("/stored/out", "/stored/q2"),
            "/stored/q2", {"/data/in": 1}, created_tick=10)
        fresh_p = self._entry_for(p_text.replace("/stored/p", "/stored/p2"),
                                  "/stored/p2", {"/data/in": 1},
                                  created_tick=10)
        repo.insert(fresh_q)
        repo.insert(fresh_p)
        assert [e.output_path for e in repo.scan()] == \
            ["/stored/p2", "/stored/q2"]

    def test_surviving_dependent_of_evicted_subsumption_parent(self):
        # Only the subsuming parent expires; the contained entry was
        # recently used and must survive the sweep with the edge sets
        # pruned (a follow-up insert exercises the post-removal reorder).
        repo = Repository()
        dfs = DistributedFileSystem()
        dfs.write_lines("/data/in", ["1\t2"])
        dfs.write_lines("/stored/q", ["1\t2"])
        dfs.write_lines("/stored/p", ["1"])
        q_entry = self._entry_for(
            PLAN_TEXT.replace("/stored/out", "/stored/q"),
            "/stored/q", {"/data/in": 1}, created_tick=0)
        p_text = PLAN_TEXT.replace(
            "store B into '/stored/out';",
            "C = distinct B;\nstore C into '/stored/p';")
        p_entry = self._entry_for(p_text, "/stored/p", {"/data/in": 1},
                                  created_tick=0)
        repo.insert(q_entry)
        repo.insert(p_entry)
        q_entry.stats.record_use(9)  # still inside the window

        policy = HeuristicRetentionPolicy(window_ticks=5)
        evicted = policy.sweep(repo, dfs, LogicalClock(10))
        assert evicted == [p_entry]
        assert [e.output_path for e in repo.scan()] == ["/stored/q"]
        another = self._entry_for(
            PLAN_TEXT.replace("/stored/out", "/stored/r"),
            "/stored/r", {"/data/in": 1}, created_tick=10)
        repo.insert(another)
        assert set(e.output_path for e in repo.scan()) == \
            {"/stored/q", "/stored/r"}

    def test_recreated_input_path_still_evicts(self):
        # Rule 4's sharp edge: an input that is *deleted and re-created*
        # (rather than overwritten) must not resurrect stale entries.
        # The DFS continues the version sequence across the delete, so
        # the version recorded at registration never matches again.
        repo = Repository()
        dfs = DistributedFileSystem()
        dfs.write_lines("/data/in", ["old"])
        dfs.write_lines("/stored/out", ["x"])
        entry = make_entry(versions={"/data/in": 1})
        repo.insert(entry)
        dfs.delete("/data/in")
        dfs.write_lines("/data/in", ["new"])  # re-created, not overwritten
        assert dfs.status("/data/in").version == 2
        policy = HeuristicRetentionPolicy(window_ticks=100)
        assert policy.sweep(repo, dfs, LogicalClock(1)) == [entry]

    def test_recreated_input_with_identical_content_still_evicts(self):
        # Content-stable versioning only applies to in-place overwrites:
        # after an explicit delete the old content is gone, so an
        # identical-looking re-creation is still a new version — the
        # deletion itself was the modification Rule 4 watches for.
        repo = Repository()
        dfs = DistributedFileSystem()
        dfs.write_lines("/data/in", ["same"])
        dfs.write_lines("/stored/out", ["x"])
        entry = make_entry(versions={"/data/in": 1})
        repo.insert(entry)
        dfs.delete("/data/in")
        dfs.write_lines("/data/in", ["same"])
        assert dfs.status("/data/in").version == 2
        policy = HeuristicRetentionPolicy(window_ticks=100)
        assert policy.sweep(repo, dfs, LogicalClock(1)) == [entry]
