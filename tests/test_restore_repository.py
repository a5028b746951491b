"""Unit tests for the repository: ordering, dedup, removal, statistics."""

import pytest

from repro.common.errors import RepositoryError
from repro.dfs import DistributedFileSystem
from repro.logical import build_logical_plan
from repro.physical import logical_to_physical
from repro.physical.operators import POLoad, POStore
from repro.physical.plan import PhysicalPlan
from repro.piglatin import parse_query
from repro.restore import LinearScanRepository, Repository, RepositoryEntry
from repro.restore.persistence import SkeletonOp
from repro.restore.stats import EntryStats

from tests.helpers import probe_order, Q1_TEXT, Q2_TEXT


def plan_of(text):
    return logical_to_physical(build_logical_plan(parse_query(text)))


PROJECT = """
A = load '/data/page_views' as (user:chararray, timestamp:int,
    est_revenue:double, page_info:chararray, page_links:chararray);
B = foreach A generate user, est_revenue;
store B into '/stored/proj';
"""

FILTERED = """
A = load '/data/page_views' as (user:chararray, timestamp:int,
    est_revenue:double, page_info:chararray, page_links:chararray);
B = filter A by timestamp < 100;
store B into '/stored/filt';
"""


def entry(text, output="/stored/x", input_bytes=1000, output_bytes=100,
          time=60.0, versions=None):
    return RepositoryEntry(
        plan_of(text), output,
        EntryStats(input_bytes, output_bytes, time),
        input_versions=versions or {},
    )


class TestOrdering:
    def test_subsuming_plan_scans_first_regardless_of_metrics(self):
        repo = Repository()
        # The projection has a (much) better ratio, but Q1 subsumes it.
        projection = entry(PROJECT, output_bytes=1, time=1.0)
        whole = entry(Q1_TEXT, output="/stored/q1", output_bytes=900, time=5.0)
        repo.insert(projection)
        repo.insert(whole)
        assert repo.scan()[0] is whole

    def test_insertion_order_does_not_matter(self):
        for first_is_whole in (True, False):
            repo = Repository()
            projection = entry(PROJECT, output_bytes=1)
            whole = entry(Q1_TEXT, output="/stored/q1", output_bytes=900)
            if first_is_whole:
                repo.insert(whole)
                repo.insert(projection)
            else:
                repo.insert(projection)
                repo.insert(whole)
            assert repo.scan()[0] is whole

    def test_transitive_constraint_respected_with_interloper(self):
        # A high-ratio unrelated entry must not jump ahead of an entry it
        # is subsumed by (regression test for naive insertion sort).
        repo = Repository()
        unrelated = entry(FILTERED, output="/stored/f", input_bytes=10**9,
                          output_bytes=1)
        projection = entry(PROJECT, output_bytes=500)
        whole = entry(Q2_TEXT, output="/stored/q2", output_bytes=900)
        repo.insert(whole)
        repo.insert(projection)
        repo.insert(unrelated)
        order = repo.scan()
        assert order.index(whole) < order.index(projection)

    def test_unrelated_entries_ordered_by_ratio_then_time(self):
        repo = Repository()
        low_ratio = entry(PROJECT, input_bytes=100, output_bytes=100, time=10)
        high_ratio = entry(FILTERED, output="/stored/f", input_bytes=1000,
                           output_bytes=1, time=1)
        repo.insert(low_ratio)
        repo.insert(high_ratio)
        assert repo.scan()[0] is high_ratio

    def test_equal_ratio_breaks_by_time(self):
        repo = Repository()
        slow = entry(PROJECT, input_bytes=100, output_bytes=10, time=100)
        fast = entry(FILTERED, output="/stored/f", input_bytes=100,
                     output_bytes=10, time=5)
        repo.insert(fast)
        repo.insert(slow)
        assert repo.scan()[0] is slow  # longer producing time preferred


def _filter(signature):
    return SkeletonOp("filter", signature, [POLoad("/data/t", None, 0)])


class TestRemovalWindow:
    """An ancestor ``p`` with the worst key blocks ``c1``, which has the
    best key; ``c2`` sits between them and nothing relates it to the
    other two. A probe sees ``c1`` and ``c2``."""

    PROBE = PhysicalPlan([POStore(_filter("FILTER[x]"), "/q/x"),
                          POStore(_filter("FILTER[y]"), "/q/y")])

    @staticmethod
    def _inserted(repo):
        c1 = repo.insert(RepositoryEntry(
            PhysicalPlan([POStore(_filter("FILTER[x]"), "/s/c1")]), "/s/c1",
            EntryStats(1000, 10, 5.0)))
        p = repo.insert(RepositoryEntry(
            PhysicalPlan([POStore(SkeletonOp("foreach", "FOREACH[w]",
                                             [_filter("FILTER[x]")]),
                                  "/s/p")]), "/s/p",
            EntryStats(1000, 1000, 1.0)))
        c2 = repo.insert(RepositoryEntry(
            PhysicalPlan([POStore(_filter("FILTER[y]"), "/s/c2")]), "/s/c2",
            EntryStats(1000, 100, 5.0)))
        return c1, p, c2

    def test_blocked_candidate_scans_after_its_ancestor(self):
        repo = Repository()
        c1, p, c2 = self._inserted(repo)
        assert repo.scan() == (c2, p, c1)
        assert repo.match_candidates(self.PROBE) == (c2, c1)
        assert probe_order(repo, (c1, c2)) == (c2, c1)

    def test_removing_the_ancestor_frees_its_dependent_at_once(self):
        repo = Repository()
        c1, p, c2 = self._inserted(repo)
        repo.remove(p)
        assert repo.scan() == (c1, c2)
        assert repo.match_candidates(self.PROBE) == (c1, c2)
        assert probe_order(repo, (c1, c2)) == (c1, c2)

    def test_seed_oracle_re_sorts_on_removal(self):
        seed = LinearScanRepository()
        c1, p, c2 = self._inserted(seed)
        assert seed.scan() == [c2, p, c1]
        seed.remove(p)
        assert seed.scan() == [c1, c2]


class TestLookupAndRemoval:
    def test_entry_by_id(self):
        repo = Repository()
        stored = repo.insert(entry(PROJECT))
        assert repo.entry(stored.entry_id) is stored
        with pytest.raises(RepositoryError):
            repo.entry("nope")

    def test_find_equivalent(self):
        repo = Repository()
        repo.insert(entry(PROJECT))
        assert repo.find_equivalent(plan_of(PROJECT)) is not None
        assert repo.find_equivalent(plan_of(FILTERED)) is None

    def test_remove_deletes_owned_file(self):
        dfs = DistributedFileSystem()
        dfs.write_lines("/stored/x", ["data"])
        repo = Repository()
        stored = repo.insert(entry(PROJECT, output="/stored/x"))
        repo.remove(stored, dfs)
        assert len(repo) == 0
        assert not dfs.exists("/stored/x")

    def test_remove_keeps_unowned_file(self):
        dfs = DistributedFileSystem()
        dfs.write_lines("/user/out", ["data"])
        repo = Repository()
        unowned = entry(PROJECT, output="/user/out")
        unowned.owns_file = False
        repo.insert(unowned)
        repo.remove(unowned, dfs)
        assert dfs.exists("/user/out")

    def test_remove_missing_raises(self):
        repo = Repository()
        with pytest.raises(RepositoryError):
            repo.remove(entry(PROJECT))


class TestStatistics:
    def test_total_stored_bytes(self):
        repo = Repository()
        repo.insert(entry(PROJECT, output_bytes=100))
        repo.insert(entry(FILTERED, output="/stored/f", output_bytes=50))
        assert repo.total_stored_bytes() == 150

    def test_record_use_updates_counters(self):
        stats = EntryStats(1000, 100, 60.0, created_tick=1)
        stats.record_use(5)
        stats.record_use(9)
        assert stats.use_count == 2
        assert stats.last_used_tick == 9

    def test_reduction_ratio(self):
        assert EntryStats(1000, 100, 1.0).reduction_ratio == 10
        assert EntryStats(1000, 0, 1.0).reduction_ratio == 1000  # no div-zero

    def test_describe_mentions_entries(self):
        repo = Repository()
        stored = repo.insert(entry(PROJECT))
        assert stored.entry_id in repo.describe()


class TestScanSnapshot:
    def test_scan_returns_immutable_cached_snapshot(self):
        # The matcher's rescan loop calls scan() repeatedly; the repository
        # must hand out one immutable snapshot, not a fresh list per call.
        repo = Repository()
        repo.insert(entry(PROJECT))
        repo.insert(entry(FILTERED, output="/stored/f"))
        snapshot = repo.scan()
        assert isinstance(snapshot, tuple)
        assert repo.scan() is snapshot
        with pytest.raises(AttributeError):
            snapshot.append  # tuples expose no mutators

    def test_snapshot_invalidated_by_insert_and_remove(self):
        repo = Repository()
        first = repo.insert(entry(PROJECT))
        before = repo.scan()
        second = repo.insert(entry(FILTERED, output="/stored/f"))
        after_insert = repo.scan()
        assert after_insert is not before
        assert set(after_insert) == {first, second}
        repo.remove(second)
        assert repo.scan() == (first,)


class TestIndexMaintenance:
    def test_remove_leaves_no_mention_of_the_entry(self):
        # Seed regression: remove() left state keyed by the removed entry
        # behind, so eviction-heavy retention policies grew it without
        # bound. After remove() no index, bucket or edge set of the
        # repository may hold the entry or its id — while the survivor's
        # own state (here: nothing left to subsume) stays consistent.
        def mentions(value, entry):
            if value is entry or value == entry.entry_id:
                return True
            if isinstance(value, dict):
                return any(mentions(item, entry)
                           for pair in value.items() for item in pair)
            if isinstance(value, (list, tuple, set, frozenset)):
                return any(mentions(item, entry) for item in value)
            if hasattr(value, "__dict__") and not isinstance(value, RepositoryEntry):
                return mentions(vars(value), entry)
            return False

        repo = Repository()
        kept = repo.insert(entry(PROJECT))
        for round_index in range(12):
            container = repo.insert(
                entry(Q1_TEXT, output=f"/stored/q{round_index}"))
            sibling = repo.insert(
                entry(FILTERED, output=f"/stored/f{round_index}"))
            assert kept.entry_id in repo._edges_out[container.entry_id]
            repo.match_candidates(plan_of(Q1_TEXT))
            repo.scan()  # fills the snapshot cache
            for dropped in (container, sibling):
                assert mentions(vars(repo), dropped)
                repo.remove(dropped)
                repo.scan()  # the snapshot, rebuilt without the entry
                assert not mentions(vars(repo), dropped)
        assert repo.scan() == (kept,)
        assert mentions(vars(repo), kept)
        assert repo._edges_in[kept.entry_id] == set()

    def test_match_candidates_filters_disjoint_loads(self):
        repo = Repository()
        page_views = repo.insert(entry(PROJECT))
        repo.insert(entry(FILTERED, output="/stored/f"))
        other = plan_of(PROJECT.replace("/data/page_views", "/data/elsewhere"))
        assert repo.match_candidates(other) == ()
        same = plan_of(PROJECT)
        assert page_views in repo.match_candidates(same)

    def test_match_candidates_preserve_scan_order(self):
        repo = Repository()
        repo.insert(entry(PROJECT, output_bytes=1, time=1.0))
        repo.insert(entry(Q1_TEXT, output="/stored/q1", output_bytes=900, time=5.0))
        repo.insert(entry(FILTERED, output="/stored/f"))
        probe = plan_of(Q1_TEXT)
        candidates = repo.match_candidates(probe)
        order = repo.scan()
        assert [order.index(c) for c in candidates] == \
            sorted(order.index(c) for c in candidates)

    def test_fingerprint_invariant_under_store_path(self):
        a = plan_of(PROJECT)
        b = plan_of(PROJECT.replace("/stored/proj", "/stored/other"))
        from repro.restore import plan_fingerprint
        assert plan_fingerprint(a) == plan_fingerprint(b)
        assert plan_fingerprint(a) != plan_fingerprint(plan_of(FILTERED))
