"""Unit tests for the repository index structures (PR 1).

Fingerprints, leaf-load keys, and the inverted index are what make the
repository's scan/insert/match paths sublinear; these tests pin their
local contracts (the global equivalence claim lives in
``tests/test_property_restore.py``).
"""

import pytest

from repro.logical import build_logical_plan
from repro.physical import logical_to_physical
from repro.physical.operators import POStore
from repro.physical.plan import PhysicalPlan
from repro.piglatin import parse_query
from repro.restore import Repository, RepositoryEntry
from repro.restore.index import (
    leaf_loads,
    LoadIndex,
    parse_load_signature,
    plan_fingerprint,
)
from repro.restore.persistence import plan_from_json, plan_to_json, SkeletonOp
from repro.restore.stats import EntryStats


def plan_of(text):
    return logical_to_physical(build_logical_plan(parse_query(text)))


BASE = """
A = load '/data/t' as (k:chararray, a:int, b:int);
B = filter A by a > 10;
store B into '/stored/x';
"""

TWO_LOADS = """
A = load '/data/t' as (k:chararray, a:int, b:int);
B = load '/data/u' as (k:chararray, a:int, b:int);
C = join A by k, B by k;
store C into '/stored/j';
"""


def entry(text, output="/stored/x"):
    return RepositoryEntry(plan_of(text), output, EntryStats(1000, 100, 60.0))


class TestParseLoadSignature:
    def test_roundtrip(self):
        assert parse_load_signature("LOAD[/data/t@v3]") == ("/data/t", 3)

    def test_path_containing_at_v(self):
        # rpartition keeps everything before the *last* "@v" as the path.
        assert parse_load_signature("LOAD[/data/x@v1/y@v2]") == ("/data/x@v1/y", 2)

    def test_rejects_foreign_signatures(self):
        assert parse_load_signature("FILTER[a>10]") is None
        assert parse_load_signature("LOAD[/data/t]") is None
        assert parse_load_signature("LOAD[/data/t@vNaN]") is None


class TestLeafLoads:
    def test_real_plan(self):
        assert leaf_loads(plan_of(BASE)) == frozenset({("/data/t", 0)})
        assert leaf_loads(plan_of(TWO_LOADS)) == frozenset(
            {("/data/t", 0), ("/data/u", 0)})

    def test_skeleton_plan_parses_signatures(self):
        skeleton = plan_from_json(plan_to_json(plan_of(TWO_LOADS)))
        assert leaf_loads(skeleton) == leaf_loads(plan_of(TWO_LOADS))

    def test_unkeyable_load_returns_none(self):
        weird = SkeletonOp("load", "LOAD-THING-WITHOUT-KEY", [])
        inner = SkeletonOp("filter", "FILTER[x]", [weird])
        plan = PhysicalPlan([POStore(inner, "/stored/w")])
        assert leaf_loads(plan) is None


class TestPlanFingerprint:
    def test_stable_and_store_path_independent(self):
        assert plan_fingerprint(plan_of(BASE)) == plan_fingerprint(
            plan_of(BASE.replace("/stored/x", "/stored/elsewhere")))

    def test_distinguishes_structure(self):
        other = BASE.replace("a > 10", "a > 11")
        assert plan_fingerprint(plan_of(BASE)) != plan_fingerprint(plan_of(other))

    def test_distinguishes_load_versions(self):
        versioned = plan_of(BASE)
        for op in versioned.loads():
            op.version = 9
        assert plan_fingerprint(versioned) != plan_fingerprint(plan_of(BASE))

    def test_survives_persistence(self):
        plan = plan_of(TWO_LOADS)
        assert plan_fingerprint(plan_from_json(plan_to_json(plan))) == \
            plan_fingerprint(plan)

    def test_requires_single_store(self):
        plan = plan_of(BASE)
        plan.add_sink(POStore(plan.stores()[0].inputs[0], "/stored/extra"))
        with pytest.raises(ValueError):
            plan_fingerprint(plan)


class TestLoadIndex:
    def test_candidates_are_subset_filtered(self):
        index = LoadIndex()
        # Admitted first: the repository gives each entry its id.
        repository = Repository()
        single = repository.insert(entry(BASE))
        double = repository.insert(entry(TWO_LOADS, output="/stored/j"))
        index.add(single)
        index.add(double)
        both = frozenset({("/data/t", 0), ("/data/u", 0)})
        assert index.candidate_ids(both) == {single.entry_id, double.entry_id}
        assert index.candidate_ids(frozenset({("/data/t", 0)})) == \
            {single.entry_id}
        assert index.candidate_ids(frozenset({("/data/v", 0)})) == set()
        assert index.candidate_ids(None) is None

    def test_discard_cleans_postings(self):
        index = LoadIndex()
        stored = entry(BASE)
        index.add(stored)
        index.discard(stored)
        assert index.candidate_ids(frozenset({("/data/t", 0)})) == set()
        assert index._postings == {}
        assert index._loads == {}

    def test_unkeyable_entries_are_always_candidates(self):
        weird_load = SkeletonOp("load", "LOAD-WITHOUT-KEY", [])
        inner = SkeletonOp("filter", "FILTER[x]", [weird_load])
        plan = PhysicalPlan([POStore(inner, "/stored/w")])
        unkeyable = RepositoryEntry(plan, "/stored/w", EntryStats(10, 1, 1.0))
        index = LoadIndex()
        index.add(unkeyable)
        assert index.candidate_ids(frozenset({("/data/t", 0)})) == \
            {unkeyable.entry_id}


class TestRepositoryIndexIntegration:
    def test_insert_after_remove_matches_full_reorder(self):
        # A removal frees the removed entry's dependents; the order
        # after the next insert covers exactly the remaining set.
        repo = Repository()
        blocked = entry(BASE, output="/stored/low")
        blocked.stats.producing_job_time = 1.0
        first = repo.insert(blocked)
        second = repo.insert(entry(TWO_LOADS, output="/stored/j"))
        repo.remove(second)
        third = repo.insert(entry(BASE.replace("a > 10", "a > 12"),
                                  output="/stored/new"))
        assert set(repo.scan()) == {first, third}

    def test_find_equivalent_degenerate_probe_matches_seed(self):
        # A probe without a single match frontier must behave like the
        # seed's literal scan: an empty repository answers None rather
        # than raising from the fingerprint path.
        from repro.restore import LinearScanRepository
        plan = plan_of(BASE)
        plan.add_sink(POStore(plan.stores()[0].inputs[0], "/stored/extra"))
        assert Repository().find_equivalent(plan) is None
        assert LinearScanRepository().find_equivalent(plan) is None

    def test_find_equivalent_prefers_scan_order_among_duplicates(self):
        repo = Repository()
        slow = entry(BASE, output="/stored/slow")
        slow.stats.producing_job_time = 1.0
        fast = entry(BASE, output="/stored/fast")
        fast.stats.producing_job_time = 99.0
        repo.insert(slow)
        repo.insert(fast)
        found = repo.find_equivalent(plan_of(BASE))
        assert found is repo.scan()[0]
        assert found is fast  # longer producing time scans first

    def test_reloaded_entries_digest_like_their_live_twins(self):
        # load_repository rebuilds entries around skeleton plans and
        # re-inserts them: their lazily built digests — hence the
        # subsumption edges found from them — must equal the live ones.
        from repro.dfs import DistributedFileSystem
        from repro.restore import load_repository, save_repository
        live = Repository()
        inner = live.insert(entry(BASE))
        outer = live.insert(entry(
            BASE.replace("store B", "C = foreach B generate k; store C"),
            output="/stored/outer"))
        live.insert(entry(TWO_LOADS, output="/stored/j"))
        assert live._edges_out[outer.entry_id] == {inner.entry_id}
        dfs = DistributedFileSystem()
        save_repository(live, dfs)
        loaded = load_repository(dfs)
        position = {stored.entry_id: index
                    for index, stored in enumerate(loaded.scan())}
        assert len(loaded) == 3
        for old, new in zip(live.scan(), loaded.scan()):
            assert new.digest.fingerprint == old.digest.fingerprint
            assert list(new.digest.sites) == list(old.digest.sites)
            assert ({position[below] for below in loaded._edges_out[new.entry_id]}
                    == {live.scan().index(live.entry(below))
                        for below in live._edges_out[old.entry_id]})
