"""Tests for plan containment matching (Algorithm 1)."""

import random

import pytest

from repro.logical import build_logical_plan
from repro.physical import logical_to_physical, PhysicalPlan
from repro.physical.operators import POLoad, POSplit, POStore
from repro.piglatin import parse_query
from repro.restore.matcher import (
    contains,
    find_containment,
    operator_fingerprint,
    pairwise_plan_traversal,
    PlanDigest,
)
from repro.restore.persistence import plan_from_json, plan_to_json, SkeletonOp

from tests.helpers import Q1_TEXT, Q2_TEXT


def physical(text, versions=None):
    return logical_to_physical(build_logical_plan(parse_query(text)), versions)


def as_entry_plan(plan):
    """Use a query plan as a repository entry plan (it ends with a Store)."""
    assert len(plan.stores()) == 1
    return plan


PROJECT_PV = """
A = load '/data/page_views' as (user:chararray, timestamp:int,
    est_revenue:double, page_info:chararray, page_links:chararray);
B = foreach A generate user, est_revenue;
store B into '/stored/pv_proj';
"""

PROJECT_USERS = """
alpha = load '/data/users' as (name:chararray, phone:chararray,
    address:chararray, city:chararray);
beta = foreach alpha generate name;
store beta into '/stored/users_proj';
"""


class TestContainment:
    def test_plan_contains_itself(self):
        q1 = physical(Q1_TEXT)
        match = find_containment(as_entry_plan(q1), physical(Q1_TEXT))
        assert match is not None
        # Frontier of a full self-match is the operator feeding the store.
        assert match.frontier.kind == "join"

    def test_q1_contained_in_q2(self):
        # The paper's example: Q1 (the join) is contained in Q2.
        match = find_containment(physical(Q1_TEXT), physical(Q2_TEXT))
        assert match is not None
        assert match.frontier.kind == "join"

    def test_q2_not_contained_in_q1(self):
        assert find_containment(physical(Q2_TEXT), physical(Q1_TEXT)) is None

    def test_projection_subjobs_contained_in_q1(self):
        # Figure 5's sub-jobs match inside Q1's plan.
        for text in (PROJECT_PV, PROJECT_USERS):
            match = find_containment(physical(text), physical(Q1_TEXT))
            assert match is not None
            assert match.frontier.kind == "foreach"

    def test_different_dataset_does_not_match(self):
        other = PROJECT_PV.replace("/data/page_views", "/data/other")
        assert find_containment(physical(other), physical(Q1_TEXT)) is None

    def test_different_dataset_version_does_not_match(self):
        entry = physical(PROJECT_PV, versions={"/data/page_views": 1})
        newer = physical(Q1_TEXT, versions={"/data/page_views": 2})
        assert find_containment(entry, newer) is None
        same = physical(Q1_TEXT, versions={"/data/page_views": 1})
        assert find_containment(entry, same) is not None

    def test_different_projection_does_not_match(self):
        entry = physical(PROJECT_PV.replace("user, est_revenue", "user, timestamp"))
        assert find_containment(entry, physical(Q1_TEXT)) is None

    def test_filter_predicate_must_match_exactly(self):
        def filter_query(threshold):
            return (
                "A = load '/d' as (x:int, y:int);"
                f"B = filter A by x > {threshold};"
                "store B into '/o';"
            )

        assert contains(physical(filter_query(5)), physical(filter_query(5)))
        assert not contains(physical(filter_query(5)), physical(filter_query(6)))

    def test_field_names_do_not_matter_positions_do(self):
        # Operator equivalence is positional: same function, different
        # user-chosen names.
        a = (
            "A = load '/d' as (foo:chararray, bar:int);"
            "B = foreach A generate foo;"
            "store B into '/o1';"
        )
        b = (
            "X = load '/d' as (baz:chararray, qux:int);"
            "Y = foreach X generate baz;"
            "store Y into '/o2';"
        )
        assert contains(physical(a), physical(b))

    def test_join_input_order_matters(self):
        flipped = Q1_TEXT.replace("join beta by name, B by user",
                                  "join B by user, beta by name")
        assert not contains(physical(Q1_TEXT), physical(flipped))

    def test_frontier_is_never_a_bare_load(self):
        # An entry that is Load->Store must not "match" another plan's Load.
        copy_plan = physical("A = load '/d' as (x:int); store A into '/o';")
        target = physical(
            "A = load '/d' as (x:int); B = filter A by x > 0; store B into '/o2';"
        )
        assert find_containment(copy_plan, target) is None

    def test_group_keys_must_match(self):
        base = (
            "A = load '/d' as (u:chararray, t:int);"
            "B = group A by {key};"
            "C = foreach B generate group, COUNT(A);"
            "store C into '/o';"
        )
        by_u = physical(base.format(key="u"))
        by_t = physical(base.format(key="t"))
        assert not contains(by_u, by_t)
        assert contains(by_u, physical(base.format(key="u")))

    def test_aggregate_function_must_match(self):
        base = (
            "A = load '/d' as (u:chararray, t:int);"
            "B = group A by u;"
            "C = foreach B generate group, {agg}(A.t);"
            "store C into '/o';"
        )
        sum_plan = physical(base.format(agg="SUM"))
        avg_plan = physical(base.format(agg="AVG"))
        assert not contains(sum_plan, avg_plan)

    def test_shared_join_prefix_across_aggregates_matches(self):
        # L3-variant scenario: the join is shared even when the final
        # aggregate differs.
        q2_avg = Q2_TEXT.replace("SUM", "AVG")
        assert contains(physical(Q1_TEXT), physical(q2_avg))


class TestPairwiseTraversal:
    def test_agrees_with_find_containment_on_paper_plans(self):
        cases = [
            (PROJECT_PV, Q1_TEXT, True),
            (PROJECT_USERS, Q1_TEXT, True),
            (Q1_TEXT, Q2_TEXT, True),
            (Q2_TEXT, Q1_TEXT, False),
            (PROJECT_PV.replace("page_views", "other"), Q1_TEXT, False),
        ]
        for entry_text, input_text, expected in cases:
            entry = physical(entry_text)
            target = physical(input_text)
            assert pairwise_plan_traversal(target, entry) is expected
            assert (find_containment(entry, target) is not None) is expected


# --- Differential fuzzing: Algorithm 1 vs find_containment --------------------
#
# The two containment implementations must agree on arbitrary plan DAGs,
# not just the plans the Pig compiler happens to produce: random
# structural plans (skeleton operators over a small signature pool, so
# collisions — and therefore matches — are frequent) with Splits
# sprinkled in and multi-Store input plans. The only excluded entries
# are the two documented boundary shapes, pinned by directed tests
# below: bare Load->Store entries (no match frontier by design) and
# multi-Store entries (find_containment rejects them outright).

_FUZZ_PATHS = ["/data/a", "/data/b", "/data/c"]
_FUZZ_UNARY = ["filter", "foreach", "distinct"]


def _random_nodes(rng, *, allow_splits=True):
    """A random operator DAG (as the list of all nodes, leaves first)."""
    nodes = [POLoad(rng.choice(_FUZZ_PATHS), None, rng.choice([0, 0, 1]))
             for _ in range(rng.randint(1, 2))]
    for _ in range(rng.randint(1, 5)):
        roll = rng.random()
        if roll < 0.15 and len(nodes) >= 2:
            left, right = rng.sample(nodes, 2)
            node = SkeletonOp("join", f"JOIN[k{rng.randint(0, 1)}]",
                              [left, right])
        elif roll < 0.30 and allow_splits:
            node = POSplit(rng.choice(nodes))
        else:
            kind = rng.choice(_FUZZ_UNARY)
            node = SkeletonOp(kind, f"{kind.upper()}[t{rng.randint(0, 2)}]",
                              [rng.choice(nodes)])
        nodes.append(node)
    return nodes


def _skip_splits(op):
    while op.kind == "split":
        op = op.inputs[0]
    return op


def _random_entry_plan(rng):
    """A single-Store entry plan over a random DAG; sometimes with a
    Split directly under the Store (the shape match_frontier skips)."""
    nodes = _random_nodes(rng)
    frontiers = [op for op in nodes if _skip_splits(op).kind != "load"]
    if not frontiers:
        return None
    frontier = rng.choice(frontiers)
    if rng.random() < 0.25:
        frontier = POSplit(frontier)
    return PhysicalPlan([POStore(frontier, "/stored/fuzz")])


def _random_input_plan(rng, entry_plan):
    """A random input plan; half the time it embeds a clone of the
    entry's computation (extended with extra operators and sometimes a
    second Store), so positive containments are frequent."""
    if entry_plan is not None and rng.random() < 0.5:
        cloned, _ = entry_plan.clone()
        node = cloned.stores()[0].inputs[0]
        for _ in range(rng.randint(0, 3)):
            kind = rng.choice(_FUZZ_UNARY)
            node = SkeletonOp(kind, f"{kind.upper()}[t{rng.randint(0, 2)}]",
                              [node])
        sinks = [POStore(node, "/out/fuzz")]
        extra_nodes = None
    else:
        extra_nodes = _random_nodes(rng)
        sinks = [POStore(rng.choice(extra_nodes), "/out/fuzz")]
    if extra_nodes is None and rng.random() < 0.3:
        branch = _random_nodes(rng)
        sinks.append(POStore(rng.choice(branch), "/out/fuzz2"))
    elif extra_nodes is not None and rng.random() < 0.3:
        sinks.append(POStore(rng.choice(extra_nodes), "/out/fuzz2"))
    return PhysicalPlan(sinks)


class TestDifferentialFuzz:
    def test_algorithms_agree_on_300_random_plan_pairs(self):
        rng = random.Random(20260726)
        agreements = {True: 0, False: 0}
        pairs = 0
        while pairs < 300:
            entry = _random_entry_plan(rng)
            if entry is None:
                continue
            target = _random_input_plan(rng, entry)
            pairs += 1
            match = find_containment(entry, target)
            via_containment = match is not None
            via_traversal = pairwise_plan_traversal(target, entry)
            # Digests stand in for their plans, to the same frontier.
            via_digests = find_containment(PlanDigest(entry), PlanDigest(target))
            assert (via_digests and via_digests.frontier) is (
                match and match.frontier)
            assert via_containment == via_traversal, (
                f"pair {pairs}: find_containment={via_containment}, "
                f"pairwise_plan_traversal={via_traversal}\n"
                f"entry:\n{entry.describe()}\ninput:\n{target.describe()}"
            )
            agreements[via_containment] += 1
        # The fuzz must exercise both verdicts, or agreement is vacuous.
        assert agreements[True] >= 30, agreements
        assert agreements[False] >= 30, agreements

    def test_split_under_entry_store_is_transparent_to_both(self):
        # Regression for the Algorithm 1 transcription: an entry whose
        # Store hangs off a Split must match exactly like the same entry
        # without the Split (find_containment's match_frontier skips it;
        # the traversal used to demand a literal Split twin and said no).
        load = POLoad("/data/a", None, 0)
        chain = SkeletonOp("filter", "FILTER[t0]", [load])
        entry = PhysicalPlan([POStore(POSplit(chain), "/stored/s")])
        target_chain = SkeletonOp(
            "foreach", "FOREACH[x]",
            [SkeletonOp("filter", "FILTER[t0]",
                        [POLoad("/data/a", None, 0)])])
        target = PhysicalPlan([POStore(target_chain, "/out/p")])
        assert find_containment(entry, target) is not None
        assert pairwise_plan_traversal(target, entry)

    def test_interior_split_in_entry_blocks_both(self):
        # A Split *between* entry operators is never produced by
        # registration (clone_subgraph bypasses splits); both matchers
        # conservatively reject such an entry the same way.
        load = POLoad("/data/a", None, 0)
        filt = SkeletonOp("filter", "FILTER[t0]", [load])
        top = SkeletonOp("foreach", "FOREACH[x]", [POSplit(filt)])
        entry = PhysicalPlan([POStore(top, "/stored/s")])
        target_chain = SkeletonOp(
            "foreach", "FOREACH[x]",
            [SkeletonOp("filter", "FILTER[t0]",
                        [POLoad("/data/a", None, 0)])])
        target = PhysicalPlan([POStore(target_chain, "/out/p")])
        assert find_containment(entry, target) is None
        assert not pairwise_plan_traversal(target, entry)
        # The fingerprint skips Splits on both sides, so the lookup
        # *hits* here; it is the exact confirmation that says no — a
        # fingerprint hit alone never decides a match.
        assert PlanDigest(target).sites[PlanDigest(entry).fingerprint] == [
            target_chain]

    def test_repeated_subplan_matches_first_in_topological_order(self):
        # A job computing the same thing twice (two textually separate
        # branches) offers two sites with one fingerprint; the match
        # frontier is the first in the plan's topological order, as the
        # operator-by-operator walk chose.
        def branch():
            return SkeletonOp("filter", "FILTER[t0]",
                              [POLoad("/data/a", None, 0)])
        entry = PhysicalPlan([POStore(branch(), "/stored/s")])
        first, second = branch(), branch()
        target = PhysicalPlan([
            POStore(SkeletonOp("foreach", "FOREACH[x]", [first]),
                    "/out/p1"),
            POStore(SkeletonOp("distinct", "DISTINCT[y]", [second]),
                    "/out/p2")])
        assert PlanDigest(target).sites[operator_fingerprint(first)] == [
            first, second]
        assert find_containment(entry, target).frontier is first
        swapped = PhysicalPlan(list(reversed(target.sinks)))
        assert find_containment(entry, swapped).frontier is second

    def test_reloaded_skeleton_digests_like_its_live_twin(self):
        # load_repository hands back skeleton plans; they must digest to
        # the fingerprints of the compiled plans they were saved from,
        # operator for operator, or reloaded entries would stop matching.
        live = physical(Q2_TEXT)
        reloaded = plan_from_json(plan_to_json(live))
        live_digest, reloaded_digest = PlanDigest(live), PlanDigest(reloaded)
        assert reloaded_digest.fingerprint == live_digest.fingerprint
        assert ([(fp, [op.kind for op in ops])
                 for fp, ops in reloaded_digest.sites.items()]
                == [(fp, [op.kind for op in ops])
                    for fp, ops in live_digest.sites.items()])
        assert find_containment(reloaded, physical(Q2_TEXT)) is not None
        assert find_containment(physical(Q1_TEXT), reloaded) is not None

    def test_multi_store_input_plan_matches_in_either_branch(self):
        entry = PhysicalPlan([POStore(
            SkeletonOp("filter", "FILTER[t1]",
                       [POLoad("/data/b", None, 0)]), "/stored/s")])
        other = SkeletonOp("distinct", "DISTINCT[t0]",
                           [POLoad("/data/a", None, 0)])
        matching = SkeletonOp("filter", "FILTER[t1]",
                              [POLoad("/data/b", None, 0)])
        target = PhysicalPlan([POStore(other, "/out/p1"),
                               POStore(matching, "/out/p2")])
        assert find_containment(entry, target) is not None
        assert pairwise_plan_traversal(target, entry)

    def test_multi_store_entry_is_a_documented_boundary(self):
        # Repository entries always have exactly one Store;
        # find_containment enforces that loudly while Algorithm 1's
        # transcription simply traverses whatever it is given. The fuzz
        # generator therefore only emits single-Store entries.
        shared = SkeletonOp("filter", "FILTER[t0]",
                            [POLoad("/data/a", None, 0)])
        entry = PhysicalPlan([POStore(shared, "/stored/s1"),
                              POStore(shared, "/stored/s2")])
        target = PhysicalPlan([POStore(
            SkeletonOp("filter", "FILTER[t0]",
                       [POLoad("/data/a", None, 0)]), "/out/p")])
        with pytest.raises(ValueError):
            find_containment(entry, target)
        with pytest.raises(ValueError):
            find_containment(PlanDigest(entry), PlanDigest(target))
        assert pairwise_plan_traversal(target, entry)
        # ... while on the input side several Stores are the normal case.
        assert find_containment(target, entry) is not None

    def test_bare_load_entry_is_a_documented_boundary(self):
        # A Load->Store entry has no match frontier by design (replacing
        # a Load with a Load is a useless rewrite), so find_containment
        # answers None while the literal traversal — which only asks
        # "does every entry operator have an equivalent" — says yes.
        # This is the one shape the agreement property excludes.
        entry = PhysicalPlan([POStore(POLoad("/data/a", None, 0), "/stored/s")])
        target = PhysicalPlan([POStore(
            SkeletonOp("filter", "FILTER[t0]",
                       [POLoad("/data/a", None, 0)]), "/out/p")])
        assert find_containment(entry, target) is None
        assert pairwise_plan_traversal(target, entry)
        # Loads are never match sites, whatever they hash to.
        assert PlanDigest(entry).fingerprint not in PlanDigest(target).sites
        assert PlanDigest(entry).sites == {}
