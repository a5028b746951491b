"""Unit tests for cost-model-driven candidate ranking.

The ranking contract: a ranker reorders exactly the candidate set the
repository's fingerprint lookup produced — the entries that can match —
(never adds or drops entries), keeps
the paper's rule 1 (subsumption) a hard constraint, is deterministic,
and the structural default stays bit-identical to the unranked path.
"""

import pytest

from repro.common.errors import RepositoryError
from repro.physical.operators import POLoad, POStore
from repro.physical.plan import PhysicalPlan
from repro.restore import (
    CandidateRanker,
    estimate_entry_savings,
    Repository,
    RepositoryEntry,
    ReStore,
    SavingsRanker,
    ShardedRepository,
    StructuralRanker,
)
from repro.restore.persistence import SkeletonOp
from repro.restore.ranking import realized_entry_savings, resolve_ranker
from repro.restore.stats import EntryStats

from tests.helpers import (
    compile_query,
    make_cost_model,
    make_dfs,
    Q1_TEXT,
    Q2_TEXT,
    seed_page_views,
    seed_users,
)


def chain_plan(store_path, path="/data/d0", ops=("filter",)):
    """Load -> <ops...> -> Store skeleton plan; ``ops`` are (kind, tag)
    or bare kinds (tag defaults to the kind)."""
    node = POLoad(path, None, 0)
    for op in ops:
        kind, tag = op if isinstance(op, tuple) else (op, op)
        node = SkeletonOp(kind, f"{kind.upper()}[{tag}]", None, [node])
    return PhysicalPlan([POStore(node, store_path)])


def entry(store_path, ops=("filter",), output_bytes=1000, time=100.0,
          reduce_time=0.0, path="/data/d0", origin="whole-job"):
    stats = EntryStats(input_bytes=10**6, output_bytes=output_bytes,
                       producing_job_time=time, reduce_time=reduce_time)
    return RepositoryEntry(chain_plan(store_path, path, ops), store_path,
                           stats, origin=origin)


class TestEstimator:
    def test_larger_output_estimates_lower_savings(self):
        model = make_cost_model()
        small = entry("/s/a", output_bytes=10**3)
        large = entry("/s/b", output_bytes=10**9)
        assert estimate_entry_savings(small, model) > \
            estimate_entry_savings(large, model)

    def test_producer_store_cost_is_not_avoided(self):
        # Equal total producing time, but one entry spent most of it
        # writing the stored file — the consumer avoids less.
        model = make_cost_model()
        compute_heavy = entry("/s/a", time=100.0, reduce_time=5.0)
        store_heavy = entry("/s/b", time=100.0, reduce_time=80.0)
        assert estimate_entry_savings(compute_heavy, model) > \
            estimate_entry_savings(store_heavy, model)

    def test_estimate_is_avoided_minus_reload(self):
        model = make_cost_model()
        one = entry("/s/a", output_bytes=4096, time=50.0, reduce_time=10.0)
        expected = (50.0 - 10.0) - model.estimate_load_time(4096)
        assert estimate_entry_savings(one, model) == pytest.approx(expected)

    def test_realized_uses_actual_file_size(self):
        model = make_cost_model()
        dfs = make_dfs()
        one = entry("/s/a", output_bytes=10**8, time=1000.0)
        dfs.write_lines("/s/a", ["tiny"])  # actual file is far smaller
        realized = realized_entry_savings(one, model, dfs)
        estimated = estimate_entry_savings(one, model)
        assert realized > estimated  # reloading the real file is cheaper

    def test_realized_falls_back_to_recorded_bytes_when_file_missing(self):
        model = make_cost_model()
        dfs = make_dfs()
        one = entry("/s/gone", output_bytes=4096, time=50.0)
        assert realized_entry_savings(one, model, dfs) == \
            pytest.approx(estimate_entry_savings(one, model))

    def test_subjob_entry_does_not_claim_the_whole_jobs_time(self):
        # A sub-job entry records the producing JOB's execution time,
        # but its plan is only a prefix — the estimator must cap its
        # avoided cost at the Equation-2 reconstruction of the prefix.
        model = make_cost_model()
        whole = entry("/s/w", ops=[("filter", "a")], time=10_000.0)
        prefix = entry("/s/p", ops=[("filter", "a")], time=10_000.0,
                       origin="sub-job")
        assert estimate_entry_savings(prefix, model) < \
            estimate_entry_savings(whole, model)
        reconstructed = model.estimate_subplan_time(
            ["filter"], prefix.stats.input_bytes)
        expected = reconstructed - model.estimate_load_time(1000)
        assert estimate_entry_savings(prefix, model) == pytest.approx(expected)

    def test_subjob_cap_never_exceeds_recorded_time(self):
        # When the producing job was genuinely cheap, the recorded time
        # stays the binding bound (min of recorded and reconstructed).
        model = make_cost_model()
        cheap = entry("/s/c", ops=[("filter", "a")], time=1.0,
                      origin="sub-job")
        like_whole = entry("/s/w", ops=[("filter", "a")], time=1.0)
        assert estimate_entry_savings(cheap, model) == \
            pytest.approx(estimate_entry_savings(like_whole, model))


class TestResolveRanker:
    def test_default_is_structural(self):
        ranker = resolve_ranker(None, make_cost_model())
        assert isinstance(ranker, StructuralRanker)
        assert ranker.is_structural

    def test_names_resolve(self):
        model = make_cost_model()
        assert isinstance(resolve_ranker("structural", model), StructuralRanker)
        savings = resolve_ranker("savings", model)
        assert isinstance(savings, SavingsRanker)
        assert savings.cost_model is model

    def test_instance_passthrough_binds_cost_model(self):
        model = make_cost_model()
        unbound = SavingsRanker()
        assert resolve_ranker(unbound, model) is unbound
        assert unbound.cost_model is model
        # An already-bound ranker keeps its own model.
        other = make_cost_model()
        bound = SavingsRanker(model)
        resolve_ranker(bound, other)
        assert bound.cost_model is model

    def test_invalid_ranker_rejected(self):
        with pytest.raises(ValueError):
            resolve_ranker("best-effort", make_cost_model())

    def test_unbound_savings_ranker_raises_on_use(self):
        with pytest.raises(RepositoryError):
            SavingsRanker().estimated_savings(entry("/s/a"))

    def test_base_ranker_order_is_abstract(self):
        with pytest.raises(NotImplementedError):
            CandidateRanker().order((), Repository())


class TestStructuralRanker:
    def test_order_is_identity(self):
        repo = Repository()
        entries = [repo.insert(entry(f"/s/{i}", ops=[("filter", f"f{i}")]))
                   for i in range(4)]
        candidates = repo.match_candidates(chain_plan("/out/p"))
        assert StructuralRanker().order(candidates, repo) == candidates

    def test_match_candidates_with_structural_ranker_identical(self):
        repo = Repository()
        for i in range(5):
            repo.insert(entry(f"/s/{i}", ops=[("filter", f"f{i}")]))
        probe = chain_plan("/out/p", ops=[("filter", "f1"), ("foreach", "x")])
        assert repo.match_candidates(probe, ranker=StructuralRanker()) == \
            repo.match_candidates(probe)


class TestSavingsOrder:
    def _repo_with_unrelated(self):
        """Three mutually-unrelated candidates with distinct savings."""
        repo = Repository()
        cheap = repo.insert(entry("/s/cheap", ops=[("filter", "a")],
                                  time=20.0, output_bytes=10**6))
        best = repo.insert(entry("/s/best", ops=[("filter", "b")],
                                 time=500.0, output_bytes=10**3))
        mid = repo.insert(entry("/s/mid", ops=[("filter", "c")],
                                time=100.0, output_bytes=10**4))
        return repo, cheap, best, mid

    def _probe_all_filters(self):
        return chain_plan("/out/p", ops=[("filter", "a"), ("filter", "b"),
                                         ("filter", "c"), ("foreach", "x")])

    def test_highest_estimated_savings_first(self):
        repo, cheap, best, mid = self._repo_with_unrelated()
        ranker = SavingsRanker(make_cost_model())
        ordered = ranker.order(repo.scan(), repo)
        assert [e.output_path for e in ordered] == \
            ["/s/best", "/s/mid", "/s/cheap"]

    def test_container_that_cannot_match_does_not_delay_its_contained(self):
        # C strictly contains b; a is unrelated to both. The job contains
        # a and b but not C, and the estimates rank b > a > C. C is no
        # candidate, so nothing holds b back behind it.
        model = make_cost_model()
        repo = Repository()
        container = repo.insert(entry("/s/C", ops=[("filter", "b"),
                                                   ("foreach", "c")],
                                      time=100.0))
        contained = repo.insert(entry("/s/b", ops=[("filter", "b")],
                                      time=900.0))
        unrelated = repo.insert(entry("/s/a", ops=[("filter", "a")],
                                      time=500.0))
        assert repo.subsumption_edges_among(
            [container.entry_id, contained.entry_id])[container.entry_id] \
            == {contained.entry_id}
        savings = [estimate_entry_savings(one, model)
                   for one in (contained, unrelated, container)]
        assert savings == sorted(savings, reverse=True)
        load = POLoad("/data/d0", None, 0)
        job = PhysicalPlan([
            POStore(SkeletonOp("foreach", "FOREACH[y]", None, [
                SkeletonOp("filter", "FILTER[b]", None, [load])]), "/out/p"),
            POStore(SkeletonOp("filter", "FILTER[a]", None, [load]),
                    "/out/q"),
        ])
        ordered = repo.match_candidates(job, ranker=SavingsRanker(model))
        assert [e.output_path for e in ordered] == ["/s/b", "/s/a"]

    def test_ranking_is_a_permutation_of_the_structural_candidates(self):
        repo, *_ = self._repo_with_unrelated()
        probe = self._probe_all_filters()
        structural = repo.match_candidates(probe)
        ranked = repo.match_candidates(probe, ranker=SavingsRanker(make_cost_model()))
        assert sorted(e.entry_id for e in ranked) == \
            sorted(e.entry_id for e in structural)

    def test_subsumption_overrides_savings(self):
        # The contained entry has far better estimated savings, but its
        # container still goes first: rule 1 stays a hard constraint.
        repo = Repository()
        container = repo.insert(entry(
            "/s/container", ops=[("filter", "a"), ("foreach", "x")],
            time=20.0, output_bytes=10**6))
        contained = repo.insert(entry(
            "/s/contained", ops=[("filter", "a")],
            time=900.0, output_bytes=10**3))
        model = make_cost_model()
        assert estimate_entry_savings(contained, model) > \
            estimate_entry_savings(container, model)
        probe = chain_plan("/out/p", ops=[("filter", "a"), ("foreach", "x"),
                                          ("distinct", "d")])
        ordered = repo.match_candidates(probe, ranker=SavingsRanker(model))
        paths = [e.output_path for e in ordered]
        assert paths.index("/s/container") < paths.index("/s/contained")

    def test_equal_savings_tiebreak_is_scan_order(self):
        repo = Repository()
        for i in range(4):
            repo.insert(entry(f"/s/{i}", ops=[("filter", f"f{i}")],
                              time=100.0, output_bytes=1000))
        probe = chain_plan("/out/p", ops=[("filter", "f0"), ("filter", "f1"),
                                          ("filter", "f2"), ("filter", "f3"),
                                          ("foreach", "x")])
        structural = repo.match_candidates(probe)
        ranked = repo.match_candidates(probe, ranker=SavingsRanker(make_cost_model()))
        assert ranked == structural  # identical stats -> structural order

    def test_order_is_deterministic(self):
        repo, *_ = self._repo_with_unrelated()
        ranker = SavingsRanker(make_cost_model())
        probe = self._probe_all_filters()
        first = repo.match_candidates(probe, ranker=ranker)
        second = repo.match_candidates(probe, ranker=ranker)
        assert first == second

    def test_sharded_savings_order_matches_unsharded(self):
        model = make_cost_model()
        plain, sharded = Repository(), ShardedRepository(num_shards=4)
        for i in range(12):
            for repo in (plain, sharded):
                repo.insert(entry(f"/s/{i}", ops=[("filter", f"f{i % 5}")],
                                  time=10.0 * (i + 1),
                                  output_bytes=10 ** (3 + i % 3),
                                  path=f"/data/d{i % 3}"))
        probe_ops = [("filter", f"f{i}") for i in range(5)] + [("foreach", "x")]
        for data in range(3):
            probe = chain_plan("/out/p", path=f"/data/d{data}", ops=probe_ops)
            assert [e.output_path
                    for e in sharded.match_candidates(probe, ranker=SavingsRanker(model))] == \
                [e.output_path
                 for e in plain.match_candidates(probe, ranker=SavingsRanker(model))]


class TestManagerKnob:
    def _scenario(self, **kwargs):
        dfs = make_dfs()
        seed_page_views(dfs)
        seed_users(dfs, include=range(6))
        restore = ReStore(dfs, make_cost_model(), **kwargs)
        costs = 0.0
        for name, text in (("q1", Q1_TEXT), ("q2", Q2_TEXT), ("q2b", Q2_TEXT)):
            result = restore.submit(compile_query(text, name, dfs))
            costs += result.total_execution_time
        return restore, dfs.read_lines("/out/L3_out"), costs

    def test_default_report_names_structural_ranker(self):
        restore, _, _ = self._scenario()
        assert restore.ranker.name == "structural"
        assert restore.last_report.ranking.ranker_name == "structural"

    def test_ledger_records_every_rewrite(self):
        restore, _, _ = self._scenario()
        report = restore.last_report
        assert len(report.ranking) == report.num_rewrites >= 1
        for decision in report.ranking.decisions:
            assert decision.estimated_savings == \
                pytest.approx(decision.realized_savings)
            assert decision.as_dict()["estimate_error"] == pytest.approx(0.0)

    def test_savings_ranker_same_outputs_and_no_worse_cost(self):
        structural, out_structural, cost_structural = self._scenario()
        savings, out_savings, cost_savings = self._scenario(ranker="savings")
        assert savings.last_report.ranking.ranker_name == "savings"
        assert out_savings == out_structural
        assert cost_savings <= cost_structural + 1e-9

    def test_savings_ledger_estimates_are_finite_and_recorded(self):
        restore, _, _ = self._scenario(ranker="savings")
        ledger = restore.last_report.ranking
        assert len(ledger) >= 1
        assert ledger.total_estimated_savings == pytest.approx(
            sum(d.estimated_savings for d in ledger.decisions))
        assert "savings" in ledger.describe()

    def test_invalid_ranker_rejected(self):
        with pytest.raises(ValueError):
            ReStore(make_dfs(), make_cost_model(), ranker="fastest")

    def test_ledger_uses_the_rankers_own_cost_model(self):
        # A ranker constructed over a different cost model (e.g. a
        # scaled one) ranks by that model — the ledger must log the
        # number the ranker actually ranked by, not re-estimate with
        # the manager's model.
        scaled = make_cost_model(scale=100.0)
        ranker = SavingsRanker(scaled)
        restore, _, _ = self._scenario(ranker=ranker)
        ledger = restore.last_report.ranking
        assert len(ledger) >= 1
        for decision in ledger.decisions:
            entry = restore.repository.entry(decision.entry_id)
            assert decision.estimated_savings == pytest.approx(
                estimate_entry_savings(entry, scaled))


class TestLedgerSurfaces:
    def test_empty_ledger_describe(self):
        from repro.restore.stats import RankingLedger

        ledger = RankingLedger("savings")
        assert "no rewrites" in ledger.describe()
        assert ledger.mean_absolute_error == 0.0
        assert ledger.as_dict()["decisions"] == []
        assert "savings" in repr(ledger)

    def test_decision_repr_and_error(self):
        from repro.restore.stats import RankingLedger

        ledger = RankingLedger()
        decision = ledger.record("j1", "e1", 12.0, 10.0)
        assert decision.estimate_error == pytest.approx(2.0)
        assert ledger.mean_absolute_error == pytest.approx(2.0)
        assert "j1" in repr(decision) and "e1" in repr(decision)
        summary = ledger.as_dict()
        assert summary["total_estimated_savings"] == pytest.approx(12.0)
        assert summary["total_realized_savings"] == pytest.approx(10.0)

    def test_report_describe_mentions_ranker(self):
        restore, _, _ = TestManagerKnob()._scenario(ranker="savings")
        assert "ranker=savings" in restore.last_report.describe()
