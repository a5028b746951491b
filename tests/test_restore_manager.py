"""End-to-end ReStore tests: reuse across workflows, per the paper."""

import gc
import weakref

import pytest

from repro import PigSystem
from repro.dfs import DistributedFileSystem
from repro.logical import build_logical_plan
from repro.physical import logical_to_physical, PhysicalPlan
from repro.piglatin import parse_query
from repro.pigmix import PAGE_VIEWS_SCHEMA
from repro.restore import (
    AggressiveHeuristic,
    ConservativeHeuristic,
    HeuristicRetentionPolicy,
    NoHeuristic,
    Repository,
    RepositoryEntry,
    ReStore,
    ShardedRepository,
)
import repro.restore.manager as manager_module
from repro.restore.stats import EntryStats

from tests.helpers import (
    compile_query,
    load_querygen,
    make_cost_model,
    Q1_TEXT,
    Q2_TEXT,
    seed_page_views,
    seed_users,
)


def fresh_restore(dfs, **kwargs):
    return ReStore(dfs, make_cost_model(), **kwargs)


def baseline_output(text, out_path):
    """Run ``text`` on a fresh, identical cluster without any reuse."""
    dfs = DistributedFileSystem()
    seed_page_views(dfs)
    seed_users(dfs, include=range(6))
    from repro.mapreduce import WorkflowExecutor

    workflow = compile_query(text, "baseline", dfs)
    WorkflowExecutor(dfs, make_cost_model()).execute(workflow)
    return dfs.read_lines(out_path)


class TestWholeJobReuse:
    def setup_method(self):
        self.dfs = DistributedFileSystem()
        seed_page_views(self.dfs)
        seed_users(self.dfs, include=range(6))

    def test_q2_reuses_q1_join(self):
        # The paper's running example (Figures 2-4): Q1's join job output
        # is reused by Q2, whose workflow drops to one MapReduce job.
        restore = fresh_restore(self.dfs, heuristic=None)
        restore.submit(compile_query(Q1_TEXT, "q1", self.dfs))
        assert len(restore.repository) >= 1

        result = restore.submit(compile_query(Q2_TEXT, "q2", self.dfs))
        report = restore.last_report
        assert report.num_rewrites >= 1
        executed = [r for r in result.job_results.values() if not r.skipped]
        assert len(executed) == 1  # only the group job ran

    def test_rewritten_q2_output_identical_to_baseline(self):
        restore = fresh_restore(self.dfs, heuristic=None)
        restore.submit(compile_query(Q1_TEXT, "q1", self.dfs))
        restore.submit(compile_query(Q2_TEXT, "q2", self.dfs))
        assert self.dfs.read_lines("/out/L3_out") == baseline_output(
            Q2_TEXT, "/out/L3_out"
        )

    def test_resubmitted_workflow_eliminates_intermediate_job(self):
        restore = fresh_restore(self.dfs, heuristic=None)
        first = restore.submit(compile_query(Q2_TEXT, "first", self.dfs))
        second = restore.submit(compile_query(Q2_TEXT, "second", self.dfs))
        assert restore.last_report.eliminated_jobs  # the join job vanished
        assert second.total_time < first.total_time
        assert self.dfs.read_lines("/out/L3_out") == baseline_output(
            Q2_TEXT, "/out/L3_out"
        )

    def test_reuse_is_faster(self):
        restore = fresh_restore(self.dfs, heuristic=None)
        first = restore.submit(compile_query(Q2_TEXT, "w1", self.dfs))
        second = restore.submit(compile_query(Q2_TEXT, "w2", self.dfs))
        assert second.total_time < first.total_time

    def test_modified_input_prevents_reuse(self):
        restore = fresh_restore(self.dfs, heuristic=None)
        restore.submit(compile_query(Q1_TEXT, "q1", self.dfs))
        # Overwrite page_views: versions change, stored outputs are stale.
        seed_page_views(self.dfs, seed=99)
        restore.submit(compile_query(Q2_TEXT, "q2", self.dfs))
        assert restore.last_report.num_rewrites == 0
        # Output must reflect the NEW data (no stale reuse).
        fresh = DistributedFileSystem()
        seed_page_views(fresh, seed=99)
        seed_users(fresh, include=range(6))
        from repro.mapreduce import WorkflowExecutor

        WorkflowExecutor(fresh, make_cost_model()).execute(
            compile_query(Q2_TEXT, "check", fresh)
        )
        assert self.dfs.read_lines("/out/L3_out") == fresh.read_lines("/out/L3_out")


class TestSubJobReuse:
    def setup_method(self):
        self.dfs = DistributedFileSystem()
        seed_page_views(self.dfs)
        seed_users(self.dfs, include=range(6))

    def test_aggressive_injects_stores_for_q1(self):
        restore = fresh_restore(self.dfs, heuristic=AggressiveHeuristic())
        restore.submit(compile_query(Q1_TEXT, "q1", self.dfs))
        kinds = sorted(kind for _, kind, _ in restore.last_report.injected_stores)
        # Two Projects get Split+Store (Figure 8); the Join feeds the final
        # Store so its output is already materialized.
        assert kinds == ["foreach", "foreach"]

    def test_conservative_vs_aggressive_on_q2(self):
        # The Join itself feeds job1's Store (its output is already
        # materialized as the inter-job temp), so HA adds the Group only.
        for heuristic, expected_kinds in (
            (ConservativeHeuristic(), {"foreach"}),
            (AggressiveHeuristic(), {"foreach", "group"}),
        ):
            dfs = DistributedFileSystem()
            seed_page_views(dfs)
            seed_users(dfs, include=range(6))
            restore = fresh_restore(dfs, heuristic=heuristic)
            restore.submit(compile_query(Q2_TEXT, "q2", dfs))
            kinds = {kind for _, kind, _ in restore.last_report.injected_stores}
            assert kinds == expected_kinds

    def test_no_heuristic_injects_most(self):
        counts = {}
        for heuristic in (ConservativeHeuristic(), AggressiveHeuristic(), NoHeuristic()):
            dfs = DistributedFileSystem()
            seed_page_views(dfs)
            seed_users(dfs, include=range(6))
            restore = fresh_restore(dfs, heuristic=heuristic)
            restore.submit(compile_query(Q2_TEXT, "q2", dfs))
            counts[heuristic.name] = len(restore.last_report.injected_stores)
        assert counts["conservative"] <= counts["aggressive"] <= counts["no-heuristic"]

    def test_injection_preserves_query_output(self):
        restore = fresh_restore(self.dfs, heuristic=AggressiveHeuristic())
        restore.submit(compile_query(Q2_TEXT, "q2", self.dfs))
        assert self.dfs.read_lines("/out/L3_out") == baseline_output(
            Q2_TEXT, "/out/L3_out"
        )

    @pytest.mark.parametrize("heuristic", [
        ConservativeHeuristic(), AggressiveHeuristic(), NoHeuristic()],
        ids=lambda heuristic: heuristic.name)
    @pytest.mark.parametrize("combine, out_path", [
        ("C = union B, B;", "/out/self_union"),
        ("C = cogroup B by user, B by user;", "/out/self_cogroup"),
    ])
    def test_operator_read_twice_by_one_consumer(self, heuristic, combine,
                                                 out_path):
        # The Split goes between B and its one reader, on both edges.
        text = f"""
        A = load '/data/page_views' as (user:chararray, timestamp:int,
            est_revenue:double, page_info:chararray, page_links:chararray);
        B = filter A by timestamp > 20000;
        {combine}
        store C into '{out_path}';
        """
        expected = baseline_output(text, out_path)
        assert expected
        restore = fresh_restore(self.dfs, heuristic=heuristic)
        restore.submit(compile_query(text, "first", self.dfs))
        assert ("filter" in {kind for _, kind, _ in
                             restore.last_report.injected_stores})
        assert self.dfs.read_lines(out_path) == expected
        restore.submit(compile_query(text, "second", self.dfs))
        assert restore.last_report.num_rewrites >= 1
        assert self.dfs.read_lines(out_path) == expected

    def test_q1_reuses_projection_subjobs(self):
        # Figure 6: after the projections are stored, a re-submitted Q1 is
        # rewritten to load the two projected datasets.
        restore = fresh_restore(self.dfs, heuristic=AggressiveHeuristic())
        restore.submit(compile_query(Q1_TEXT, "first", self.dfs))
        result = restore.submit(compile_query(Q1_TEXT, "second", self.dfs))
        # Second run: the entire job was matched (join output stored), so
        # the job collapses to a copy; or at minimum projections reused.
        assert restore.last_report.num_rewrites >= 1
        assert self.dfs.read_lines("/out/L2_out") == baseline_output(
            Q1_TEXT, "/out/L2_out"
        )

    def test_subjob_enables_reuse_across_different_queries(self):
        # Store sub-jobs from Q1; then a NEW query over the projected
        # page_views (group by user) reuses the projection sub-job.
        restore = fresh_restore(self.dfs, heuristic=AggressiveHeuristic())
        restore.submit(compile_query(Q1_TEXT, "q1", self.dfs))
        other = """
        A = load '/data/page_views' as (user:chararray, timestamp:int,
            est_revenue:double, page_info:chararray, page_links:chararray);
        B = foreach A generate user, est_revenue;
        C = group B by user;
        D = foreach C generate group, COUNT(B);
        store D into '/out/other';
        """
        restore.submit(compile_query(other, "other", self.dfs))
        assert restore.last_report.num_rewrites >= 1

    def test_materialized_files_live_under_restore_prefix(self):
        restore = fresh_restore(self.dfs, heuristic=AggressiveHeuristic())
        restore.submit(compile_query(Q1_TEXT, "q1", self.dfs))
        materialized = self.dfs.list_files(ReStore.MATERIALIZED_PREFIX)
        assert len(materialized) == 2


class TestRepositoryBehaviour:
    def setup_method(self):
        self.dfs = DistributedFileSystem()
        seed_page_views(self.dfs)
        seed_users(self.dfs, include=range(6))

    def test_whole_job_entry_preferred_over_subjob(self):
        # Ordering rule 1: the join plan subsumes the projection sub-plans,
        # so it must come first in the scan order.
        restore = fresh_restore(self.dfs, heuristic=AggressiveHeuristic())
        restore.submit(compile_query(Q1_TEXT, "q1", self.dfs))
        entries = restore.repository.scan()
        sizes = [entry.num_operators for entry in entries]
        join_entries = [e for e in entries if any(
            op.kind == "join" for op in e.plan.operators())]
        first_join_pos = entries.index(join_entries[0])
        projection_only = [
            e for e in entries
            if all(op.kind in ("load", "foreach", "store")
                   for op in e.plan.operators())
            and any(op.kind == "foreach" for op in e.plan.operators())
        ]
        for proj in projection_only:
            # every subsumed projection entry appears after the join entry
            if any(op.path == "/data/page_views" for op in proj.plan.loads()):
                assert entries.index(proj) > first_join_pos

    def test_q2_rewrite_uses_join_not_projections(self):
        # With both the whole join and the projections stored, Q2 must be
        # rewritten with the join output (the best match, Section 3).
        restore = fresh_restore(self.dfs, heuristic=AggressiveHeuristic())
        restore.submit(compile_query(Q1_TEXT, "q1", self.dfs))
        restore.submit(compile_query(Q2_TEXT, "q2", self.dfs))
        used = [entry_id for _, entry_id in restore.last_report.rewrites]
        first_entry = restore.repository.entry(used[0])
        assert any(op.kind == "join" for op in first_entry.plan.operators())

    def test_registration_can_be_disabled(self):
        restore = fresh_restore(self.dfs, heuristic=None, enable_registration=False)
        restore.submit(compile_query(Q1_TEXT, "q1", self.dfs))
        assert len(restore.repository) == 0

    def test_rewrite_can_be_disabled(self):
        restore = fresh_restore(self.dfs, heuristic=None)
        restore.submit(compile_query(Q1_TEXT, "q1", self.dfs))
        no_reuse = fresh_restore(self.dfs, heuristic=None, enable_rewrite=False)
        no_reuse.repository = restore.repository
        no_reuse.submit(compile_query(Q2_TEXT, "q2", self.dfs))
        assert no_reuse.last_report.num_rewrites == 0


PAGE_VIEWS_AS = """(user:chararray, timestamp:int,
    est_revenue:double, page_info:chararray, page_links:chararray)"""


def page_views_entry(dfs, body, last, path):
    """An entry over the current ``/data/page_views``: ``body`` runs
    after the Load ``A`` and ``last`` is stored into ``path``, which
    gets a stand-in file."""
    plan = logical_to_physical(build_logical_plan(parse_query(
        f"A = load '/data/page_views' as {PAGE_VIEWS_AS};{body}"
        f"store {last} into '{path}';")),
        {"/data/page_views": dfs.status("/data/page_views").version})
    dfs.write_lines(path, ["x"], overwrite=True)
    return RepositoryEntry(plan, path, EntryStats(1000, 100, 60.0))


def insert_unrelated(repository, dfs, count):
    """``count`` entries that read ``/data/page_views`` but filter it
    in a way no query in these tests does."""
    for number in range(count):
        repository.insert(page_views_entry(
            dfs, f"B = filter A by timestamp < {number};", "B",
            f"/stored/c{number}"))


class TestScanPass:
    """One plan digest per scan pass: taken anew after every rewrite,
    shared by every candidate of the pass."""

    def setup_method(self):
        self.dfs = DistributedFileSystem()
        seed_page_views(self.dfs)

    def test_second_entry_matches_only_after_the_first_rewrite(self):
        # STEP2 reads STEP1's stored output, so its entry is contained
        # in BOTH's plan only once the first rewrite has put a Load of
        # that output there. A pass that kept the pre-rewrite digest
        # would stop after one rewrite.
        restore = fresh_restore(self.dfs, heuristic=None)
        project = f"A = load '/data/page_views' as {PAGE_VIEWS_AS};" \
                  "B = foreach A generate user, est_revenue;"
        restore.submit(compile_query(
            project + "store B into '/out/step1';", "step1", self.dfs))
        restore.submit(compile_query(
            "P = load '/out/step1' as (user:chararray, est_revenue:double);"
            "Q = filter P by est_revenue > 2.0;"
            "store Q into '/out/step2';", "step2", self.dfs))
        first, second = restore.repository.scan()
        if first.output_path != "/out/step1":
            first, second = second, first
        both = compile_query(
            project + "Q = filter B by est_revenue > 2.0;"
            "store Q into '/out/both';", "both", self.dfs)
        (job,) = both.jobs
        restore.submit(both)
        report = restore.last_report
        assert report.rewrites == [(job.job_id, first.entry_id),
                                   (job.job_id, second.entry_id)]
        assert report.match_counters.matched == 2
        assert self.dfs.read_lines("/out/both") == \
            self.dfs.read_lines("/out/step2")

    def test_job_plan_walks_do_not_grow_with_candidates(self, monkeypatch):
        # The cost guard no machine noise can fail: entries that read
        # the job's inputs but cannot be contained in it are never
        # offered, so ten times as many of them cost the submit no
        # containment test and no extra walk of the job plan (the
        # load-filtered probe tried every one of them).
        watched = set()
        walks = []
        original = PhysicalPlan.operators

        def counting(plan):
            if id(plan) in watched:
                walks.append(plan)
            return original(plan)

        monkeypatch.setattr(PhysicalPlan, "operators", counting)
        containment_calls = []
        original_find = manager_module.find_containment

        def counting_find(entry_plan, input_plan):
            containment_calls.append(entry_plan)
            return original_find(entry_plan, input_plan)

        monkeypatch.setattr(manager_module, "find_containment",
                            counting_find)

        def cost_of_submit(num_unrelated):
            """(job plan walks, containment calls) of one submit against
            ``num_unrelated`` load-compatible entries it cannot
            contain."""
            restore = fresh_restore(self.dfs, heuristic=None,
                                    enable_registration=False)
            insert_unrelated(restore.repository, self.dfs, num_unrelated)
            workflow = compile_query(
                f"A = load '/data/page_views' as {PAGE_VIEWS_AS};"
                "B = filter A by timestamp > 5; C = foreach B generate user;"
                f"store C into '/out/walks{num_unrelated}';", "walks",
                self.dfs)
            watched.update(id(job.plan) for job in workflow.jobs)
            del walks[:], containment_calls[:]
            restore.submit(workflow)
            counters = restore.last_report.match_counters
            assert counters.candidates_tried == 0
            assert counters.matched == 0
            return len(walks), len(containment_calls)

        few, many = cost_of_submit(4), cost_of_submit(40)
        assert few == many
        assert many[0] < 40

    def test_insert_subsumption_tests_do_not_grow_with_unrelated(
            self, monkeypatch):
        # The insert-side twin: the subsumption tests made while
        # inserting one entry are the same beside 4 or 40 entries that
        # read the same input but neither contain it nor are contained.
        calls = []
        original = Repository._subsumes

        def counting(repository, a, b):
            calls.append((a, b))
            return original(repository, a, b)

        monkeypatch.setattr(Repository, "_subsumes", counting)

        def tests_of_insert(num_unrelated):
            repository = Repository()
            insert_unrelated(repository, self.dfs, num_unrelated)
            contained = repository.insert(page_views_entry(
                self.dfs, "B = filter A by timestamp > 5;", "B",
                "/stored/contained"))
            del calls[:]
            new = repository.insert(page_views_entry(
                self.dfs, "B = filter A by timestamp > 5;"
                "C = foreach B generate user;", "C", "/stored/new"))
            assert repository.subsumption_edges_among(
                [new.entry_id, contained.entry_id])[new.entry_id] \
                == {contained.entry_id}
            return len(calls)

        few, many = tests_of_insert(4), tests_of_insert(40)
        assert few == many >= 1

    def test_rewrite_costs_no_estimate_and_no_file_size(self, monkeypatch):
        # A rewrite reuses the first containable entry in scan order;
        # nothing on the match path prices the entry, so the pass asks
        # the cost model for no estimate and the DFS for no file size.
        restore = fresh_restore(self.dfs)
        query = (f"A = load '/data/page_views' as {PAGE_VIEWS_AS};"
                 "B = filter A by timestamp > 5; C = foreach B generate user;"
                 "store C into '/out/priced';")
        restore.submit(compile_query(query, "populate", self.dfs))
        calls = []
        matching = []

        def counted(name, original):
            def wrapper(*args, **kwargs):
                if matching:
                    calls.append(name)
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(restore.cost_model, "estimate_load_time",
                            counted("estimate_load_time",
                                    restore.cost_model.estimate_load_time))
        monkeypatch.setattr(self.dfs, "file_size",
                            counted("file_size", self.dfs.file_size))
        original_pass = ReStore._match_and_rewrite

        def watched_pass(manager, job):
            matching.append(job)
            try:
                return original_pass(manager, job)
            finally:
                matching.pop()

        monkeypatch.setattr(ReStore, "_match_and_rewrite", watched_pass)
        restore.submit(compile_query(query, "reuse", self.dfs))
        assert restore.last_report.num_rewrites >= 1
        assert calls == []


class TestResourceAccounting:
    """Regression tests for the PR 4 leak fixes."""

    def setup_method(self):
        self.dfs = DistributedFileSystem()
        seed_page_views(self.dfs)
        seed_users(self.dfs, include=range(6))

    def test_disabled_registration_discards_materialized_files(self):
        """With registration off, injected sub-job stores still execute
        and write to the DFS; their outputs must be discarded after the
        submit instead of accumulating forever."""
        restore = fresh_restore(self.dfs, heuristic=AggressiveHeuristic(),
                                enable_registration=False)
        restore.submit(compile_query(Q1_TEXT, "q1", self.dfs))
        assert len(restore.repository) == 0
        assert self.dfs.list_files(ReStore.MATERIALIZED_PREFIX) == []

    def test_duplicate_candidates_are_discarded_not_shielded(self):
        """Regression: a sub-job candidate equivalent to an existing
        entry materializes a redundant file at a fresh path; it must be
        discarded, not shielded forever by _kept_paths (which the
        eviction pruning can never reach — no entry owns that path)."""
        restore = fresh_restore(self.dfs, heuristic=AggressiveHeuristic(),
                                enable_rewrite=False)
        restore.submit(compile_query(Q1_TEXT, "first", self.dfs))
        first_files = set(self.dfs.list_files(ReStore.MATERIALIZED_PREFIX))
        kept_before = len(restore._kept_paths)
        # Re-enumeration materializes the same sub-plans at fresh paths;
        # find_equivalent dedups them, and the fresh files must go.
        restore.submit(compile_query(Q1_TEXT, "second", self.dfs))
        assert set(self.dfs.list_files(ReStore.MATERIALIZED_PREFIX)) == \
            first_files
        assert len(restore._kept_paths) == kept_before

    def test_kept_paths_pruned_on_eviction(self):
        """Paths whose entries the sweep evicts must leave _kept_paths:
        a long-running manager must not leak memory, and a stale path
        must not shield a later discard of the same location."""
        from repro.restore import HeuristicRetentionPolicy

        restore = fresh_restore(
            self.dfs, heuristic=AggressiveHeuristic(),
            retention=HeuristicRetentionPolicy(window_ticks=100))
        removed_paths = []

        def observe(op, entry):
            if op == "remove":
                removed_paths.append(entry.output_path)

        restore.repository.add_listener(observe)
        restore.submit(compile_query(Q1_TEXT, "q1", self.dfs))
        assert restore._kept_paths
        # Rule 4: modifying the users dataset evicts every entry that
        # read the old version at the next sweep.
        seed_users(self.dfs, include=range(4))
        restore.submit(compile_query(Q1_TEXT.replace(
            "'/out/L2_out'", "'/out/L2_again'"), "q1b", self.dfs))
        assert restore.last_report.evicted_entries
        assert removed_paths
        # No evicted entry's path lingers in the shield set, so a later
        # discard of the same location is no longer wrongly blocked.
        assert not set(removed_paths) & restore._kept_paths

    def test_async_disabled_registration_discards_each_file_once(self):
        """The async twin of the orphan-store fix (PR 8): with
        registration off, the pending candidates' files are routed
        through exactly ONE discard channel — the enqueued
        DiscardRecord — never also the per-submit discard list, which
        would delete every path once per route."""
        restore = fresh_restore(self.dfs, heuristic=AggressiveHeuristic(),
                                enable_registration=False, ingest="async")
        deleted = []
        original = self.dfs.delete_if_exists

        def counting_delete(path):
            deleted.append(path)
            return original(path)

        self.dfs.delete_if_exists = counting_delete
        restore.submit(compile_query(Q1_TEXT, "q1", self.dfs))
        restore.flush()
        restore.close()
        assert len(restore.repository) == 0
        assert self.dfs.list_files(ReStore.MATERIALIZED_PREFIX) == []
        materialized = [path for path in deleted
                        if path.startswith(ReStore.MATERIALIZED_PREFIX)]
        assert materialized  # the injected stores did execute
        assert len(materialized) == len(set(materialized))


class TestNoCyclicGarbage:
    """Compile and submit allocate no reference cycles: what an operation
    leaves behind is freed by reference counting, never by the cyclic
    collector, whose passes cost time in proportion to everything live."""

    @staticmethod
    def _system():
        querygen = load_querygen()
        system = PigSystem()
        querygen.install_tables(system, 7, 100)
        return querygen, system

    @pytest.mark.parametrize("arm", ["indexed", "sharded-evicting"])
    def test_compile_and_submit_leave_nothing_to_collect(self, arm):
        querygen, system = self._system()
        kwargs = {}
        if arm == "sharded-evicting":
            kwargs = dict(
                repository=ShardedRepository(num_shards=4),
                retention=HeuristicRetentionPolicy(
                    window_ticks=12, require_reduction=False,
                    require_benefit=False))
        restore = system.restore(**kwargs)
        pool = querygen.querygen(7, 10)
        stream = pool * 3
        reports = []
        gc.collect()
        gc.disable()
        try:
            for position, query in enumerate(stream):
                if position == len(pool) + 3:
                    # Rule 4: stale entries stop matching (and are evicted
                    # under the heuristic policy); their jobs run again.
                    system.write_table(querygen.PAGE_VIEWS[0],
                                       querygen.page_views_rows(99, 100),
                                       PAGE_VIEWS_SCHEMA)
                result = restore.submit(system.compile(query.text, "q"))
                executed = [run for run in result.job_results.values()
                            if not run.skipped]
                reports.append((restore.last_report, executed))
            garbage = gc.collect()
        finally:
            gc.enable()
        assert garbage == 0
        assert any(report.rewrites for report, _ in reports)
        assert any(report.eliminated_jobs for report, _ in reports)
        assert any(report.injected_stores for report, _ in reports)
        assert any(report.registered_entries for report, _ in reports)
        assert any(executed for _, executed in reports)
        if arm == "sharded-evicting":
            assert any(report.evicted_entries for report, _ in reports)

    def test_closed_inline_manager_is_freed_at_once(self):
        querygen, system = self._system()
        restore = system.restore()
        restore.submit(system.compile(querygen.querygen(7, 1)[0].text, "q"))
        restore.close()
        gc.disable()
        try:
            manager = weakref.ref(restore)
            del restore
            assert manager() is None
        finally:
            gc.enable()
