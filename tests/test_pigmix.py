"""Tests for the PigMix workload: generator properties and query behaviour."""

import hashlib

import pytest

from repro import PigSystem
from repro.pigmix import (
    ALL_QUERIES,
    PAGE_VIEWS_SCHEMA,
    PigMixConfig,
    PigMixData,
    PigMixPaths,
    query_text,
    VARIANT_FAMILIES,
)


def tiny_config():
    return PigMixConfig(num_page_views=400, num_users=40, num_power_users=8,
                        missing_users=2, seed=3)


class TestDataGenerator:
    def test_deterministic(self):
        a = PigMixData(tiny_config())
        b = PigMixData(tiny_config())
        assert a.page_views_rows() == b.page_views_rows()
        assert a.users_rows() == b.users_rows()
        assert a.power_users_rows() == b.power_users_rows()

    def test_rows_are_pinned(self):
        # Digests taken before rand_string stopped calling random.choice
        # per character: the data (and with it sim_speedup,
        # stored_bytes_ratio, durable_bytes_per_entry) must not move.
        data = PigMixData(tiny_config())
        digest = lambda rows: hashlib.sha256(repr(rows).encode()).hexdigest()
        assert digest(data.page_views_rows()) == (
            "567a35794fde0caffad0ba7f06b8d5d33ebbe2512866c8feff36bface2d530ca")
        assert digest(data.users_rows()) == (
            "43262cc9de6dd8a21c300a761a2d6c1efd655a7a7844338235c36fd325beee79")

    def test_row_counts(self):
        data = PigMixData(tiny_config())
        assert len(data.page_views_rows()) == 400
        assert len(data.users_rows()) == 38  # 40 minus 2 missing
        assert len(data.power_users_rows()) == 8

    def test_page_views_arity_matches_schema(self):
        data = PigMixData(tiny_config())
        for row in data.page_views_rows():
            assert len(row) == len(PAGE_VIEWS_SCHEMA)

    def test_zipf_popularity_skew(self):
        data = PigMixData(tiny_config())
        counts = {}
        for row in data.page_views_rows():
            counts[row[0]] = counts.get(row[0], 0) + 1
        most = max(counts.values())
        # The heaviest user is far above the uniform share (400/40 = 10).
        assert most > 20

    def test_power_users_subset_of_users(self):
        data = PigMixData(tiny_config())
        user_names = {row[0] for row in data.users_rows()}
        assert {row[0] for row in data.power_users_rows()} <= user_names

    def test_missing_users_have_page_views_coverage_gap(self):
        data = PigMixData(tiny_config())
        pv_users = {row[0] for row in data.page_views_rows()}
        users = {row[0] for row in data.users_rows()}
        assert pv_users - users  # some page_views users are unmatched

    def test_install_creates_three_tables(self):
        system = PigSystem()
        statuses = PigMixData(tiny_config()).install(system.dfs)
        assert set(statuses) == {"/data/page_views", "/data/users",
                                 "/data/power_users"}
        assert all(status.size_bytes > 0 for status in statuses.values())

    def test_scaled_config(self):
        large = tiny_config().scaled(10)
        assert large.num_page_views == 4000
        assert large.num_users == 400

    def test_timestamps_split_around_noon(self):
        rows = PigMixData(tiny_config()).page_views_rows()
        morning = sum(1 for row in rows if row[5] < 43200)
        # L7's filter keeps roughly half of the rows.
        assert 0.35 < morning / len(rows) < 0.65


class TestQueryCompilation:
    @pytest.fixture(scope="class")
    def system(self):
        system = PigSystem()
        PigMixData(tiny_config()).install(system.dfs)
        return system

    EXPECTED_JOBS = {
        "L2": 1, "L3": 2, "L4": 1, "L5": 1, "L6": 1, "L7": 1, "L8": 1, "L11": 3,
    }

    @pytest.mark.parametrize("name", sorted(ALL_QUERIES))
    def test_job_counts_match_paper(self, system, name):
        workflow = system.compile(query_text(name), name)
        assert len(workflow.jobs) == self.EXPECTED_JOBS[name]

    def test_l11_dependency_shape(self, system):
        # Section 7.1: "3 jobs, where one job depends on the other two".
        workflow = system.compile(query_text("L11"), "l11")
        dependents = [job for job in workflow.jobs if job.dependencies]
        assert len(dependents) == 1
        assert len(dependents[0].dependencies) == 2

    def test_variant_queries_compile(self, system):
        for family in VARIANT_FAMILIES.values():
            for name, fn in family.items():
                workflow = system.compile(fn(PigMixPaths()), name)
                assert workflow.jobs

    def test_unknown_query_name(self):
        with pytest.raises(KeyError):
            query_text("L99")


class TestQueryExecution:
    @pytest.fixture(scope="class")
    def executed(self):
        system = PigSystem()
        data = PigMixData(tiny_config())
        data.install(system.dfs)
        for name in sorted(ALL_QUERIES):
            system.run(query_text(name), name)
        return system, data

    def test_all_outputs_exist_nonempty_where_expected(self, executed):
        system, _ = executed
        for name in ("L2", "L3", "L4", "L6", "L7", "L8", "L11"):
            out = f"/out/{name}_out"
            assert system.dfs.exists(out)
            assert system.dfs.file_size(out) > 0

    def test_l5_antijoin_is_tiny(self, executed):
        # Table 1: L5's output is bytes (the few unmatched users).
        system, data = executed
        lines = system.dfs.read_lines("/out/L5_out")
        users = {row[0] for row in data.users_rows()}
        pv_users = {row[0] for row in data.page_views_rows()}
        assert set(lines) == pv_users - users

    def test_l8_single_row(self, executed):
        system, data = executed
        (line,) = system.dfs.read_lines("/out/L8_out")
        count, total, avg = line.split("\t")
        rows = data.page_views_rows()
        assert int(count) == len(rows)
        assert int(total) == sum(row[2] for row in rows)

    def test_l3_totals_match_manual_aggregation(self, executed):
        system, data = executed
        users = {row[0] for row in data.users_rows()}
        expected = {}
        for row in data.page_views_rows():
            if row[0] in users:
                expected[row[0]] = expected.get(row[0], 0.0) + row[6]
        lines = system.dfs.read_lines("/out/L3_out")
        got = {}
        for line in lines:
            user, total = line.split("\t")
            got[user] = float(total)
        assert set(got) == set(expected)
        for user in expected:
            assert got[user] == pytest.approx(expected[user])

    def test_l11_distinct_union(self, executed):
        system, data = executed
        lines = set(system.dfs.read_lines("/out/L11_out"))
        pv_users = {row[0] for row in data.page_views_rows()}
        users = {row[0] for row in data.users_rows()}
        assert lines == pv_users | users

    def test_l6_output_has_many_groups(self, executed):
        # L6 groups by (user, query_term): nearly one group per row.
        system, data = executed
        num_groups = len(system.dfs.read_lines("/out/L6_out"))
        assert num_groups > len(data.page_views_rows()) * 0.5

    def test_l2_join_selectivity(self, executed):
        # L2 joins with the small power_users table -> small output.
        system, data = executed
        lines = system.dfs.read_lines("/out/L2_out")
        power = {row[0] for row in data.power_users_rows()}
        matched = [row for row in data.page_views_rows() if row[0] in power]
        assert len(lines) == len(matched)
