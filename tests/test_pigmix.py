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
from repro.restore import plan_fingerprint
from tests.helpers import load_querygen
from tests.test_nested_foreach import L4_STYLE, L7_STYLE
from tests.test_split_statement import SPLIT_QUERY


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


def _sha1_lines(lines):
    return hashlib.sha1("\n".join(lines).encode("utf-8")).hexdigest()


def _stats_record(stats, execution_time):
    """Every counter the cost model reads, plus what it made of them."""
    return (
        stats.map_input_bytes, stats.map_input_records,
        stats.map_output_records, stats.map_output_bytes, stats.num_reducers,
        stats.reduce_input_groups, stats.output_bytes, stats.map_store_bytes,
        stats.reduce_store_bytes, stats.injected_store_bytes,
        stats.final_output_bytes, stats.reduce_output_records,
        sorted(stats.op_charges.items()), repr(execution_time),
    )


GOLDEN_QUERIES = sorted(
    set(ALL_QUERIES) | set(VARIANT_FAMILIES["L3"]) | set(VARIANT_FAMILIES["L11"]))


class TestGoldenEngine:
    """Digests taken at the commit before the schema-compiled codec and the
    per-key shuffle: every byte the engine writes and every counter the
    cost model prices must come out the same."""

    TABLE_LINES = {
        "/data/page_views": "8190738ce199f033f26fd0716705786818bfbc03",
        "/data/users": "ac798002f2cadd368e92c755afe732e1d98fb732",
        "/data/power_users": "c1e5a5edc5c83c6cbf5faa418f7efcbc2767d202",
    }
    #: query -> (SHA-1 of the output lines, SHA-1 of the per-job counters)
    PLAIN_RUNS = {
        "L11": ("a5b36a9b216d1151adbb6783789de4e49520ad5e",
                "89bce9e2d38803a5811976d2bbd43dda38780731"),
        "L11a": ("a5b36a9b216d1151adbb6783789de4e49520ad5e",
                 "740ee060b1738ed0960447f6cfc221b91d5d49c0"),
        "L11b": ("deed6fae502fe1bae91656b5985cddbaf2974b49",
                 "52455f1495591506addd8c84ec8e7f05082f081e"),
        "L11c": ("a5b36a9b216d1151adbb6783789de4e49520ad5e",
                 "496bd6de51f0cf6d0aeaec1a05990bbe243449da"),
        "L11d": ("deed6fae502fe1bae91656b5985cddbaf2974b49",
                 "9570112abff78717d98dc0ef90cd53f33f6859f9"),
        "L2": ("a1adb25033d94d935ed0a2fbf5ea244aedf98f34",
               "27d4ddcdef55004eefb0eaa4021c60cb78dd482a"),
        "L3": ("36ddf9ac55473159426a0a3a4cb546fa74e1cc3a",
               "e183ab5a32613fcf695849310c24f43ae3b2b218"),
        "L3a": ("b875fc121273202c5f04c3518d89eea59ef4f920",
                "6403d5a67125c6ec65caa031a8b62136421953ca"),
        "L3b": ("53478d9dc58333de912f17f9ae5bb9ec98c792e1",
                "1431451a59a1926ca0a2fbfdb69bafe8f3d15647"),
        "L3c": ("47ebad7587d85dadcae8a3d7ab08cdb8f191740a",
                "e4381c0ecafa0adb6272b3b4c4a262753f9d02de"),
        "L4": ("cd778b4168742f3ff0b2328c7a689d2d3523e9e6",
               "5d22cd09946abcf4d18d24bd529d229fe555e2dd"),
        "L5": ("f440bc7e191a563a1d02a8f15f1d679c576e6fcd",
               "5ad4cbd658704e220afd8c0d6ffc35e044817238"),
        "L6": ("ba147ca8d45cce07052f36ea05c4f4f4b97e1fa5",
               "cc7982fb61f39223269418abd6460d23378eff53"),
        "L7": ("7985a3016a15253607dd502129500238a9e73280",
               "0441dd8324a4b0f04b19c86ba45f939e9d15df35"),
        "L8": ("78fc6f11731731a9cb3d6c4100cb7dd6f78bd581",
               "0a986901c47568565bdaf18b02861092a39b0d5a"),
    }
    #: the same set submitted in order through ReStore (Aggressive
    #: heuristic): injected Stores write projected and bag-valued schemas
    RESTORE_FILES = "d179731a8dc47420e8887392c0a46d43435d5148"
    RESTORE_STATS = "b348d808ef0dfb43ea3ad5aebb4f90308d1c3d71"

    @pytest.fixture
    def system(self):
        system = PigSystem()
        PigMixData(tiny_config()).install(system.dfs)
        # Scaled like the harness's 15 GB instance, so reducer choice and
        # task waves depend on the byte counters as they do there.
        scale = 15 * 2**30 / system.dfs.file_size("/data/page_views")
        return system.with_scale(scale)

    def test_table_lines(self, system):
        got = {path: _sha1_lines(system.dfs.read_lines(path))
               for path in self.TABLE_LINES}
        assert got == self.TABLE_LINES

    def test_plain_runs(self, system):
        got = {}
        for name in GOLDEN_QUERIES:
            result = system.run(query_text(name), name)
            records = [
                _stats_record(run.stats, run.execution_time)
                for _, run in sorted(result.job_results.items())
            ]
            got[name] = (
                _sha1_lines(system.dfs.read_lines(f"/out/{name}_out")),
                hashlib.sha1(repr(records).encode()).hexdigest(),
            )
        assert got == self.PLAIN_RUNS

    def test_restore_stream(self, system):
        restore = system.restore()
        records = []
        for name in GOLDEN_QUERIES:
            result = restore.submit(system.compile(query_text(name), name))
            records.append([
                _stats_record(run.stats, run.execution_time)
                for _, run in sorted(result.job_results.items())
            ])
        # Materialized paths carry a process-global counter: compare the
        # stored files by content, not by name.
        files = sorted(
            _sha1_lines(system.dfs.read_lines(path))
            for path in system.dfs.list_files("/")
            if not path.startswith("/data/"))
        assert len(files) > len(GOLDEN_QUERIES)
        assert hashlib.sha1(repr(files).encode()).hexdigest() == self.RESTORE_FILES
        assert (hashlib.sha1(repr(records).encode()).hexdigest()
                == self.RESTORE_STATS)


def _job_fingerprints(workflow):
    return ",".join(plan_fingerprint(job.plan) for job in workflow.jobs)


def _operator_digest(workflow):
    """SHA-1 over every job operator's signature, schema, alias and path
    (Load and Store paths, temp paths included), in workflow order."""
    records = [
        f"{op.signature()}|{op.schema.canonical()}|{op.alias}|"
        f"{getattr(op, 'path', '')}"
        for job in workflow.jobs for op in job.plan.operators()
    ]
    return hashlib.sha1("\n".join(records).encode()).hexdigest()


class TestGoldenFingerprints:
    """``plan_fingerprint`` of every compiled job, taken before the
    tokenizer, the parser and the plan walks were rewritten, and operator
    digests taken before the logical optimizer went and translation
    stopped recompiling expressions. Fingerprints and schemas are written
    into the durable repository files, so the same text must compile to
    the same plans on the same data."""

    #: query -> SHA-1 of its jobs' fingerprints, in workflow order
    PIGMIX = {
        "L11": "d1a4bfc2ed51d291dfffed1054efbc1a7eaaa941",
        "L11a": "38bf6dee289a30029c34964262394ea12baf5593",
        "L11b": "dceb0fb1af66d07e7f67776779e8b5b578b71f4b",
        "L11c": "6a227418ffce1b9465acd640033dec72c6ba9006",
        "L11d": "95dac18f5352284b6cbbc018c6556a08b731a5a3",
        "L2": "e0ed44cacd0f769007a405ebd44df56d6790803f",
        "L3": "94852c7882bc335e1956dd2b41135b5a4b2cbaf0",
        "L3a": "de48476637ea9c127872b6e4be167ff5cf223997",
        "L3b": "6f834c36b5e0f942f5487ac6e5a84089fa590379",
        "L3c": "6878b5ec75b2962390c5f9b4511025d0a248a2ef",
        "L4": "a93f5818d430acc8251f5033a33f4ee0577147b6",
        "L5": "232177624732984f33528a70179ed946712012e0",
        "L6": "2b599f3d0d020d727a49eceb9e46df12fe59270d",
        "L7": "7fc79006c68a2d282c68a0669062c316607c63f9",
        "L8": "76e700c3bb02cabfc3aa9106b8d2f21e67c13e15",
    }
    #: SHA-1 of the fingerprints of every job of ``querygen(7, 50)``
    #: (90 jobs), in pool and workflow order
    QUERYGEN_50 = "0581706951092f63cc5ad89c98db08ebdcfa90d1"
    #: query -> :func:`_operator_digest` of its workflow. Signatures alone
    #: miss schemas and aliases, which persistence writes too.
    PIGMIX_OPERATORS = {
        "L11": "39a4cd5fec227c2d85217e52147ecc8e04e36995",
        "L11a": "5297c549a197f7218a4da4debe9effffd041f881",
        "L11b": "8029432223a12ba4133b37a04132f9ff5eaeb887",
        "L11c": "8254ff3ea0b173d88fae27980719834c6bc35d55",
        "L11d": "c841108be63ae29486cdb08cf9636ee9101a7a19",
        "L2": "f9323fb2c2855faca3d1d66c237334b95dd14280",
        "L3": "a9f4cd4ba2d06af5563cd7f5cfdc2977a2e0b603",
        "L3a": "e20b85575a3d8838036c11447644594ede58f7bb",
        "L3b": "a05e4a2301cc084bacc8a3759e5560595bd15210",
        "L3c": "33ede3d27812c235c9d7a029e7e6514b5473ec0a",
        "L4": "8b48babebf73d67a7cba0a3813b5b1ef16e011ca",
        "L5": "cec876f5572a6638092e68ab89eb7e0ed22cbfbd",
        "L6": "9103c22b4a4d29d28df29aca9ce7fbd5cd544f05",
        "L7": "f2988fa0c442e82d9736bce7c369ccacd8d0ad8b",
        "L8": "659a10c8efa3dd8da392fbbdf04d7823911224ca",
    }
    #: script -> :func:`_operator_digest` (SPLIT has two Stores per job,
    #: so it has no plan fingerprint)
    SCRIPT_OPERATORS = {
        "split": "086f2409c35fa4f592c4ea7970b37112de87a323",
        "l4_style": "8bcbbb450e58e5000c91cd160b68cc4467e751da",
        "l7_style": "95b6edc67bd37c9d3b0f1c91830f28e280db0b9a",
    }
    #: SHA-1 of the :func:`_operator_digest` of every ``querygen(7, 50)``
    #: workflow, in pool order
    QUERYGEN_50_OPERATORS = "558254a35b0ed19b251d952a39499c30a521368a"

    @pytest.fixture(scope="class")
    def system(self):
        system = PigSystem()
        PigMixData(tiny_config()).install(system.dfs)
        return system

    def test_pigmix_jobs(self, system):
        got = {name: hashlib.sha1(_job_fingerprints(
                   system.compile(query_text(name), name)).encode()).hexdigest()
               for name in GOLDEN_QUERIES}
        assert got == self.PIGMIX

    def test_querygen_jobs(self, system):
        pool = load_querygen().querygen(7, 50)
        joined = ",".join(_job_fingerprints(system.compile(query.text, "q"))
                          for query in pool)
        assert joined.count(",") + 1 == 90
        assert hashlib.sha1(joined.encode()).hexdigest() == self.QUERYGEN_50

    def test_pigmix_operators(self, system):
        got = {name: _operator_digest(system.compile(query_text(name), name))
               for name in GOLDEN_QUERIES}
        assert got == self.PIGMIX_OPERATORS

    def test_split_and_nested_scripts(self, system):
        scripts = {"split": SPLIT_QUERY, "l4_style": L4_STYLE,
                   "l7_style": L7_STYLE}
        got = {name: _operator_digest(system.compile(text, name))
               for name, text in scripts.items()}
        assert got == self.SCRIPT_OPERATORS

    def test_querygen_operators(self, system):
        pool = load_querygen().querygen(7, 50)
        joined = ",".join(_operator_digest(system.compile(query.text, "q"))
                          for query in pool)
        assert hashlib.sha1(joined.encode()).hexdigest() == self.QUERYGEN_50_OPERATORS
