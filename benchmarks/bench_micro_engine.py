"""Micro-benchmarks of the substrate: codec, shuffle, engine, matcher,
compiler.

These are conventional multi-round pytest benchmarks (wall-clock), useful
for tracking regressions in the engine underlying all experiments: one
case per operator shape of the HiBench menu (scan + filter, group +
aggregate, join, distinct, order-by), each a single MapReduce job driven
through :class:`JobRunner`, and one per kind of schema the codec meets
(the wide PigMix table, escaped strings, bag columns, the two-column
projections most injected Stores write). A slow-down in one operator
shows here without running the end-to-end stream (``benchmarks/e2e``).

Run with ``--benchmark-json FILE`` to keep the numbers (CI does).
"""

import pytest

from repro import PigSystem
from repro.data import DataType, decode_lines, encode_rows, Field, Schema
from repro.logical import build_logical_plan
from repro.mapreduce.runner import JobRunner
from repro.mapreduce.shuffle import grouped_partitions, stable_hash
from repro.physical import logical_to_physical
from repro.piglatin import parse_query
from repro.pigmix import PAGE_VIEWS_SCHEMA, PigMixConfig, PigMixData
from repro.restore.matcher import find_containment

from repro.pigmix.queries import PigMixPaths, query_text

NUM_ROWS = 2000


@pytest.fixture(scope="module")
def pigmix_data():
    return PigMixData(PigMixConfig(num_page_views=NUM_ROWS))


@pytest.fixture(scope="module")
def page_views_rows(pigmix_data):
    return pigmix_data.page_views_rows()


# Codec: one case per kind of schema ----------------------------------------

PROJECTED_SCHEMA = Schema([Field("user", DataType.CHARARRAY),
                           Field("estimated_revenue", DataType.DOUBLE)])
ESCAPED_SCHEMA = Schema([Field("url", DataType.CHARARRAY),
                         Field("hits", DataType.INT)])
GROUPED_SCHEMA = Schema([
    Field("group", DataType.CHARARRAY),
    Field("B", DataType.BAG, Schema([Field("user", DataType.CHARARRAY),
                                     Field("timespent", DataType.INT)])),
])


def _grouped_rows(page_views_rows):
    bags = {}
    for row in page_views_rows:
        bags.setdefault(row[0], []).append((row[0], row[2]))
    return [(user, tuple(bag)) for user, bag in sorted(bags.items())]


def _codec_cases(page_views_rows):
    return {
        "page_views": (PAGE_VIEWS_SCHEMA, page_views_rows),
        "projected": (PROJECTED_SCHEMA,
                      [(row[0], row[6]) for row in page_views_rows]),
        # Every string holds structural characters: the escaping path.
        "escaped": (ESCAPED_SCHEMA,
                    [(f"/a|b,{row[3]}(x)\t{{{row[1]}}}", row[2])
                     for row in page_views_rows]),
        "bags": (GROUPED_SCHEMA, _grouped_rows(page_views_rows)),
    }


CODEC_CASES = ["page_views", "projected", "escaped", "bags"]


@pytest.mark.benchmark(group="micro-codec")
@pytest.mark.parametrize("case", CODEC_CASES)
def test_codec_encode(benchmark, page_views_rows, case):
    schema, rows = _codec_cases(page_views_rows)[case]
    lines = benchmark(encode_rows, rows, schema)
    assert len(lines) == len(rows)


@pytest.mark.benchmark(group="micro-codec")
@pytest.mark.parametrize("case", CODEC_CASES)
def test_codec_decode(benchmark, page_views_rows, case):
    schema, rows = _codec_cases(page_views_rows)[case]
    lines = encode_rows(rows, schema)
    assert benchmark(decode_lines, lines, schema) == rows


@pytest.mark.benchmark(group="micro-shuffle")
def test_shuffle_partition_and_group(benchmark, page_views_rows):
    keyed = [(0, row[0], row) for row in page_views_rows]

    def shuffle():
        return grouped_partitions(keyed, 28)

    partitions = benchmark(shuffle)
    assert sum(len(groups) for groups in partitions) > 0


@pytest.mark.benchmark(group="micro-shuffle")
def test_stable_hash_throughput(benchmark, page_views_rows):
    keys = [row[0] for row in page_views_rows]

    def hash_all():
        return [stable_hash(key) for key in keys]

    hashes = benchmark(hash_all)
    assert len(set(hashes)) > 1


# Engine: one MapReduce job per operator shape --------------------------------

_LOAD = query_text("L2", PigMixPaths()).split("\n", 1)[0] + "\n"
ENGINE_SHAPES = {
    "scan_filter": _LOAD + """
        B = filter A by timespent > 300;
        C = foreach B generate user, timespent, estimated_revenue;
        store C into '/out/shape';""",
    "group_aggregate": _LOAD + """
        B = foreach A generate user, timespent;
        C = group B by user;
        D = foreach C generate group, SUM(B.timespent), COUNT(B);
        store D into '/out/shape';""",
    "join": query_text("L2", PigMixPaths()).replace("/out/L2_out", "/out/shape"),
    "distinct": _LOAD + """
        B = foreach A generate user, action;
        C = distinct B;
        store C into '/out/shape';""",
    "order_by": _LOAD + """
        B = foreach A generate user, timespent;
        C = order B by timespent desc, user;
        store C into '/out/shape';""",
}


@pytest.fixture(scope="module")
def engine(pigmix_data):
    system = PigSystem()
    pigmix_data.install(system.dfs)
    return system


@pytest.mark.benchmark(group="micro-engine")
@pytest.mark.parametrize("shape", sorted(ENGINE_SHAPES))
def test_engine_job(benchmark, engine, shape):
    (job,) = engine.compile(ENGINE_SHAPES[shape], shape).jobs
    runner = JobRunner(engine.dfs, engine.cost_model)

    def fresh_output():
        # Rewriting identical content would skip sizing the output's lines.
        engine.dfs.delete_if_exists("/out/shape")
        return (job,), {}

    result = benchmark.pedantic(runner.run, setup=fresh_output, rounds=40,
                                warmup_rounds=2)
    assert result.stats.map_input_records >= NUM_ROWS
    assert engine.dfs.status("/out/shape").num_lines > 0


@pytest.mark.benchmark(group="micro-compiler")
def test_compile_l3_to_physical(benchmark):
    text = query_text("L3", PigMixPaths())

    def compile_query():
        return logical_to_physical(build_logical_plan(parse_query(text)))

    plan = benchmark(compile_query)
    assert len(plan.operators()) > 5


@pytest.mark.benchmark(group="micro-matcher")
def test_containment_check(benchmark):
    paths = PigMixPaths()
    entry = logical_to_physical(build_logical_plan(parse_query(
        query_text("L2", paths))))
    target = logical_to_physical(build_logical_plan(parse_query(
        query_text("L3", paths))))

    def match():
        return find_containment(entry, target)

    result = benchmark(match)
    # L2 projects page_views like L3 but joins power_users, not users:
    # containment must (correctly) fail, exercising the full traversal.
    assert result is None
