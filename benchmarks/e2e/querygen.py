"""Seeded Pig Latin query and data generator for the e2e benchmark.

Three shape families from :mod:`repro.pigmix.queries`, varied the way the
paper varies L3a-c / L11a-d so that distinct queries share sub-plans:

* ``join``   — L3: project, join with a users table, group, aggregate
  (2 MR jobs); the join is shared by the five aggregates over it;
* ``filter`` — L4/L6: filter, project, group, aggregate (1 job); the
  filter + projection is shared by the group keys and aggregates over it;
* ``union``  — L11: distinct ∪ distinct → distinct (3 jobs); each inner
  distinct is shared by every pair it takes part in.

The mix is stratified (2 join : 2 filter : 1 union by pool position) and
the pool's structure -- which queries share a table, a filter or a join with
which -- is drawn once for all seeds; a seed draws which page-views table,
aggregated column and aggregate each place in that structure gets, the data
and the order of the stream. So a seed changes which queries are submitted
and in what order, not how much work a stream holds: function calls per
``hot_probe`` window differ by under 1 % between seeds (7 % with the
structure drawn per seed too, and the median latency moved by twice that).
``run.py --self-test`` runs :func:`self_test`.
"""

import itertools
import random

from repro.pigmix import PigMixConfig, PigMixData
from repro.pigmix.datagen import PAGE_VIEWS_SCHEMA, USERS_SCHEMA

PAGE_VIEWS = [f"/data/page_views_{i}" for i in range(4)]
USER_TABLES = ["/data/users", "/data/power_users"]

_PAGE_VIEWS_AS = (
    "(user:chararray, action:int, timespent:int, query_term:chararray, "
    "ip_addr:chararray, timestamp:int, estimated_revenue:double, "
    "page_info:chararray, page_links:chararray)"
)
_USERS_AS = (
    "(name:chararray, phone:chararray, address:chararray, city:chararray, "
    "state:chararray, zip:chararray)"
)
AGGREGATES = ["SUM", "AVG", "COUNT", "MIN", "MAX"]
#: filter constants on ``timespent`` (uniform on 1..600), None = no filter;
#: they keep 50-95 % of the rows, so no draw makes a stream much lighter
_THRESHOLDS = [None] + list(range(30, 301, 15))
_GROUP_KEYS = ["user", "query_term", "action"]
_VALUES = ["estimated_revenue", "timespent"]
_FAMILIES = ["join", "join", "filter", "filter", "union"]


def _filtered_page_views(alias, table, threshold):
    """Load (and optionally filter) a page-views table; returns
    (text, alias of the result)."""
    text = f"{alias} = load '{table}' as {_PAGE_VIEWS_AS};\n"
    if threshold is None:
        return text, alias
    text += f"{alias}f = filter {alias} by timespent > {threshold};\n"
    return text, f"{alias}f"


def _join_text(params, out):
    table, threshold, users, value, aggregate = params
    text, source = _filtered_page_views("A", table, threshold)
    return text + (
        f"B = foreach {source} generate user, {value};\n"
        f"alpha = load '{users}' as {_USERS_AS};\n"
        "beta = foreach alpha generate name;\n"
        "C = join beta by name, B by user parallel 40;\n"
        "D = group C by $0 parallel 40;\n"
        f"E = foreach D generate group, {aggregate}(C.{value});\n"
        f"store E into '{out}';\n")


def _filter_text(params, out):
    table, threshold, key, aggregate = params
    text, source = _filtered_page_views("A", table, threshold)
    return text + (
        f"B = foreach {source} generate user, action, timespent, query_term;\n"
        f"C = group B by {key} parallel 40;\n"
        f"D = foreach C generate group, {aggregate}(B.timespent);\n"
        f"store D into '{out}';\n")


def _union_text(params, out):
    text = ""
    for index, (table, threshold) in enumerate(params):
        if table in USER_TABLES:
            text += (f"S{index} = load '{table}' as {_USERS_AS};\n"
                     f"P{index} = foreach S{index} generate name;\n")
        else:
            load, source = _filtered_page_views(f"S{index}", table, threshold)
            text += load + f"P{index} = foreach {source} generate user;\n"
        text += f"d{index} = distinct P{index} parallel 40;\n"
    return text + ("U = union d0, d1;\n"
                   "E = distinct U parallel 40;\n"
                   f"store E into '{out}';\n")


def _parameter_space(family, page_views, values, aggregates):
    """Every parameter tuple of ``family``. The seed gives the page-views
    tables, the aggregated columns and the aggregates in its own order, and
    a position in the list is the same structure under any such order: those
    three are interchangeable (filter constants, group keys and user tables
    are not: they decide how much data a query moves)."""
    if family == "join":
        return list(itertools.product(
            page_views, _THRESHOLDS, USER_TABLES, values, aggregates))
    if family == "filter":
        return list(itertools.product(
            page_views, _THRESHOLDS[1:], _GROUP_KEYS, aggregates))
    sources = [(table, None) for table in USER_TABLES]
    sources += itertools.product(page_views, _THRESHOLDS)
    return list(itertools.permutations(sources, 2))


def _first_threshold(params):
    return params[0][1] if isinstance(params[0], tuple) else params[1]


def _spread_over_thresholds(rng, space, needed):
    """``needed`` members of ``space`` in random order, taken round-robin
    from its threshold strata: the filter constant decides how much data a
    query moves, and an even spread keeps pools of any size equally heavy."""
    strata = {}
    for params in space:
        strata.setdefault(_first_threshold(params), []).append(params)
    members = list(strata.values())
    rng.shuffle(members)
    for stratum in members:
        rng.shuffle(stratum)
    drawn = [stratum[depth] for depth in range(max(map(len, members)))
             for stratum in members if depth < len(stratum)][:needed]
    rng.shuffle(drawn)
    return drawn


def _tables_and_shared_key(family, params):
    """(input tables, key of the sub-plan other queries can share)."""
    if family == "join":
        return (params[0], params[2]), ("join",) + params[:4]
    if family == "filter":
        return (params[0],), ("filter",) + params[:2]
    return tuple(table for table, _ in params), ("distinct", params[0])


_TEXT = {"join": _join_text, "filter": _filter_text, "union": _union_text}


class Query:
    """One generated query: its text and what the oracle needs to know."""

    __slots__ = ("index", "text", "out", "tables", "shared_key")

    def __init__(self, index, text, out, tables, shared_key):
        self.index = index
        self.text = text
        self.out = out
        self.tables = tables
        self.shared_key = shared_key


def querygen(seed, count):
    """``count`` distinct queries, deterministic in ``seed``; query ``i``
    is of family ``_FAMILIES[i % 5]`` and stores into ``/out/q<i>``."""
    rng = random.Random("querygen")     # the structure: the same for all seeds
    naming = random.Random(f"querygen-{seed}")
    names = [naming.sample(domain, len(domain))
             for domain in (PAGE_VIEWS, _VALUES, AGGREGATES)]
    draws = {}
    for family in sorted(_TEXT):
        needed = sum(1 for i in range(count)
                     if _FAMILIES[i % len(_FAMILIES)] == family)
        space = _parameter_space(family, *names)
        if needed > len(space):
            raise ValueError(f"only {len(space)} distinct {family} queries "
                             f"exist, {needed} asked for")
        draws[family] = iter(_spread_over_thresholds(rng, space, needed))
    pool = []
    for index in range(count):
        family = _FAMILIES[index % len(_FAMILIES)]
        params = next(draws[family])
        out = f"/out/q{index}"
        tables, shared_key = _tables_and_shared_key(family, params)
        pool.append(Query(index, _TEXT[family](params, out), out, tables,
                          shared_key))
    return pool


def skewed_picks(seed, pool_size, count):
    """``count`` pool positions with quadratic skew towards position 0
    (a tenth of the picks hit the hottest of 100 queries; a cubic skew
    would put a fifth there and make the median latency that one query's).
    The quantiles are fixed and only their order is drawn, so every seed
    gives the same popularity histogram."""
    picks = [int(pool_size * ((i + 0.5) / count) ** 2) for i in range(count)]
    random.Random(f"picks-{seed}").shuffle(picks)
    return picks


def uniform_picks(seed, pool_size, count):
    """Passes over the pool, each in its own seeded random order (the last
    one cut short), so that every stretch of ``pool_size`` picks that
    starts on a pass boundary holds the same work."""
    rng = random.Random(f"picks-{seed}")
    picks = []
    while len(picks) < count:
        one_pass = list(range(pool_size))
        rng.shuffle(one_pass)
        picks.extend(one_pass)
    return picks[:count]


def page_views_rows(seed, rows):
    """Rows of one page-views table (the schema is PAGE_VIEWS_SCHEMA)."""
    return PigMixData(_config(seed, rows)).page_views_rows()


def _config(seed, rows):
    return PigMixConfig(num_page_views=rows, num_users=max(20, rows // 20),
                        num_power_users=max(5, rows // 200), seed=seed)


def install_tables(system, seed, rows):
    """Write the page-views tables and the two user tables; returns the
    bytes of input data installed."""
    data = PigMixData(_config(seed, rows))
    system.write_table(USER_TABLES[0], data.users_rows(), USERS_SCHEMA)
    system.write_table(USER_TABLES[1], data.power_users_rows(), USERS_SCHEMA)
    for index, table in enumerate(PAGE_VIEWS):
        system.write_table(table, page_views_rows(seed * 1000 + index, rows),
                           PAGE_VIEWS_SCHEMA)
    return sum(system.dfs.file_size(path) for path in PAGE_VIEWS + USER_TABLES)


def self_test(seed=7, count=400):
    """Determinism and sharing report; raises on any violation."""
    from repro import PigSystem
    from repro.restore import plan_fingerprint

    pool = querygen(seed, count)
    again = querygen(seed, count)
    if [q.text for q in pool] != [q.text for q in again]:
        raise AssertionError("same seed gave different texts")
    if skewed_picks(seed, count, 1000) != skewed_picks(seed, count, 1000):
        raise AssertionError("same seed gave different picks")
    other = querygen(seed + 1, count)
    if [q.text for q in pool] == [q.text for q in other]:
        raise AssertionError("a different seed gave the same stream")
    system = PigSystem()
    install_tables(system, seed, 100)
    fingerprints = set()
    for query in pool:
        workflow = system.compile(query.text, f"q{query.index}")
        for job in workflow.jobs:
            fingerprints.add(plan_fingerprint(job.plan))
    seen = set()
    sharing = 0
    for query in pool:
        sharing += query.shared_key in seen
        seen.add(query.shared_key)
    return {"queries": count,
            "distinct_job_fingerprints": len(fingerprints),
            "share_subplan_with_earlier": sharing / count}

