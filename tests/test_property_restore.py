"""Property-based tests for ReStore's core invariants.

The central one: **reuse never changes results**. A random pipeline query
is generated, executed on a plain system and on a ReStore system twice
(populate + reuse); all three outputs must be byte-identical.

The second family (PR 1): **indexing never changes decisions**. The
indexed :class:`~repro.restore.Repository` is driven in lock-step with
the frozen seed implementation
(:class:`~repro.restore.LinearScanRepository`) over randomized workflow
streams, and must produce identical scan orders, identical
``find_equivalent`` results, identical match decisions, and identical
:class:`~repro.restore.ReStoreReport` contents.

The third family (PR 2): **sharding never changes decisions either**.
:class:`~repro.restore.ShardedRepository` at shard counts 1, 2, and 8
joins the same lock-step streams: every implementation must agree with
the seed on scan order and matching, and the sharded candidate sequences
(the inherited fingerprint lookup, whatever the shard layout) must be
identical to the indexed repository's.
"""

import contextlib
import random

import pytest
from hypothesis import assume, given, HealthCheck, settings, strategies as st

from repro import PigSystem
from repro.data import DataType, encode_row, Field, Schema
from repro.dfs import DistributedFileSystem
from repro.logical import build_logical_plan
from repro.physical import logical_to_physical
from repro.physical.operators import POLoad
from repro.piglatin import parse_query
from repro.restore import (
    LinearScanRepository,
    load_repository,
    Repository,
    RepositoryEntry,
    RepositoryLog,
    ShardedRepository,
)
from repro.restore.matcher import (
    contains,
    find_containment,
    pairwise_plan_traversal,
    PlanDigest,
)
from repro.restore.persistence import (
    CATCHALL_LABEL,
    segment_file_path,
    shard_label,
)
from repro.restore.stats import EntryStats

from tests.faultinject import FaultSchedule, install_hang_guard

SCHEMA = Schema(
    [
        Field("k", DataType.CHARARRAY),
        Field("a", DataType.INT),
        Field("b", DataType.INT),
        Field("c", DataType.CHARARRAY),
    ]
)

_rows = st.lists(
    st.tuples(
        st.sampled_from(["x", "y", "z", "w"]),
        st.integers(0, 50),
        st.integers(0, 50),
        st.sampled_from(["p", "q", "r"]),
    ),
    min_size=0,
    max_size=30,
)

# A random linear pipeline: load -> transforms -> optional blocking ->
# optional aggregate -> store.
TRANSFORM_TEMPLATES = [
    "{out} = filter {inp} by a > 10;",
    "{out} = filter {inp} by b < 40;",
    "{out} = foreach {inp} generate k, a, b, c;",
    "{out} = foreach {inp} generate k, a + b as a, b, c;",
    "{out} = distinct {inp};",
]

TAIL_TEMPLATES = [
    "",
    "{out} = group {inp} by k;"
    "{out2} = foreach {out} generate group, COUNT({inp});",
    "{out} = group {inp} by k;"
    "{out2} = foreach {out} generate group, SUM({inp}.a);",
    "{out} = order {inp} by k;",
]

_transforms = st.lists(st.sampled_from(TRANSFORM_TEMPLATES), min_size=0, max_size=3)

_tails = st.sampled_from(TAIL_TEMPLATES)


def build_query(transforms, tail):
    lines = ["A = load '/data/t' as (k:chararray, a:int, b:int, c:chararray);"]
    current = "A"
    for index, template in enumerate(transforms):
        out = f"T{index}"
        lines.append(template.format(inp=current, out=out))
        current = out
    if tail:
        out = "G"
        out2 = "H"
        lines.append(tail.format(inp=current, out=out, out2=out2))
        current = out2 if "{out2}" in tail else out
    lines.append(f"store {current} into '/out/result';")
    return "\n".join(lines)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rows=_rows, transforms=_transforms, tail=_tails)
def test_property_reuse_preserves_results(rows, transforms, tail):
    query = build_query(transforms, tail)

    plain = PigSystem()
    plain.dfs.write_lines("/data/t", [encode_row(r, SCHEMA) for r in rows])
    plain.run(query)
    expected = plain.dfs.read_lines("/out/result")

    reusing = PigSystem()
    reusing.dfs.write_lines("/data/t", [encode_row(r, SCHEMA) for r in rows])
    restore = reusing.restore()
    restore.submit(reusing.compile(query))
    assert reusing.dfs.read_lines("/out/result") == expected

    # Second submission reuses stored outputs — results must not change.
    restore.submit(reusing.compile(query))
    assert reusing.dfs.read_lines("/out/result") == expected


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(transforms=_transforms, tail=_tails)
def test_property_plan_contains_itself(transforms, tail):
    # Bare Load->Store plans are excluded: they have no valid match
    # frontier (rewriting a Load with a Load is useless by design).
    assume(transforms or tail)
    query = build_query(transforms, tail)
    plan_a = logical_to_physical(build_logical_plan(parse_query(query)))
    plan_b = logical_to_physical(build_logical_plan(parse_query(query)))
    assert contains(plan_a, plan_b)
    assert pairwise_plan_traversal(plan_b, plan_a)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(transforms_a=_transforms, tail_a=_tails,
       transforms_b=_transforms, tail_b=_tails)
def test_property_matchers_agree(transforms_a, tail_a, transforms_b, tail_b):
    assume(transforms_a or tail_a)  # trivial entries are never registered
    entry = logical_to_physical(
        build_logical_plan(parse_query(build_query(transforms_a, tail_a))))
    target = logical_to_physical(
        build_logical_plan(parse_query(build_query(transforms_b, tail_b))))
    assert (find_containment(entry, target) is not None) == (
        pairwise_plan_traversal(target, entry)
    )


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rows=_rows, transforms=_transforms)
def test_property_prefix_queries_share_work(rows, transforms):
    """A query that extends another must be rewritten to reuse it (when
    the prefix stores a reusable whole-job or sub-job output)."""
    prefix_query = build_query(transforms, "")
    extended_query = build_query(
        transforms,
        "{out} = group {inp} by k;"
        "{out2} = foreach {out} generate group, COUNT({inp});",
    ).replace("/out/result", "/out/extended")

    system = PigSystem()
    system.dfs.write_lines("/data/t", [encode_row(r, SCHEMA) for r in rows])
    restore = system.restore()
    restore.submit(system.compile(prefix_query))
    restore.submit(system.compile(extended_query))

    check = PigSystem()
    check.dfs.write_lines("/data/t", [encode_row(r, SCHEMA) for r in rows])
    check.run(extended_query)
    assert (system.dfs.read_lines("/out/extended")
            == check.dfs.read_lines("/out/extended"))


# --- Indexed + sharded repositories vs the frozen seed linear scan ------------
#
# The indexed Repository (PR 1) and the ShardedRepository at several
# shard counts (PR 2) must be observationally identical to the seed's
# sequential-scan implementation: same scan order, same find_equivalent
# answers, same match decisions. These tests drive all of them in
# lock-step over randomized insert/remove/probe streams.

_POOL_QUERIES = []
for _ds in ("/data/t", "/data/u"):
    _base = (f"A = load '{_ds}' as (k:chararray, a:int, b:int, c:chararray);")
    for _body, _last in [
        ("", "A"),
        ("B = filter A by a > 10;", "B"),
        ("B = filter A by a > 10; C = foreach B generate k, a;", "C"),
        ("B = filter A by a > 10; C = foreach B generate k, a;"
         "D = distinct C;", "D"),
        ("B = foreach A generate k, a + b as a;", "B"),
        ("B = group A by k; C = foreach B generate group, COUNT(A);", "C"),
    ]:
        if _last == "A":
            continue  # bare Load->Store plans have no match frontier
        _POOL_QUERIES.append(f"{_base}\n{_body}\nstore {_last} into '/stored/p';")
_POOL_QUERIES.append(
    "A = load '/data/t' as (k:chararray, a:int, b:int, c:chararray);\n"
    "B = load '/data/u' as (k:chararray, a:int, b:int, c:chararray);\n"
    "C = join A by k, B by k;\n"
    "store C into '/stored/p';"
)
_POOL_QUERIES.append(
    "A = load '/data/t' as (k:chararray, a:int, b:int, c:chararray);\n"
    "B = load '/data/u' as (k:chararray, a:int, b:int, c:chararray);\n"
    "C = join A by k, B by k;\n"
    "D = filter C by $1 > 10;\n"
    "store D into '/stored/p';"
)


@pytest.fixture(scope="module")
def plan_pool():
    return [logical_to_physical(build_logical_plan(parse_query(text)))
            for text in _POOL_QUERIES]


def _pool_plan(plan_pool, pool_index, version):
    """A fresh clone of a pool plan with every Load pinned to ``version``."""
    plan, _ = plan_pool[pool_index % len(plan_pool)].clone()
    for op in plan.operators():
        if isinstance(op, POLoad):
            op.version = version
    return plan


def _first_match_path(candidates, probe_plan):
    for entry in candidates:
        if find_containment(entry.plan, probe_plan) is not None:
            return entry.output_path
    return None


def _assert_edges_exact(repo, context):
    """The edge oracle: ``b ∈ subsumption_edges_among(all)[a]`` exactly
    when ``b``'s plan is strictly contained in ``a``'s, checked by brute
    force over every ordered pair on digests built here from the plans."""
    entries = list(repo.scan())
    digests = {entry.entry_id: PlanDigest(entry.plan) for entry in entries}
    edges = repo.subsumption_edges_among(digests)
    for a in entries:
        for b in entries:
            strictly = (a is not b
                        and contains(digests[b.entry_id], digests[a.entry_id])
                        and not contains(digests[a.entry_id],
                                         digests[b.entry_id]))
            assert (b.entry_id in edges[a.entry_id]) == strictly, \
                (context, a.output_path, b.output_path)


def _repository_fleet():
    """Every repository implementation that must be observationally
    identical to the seed linear scan, labelled for failure messages."""
    return [
        ("indexed", Repository()),
        ("sharded-1", ShardedRepository(num_shards=1)),
        ("sharded-2", ShardedRepository(num_shards=2)),
        ("sharded-8", ShardedRepository(num_shards=8)),
    ]


def test_property_repositories_equivalent_to_seed(plan_pool):
    """200 randomized workflow streams of inserts/removals/probes: the
    indexed repository and the sharded repository (1, 2, and 8 shards)
    must produce scan orders, find_equivalent results, and match
    decisions identical to the frozen seed linear scan after every
    single operation — and the sharded candidate sequences must be
    identical to the indexed repository's (a serial sharded probe is the
    inherited fingerprint lookup, in global priority order)."""
    for stream in range(200):
        rng = random.Random(1000 + stream)
        fleet = _repository_fleet()
        seed = LinearScanRepository()
        twins = {}  # output_path -> [entry per fleet repo..., seed entry]
        for step in range(rng.randint(6, 14)):
            context = f"stream={stream} step={step}"
            action = rng.random()
            if action < 0.60 or not twins:
                pool_index = rng.randrange(len(plan_pool))
                version = rng.choice([0, 0, 0, 1, 2])
                plan = _pool_plan(plan_pool, pool_index, version)
                stats = EntryStats(
                    input_bytes=rng.choice([1000, 2000, 10000]),
                    output_bytes=rng.choice([10, 100, 1000]),
                    producing_job_time=rng.choice([1.0, 5.0, 60.0]),
                )
                path = f"/stored/s{stream}-{step}"
                entries = [RepositoryEntry(plan, path, stats)
                           for _ in range(len(fleet) + 1)]
                for (_, repo), entry in zip(fleet, entries):
                    repo.insert(entry)
                seed.insert(entries[-1])
                twins[path] = entries
            elif action < 0.75:
                victim = seed.scan()[rng.randrange(len(seed))]
                entries = twins.pop(victim.output_path)
                for (_, repo), entry in zip(fleet, entries):
                    repo.remove(entry)
                seed.remove(entries[-1])
            else:
                probe = _pool_plan(plan_pool, rng.randrange(len(plan_pool)),
                                   rng.choice([0, 0, 1]))
                expected = seed.find_equivalent(probe)
                expected_first = _first_match_path(seed.scan(), probe)
                # The candidate contract: the seed's scan, restricted to
                # the entries filed under one of the probe's sites.
                sites = PlanDigest(probe).sites
                matchable = [e.output_path for e in seed.scan()
                             if e.fingerprint in sites]
                indexed_candidates = None
                for name, repo in fleet:
                    found = repo.find_equivalent(probe)
                    assert (found is None) == (expected is None), (context, name)
                    if found is not None:
                        assert found.output_path == expected.output_path, \
                            (context, name)
                    # Match decision: the filtered candidate walk (the
                    # same inherited lookup for shards) must pick the
                    # same first match as the seed's full scan, and must
                    # not drop any matching entry.
                    candidates = [e.output_path
                                  for e in repo.match_candidates(probe)]
                    assert candidates == matchable, (context, name)
                    assert _first_match_path(repo.match_candidates(probe),
                                             probe) == expected_first, \
                        (context, name)
                    skipped = [e for e in seed.scan()
                               if e.output_path not in set(candidates)]
                    assert all(find_containment(e.plan, probe) is None
                               for e in skipped), (context, name)
                    if indexed_candidates is None:
                        indexed_candidates = candidates
                    else:
                        # A sharded layout must reproduce the indexed
                        # repository's candidate sequence exactly.
                        assert candidates == indexed_candidates, (context, name)
            for name, repo in fleet:
                assert [e.output_path for e in repo.scan()] == \
                    [e.output_path for e in seed.scan()], (context, name)
        for name, repo in fleet:
            _assert_edges_exact(repo, (f"stream={stream} end", name))


# --- Removal-heavy scan-order arm ------------------------------------------------
#
# An insert re-sorts only the subsumption components it touches plus the
# ones removals left dirty, and merges them into the rest of the order.
# These streams aim at what that depends on: metric ties (only the
# insertion sequence breaks them), bursts of removals between inserts,
# containers removed before the entries they subsume (which frees
# dependents), and reloads through a RepositoryLog mid-stream (the order
# is pinned and every cached key re-derived). The scan order must equal
# the seed's, and the subsumption edges the brute-force oracle's, after
# every single operation. CI's fuzz job runs the arm at ten times
# tier-1's examples (``--hypothesis-profile=repository-fuzz``).

if settings.get_current_profile_name() == "repository-fuzz":
    ORDER_BUDGET = settings()
else:
    ORDER_BUDGET = settings(max_examples=12, derandomize=True, deadline=None)

#: (input_bytes, output_bytes, producing_job_time): mostly tied
_TIED_STATS = [(1000, 10, 5.0), (1000, 10, 5.0), (1000, 10, 5.0),
               (2000, 10, 5.0), (1000, 100, 60.0)]


def _scan_paths(repository):
    return [entry.output_path for entry in repository.scan()]


def _reload_through_log(dfs, log, live, data):
    """Make the log durable one of three ways, reload, re-attach."""
    how = data.draw(st.sampled_from(["flush", "dirty", "full"]), label="how")
    if how == "flush":
        log.flush()
    elif how == "dirty":
        labels = sorted({shard_label(live.shard_id_of(entry))
                         for entry in live})
        if labels:
            log.compact(shards=[data.draw(st.sampled_from(labels),
                                          label="compacted shard")])
    else:
        log.compact()
    reloaded = load_repository(dfs)
    return reloaded, RepositoryLog(dfs).attach(reloaded)


@ORDER_BUDGET
@given(data=st.data())
def test_property_removal_heavy_order_matches_seed(plan_pool, data):
    num_shards = data.draw(st.sampled_from([0, 3]), label="num_shards")
    live = ShardedRepository(num_shards=num_shards) if num_shards \
        else Repository()
    dfs = DistributedFileSystem()
    log = RepositoryLog(dfs).attach(live)
    seed = LinearScanRepository()
    seed_entries = {}  # output_path -> the seed's twin entry
    steps = data.draw(st.integers(60, 120), label="steps")
    for step in range(steps):
        action = data.draw(st.sampled_from(
            ["insert"] * 5 + ["remove"] * 4 + ["reload"]), label="action")
        if action == "insert" or not len(live):
            plan_index = data.draw(st.integers(0, len(plan_pool) - 1),
                                   label="plan")
            version = data.draw(st.sampled_from([0, 0, 1]), label="version")
            input_bytes, output_bytes, seconds = data.draw(
                st.sampled_from(_TIED_STATS), label="stats")
            path = f"/stored/o{step}"
            for repository in (live, seed):
                entry = RepositoryEntry(
                    _pool_plan(plan_pool, plan_index, version), path,
                    EntryStats(input_bytes, output_bytes, seconds))
                repository.insert(entry)
            seed_entries[path] = entry
        elif action == "remove":
            for _ in range(data.draw(st.integers(1, 3), label="burst")):
                if not len(live):
                    break
                edges = live.subsumption_edges_among(
                    [entry.entry_id for entry in live])
                containers = sorted(live.entry(entry_id).output_path
                                    for entry_id, below in edges.items()
                                    if below)
                pick_container = containers and data.draw(
                    st.booleans(), label="container first")
                path = data.draw(st.sampled_from(
                    containers if pick_container else
                    sorted(entry.output_path for entry in live)),
                    label="victim")
                live.remove(next(entry for entry in live
                                 if entry.output_path == path))
                seed.remove(seed_entries.pop(path))
                assert _scan_paths(live) == _scan_paths(seed), step
                _assert_edges_exact(live, step)
        else:
            live, log = _reload_through_log(dfs, log, live, data)
        assert _scan_paths(live) == _scan_paths(seed), step
        _assert_edges_exact(live, step)
    log.detach()


# --- The worker-process service never changes decisions (PR 6) ----------------
#
# The same lock-step discipline, pointed at executor="processes": the
# process-backed ShardedRepository (2 and 8 shards, each partition a
# worker process behind the routing front-end) joins serial sharded
# twins and the frozen seed on randomized insert/remove/use/probe
# streams. Scan orders, find_equivalent answers, and match decisions
# must be identical
# throughout, and the durable state the attached RepositoryLog wrote
# for a process-backed arm must reload bit-identically.


def test_property_worker_processes_equivalent_to_serial(plan_pool):
    for stream in range(12):
        rng = random.Random(15000 + stream)
        dfs = DistributedFileSystem()
        seed = LinearScanRepository()
        fleet = [
            ("serial-2", ShardedRepository(num_shards=2)),
            ("processes-2", ShardedRepository(num_shards=2,
                                              executor="processes")),
            ("serial-8", ShardedRepository(num_shards=8)),
            ("processes-8", ShardedRepository(num_shards=8,
                                              executor="processes")),
        ]
        # Durability rides on a process-backed arm: its log must write
        # the same durable state a serial repository's would.
        log = RepositoryLog(dfs)
        log.attach(fleet[1][1])
        twins = {}  # output_path -> [entry per fleet repo..., seed entry]
        tick = 0
        try:
            for step in range(rng.randint(8, 14)):
                context = f"stream={stream} step={step}"
                action = rng.random()
                if action < 0.50 or not twins:
                    plan = _pool_plan(plan_pool,
                                      rng.randrange(len(plan_pool)),
                                      rng.choice([0, 0, 1]))
                    stats = EntryStats(
                        input_bytes=rng.choice([1000, 2000, 10000]),
                        output_bytes=rng.choice([10, 100, 1000]),
                        producing_job_time=rng.choice([1.0, 5.0, 60.0]),
                        created_tick=tick,
                    )
                    path = f"/stored/p{stream}-{step}"
                    entries = [RepositoryEntry(plan, path, stats)
                               for _ in range(len(fleet) + 1)]
                    for (_, repo), entry in zip(fleet, entries):
                        repo.insert(entry)
                    seed.insert(entries[-1])
                    twins[path] = entries
                elif action < 0.62:
                    victim = seed.scan()[rng.randrange(len(seed))]
                    entries = twins.pop(victim.output_path)
                    for (_, repo), entry in zip(fleet, entries):
                        repo.remove(entry)
                    seed.remove(entries[-1])
                elif action < 0.72:
                    tick += 1
                    victim = seed.scan()[rng.randrange(len(seed))]
                    for (_, repo), entry in zip(fleet,
                                                twins[victim.output_path]):
                        repo.record_use(entry, tick)
                else:
                    probes = [_pool_plan(plan_pool,
                                         rng.randrange(len(plan_pool)),
                                         rng.choice([0, 0, 1]))
                              for _ in range(rng.randint(1, 3))]
                    expected = [_first_match_path(seed.scan(), probe)
                                for probe in probes]
                    serial_candidates = None
                    for name, repo in fleet:
                        singly = [repo.match_candidates(probe)
                                  for probe in probes]
                        firsts = [_first_match_path(cs, probe)
                                  for cs, probe in zip(singly, probes)]
                        assert firsts == expected, (context, name)
                        paths = [[e.output_path for e in cs]
                                 for cs in singly]
                        if serial_candidates is None:
                            serial_candidates = paths
                        else:
                            assert paths == serial_candidates, \
                                (context, name)
                        for probe in probes:
                            found = repo.find_equivalent(probe)
                            seed_found = seed.find_equivalent(probe)
                            assert (found is None) == (seed_found is None), \
                                (context, name)
                            if found is not None:
                                assert found.output_path \
                                    == seed_found.output_path, (context, name)
                for name, repo in fleet:
                    assert [e.output_path for e in repo.scan()] == \
                        [e.output_path for e in seed.scan()], (context, name)
            log.checkpoint()
            _assert_reload_matches_live(dfs, fleet[1][1], plan_pool, rng,
                                        f"stream={stream} reload")
        finally:
            log.close()
            for _, repo in fleet:
                repo.close()


# --- A killed worker never changes decisions (PR 7) ---------------------------
#
# The same lock-step discipline again, with deterministic fault
# injection riding along: every stream kills a seed-chosen shard's
# worker as its seed-chosen Nth message is sent, mid-stream. The pool's
# cold re-seed must leave scan orders, find_equivalent answers, match
# decisions, and the executor-independent stats
# identical to the serial twins and the frozen seed throughout; at end of
# stream every worker must hold its partition's live membership; and the
# durable log written by a process-backed arm must reload exactly.


def test_property_replicated_workers_equivalent_under_faults(plan_pool):
    cancel_guard = install_hang_guard(600.0)
    recoveries = 0
    try:
        for stream in range(12):
            rng = random.Random(17000 + stream)
            dfs = DistributedFileSystem()
            seed = LinearScanRepository()
            fleet = [
                ("serial-2", ShardedRepository(num_shards=2)),
                ("processes-2", ShardedRepository(num_shards=2,
                                                  executor="processes")),
                ("serial-8", ShardedRepository(num_shards=8)),
                ("processes-8", ShardedRepository(num_shards=8,
                                                  executor="processes")),
            ]
            log = RepositoryLog(dfs)
            log.attach(fleet[1][1])
            twins = {}
            tick = 0
            schedules = {}  # fleet name -> its pool's FaultSchedule
            try:
                with contextlib.ExitStack() as faults:
                    # One seed-chosen kill per worker pool, armed for
                    # the whole stream: the victim dies as its Nth
                    # message is sent — maybe during a flush, maybe
                    # mid-probe, maybe never (if the stream is too
                    # short), but the same way on every run of the seed.
                    for name, repo in fleet:
                        pool = repo.worker_pool
                        if pool is None:
                            continue
                        schedules[name] = faults.enter_context(
                            FaultSchedule.from_seed(
                                17000 + stream, range(repo.num_shards),
                                kills=1, pool=pool))
                    for step in range(rng.randint(8, 14)):
                        context = f"stream={stream} step={step}"
                        action = rng.random()
                        if action < 0.50 or not twins:
                            plan = _pool_plan(plan_pool,
                                              rng.randrange(len(plan_pool)),
                                              rng.choice([0, 0, 1]))
                            stat_values = dict(
                                input_bytes=rng.choice([1000, 2000, 10000]),
                                output_bytes=rng.choice([10, 100, 1000]),
                                producing_job_time=rng.choice([1.0, 5.0,
                                                               60.0]),
                                created_tick=tick,
                            )
                            path = f"/stored/r{stream}-{step}"
                            # One EntryStats per twin (unlike the older
                            # lock-step arms, which share one object):
                            # use-stamps travel into the workers as
                            # values, so each repository's entry must
                            # carry its own per-repo history.
                            entries = [RepositoryEntry(plan, path,
                                                       EntryStats(
                                                           **stat_values))
                                       for _ in range(len(fleet) + 1)]
                            for (_, repo), entry in zip(fleet, entries):
                                repo.insert(entry)
                            seed.insert(entries[-1])
                            twins[path] = entries
                        elif action < 0.62:
                            victim = seed.scan()[rng.randrange(len(seed))]
                            entries = twins.pop(victim.output_path)
                            for (_, repo), entry in zip(fleet, entries):
                                repo.remove(entry)
                            seed.remove(entries[-1])
                        elif action < 0.72:
                            tick += 1
                            victim = seed.scan()[rng.randrange(len(seed))]
                            for (_, repo), entry in zip(
                                    fleet, twins[victim.output_path]):
                                repo.record_use(entry, tick)
                        else:
                            probes = [_pool_plan(plan_pool,
                                                 rng.randrange(len(plan_pool)),
                                                 rng.choice([0, 0, 1]))
                                      for _ in range(rng.randint(1, 3))]
                            expected = [_first_match_path(seed.scan(), probe)
                                        for probe in probes]
                            serial_candidates = None
                            for name, repo in fleet:
                                singly = [repo.match_candidates(probe)
                                          for probe in probes]
                                firsts = [_first_match_path(cs, probe)
                                          for cs, probe in zip(singly,
                                                               probes)]
                                assert firsts == expected, (context, name)
                                paths = [[e.output_path for e in cs]
                                         for cs in singly]
                                if serial_candidates is None:
                                    serial_candidates = paths
                                else:
                                    assert paths == serial_candidates, \
                                        (context, name)
                        for name, repo in fleet:
                            assert [e.output_path for e in repo.scan()] == \
                                [e.output_path for e in seed.scan()], \
                                (context, name)
                # Schedules released: end-of-stream invariants. Every
                # worker — never killed, or cold-rebuilt — must hold its
                # partition's live membership (asking also recovers a
                # victim whose kill landed on the stream's last flush),
                # and every kill that fired cost exactly one recovery.
                for name, repo in fleet:
                    pool = repo.worker_pool
                    if pool is None:
                        continue
                    for shard_id, size in repo.shard_sizes().items():
                        assert pool.worker_size(shard_id) == size, \
                            (stream, name, shard_id)
                    assert pool.recoveries == len(schedules[name].killed), \
                        (stream, name)
                    recoveries += pool.recoveries
                # The executor-independent stats agree with the serial
                # twin of the same shard count.
                for serial_name, processes_name in [(0, 1), (2, 3)]:
                    serial_stats = {
                        shard.stats.shard_id: (shard.stats.probes,
                                               shard.stats.candidates_returned,
                                               shard.stats.occupancy)
                        for shard in fleet[serial_name][1].partitions()}
                    processes_stats = {
                        shard.stats.shard_id: (shard.stats.probes,
                                               shard.stats.candidates_returned,
                                               shard.stats.occupancy)
                        for shard in fleet[processes_name][1].partitions()}
                    assert processes_stats == serial_stats, (stream,
                                                             processes_name)
                log.checkpoint()
                _assert_reload_matches_live(dfs, fleet[1][1], plan_pool, rng,
                                            f"stream={stream} reload")
            finally:
                log.close()
                for _, repo in fleet:
                    repo.close()
        # The schedules are not vacuous: kills fired and were recovered.
        assert recoveries >= 1
    finally:
        cancel_guard()


# --- Incremental persistence: snapshot+log replay is exact (PR 4) -------------
#
# The fifth lock-step family: a repository with an attached RepositoryLog
# is mutated through randomized insert/remove/use streams, and after
# every checkpoint — including simulated crashes that tear the final log
# line mid-append — load_repository must rebuild a repository that is
# bit-identical to the live one: same scan order, same per-entry
# statistics, same find_equivalent answers, same match-candidate
# sequences, same shard layout.


def _entry_state(repository):
    """Everything the replay must reproduce bit-identically, per entry,
    in scan order."""
    state = []
    for entry in repository.scan():
        stats = entry.stats
        state.append((
            entry.output_path, entry.fingerprint, entry.origin,
            entry.owns_file, dict(entry.input_versions),
            stats.input_bytes, stats.output_bytes, stats.producing_job_time,
            stats.map_time, stats.reduce_time, stats.created_tick,
            stats.last_used_tick, stats.use_count,
        ))
    return state


def _assert_reload_matches_live(dfs, live, plan_pool, rng, context):
    reloaded = load_repository(dfs)
    assert type(reloaded) is type(live), context
    assert _entry_state(reloaded) == _entry_state(live), context
    if isinstance(live, ShardedRepository):
        assert reloaded.num_shards == live.num_shards, context
        # Shard membership must match; within-shard iteration order is
        # insertion order, which is not observable (probes re-sort into
        # the global scan order) and legitimately differs after replay.
        assert [sorted(e.output_path for e in shard)
                for shard in reloaded.partitions()] == \
            [sorted(e.output_path for e in shard)
             for shard in live.partitions()], context
    probe = _pool_plan(plan_pool, rng.randrange(len(plan_pool)),
                       rng.choice([0, 0, 1]))
    live_found = live.find_equivalent(probe)
    reloaded_found = reloaded.find_equivalent(probe)
    assert (reloaded_found is None) == (live_found is None), context
    if live_found is not None:
        assert reloaded_found.output_path == live_found.output_path, context
    assert [e.output_path for e in reloaded.match_candidates(probe)] == \
        [e.output_path for e in live.match_candidates(probe)], context
    assert _first_match_path(reloaded.match_candidates(probe), probe) == \
        _first_match_path(live.match_candidates(probe), probe), context
    return reloaded


def _segment_paths(dfs, log):
    """The segment files the log has materialized so far."""
    return dfs.list_files(prefix=f"{log.log_path}.")


def test_property_log_replay_matches_live(plan_pool):
    """60 randomized mutation streams, each against a live repository
    with an attached RepositoryLog at a random compaction ratio; crash
    and reload at random points — per-segment torn tails and crashes
    between one shard's section rewrite and its segment truncation
    included."""
    for stream in range(60):
        rng = random.Random(4000 + stream)
        dfs = DistributedFileSystem()
        live = rng.choice([
            lambda: Repository(),
            lambda: ShardedRepository(num_shards=2),
            lambda: ShardedRepository(num_shards=8),
        ])()
        log = RepositoryLog(dfs, compact_ratio=rng.choice([0.25, 1.0, 8.0]))
        log.attach(live)
        tick = 0
        for step in range(rng.randint(8, 16)):
            context = f"stream={stream} step={step}"
            action = rng.random()
            if action < 0.55 or not len(live):
                plan = _pool_plan(plan_pool, rng.randrange(len(plan_pool)),
                                  rng.choice([0, 0, 1]))
                stats = EntryStats(
                    input_bytes=rng.choice([1000, 2000, 10000]),
                    output_bytes=rng.choice([10, 100, 1000]),
                    producing_job_time=rng.choice([1.0, 5.0, 60.0]),
                    created_tick=tick,
                )
                live.insert(RepositoryEntry(
                    plan, f"/stored/w{stream}-{step}", stats))
            elif action < 0.72:
                live.remove(live.scan()[rng.randrange(len(live))])
            else:
                tick += 1
                live.record_use(live.scan()[rng.randrange(len(live))], tick)
            if rng.random() < 0.45:
                before = {file: dfs.read_lines(file)
                          for file in _segment_paths(dfs, log)}
                outcome = log.checkpoint()
                crash = rng.random()
                reverted = None
                if outcome["compacted"] and crash < 0.35:
                    # Crash between one shard's section rewrite and its
                    # segment truncation: the old records come back, all
                    # at or below the new section's watermark.
                    label = rng.choice(outcome["compacted_shards"])
                    segment = segment_file_path(log.log_path, label)
                    old = before.get(segment, [])
                    if old:
                        dfs.write_lines(segment, old, overwrite=True)
                        reloaded = _assert_reload_matches_live(
                            dfs, live, plan_pool, rng, context + " (stale)")
                        assert reloaded.loader_report.stale_records \
                            == len(old), context
                        reverted = segment  # un-crash below
                elif crash < 0.7:
                    # Crash mid-append of the next record: one segment
                    # gains a torn final line, which replay must drop.
                    candidates = _segment_paths(dfs, log)
                    segment = (rng.choice(candidates) if candidates else
                               segment_file_path(log.log_path,
                                                 CATCHALL_LABEL))
                    dfs.append_lines(segment, ['{"seq": 10**9, "op'])
                    reloaded = _assert_reload_matches_live(
                        dfs, live, plan_pool, rng, context + " (torn)")
                    assert reloaded.loader_report.torn_tail_dropped == 1, \
                        context
                    # The live process did not actually crash: un-tear
                    # the tail so its next append stays well-formed.
                    dfs.write_lines(segment, dfs.read_lines(segment)[:-1],
                                    overwrite=True)
                else:
                    _assert_reload_matches_live(dfs, live, plan_pool, rng,
                                                context)
                if reverted is not None:
                    # Back to the live process's truncated reality.
                    dfs.write_lines(reverted, [], overwrite=True)
        log.checkpoint()
        _assert_reload_matches_live(dfs, live, plan_pool, rng,
                                    f"stream={stream} final")


def test_property_manager_survives_crash_reload():
    """Randomized workflow streams through two identical systems: one
    long-lived ReStore manager with incremental persistence, against a
    'crashy' twin that reloads its repository from snapshot+log before
    every submit (fresh manager each time). Decisions and outputs must
    be identical throughout — restart changes nothing."""
    for stream in range(8):
        rng = random.Random(11000 + stream)
        rows = [
            (rng.choice(["x", "y", "z"]), rng.randint(0, 50),
             rng.randint(0, 50), rng.choice(["p", "q"]))
            for _ in range(6)
        ]
        queries = []
        for q in range(rng.randint(2, 3)):
            transforms = [rng.choice(TRANSFORM_TEMPLATES)
                          for _ in range(rng.randint(0, 3))]
            tail = rng.choice(TAIL_TEMPLATES)
            queries.append(build_query(transforms, tail)
                           .replace("/out/result", f"/out/s{q}"))

        steady = PigSystem()
        steady.dfs.write_lines("/data/t", [encode_row(r, SCHEMA) for r in rows])
        steady_mgr = steady.restore(
            repository=ShardedRepository(num_shards=2),
            persistence=RepositoryLog(steady.dfs, compact_ratio=2.0))

        crashy = PigSystem()
        crashy.dfs.write_lines("/data/t", [encode_row(r, SCHEMA) for r in rows])

        for name_index, query in enumerate(queries):
            steady_mgr.submit(steady.compile(query, f"s{name_index}"))

            reloaded = load_repository(crashy.dfs)
            crashy_mgr = crashy.restore(
                repository=reloaded,
                persistence=RepositoryLog(crashy.dfs, compact_ratio=2.0))
            crashy_mgr.submit(crashy.compile(query, f"s{name_index}"))
            if rng.random() < 0.5:
                # Crash mid-append before the next restart: tear a
                # random segment's tail (the catch-all when none has
                # materialized yet — every manifest references it).
                base = crashy_mgr.persistence.log_path
                segments = crashy.dfs.list_files(prefix=f"{base}.")
                target = (rng.choice(segments) if segments else
                          segment_file_path(base, CATCHALL_LABEL))
                crashy.dfs.append_lines(target, ['{"seq": 10**9, "op'])

            label = f"stream={stream} query={name_index}"
            assert _report_shape(crashy_mgr) == _report_shape(steady_mgr), label
            out = f"/out/s{name_index}"
            assert crashy.dfs.read_lines(out) == steady.dfs.read_lines(out), \
                label


def _report_shape(manager):
    report = manager.last_report
    repo = manager.repository
    return {
        "rewrites": [repo.entry(eid).output_path
                     for _, eid in report.rewrites],
        "eliminated": len(report.eliminated_jobs),
        "injected": [(kind, path) for _, kind, path in report.injected_stores],
        "registered": [repo.entry(eid).output_path
                       for eid in report.registered_entries],
        "rejected": list(report.rejected_candidates),
        "evicted": len(report.evicted_entries),
        "scan": [e.output_path for e in repo.scan()],
    }


def test_property_manager_decisions_match_seed_repository():
    """Randomized workflow streams through full ReStore managers — on
    the indexed repository, on sharded repositories (2 and 8 shards),
    and on the frozen seed linear scan — must make identical
    rewrite/eliminate/register decisions and produce identical outputs.
    The indexed and sharded managers must additionally agree on the
    match counters (the seed tries more candidates, so its skip counts
    legitimately differ)."""
    for stream in range(25):
        rng = random.Random(7000 + stream)
        rows = [
            (rng.choice(["x", "y", "z"]), rng.randint(0, 50),
             rng.randint(0, 50), rng.choice(["p", "q"]))
            for _ in range(6)
        ]
        queries = []
        for q in range(rng.randint(2, 3)):
            transforms = [rng.choice(TRANSFORM_TEMPLATES)
                          for _ in range(rng.randint(0, 3))]
            tail = rng.choice(TAIL_TEMPLATES)
            queries.append(build_query(transforms, tail)
                           .replace("/out/result", f"/out/s{q}"))

        managers = []
        repositories = (Repository(), ShardedRepository(num_shards=2),
                        ShardedRepository(num_shards=8),
                        LinearScanRepository())
        for repository in repositories:
            system = PigSystem()
            system.dfs.write_lines(
                "/data/t", [encode_row(r, SCHEMA) for r in rows])
            manager = system.restore(repository=repository)
            shapes, counters = [], []
            for name_index, query in enumerate(queries):
                manager.submit(system.compile(query, f"s{name_index}"))
                shapes.append(_report_shape(manager))
                counters.append(manager.last_report.match_counters.as_dict())
            outputs = {f"/out/s{q}": system.dfs.read_lines(f"/out/s{q}")
                       for q in range(len(queries))}
            managers.append((shapes, outputs, counters))

        seed_shapes, seed_outputs, _ = managers[-1]
        indexed_counters = managers[0][2]
        for (shapes, outputs, counters), repository in zip(managers[:-1],
                                                           repositories[:-1]):
            label = f"stream={stream} repo={type(repository).__name__}"
            assert shapes == seed_shapes, label
            assert outputs == seed_outputs, label
            # Indexed and sharded managers see identical candidate
            # sequences, so their skip accounting must match too.
            assert counters == indexed_counters, label


# --- Async ingest is invisible (PR 8) ------------------------------------------
#
# The sixth lock-step family: the same randomized workflow streams,
# driven through managers whose registrations drain on a background
# registrar thread (``ingest="async"``) — against the inline indexed
# manager and the frozen seed. Registration is captured on the submit
# path and applied later by the *same* code inline mode runs, so with a
# ``flush()`` barrier before every observation the decisions must be
# bit-identical: rewrites, eliminations, injected stores, registrations,
# retention-policy rejections, Rule 3/4 evictions (the sweep replays at
# the captured tick), scan orders, and outputs. A tight retention window
# plus mid-stream input reseeds keeps the eviction rules genuinely
# exercised, and a durable async arm must checkpoint to a bit-identical
# reload.


def _ingest_shape(manager):
    """Like _report_shape, but safe under eviction: entry ids registered
    earlier in a submit may be swept at its end, so counts stand in for
    dereferenced paths (the scan list still pins the full end state)."""
    report = manager.last_report
    return {
        "rewrites": len(report.rewrites),
        "eliminated": len(report.eliminated_jobs),
        "injected": [(kind, path) for _, kind, path in report.injected_stores],
        "registered": len(report.registered_entries),
        "rejected": list(report.rejected_candidates),
        "evicted": len(report.evicted_entries),
        "scan": [e.output_path for e in manager.repository.scan()],
    }


def test_property_async_ingest_matches_inline_and_seed():
    from repro.restore import HeuristicRetentionPolicy

    for stream in range(8):
        rng = random.Random(21000 + stream)
        rows = [
            (rng.choice(["x", "y", "z"]), rng.randint(0, 50),
             rng.randint(0, 50), rng.choice(["p", "q"]))
            for _ in range(6)
        ]
        reseed_rows = [
            (rng.choice(["x", "y", "z"]), rng.randint(0, 50),
             rng.randint(0, 50), rng.choice(["p", "q"]))
            for _ in range(6)
        ]
        queries = []
        for q in range(rng.randint(2, 4)):
            transforms = [rng.choice(TRANSFORM_TEMPLATES)
                          for _ in range(rng.randint(0, 3))]
            tail = rng.choice(TAIL_TEMPLATES)
            queries.append(build_query(transforms, tail)
                           .replace("/out/result", f"/out/s{q}"))
        window = rng.choice([1, 2, 3])
        reseed_at = (rng.randrange(1, len(queries))
                     if rng.random() < 0.5 else None)

        arms = [
            ("seed-inline", lambda: LinearScanRepository(), {}, False),
            ("indexed-inline", lambda: Repository(), {}, False),
            ("indexed-async", lambda: Repository(),
             dict(ingest="async"), False),
            ("sharded2-async", lambda: ShardedRepository(num_shards=2),
             dict(ingest="async", ingest_batch_size=4), False),
            ("durable-async", lambda: Repository(),
             dict(ingest="async"), True),
        ]
        results = {}
        for name, factory, kwargs, durable in arms:
            system = PigSystem()
            system.dfs.write_lines(
                "/data/t", [encode_row(r, SCHEMA) for r in rows])
            if durable:
                kwargs = dict(kwargs,
                              persistence=RepositoryLog(system.dfs,
                                                        compact_ratio=2.0))
            manager = system.restore(
                repository=factory(),
                retention=HeuristicRetentionPolicy(window_ticks=window),
                **kwargs)
            try:
                shapes, counters = [], []
                for name_index, query in enumerate(queries):
                    if name_index == reseed_at:
                        # Input change mid-stream: Rule 4 must evict the
                        # stale entries — in every arm, at the same tick.
                        system.dfs.write_lines(
                            "/data/t",
                            [encode_row(r, SCHEMA) for r in reseed_rows],
                            overwrite=True)
                    manager.submit(system.compile(query, f"s{name_index}"))
                    # The drain barrier: every assertion below observes a
                    # fully-applied record stream (no-op for inline arms).
                    manager.flush()
                    shapes.append(_ingest_shape(manager))
                    counters.append(
                        manager.last_report.match_counters.as_dict())
                outputs = {f"/out/s{q}": system.dfs.read_lines(f"/out/s{q}")
                           for q in range(len(queries))}
                if durable:
                    # checkpoint_every=1: after the final flush the log
                    # is current; the reload must be bit-identical.
                    assert _entry_state(load_repository(system.dfs)) == \
                        _entry_state(manager.repository), \
                        f"stream={stream} arm={name} reload"
            finally:
                manager.close()
            results[name] = (shapes, outputs, counters)

        seed_shapes, seed_outputs, _ = results["seed-inline"]
        indexed_counters = results["indexed-inline"][2]
        for name in ("indexed-inline", "indexed-async", "sharded2-async",
                     "durable-async"):
            shapes, outputs, counters = results[name]
            label = f"stream={stream} arm={name}"
            assert shapes == seed_shapes, label
            assert outputs == seed_outputs, label
            # Indexed and sharded arms see identical candidate
            # sequences, async or not: skip accounting must match.
            assert counters == indexed_counters, label
