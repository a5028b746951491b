"""Tests for repository persistence: save, reload, and reuse after restart."""

import json
import random

import pytest

from repro import PigSystem
from repro.common import LogicalClock
from repro.common.errors import RepositoryError
from repro.data import DataType, Field, Schema
from repro.dfs import DistributedFileSystem
from repro.physical.operators import POLoad, POStore
from repro.physical.plan import PhysicalPlan
from repro.restore import (
    HeuristicRetentionPolicy,
    leaf_loads,
    load_repository,
    Repository,
    RepositoryEntry,
    RepositoryLog,
    save_repository,
    ShardedRepository,
)
from repro.restore.matcher import contains, find_containment
from repro.restore.persistence import (
    entry_from_json,
    entry_to_json,
    LoaderReport,
    MANIFEST_KEY,
    plan_from_json,
    plan_to_json,
    schema_from_json,
    schema_to_json,
    shard_label,
    SkeletonOp,
)
from repro.restore.stats import EntryStats

from tests.helpers import Q1_TEXT, Q2_TEXT, seed_page_views, seed_users


SAVED = "/restore/repository.jsonl"


def pigmix_system():
    system = PigSystem()
    seed_page_views(system.dfs)
    seed_users(system.dfs, include=range(6))
    return system


def durable_files(dfs, path):
    """Every file of the save at ``path`` — manifest, sections, order
    log — with the path prefix taken out of names and contents: what two
    saves of one repository must agree on byte for byte."""
    return {file[len(path):]: [line.replace(path, "")
                               for line in dfs.read_lines(file)]
            for file in dfs.list_files(prefix=path)}


class TestSchemaRoundtrip:
    def test_scalar_schema(self):
        schema = Schema([Field("a", DataType.INT), Field("b", DataType.CHARARRAY)])
        assert schema_from_json(schema_to_json(schema)) == schema

    def test_bag_schema(self):
        element = Schema([Field("x", DataType.DOUBLE)])
        schema = Schema([Field("g", DataType.CHARARRAY),
                         Field("bag", DataType.BAG, element)])
        assert schema_from_json(schema_to_json(schema)) == schema

    def test_none_schema(self):
        assert schema_from_json(schema_to_json(None)) is None


class TestPlanRoundtrip:
    def _entry_plan(self, system):
        restore = system.restore()
        restore.submit(system.compile(Q1_TEXT.replace(
            "/data/users", "/data/users")))
        return restore.repository.scan()[0].plan

    def test_signatures_preserved(self):
        system = pigmix_system()
        # Build a real entry plan by running Q1 through ReStore.
        restore = system.restore()
        restore.submit(system.compile(Q1_TEXT))
        plan = restore.repository.scan()[0].plan
        reloaded = plan_from_json(plan_to_json(plan))
        assert [op.signature() for op in reloaded.operators()] == [
            op.signature() for op in plan.operators()]

    def test_reloaded_plan_matches_like_original(self):
        system = pigmix_system()
        restore = system.restore()
        restore.submit(system.compile(Q1_TEXT))
        for entry in restore.repository.scan():
            reloaded = plan_from_json(plan_to_json(entry.plan))
            q2 = system.compile(Q2_TEXT).topological_jobs()[0].plan
            assert contains(entry.plan, q2) == contains(reloaded, q2)

    def test_multi_store_plan_rejected(self):
        system = pigmix_system()
        restore = system.restore()
        restore.submit(system.compile(Q1_TEXT))
        records = plan_to_json(restore.repository.scan()[0].plan)
        records.append(dict(records[-1]))  # duplicate the Store record
        with pytest.raises(RepositoryError):
            plan_from_json(records)


class TestEntryRoundtrip:
    def test_stats_and_metadata_preserved(self):
        system = pigmix_system()
        restore = system.restore()
        restore.submit(system.compile(Q1_TEXT))
        entry = restore.repository.scan()[0]
        entry.stats.record_use(7)
        reloaded = entry_from_json(json.loads(json.dumps(entry_to_json(entry))))
        assert reloaded.output_path == entry.output_path
        assert reloaded.origin == entry.origin
        assert reloaded.owns_file == entry.owns_file
        assert reloaded.input_versions == entry.input_versions
        assert reloaded.stats.use_count == entry.stats.use_count
        assert reloaded.stats.producing_job_time == pytest.approx(
            entry.stats.producing_job_time)


class TestRestartScenario:
    def test_reuse_after_restart(self):
        """Save after Q1; 'restart' into a fresh ReStore; Q2 still reuses."""
        system = pigmix_system()
        restore = system.restore()
        restore.submit(system.compile(Q1_TEXT))
        save_repository(restore.repository, system.dfs)

        baseline = pigmix_system()
        baseline.run(Q2_TEXT)
        expected = baseline.dfs.read_lines("/out/L3_out")

        # A brand-new manager with the reloaded repository.
        reloaded_repo = load_repository(system.dfs)
        assert len(reloaded_repo) == len(restore.repository)
        fresh = system.restore(repository=reloaded_repo,
                               enable_registration=False, heuristic=None)
        fresh.submit(system.compile(Q2_TEXT))
        assert fresh.last_report.num_rewrites >= 1
        assert system.dfs.read_lines("/out/L3_out") == expected

    def test_scan_order_preserved(self):
        system = pigmix_system()
        restore = system.restore()
        restore.submit(system.compile(Q1_TEXT))
        restore.submit(system.compile(Q2_TEXT))
        save_repository(restore.repository, system.dfs)
        reloaded = load_repository(system.dfs)
        original_paths = [e.output_path for e in restore.repository.scan()]
        reloaded_paths = [e.output_path for e in reloaded.scan()]
        assert reloaded_paths == original_paths

    def test_missing_file_loads_empty(self):
        system = PigSystem()
        assert len(load_repository(system.dfs)) == 0

    def test_save_is_deterministic(self):
        system = pigmix_system()
        restore = system.restore()
        restore.submit(system.compile(Q1_TEXT))
        save_repository(restore.repository, system.dfs, "/restore/a")
        save_repository(restore.repository, system.dfs, "/restore/b")
        assert (durable_files(system.dfs, "/restore/a")
                == durable_files(system.dfs, "/restore/b"))


class TestIndexRoundtrip:
    """PR 1: fingerprints and the rebuilt indexes survive a restart."""

    def _saved_and_reloaded(self):
        system = pigmix_system()
        restore = system.restore()
        restore.submit(system.compile(Q1_TEXT))
        restore.submit(system.compile(Q2_TEXT))
        save_repository(restore.repository, system.dfs)
        return system, restore.repository, load_repository(system.dfs)

    def test_fingerprints_roundtrip(self):
        _, original, reloaded = self._saved_and_reloaded()
        assert [e.fingerprint for e in reloaded.scan()] == \
            [e.fingerprint for e in original.scan()]

    def test_fingerprint_is_serialized(self):
        system = pigmix_system()
        restore = system.restore()
        restore.submit(system.compile(Q1_TEXT))
        entry = restore.repository.scan()[0]
        assert entry_to_json(entry)["fingerprint"] == entry.fingerprint

    def test_stale_saved_fingerprint_is_recomputed(self):
        # The plan is authoritative: a stale persisted fingerprint (e.g.
        # a signature-canonicalization change in a newer release) must
        # not brick the restart — the reloaded entry re-derives its hash.
        system = pigmix_system()
        restore = system.restore()
        restore.submit(system.compile(Q1_TEXT))
        original = restore.repository.scan()[0]
        data = entry_to_json(original)
        data["fingerprint"] = "0" * 64
        with pytest.warns(RuntimeWarning, match="fingerprint"):
            reloaded = entry_from_json(data)
        assert reloaded.fingerprint == original.fingerprint

    def test_fingerprint_mismatch_is_counted_and_warned(self):
        """Satellite (PR 4): a stale saved fingerprint is recomputed —
        as before — but the drift is now observable: a warning fires and
        the loader report counts it."""
        system = pigmix_system()
        restore = system.restore()
        restore.submit(system.compile(Q1_TEXT))
        save_repository(restore.repository, system.dfs)
        doctored = 0
        for file in system.dfs.list_files(prefix=f"{SAVED}.sec-"):
            lines = []
            for line in system.dfs.read_lines(file):
                record = json.loads(line)
                record["entry"]["fingerprint"] = "0" * 64
                lines.append(json.dumps(record, sort_keys=True))
            system.dfs.write_lines(file, lines, overwrite=True)
            doctored += len(lines)
        assert doctored == len(restore.repository)
        with pytest.warns(RuntimeWarning, match="fingerprint"):
            reloaded = load_repository(system.dfs)
        assert reloaded.loader_report.fingerprint_mismatches == doctored
        # The recomputed value still wins: indexes stay correct.
        assert [e.fingerprint for e in reloaded.scan()] == \
            [e.fingerprint for e in restore.repository.scan()]
        # The recovery path must survive an escalating warnings filter:
        # drift may never brick the restart.
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hardened = load_repository(system.dfs)
        assert hardened.loader_report.fingerprint_mismatches == doctored

    def test_clean_load_reports_no_mismatches(self):
        system = pigmix_system()
        restore = system.restore()
        restore.submit(system.compile(Q1_TEXT))
        save_repository(restore.repository, system.dfs)
        reloaded = load_repository(system.dfs)
        report = reloaded.loader_report
        assert report.fingerprint_mismatches == 0
        assert report.format_version == 5
        assert report.entries_loaded == len(reloaded)
        assert "fingerprint mismatch" in report.describe()
        assert report.as_dict()["entries_loaded"] == len(reloaded)

    def test_missing_file_still_gets_a_loader_report(self):
        system = PigSystem()
        repo = load_repository(system.dfs)
        assert repo.loader_report.format_version is None
        assert repo.loader_report.entries_loaded == 0

    def test_legacy_record_without_fingerprint_loads(self):
        system = pigmix_system()
        restore = system.restore()
        restore.submit(system.compile(Q1_TEXT))
        entry = restore.repository.scan()[0]
        data = entry_to_json(entry)
        del data["fingerprint"]
        assert entry_from_json(data).fingerprint == entry.fingerprint

    def test_reloaded_loads_are_real_poloads(self):
        _, original, reloaded = self._saved_and_reloaded()
        for entry in reloaded.scan():
            loads = entry.plan.loads()
            assert loads and all(isinstance(op, POLoad) for op in loads)
        assert [leaf_loads(e.plan) for e in reloaded.scan()] == \
            [leaf_loads(e.plan) for e in original.scan()]

    def test_reloaded_repository_finds_equivalents(self):
        _, original, reloaded = self._saved_and_reloaded()
        for entry in original.scan():
            found = reloaded.find_equivalent(entry.plan)
            assert found is not None
            assert found.output_path == entry.output_path

    def test_reloaded_match_candidates_agree(self):
        system, original, reloaded = self._saved_and_reloaded()
        job = system.compile(Q2_TEXT).topological_jobs()[0]
        assert [e.output_path for e in reloaded.match_candidates(job.plan)] \
            == [e.output_path for e in original.match_candidates(job.plan)]

    def test_inserts_and_evictions_after_reload_match_original(self):
        """A reloaded repository keeps behaving like the original through
        subsequent inserts and evictions: same scan order, same matches."""
        system, original, reloaded = self._saved_and_reloaded()
        # Subsequent insert: register a fresh entry in both.
        extra = system.restore()
        extra_query = Q1_TEXT.replace("'/out/L2_out'", "'/out/extra'")
        extra.submit(system.compile(extra_query))
        donors = [e for e in extra.repository.scan()]
        for donor in donors:
            for target in (original, reloaded):
                target.insert(entry_from_json(entry_to_json(donor)))
        assert [e.output_path for e in reloaded.scan()] == \
            [e.output_path for e in original.scan()]
        # Eviction: remove the same entry from both; orders must track.
        victim_path = original.scan()[0].output_path
        for target in (original, reloaded):
            victim = next(e for e in target.scan()
                          if e.output_path == victim_path)
            target.remove(victim)
        assert [e.output_path for e in reloaded.scan()] == \
            [e.output_path for e in original.scan()]
        job = system.compile(Q2_TEXT).topological_jobs()[0]
        assert [e.output_path for e in reloaded.match_candidates(job.plan)] \
            == [e.output_path for e in original.match_candidates(job.plan)]


class TestShardedPersistence:
    """Full saves of sharded repositories: layout, manifest metadata,
    and loading across layouts through an explicit target."""

    def _populated(self, repository):
        system = pigmix_system()
        restore = system.restore(repository=repository)
        restore.submit(system.compile(Q1_TEXT))
        restore.submit(system.compile(Q2_TEXT))
        return system, restore.repository

    def test_sharded_roundtrip_preserves_order_and_layout(self):
        system, repository = self._populated(ShardedRepository(num_shards=4))
        save_repository(repository, system.dfs)
        reloaded = load_repository(system.dfs)
        assert isinstance(reloaded, ShardedRepository)
        assert reloaded.num_shards == 4
        assert [e.output_path for e in reloaded.scan()] == \
            [e.output_path for e in repository.scan()]
        assert [[e.output_path for e in shard] for shard in reloaded.partitions()] \
            == [[e.output_path for e in shard] for shard in repository.partitions()]

    def test_loader_surfaces_manifest_metadata(self):
        system, repository = self._populated(ShardedRepository(num_shards=4))
        save_repository(repository, system.dfs)
        reloaded = load_repository(system.dfs)
        assert reloaded.manifest_metadata["num_shards"] == 4
        # A freshly constructed repository has no manifest provenance.
        assert ShardedRepository(num_shards=2).manifest_metadata is None

    def test_older_manifest_key_does_not_change_reloaded_decisions(self):
        """Manifests written before the candidate order was fixed carry
        one more key; the loader ignores it and decides identically."""
        system, repository = self._populated(ShardedRepository(num_shards=4))
        save_repository(repository, system.dfs, "/restore/plain")
        save_repository(repository, system.dfs, "/restore/older")
        lines = system.dfs.read_lines("/restore/older")
        manifest = json.loads(lines[0])
        manifest["ranker"] = "savings"
        system.dfs.write_lines(
            "/restore/older",
            [json.dumps(manifest, sort_keys=True)] + lines[1:],
            overwrite=True)
        plain = load_repository(system.dfs, "/restore/plain")
        older = load_repository(system.dfs, "/restore/older")
        assert [e.output_path for e in older.scan()] == \
            [e.output_path for e in plain.scan()]
        for entry in plain.scan():
            assert older.find_equivalent(entry.plan).output_path == \
                entry.output_path
        offered = 0
        for text in (Q1_TEXT, Q2_TEXT):
            for job in system.compile(text).topological_jobs():
                expected = [e.output_path
                            for e in plain.match_candidates(job.plan)]
                assert [e.output_path
                        for e in older.match_candidates(job.plan)] == expected
                offered += len(expected)
        assert offered  # the probes reach entries, so the check has teeth

    def test_sharded_save_is_deterministic(self):
        system, repository = self._populated(ShardedRepository(num_shards=4))
        save_repository(repository, system.dfs, "/restore/a")
        save_repository(repository, system.dfs, "/restore/b")
        assert (durable_files(system.dfs, "/restore/a")
                == durable_files(system.dfs, "/restore/b"))

    def test_sharded_file_loads_into_plain_repository(self):
        """An explicit target overrides the manifest's shard count."""
        system, repository = self._populated(ShardedRepository(num_shards=4))
        save_repository(repository, system.dfs)
        downgraded = load_repository(system.dfs, repository=Repository())
        assert type(downgraded) is Repository
        assert [e.output_path for e in downgraded.scan()] == \
            [e.output_path for e in repository.scan()]

    def test_truncated_sharded_file_rejected(self):
        system, repository = self._populated(ShardedRepository(num_shards=4))
        save_repository(repository, system.dfs)
        section = system.dfs.list_files(prefix=f"{SAVED}.sec-")[0]
        system.dfs.write_lines(section, system.dfs.read_lines(section)[:-1],
                               overwrite=True)
        with pytest.raises(RepositoryError, match="truncated"):
            load_repository(system.dfs)

    @pytest.mark.parametrize("first_line, found", [
        (json.dumps({MANIFEST_KEY: 2, "num_shards": 2, "entries": 0,
                     "sections": []}), "format version 2"),
        (json.dumps({MANIFEST_KEY: 4, "num_shards": 0, "last_seq": 0,
                     "order": [], "sections": []}), "format version 4"),
        (json.dumps({MANIFEST_KEY: 99, "num_shards": 2, "entries": 0,
                     "sections": []}), "format version 99"),
        (json.dumps({"plan": [], "output_path": "/stored/s0"}),
         "not a manifest"),
        ("{not json", "not JSON"),
    ], ids=["v2", "v4", "future", "manifest-less", "not-json"])
    def test_unsupported_file_rejected(self, first_line, found):
        """One error for everything that is not the one format: it names
        the path, what the first line held, and the supported version."""
        system = PigSystem()
        system.dfs.write_lines("/restore/other", [first_line])
        with pytest.raises(RepositoryError) as raised:
            load_repository(system.dfs, "/restore/other")
        message = str(raised.value)
        assert "'/restore/other'" in message
        assert found in message
        assert "version 5" in message
        # Unreadable is not empty: the wipe guard still protects the file.
        with pytest.raises(RepositoryError, match="refusing to attach"):
            RepositoryLog(system.dfs, "/restore/other").attach(Repository())


class TestLoadSuspendsTheCollector:
    """A reload only allocates; collections inside it cost time and free
    nothing. The collector is off for the load and back as it was after."""

    def _saved(self):
        system = PigSystem()
        seed_page_views(system.dfs)
        seed_users(system.dfs)
        restore = system.restore()
        restore.submit(system.compile(Q2_TEXT))
        save_repository(restore.repository, system.dfs)
        return system

    def test_collector_state_is_restored(self, monkeypatch):
        import gc

        import repro.restore.persistence as persistence

        system = self._saved()
        seen = []
        real = persistence.entry_from_json
        monkeypatch.setattr(
            persistence, "entry_from_json",
            lambda *args: seen.append(gc.isenabled()) or real(*args))
        assert gc.isenabled()
        assert len(load_repository(system.dfs)) > 0
        assert seen and not any(seen)
        assert gc.isenabled()
        gc.disable()
        try:
            load_repository(system.dfs)
            assert not gc.isenabled()   # was off before: stays off
        finally:
            gc.enable()

    def test_restored_when_the_load_fails(self):
        import gc

        system = self._saved()
        system.dfs.write_lines(SAVED, ["{not json"], overwrite=True)
        with pytest.raises(RepositoryError):
            load_repository(system.dfs)
        assert gc.isenabled()


# --- Reload: the loader against a per-entry rebuild ----------------------------
#
# The reference rebuilds the repository with one ``insert`` per section
# entry and replays every segment record above its section's watermark
# in sequence order. The loader must leave every piece of repository
# state exactly as that reference does, and both must then behave alike.

_ROW = Schema([Field("a", DataType.INT), Field("b", DataType.CHARARRAY)])
_GROUPED = Schema([Field("g", DataType.INT), Field("rows", DataType.BAG, _ROW)])
#: a deeper chain of one family strictly contains every shallower one
_CHAIN = (("FILTER[a>{family}]", _ROW), ("PROJECT[{family}]", _ROW),
          ("GROUP[{family}]", _GROUPED))
#: (input_bytes, output_bytes, producing_job_time): mostly tied
_TIED = [(1000, 10, 5.0), (1000, 10, 5.0), (2000, 10, 5.0), (1000, 100, 60.0)]
_SOURCES = [f"/data/d{index}" for index in range(5)]


def chain_entry(family, depth, path, versions, stats, tick):
    source = _SOURCES[family % len(_SOURCES)]
    op = POLoad(source, _ROW, versions[source])
    for signature, schema in _CHAIN[:depth]:
        op = SkeletonOp("op", signature.format(family=family), schema, [op])
    return RepositoryEntry(
        PhysicalPlan([POStore(op, path)]), path,
        EntryStats(*stats, created_tick=tick),
        input_versions={source: versions[source]})


def _source_versions(dfs):
    return {source: dfs.status(source).version for source in _SOURCES}


def _random_insert(repositories, rng, dfs, tick, path):
    family, depth = rng.randrange(24), rng.randint(1, 3)
    stats, versions = rng.choice(_TIED), _source_versions(dfs)
    for repository in repositories:
        repository.insert(
            chain_entry(family, depth, path, versions, stats, tick))


def _random_victim(repository, rng):
    """Output path of an entry to remove, a container half the time
    (removing one frees its dependents)."""
    edges = repository.subsumption_edges_among(
        [entry.entry_id for entry in repository])
    containers = sorted(repository.entry(entry_id).output_path
                        for entry_id, below in edges.items() if below)
    if containers and rng.random() < 0.5:
        return rng.choice(containers)
    return rng.choice(sorted(entry.output_path for entry in repository))


def _remove_path(repository, path):
    repository.remove(next(entry for entry in repository
                           if entry.output_path == path))


def churned(num_shards, seed, tail):
    """A repository churned through a RepositoryLog: inserts, removals,
    use-stamps, dirty-shard and full compactions. ``tail`` leaves
    records above the manifest's ``last_seq``; without it the stream
    ends on a dirty-shard compaction, so the other shards' segment
    records all sit at or below it."""
    rng = random.Random(seed)
    dfs = DistributedFileSystem()
    for source in _SOURCES:
        dfs.write_lines(source, ["x"])
    live = (ShardedRepository(num_shards=num_shards) if num_shards
            else Repository())
    log = RepositoryLog(dfs).attach(live)

    def dirty_compaction():
        labels = sorted({shard_label(live.shard_id_of(entry))
                         for entry in live})
        log.compact(shards=[rng.choice(labels)])

    for step in range(90):
        for slot in range(rng.randint(1, 2)):
            _random_insert([live], rng, dfs, step, f"/stored/c{step}-{slot}")
        if rng.random() < 0.4:
            _remove_path(live, _random_victim(live, rng))
        if rng.random() < 0.3:
            live.record_use(rng.choice(live.scan()), step)
        if step % 40 == 19:
            log.compact()
        elif step % 10 == 4:
            dirty_compaction()
        elif step % 3 == 0:
            log.checkpoint()
    if tail:
        dirty_compaction()
        for step in range(90, 96):
            _random_insert([live], rng, dfs, step, f"/stored/c{step}")
        _remove_path(live, _random_victim(live, rng))
        live.record_use(rng.choice(live.scan()), 96)
        log.flush()
    else:
        log.flush()
        dirty_compaction()
    log.detach()
    return dfs, live


def per_entry_reload(dfs, repository):
    """The reference rebuild of ``SAVED`` into ``repository``, one
    insert per entry under its recorded sequence; returns the number of
    segment records it replayed at or below the manifest's ``last_seq``
    and above it."""
    manifest = json.loads(dfs.read_lines(SAVED)[0])
    sections, records = [], []
    for section in manifest["sections"]:
        if section.get("file") and dfs.exists(section["file"]):
            sections += [json.loads(line)
                         for line in dfs.read_lines(section["file"])]
        if section.get("segment") and dfs.exists(section["segment"]):
            records += [record for record in map(
                json.loads, dfs.read_lines(section["segment"]))
                if record["seq"] > section.get("base_seq", 0)]
    by_key = {}

    def apply(record):
        if record["op"] == "insert":
            entry = entry_from_json(record["entry"])
            entry._sequence = record["entry"]["sequence"]
            by_key[record["key"]] = repository.insert(entry)
        elif record["op"] == "remove":
            repository.remove(by_key.pop(record["key"]))
        else:
            stats = by_key[record["key"]].stats
            stats.use_count = record["use_count"]
            stats.last_used_tick = record["last_used_tick"]

    sections.sort(key=lambda record: record["entry"].get("sequence") or 0)
    for record in sections:
        apply({"op": "insert", "key": record["key"], "entry": record["entry"]})
    for record in sorted(records, key=lambda record: record["seq"]):
        apply(record)
    # Iteration follows sequence order, as in the live repository.
    repository._by_id = dict(sorted(repository._by_id.items(),
                                    key=lambda item: item[1]._sequence))
    below = sum(record["seq"] <= manifest["last_seq"] for record in records)
    return below, len(records) - below


def _listened(repository):
    """``repository`` and the list its change events land in."""
    events = []
    repository.add_listener(lambda op, entry: events.append(
        (op, entry.output_path, repository.shard_id_of(entry))))
    return repository, events


def repository_state(repository):
    """Every piece of state a reload rebuilds, with entry ids (minted
    per process) replaced by output paths."""
    path_of = {entry.entry_id: entry.output_path for entry in repository}

    def paths(ids):
        return sorted(path_of[entry_id] for entry_id in ids)

    return {
        "scan": [(entry.output_path, entry._sequence, entry._scan_key)
                 for entry in repository.scan()],
        "next_sequence": repository._sequence,
        "edges_out": {path_of[entry_id]: paths(below)
                      for entry_id, below in repository._edges_out.items()},
        "edges_in": {path_of[entry_id]: paths(above)
                     for entry_id, above in repository._edges_in.items()},
        "buckets": {fingerprint: [entry.output_path for entry in bucket]
                    for fingerprint, bucket in repository._buckets.items()},
        "by_site": {site: paths(ids)
                    for site, ids in repository._by_site.items()},
        "shards": {shard_id: [entry.output_path
                              for entry in repository.shard_members(shard_id)]
                   for shard_id in repository.shard_sizes()},
    }


def _empty_like(num_shards):
    return ShardedRepository(num_shards=num_shards) if num_shards \
        else Repository()


class TestStagedReload:
    @pytest.mark.parametrize("num_shards", [0, 4], ids=["plain", "sharded"])
    @pytest.mark.parametrize("seed", [7, 11])
    def test_reload_matches_per_entry_rebuild(self, num_shards, seed):
        dfs, live = churned(num_shards, seed, tail=True)
        reference, reference_events = _listened(_empty_like(num_shards))
        below, above = per_entry_reload(dfs, reference)
        assert above > 0
        if num_shards:
            assert below > 0
        loaded = load_repository(dfs)
        assert type(loaded) is type(reference)
        assert loaded.loader_report.dangling_records == 0
        assert [entry.output_path for entry in loaded.scan()] == \
            [entry.output_path for entry in live.scan()]
        assert [entry.output_path for entry in loaded] == \
            [entry.output_path for entry in live]
        assert repository_state(loaded) == repository_state(reference)
        # The same load into an empty explicit target fires the same
        # change events, each after the entry joined its shard.
        target, events = _listened(_empty_like(num_shards))
        load_repository(dfs, repository=target)
        assert repository_state(target) == repository_state(reference)
        assert events == reference_events

        # Both keep behaving alike: inserts, removals and sweeps.
        rng = random.Random(seed)
        policy = HeuristicRetentionPolicy(window_ticks=40)
        for step in range(100, 150):
            action = rng.choice(["insert"] * 3 + ["remove", "sweep"])
            if action == "insert":
                _random_insert([loaded, reference], rng, dfs, step,
                               f"/stored/d{step}")
            elif action == "remove" and len(loaded):
                path = _random_victim(loaded, rng)
                for repository in (loaded, reference):
                    _remove_path(repository, path)
            elif action == "sweep":
                if rng.random() < 0.3:
                    dfs.write_lines(rng.choice(_SOURCES), [f"v{step}"],
                                    overwrite=True)
                evicted = [[entry.output_path for entry in policy.sweep(
                    repository, dfs, LogicalClock(step))]
                    for repository in (loaded, reference)]
                assert evicted[0] == evicted[1], step
            assert [(entry.output_path, entry._sequence)
                    for entry in loaded.scan()] == \
                [(entry.output_path, entry._sequence)
                 for entry in reference.scan()], step


def _schema_records(data, found):
    """Collect every schema record of a plan record list, nested bag
    element records included, as canonical JSON text."""
    if data is None:
        return
    found.add(json.dumps(data, sort_keys=True))
    for item in data:
        _schema_records(item["element"], found)


class TestColdReloadCost:
    """A cold reload sorts nothing: no Kahn pass runs (the scan order is
    computed when asked for), and each distinct schema record is decoded
    into one Schema."""

    @pytest.mark.parametrize("num_shards", [0, 4], ids=["plain", "sharded"])
    def test_no_resort_and_one_schema_per_record(self, num_shards,
                                                 monkeypatch):
        dfs, live = churned(num_shards, 7, tail=False)
        distinct = set()
        for file in dfs.list_files(prefix=f"{SAVED}."):
            for line in dfs.read_lines(file):
                entry = json.loads(line).get("entry")
                for record in (entry["plan"] if entry else ()):
                    _schema_records(record["schema"], distinct)
        calls = {"greedy": 0, "schema": 0}
        greedy_order = Repository._greedy_order
        schema_init = Schema.__init__

        def counted(name, function):
            def wrapper(*args):
                calls[name] += 1
                return function(*args)
            return wrapper

        monkeypatch.setattr(Repository, "_greedy_order",
                            counted("greedy", greedy_order))
        monkeypatch.setattr(Schema, "__init__",
                            counted("schema", schema_init))
        loaded = load_repository(dfs)
        report = loaded.loader_report
        assert report.last_seq == json.loads(
            dfs.read_lines(SAVED)[0])["last_seq"]
        if num_shards:
            assert report.replayed_records > 0
        assert len(loaded) == len(live) > 50
        assert calls["greedy"] == 0
        assert 0 < calls["schema"] <= len(distinct)
