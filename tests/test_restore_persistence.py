"""Tests for repository persistence: save, reload, and reuse after restart."""

import json

import pytest

from repro import PigSystem
from repro.common.errors import RepositoryError
from repro.data import DataType, Field, Schema
from repro.physical.operators import POLoad
from repro.restore import (
    leaf_loads,
    load_repository,
    Repository,
    RepositoryLog,
    save_repository,
    ShardedRepository,
)
from repro.restore.matcher import contains, find_containment
from repro.restore.persistence import (
    entry_from_json,
    entry_to_json,
    MANIFEST_KEY,
    plan_from_json,
    plan_to_json,
    schema_from_json,
    schema_to_json,
)

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

    def test_manifest_records_ranker_metadata(self):
        from repro.restore import SavingsRanker

        system, repository = self._populated(ShardedRepository(num_shards=4))
        save_repository(repository, system.dfs, "/restore/by-name",
                        ranker="savings")
        save_repository(repository, system.dfs, "/restore/by-instance",
                        ranker=SavingsRanker())
        for path in ("/restore/by-name", "/restore/by-instance"):
            manifest = json.loads(system.dfs.read_lines(path)[0])
            assert manifest["ranker"] == "savings"
        # Omitting the ranker omits the key.
        save_repository(repository, system.dfs, "/restore/bare")
        assert "ranker" not in json.loads(system.dfs.read_lines("/restore/bare")[0])

    def test_loader_surfaces_manifest_metadata(self):
        system, repository = self._populated(ShardedRepository(num_shards=4))
        save_repository(repository, system.dfs, ranker="savings")
        reloaded = load_repository(system.dfs)
        assert reloaded.manifest_metadata["ranker"] == "savings"
        assert reloaded.manifest_metadata["num_shards"] == 4
        # A freshly constructed repository has no manifest provenance.
        assert ShardedRepository(num_shards=2).manifest_metadata is None

    def test_ranker_metadata_does_not_change_reloaded_decisions(self):
        system, repository = self._populated(ShardedRepository(num_shards=4))
        save_repository(repository, system.dfs, "/restore/plain")
        save_repository(repository, system.dfs, "/restore/ranked",
                        ranker="savings")
        plain = load_repository(system.dfs, "/restore/plain")
        ranked = load_repository(system.dfs, "/restore/ranked")
        assert [e.output_path for e in ranked.scan()] == \
            [e.output_path for e in plain.scan()]

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
