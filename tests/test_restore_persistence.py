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


def pigmix_system():
    system = PigSystem()
    seed_page_views(system.dfs)
    seed_users(system.dfs, include=range(6))
    return system


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
        assert (system.dfs.read_lines("/restore/a")
                == system.dfs.read_lines("/restore/b"))


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
        lines = system.dfs.read_lines("/restore/repository.jsonl")
        doctored = []
        for line in lines:
            record = json.loads(line)
            record["fingerprint"] = "0" * 64
            doctored.append(json.dumps(record, sort_keys=True))
        system.dfs.write_lines("/restore/repository.jsonl", doctored,
                               overwrite=True)
        with pytest.warns(RuntimeWarning, match="fingerprint"):
            reloaded = load_repository(system.dfs)
        assert reloaded.loader_report.fingerprint_mismatches == len(lines)
        # The recomputed value still wins: indexes stay correct.
        assert [e.fingerprint for e in reloaded.scan()] == \
            [e.fingerprint for e in restore.repository.scan()]
        # The recovery path must survive an escalating warnings filter:
        # drift may never brick the restart.
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hardened = load_repository(system.dfs)
        assert hardened.loader_report.fingerprint_mismatches == len(lines)

    def test_clean_load_reports_no_mismatches(self):
        system = pigmix_system()
        restore = system.restore()
        restore.submit(system.compile(Q1_TEXT))
        save_repository(restore.repository, system.dfs)
        reloaded = load_repository(system.dfs)
        report = reloaded.loader_report
        assert report.fingerprint_mismatches == 0
        assert report.format_version == 1
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
    """PR 2: the v2 manifest + per-shard-section format, and backward
    compatibility of pre-shard v1 files with sharded deployments."""

    def _populated(self, repository):
        system = pigmix_system()
        restore = system.restore(repository=repository)
        restore.submit(system.compile(Q1_TEXT))
        restore.submit(system.compile(Q2_TEXT))
        return system, restore.repository

    def test_sharded_save_writes_manifest_and_sections(self):
        system, repository = self._populated(ShardedRepository(num_shards=4))
        save_repository(repository, system.dfs)
        lines = system.dfs.read_lines("/restore/repository.jsonl")
        manifest = json.loads(lines[0])
        assert manifest[MANIFEST_KEY] == 2
        assert manifest["num_shards"] == 4
        assert manifest["entries"] == len(repository) == len(lines) - 1
        # Section counts add up, and the body is grouped by shard:
        # positions within the file are contiguous runs per shard.
        assert sum(s["entries"] for s in manifest["sections"]) == len(repository)
        records = [json.loads(line) for line in lines[1:]]
        cursor = 0
        for section in manifest["sections"]:
            run = records[cursor:cursor + section["entries"]]
            cursor += section["entries"]
            for record in run:
                assert "position" in record and "entry" in record

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
        # Omitting the ranker omits the key (backward-compatible files).
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
        assert (system.dfs.read_lines("/restore/a")
                == system.dfs.read_lines("/restore/b"))

    def test_legacy_single_file_loads_into_sharded_repository(self):
        """Satellite: a pre-shard v1 JSONL file must load into a
        ShardedRepository with identical scan order and match decisions."""
        system, plain = self._populated(Repository())
        save_repository(plain, system.dfs)  # v1 single-file format
        migrated = load_repository(system.dfs,
                                   repository=ShardedRepository(num_shards=8))
        assert isinstance(migrated, ShardedRepository)
        assert [e.output_path for e in migrated.scan()] == \
            [e.output_path for e in plain.scan()]
        job = system.compile(Q2_TEXT).topological_jobs()[0]
        assert [e.output_path for e in migrated.match_candidates(job.plan)] \
            == [e.output_path for e in plain.match_candidates(job.plan)]
        for entry in plain.scan():
            found = migrated.find_equivalent(entry.plan)
            assert found is not None
            assert found.output_path == entry.output_path

    def test_legacy_reuse_through_migrated_manager(self):
        """End to end: v1 file -> sharded repository -> Q2 still reuses."""
        system, plain = self._populated(Repository())
        save_repository(plain, system.dfs)
        baseline = pigmix_system()
        baseline.run(Q2_TEXT)
        expected = baseline.dfs.read_lines("/out/L3_out")
        migrated = load_repository(system.dfs,
                                   repository=ShardedRepository(num_shards=4))
        fresh = system.restore(repository=migrated,
                               enable_registration=False, heuristic=None)
        fresh.submit(system.compile(Q2_TEXT))
        assert fresh.last_report.num_rewrites >= 1
        assert system.dfs.read_lines("/out/L3_out") == expected

    def test_sharded_file_loads_into_plain_repository(self):
        """Migration works in the other direction too."""
        system, repository = self._populated(ShardedRepository(num_shards=4))
        save_repository(repository, system.dfs)
        downgraded = load_repository(system.dfs, repository=Repository())
        assert type(downgraded) is Repository
        assert [e.output_path for e in downgraded.scan()] == \
            [e.output_path for e in repository.scan()]

    def test_truncated_sharded_file_rejected(self):
        system, repository = self._populated(ShardedRepository(num_shards=4))
        save_repository(repository, system.dfs)
        lines = system.dfs.read_lines("/restore/repository.jsonl")
        system.dfs.write_lines("/restore/truncated", lines[:-1], overwrite=True)
        with pytest.raises(RepositoryError):
            load_repository(system.dfs, "/restore/truncated")

    def test_future_format_version_rejected(self):
        system = pigmix_system()
        manifest = json.dumps({MANIFEST_KEY: 99, "num_shards": 2,
                               "entries": 0, "sections": []})
        system.dfs.write_lines("/restore/future", [manifest], overwrite=True)
        with pytest.raises(RepositoryError):
            load_repository(system.dfs, "/restore/future")


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
        system.dfs.write_lines("/restore/repository.jsonl", ["{not json"],
                               overwrite=True)
        with pytest.raises(ValueError):
            load_repository(system.dfs)
        assert gc.isenabled()
