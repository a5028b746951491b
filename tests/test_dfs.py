"""Unit + property tests for the simulated distributed file system."""

import sys
import threading

import pytest
from hypothesis import given, strategies as st

from repro.common import LogicalClock
from repro.common.errors import DfsError
from repro.dfs import DistributedFileSystem


def small_dfs(**kwargs):
    defaults = dict(block_size=64, replication=3, num_datanodes=5)
    defaults.update(kwargs)
    return DistributedFileSystem(**defaults)


class TestWriteRead:
    def test_roundtrip(self):
        dfs = small_dfs()
        lines = [f"row-{i}" for i in range(10)]
        dfs.write_lines("/data/a", lines)
        assert dfs.read_lines("/data/a") == lines

    def test_empty_file(self):
        dfs = small_dfs()
        status = dfs.write_lines("/empty", [])
        assert status.size_bytes == 0
        assert status.num_lines == 0
        assert dfs.read_lines("/empty") == []
        assert len(dfs.blocks_of("/empty")) == 1

    def test_relative_path_rejected(self):
        with pytest.raises(DfsError):
            small_dfs().write_lines("no-slash", ["x"])

    def test_read_missing_raises(self):
        with pytest.raises(DfsError):
            small_dfs().read_lines("/missing")

    def test_overwrite_requires_flag(self):
        dfs = small_dfs()
        dfs.write_lines("/f", ["a"])
        with pytest.raises(DfsError):
            dfs.write_lines("/f", ["b"])
        dfs.write_lines("/f", ["b"], overwrite=True)
        assert dfs.read_lines("/f") == ["b"]


class TestVersioning:
    def test_version_increments_on_overwrite(self):
        dfs = small_dfs()
        assert dfs.write_lines("/f", ["a"]).version == 1
        assert dfs.write_lines("/f", ["b"], overwrite=True).version == 2

    def test_modification_tick_follows_clock(self):
        clock = LogicalClock()
        dfs = small_dfs(clock=clock)
        first = dfs.write_lines("/f", ["a"])
        clock.tick(5)
        second = dfs.write_lines("/f", ["b"], overwrite=True)
        assert first.modified_tick == 0
        assert second.modified_tick == 5
        assert second.created_tick == 0

    def test_version_continues_across_delete_and_recreate(self):
        # A deleted path's version sequence survives the delete: a
        # re-created file must never collide with versions recorded
        # before the delete (ReStore's Rule 4 compares exact versions).
        dfs = small_dfs()
        assert dfs.write_lines("/f", ["a"]).version == 1
        assert dfs.write_lines("/f", ["b"], overwrite=True).version == 2
        dfs.delete("/f")
        assert dfs.write_lines("/f", ["c"]).version == 3
        dfs.delete("/f")
        # Even byte-identical content is a new version after a delete:
        # the old lines are gone, so content stability cannot be proven.
        assert dfs.write_lines("/f", ["c"]).version == 4

    def test_identical_overwrite_still_version_stable(self):
        dfs = small_dfs()
        dfs.write_lines("/f", ["a"])
        assert dfs.write_lines("/f", ["a"], overwrite=True).version == 1


class TestAppend:
    """append_lines: write_lines' accounting, O(appended) placement."""

    def test_append_extends_content(self):
        dfs = small_dfs()
        dfs.write_lines("/f", ["a", "b"])
        dfs.append_lines("/f", ["c", "d"])
        assert dfs.read_lines("/f") == ["a", "b", "c", "d"]

    def test_append_creates_missing_file(self):
        dfs = small_dfs()
        status = dfs.append_lines("/f", ["a"])
        assert status.version == 1
        assert dfs.read_lines("/f") == ["a"]

    def test_append_is_a_modification(self):
        clock = LogicalClock()
        dfs = small_dfs(clock=clock)
        first = dfs.write_lines("/f", ["a"])
        clock.tick(3)
        second = dfs.append_lines("/f", ["b"])
        assert second.version == first.version + 1
        assert second.modified_tick == 3
        assert second.created_tick == first.created_tick

    def test_empty_append_is_a_no_op(self):
        dfs = small_dfs()
        first = dfs.write_lines("/f", ["a"])
        second = dfs.append_lines("/f", [])
        assert second.version == first.version
        assert second.modified_tick == first.modified_tick
        assert dfs.read_lines("/f") == ["a"]

    def test_append_places_only_new_blocks(self):
        dfs = small_dfs(block_size=16)
        dfs.write_lines("/f", [f"line-{i:03d}" for i in range(10)])
        before = dfs.blocks_of("/f")
        dfs.append_lines("/f", [f"tail-{i:03d}" for i in range(5)])
        after = dfs.blocks_of("/f")
        # The original blocks are untouched — same ids, same coordinates.
        assert [b.block_id for b in after[:len(before)]] == \
            [b.block_id for b in before]
        assert len(after) > len(before)

    def test_appended_blocks_partition_file(self):
        dfs = small_dfs(block_size=16)
        lines = [f"line-{i:03d}" for i in range(12)]
        dfs.write_lines("/f", lines[:7])
        dfs.append_lines("/f", lines[7:])
        rebuilt = []
        for index in range(len(dfs.blocks_of("/f"))):
            rebuilt.extend(dfs.read_block_lines("/f", index))
        assert rebuilt == lines

    def test_append_accounting_matches_rewrite(self):
        """Size/line/replica accounting after appends equals a fresh
        write of the same full content."""
        appended = small_dfs(block_size=32)
        rewritten = small_dfs(block_size=32)
        lines = [f"row-{i}" for i in range(20)]
        appended.write_lines("/f", lines[:8])
        appended.append_lines("/f", lines[8:15])
        appended.append_lines("/f", lines[15:])
        rewritten.write_lines("/f", lines)
        assert appended.file_size("/f") == rewritten.file_size("/f")
        assert appended.status("/f").num_lines == len(lines)
        assert appended.total_used_bytes() == rewritten.total_used_bytes()
        assert appended.read_lines("/f") == rewritten.read_lines("/f")

    def test_append_does_not_alias_reader_copies(self):
        # Appends extend the stored lists in place (O(appended), not
        # O(file)); the read paths must keep handing out copies so no
        # caller observes the mutation.
        dfs = small_dfs()
        dfs.write_lines("/f", ["a"])
        snapshot = dfs.read_lines("/f")
        blocks = dfs.blocks_of("/f")
        dfs.append_lines("/f", ["b"])
        assert snapshot == ["a"]
        assert len(blocks) == 1
        snapshot.append("junk")
        assert dfs.read_lines("/f") == ["a", "b"]

    def test_append_replicas_respect_replication(self):
        dfs = small_dfs(replication=3)
        dfs.write_lines("/f", ["a"])
        dfs.append_lines("/f", ["b" * 100])
        for block in dfs.blocks_of("/f"):
            assert len(set(block.replicas)) == 3


class TestBlocksAndReplication:
    def test_multiple_blocks_created(self):
        dfs = small_dfs(block_size=32)
        lines = ["x" * 20 for _ in range(10)]  # 21 bytes/line on disk
        dfs.write_lines("/big", lines)
        blocks = dfs.blocks_of("/big")
        assert len(blocks) > 1
        assert sum(block.num_lines for block in blocks) == 10
        assert sum(block.num_bytes for block in blocks) == dfs.file_size("/big")

    def test_block_lines_partition_file(self):
        dfs = small_dfs(block_size=16)
        lines = [f"line-{i:03d}" for i in range(25)]
        dfs.write_lines("/f", lines)
        rebuilt = []
        for index in range(len(dfs.blocks_of("/f"))):
            rebuilt.extend(dfs.read_block_lines("/f", index))
        assert rebuilt == lines

    def test_replication_factor_respected(self):
        dfs = small_dfs(replication=3)
        dfs.write_lines("/f", ["hello"])
        for block in dfs.blocks_of("/f"):
            assert len(set(block.replicas)) == 3

    def test_replicated_size(self):
        dfs = small_dfs(replication=3)
        dfs.write_lines("/f", ["hello"])  # 6 bytes with newline
        assert dfs.file_size("/f") == 6
        assert dfs.replicated_size("/f") == 18
        assert dfs.total_used_bytes() == 18

    def test_rejects_replication_above_cluster_size(self):
        with pytest.raises(DfsError):
            DistributedFileSystem(replication=6, num_datanodes=5)

    def test_delete_releases_datanode_space(self):
        dfs = small_dfs()
        dfs.write_lines("/f", ["hello"] * 100)
        assert dfs.total_used_bytes() > 0
        dfs.delete("/f")
        assert dfs.total_used_bytes() == 0
        assert not dfs.exists("/f")

    def test_delete_missing_raises(self):
        with pytest.raises(DfsError):
            small_dfs().delete("/missing")

    def test_delete_if_exists_is_quiet(self):
        small_dfs().delete_if_exists("/missing")


class TestNamespace:
    def test_list_files_prefix(self):
        dfs = small_dfs()
        dfs.write_lines("/a/1", [])
        dfs.write_lines("/a/2", [])
        dfs.write_lines("/b/1", [])
        assert dfs.list_files("/a/") == ["/a/1", "/a/2"]
        assert dfs.list_files() == ["/a/1", "/a/2", "/b/1"]

    def test_status_reports_sizes(self):
        dfs = small_dfs()
        dfs.write_lines("/f", ["ab", "cd"])
        status = dfs.status("/f")
        assert status.size_bytes == 6
        assert status.num_lines == 2


class TestConcurrentWriters:
    """Async ingest writes repository files from its registrar thread
    while the submit thread's engine writes outputs: two threads must
    never take one block id, and a listing must not see the namespace
    change under it."""

    def test_two_writer_threads(self):
        dfs = small_dfs(block_size=16)
        errors = []

        def writer(prefix, lists):
            try:
                for index in range(3000):
                    dfs.write_lines(f"/{prefix}/{index}", [f"r{index}"])
                    if lists:
                        dfs.list_files(prefix=f"/{prefix}/")
            except Exception as exc:  # reported below, not swallowed
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=writer, args=args, daemon=True)
                       for args in (("a", False), ("b", True))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        blocks = {}
        for node in dfs.datanodes:
            for block_id, block in node._blocks.items():
                assert blocks.setdefault(block_id, block) is block
        placed = [block.block_id for path in dfs.list_files()
                  for block in dfs.blocks_of(path)]
        assert len(placed) == len(set(placed)) == len(blocks) == 6000


@given(st.lists(st.text(alphabet="abcdef", max_size=12), max_size=40), st.integers(8, 128))
def test_property_block_partition_reconstructs_file(lines, block_size):
    dfs = DistributedFileSystem(block_size=block_size, replication=2, num_datanodes=4)
    dfs.write_lines("/f", lines)
    rebuilt = []
    for index in range(len(dfs.blocks_of("/f"))):
        rebuilt.extend(dfs.read_block_lines("/f", index))
    assert rebuilt == lines


class TestOverwriteCrashSafety:
    """PR 9: overwrite is write-new-then-swap — a failure while placing
    the replacement's blocks must leave the old file fully readable
    (the crash window the persistence manifest swap relies on)."""

    def test_failed_overwrite_preserves_old_file(self, monkeypatch):
        dfs = small_dfs()
        dfs.write_lines("/data/a", ["old-1", "old-2"])
        before = dfs.status("/data/a")
        used_before = dfs.total_used_bytes()

        import repro.dfs.filesystem as fsmod

        def crash(line):
            raise RuntimeError("datanode lost mid-placement")

        monkeypatch.setattr(fsmod, "encoded_size", crash)
        with pytest.raises(RuntimeError):
            dfs.write_lines("/data/a", ["new"], overwrite=True)
        monkeypatch.undo()

        assert dfs.read_lines("/data/a") == ["old-1", "old-2"]
        after = dfs.status("/data/a")
        assert after.version == before.version
        assert after.modified_tick == before.modified_tick
        assert dfs.total_used_bytes() == used_before

        # Once the fault clears, the same overwrite goes through.
        status = dfs.write_lines("/data/a", ["new"], overwrite=True)
        assert status.version == before.version + 1
        assert dfs.read_lines("/data/a") == ["new"]
