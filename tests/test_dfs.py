"""Unit + property tests for the simulated distributed file system."""

import sys
import threading

import pytest
from hypothesis import given, strategies as st

from repro.common import LogicalClock
from repro.common.errors import DfsError
from repro.data.codec import encoded_size
from repro.dfs import DistributedFileSystem


class TestWriteRead:
    def test_roundtrip(self):
        dfs = DistributedFileSystem()
        lines = [f"row-{i}" for i in range(10)]
        dfs.write_lines("/data/a", lines)
        assert dfs.read_lines("/data/a") == lines

    def test_empty_file(self):
        dfs = DistributedFileSystem()
        status = dfs.write_lines("/empty", [])
        assert status.size_bytes == 0
        assert status.num_lines == 0
        assert dfs.read_lines("/empty") == []

    def test_relative_path_rejected(self):
        with pytest.raises(DfsError):
            DistributedFileSystem().write_lines("no-slash", ["x"])

    def test_read_missing_raises(self):
        with pytest.raises(DfsError):
            DistributedFileSystem().read_lines("/missing")

    def test_overwrite_requires_flag(self):
        dfs = DistributedFileSystem()
        dfs.write_lines("/f", ["a"])
        with pytest.raises(DfsError):
            dfs.write_lines("/f", ["b"])
        dfs.write_lines("/f", ["b"], overwrite=True)
        assert dfs.read_lines("/f") == ["b"]


class TestVersioning:
    def test_version_increments_on_overwrite(self):
        dfs = DistributedFileSystem()
        assert dfs.write_lines("/f", ["a"]).version == 1
        assert dfs.write_lines("/f", ["b"], overwrite=True).version == 2

    def test_modification_tick_follows_clock(self):
        clock = LogicalClock()
        dfs = DistributedFileSystem(clock=clock)
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
        dfs = DistributedFileSystem()
        assert dfs.write_lines("/f", ["a"]).version == 1
        assert dfs.write_lines("/f", ["b"], overwrite=True).version == 2
        dfs.delete("/f")
        assert dfs.write_lines("/f", ["c"]).version == 3
        dfs.delete("/f")
        # Even byte-identical content is a new version after a delete:
        # the old lines are gone, so content stability cannot be proven.
        assert dfs.write_lines("/f", ["c"]).version == 4

    def test_identical_overwrite_still_version_stable(self):
        dfs = DistributedFileSystem()
        dfs.write_lines("/f", ["a"])
        assert dfs.write_lines("/f", ["a"], overwrite=True).version == 1


class TestAppend:
    """append_lines: write_lines' accounting, O(appended) sizing."""

    def test_append_extends_content(self):
        dfs = DistributedFileSystem()
        dfs.write_lines("/f", ["a", "b"])
        dfs.append_lines("/f", ["c", "d"])
        assert dfs.read_lines("/f") == ["a", "b", "c", "d"]

    def test_append_creates_missing_file(self):
        dfs = DistributedFileSystem()
        status = dfs.append_lines("/f", ["a"])
        assert status.version == 1
        assert dfs.read_lines("/f") == ["a"]

    def test_append_is_a_modification(self):
        clock = LogicalClock()
        dfs = DistributedFileSystem(clock=clock)
        first = dfs.write_lines("/f", ["a"])
        clock.tick(3)
        second = dfs.append_lines("/f", ["b"])
        assert second.version == first.version + 1
        assert second.modified_tick == 3
        assert second.created_tick == first.created_tick

    def test_empty_append_is_a_no_op(self):
        dfs = DistributedFileSystem()
        first = dfs.write_lines("/f", ["a"])
        second = dfs.append_lines("/f", [])
        assert second.version == first.version
        assert second.modified_tick == first.modified_tick
        assert dfs.read_lines("/f") == ["a"]

    def test_append_accounting_matches_rewrite(self):
        """Size/line accounting after appends equals a fresh write of the
        same full content."""
        appended = DistributedFileSystem()
        rewritten = DistributedFileSystem()
        lines = [f"row-{i}" for i in range(20)]
        appended.write_lines("/f", lines[:8])
        appended.append_lines("/f", lines[8:15])
        appended.append_lines("/f", lines[15:])
        rewritten.write_lines("/f", lines)
        assert appended.file_size("/f") == rewritten.file_size("/f")
        assert appended.status("/f").num_lines == len(lines)
        assert appended.read_lines("/f") == rewritten.read_lines("/f")

    def test_append_does_not_alias_reader_copies(self):
        # Appends extend the stored lists in place (O(appended), not
        # O(file)); the read paths must keep handing out copies so no
        # caller observes the mutation.
        dfs = DistributedFileSystem()
        dfs.write_lines("/f", ["a"])
        snapshot = dfs.read_lines("/f")
        dfs.append_lines("/f", ["b"])
        assert snapshot == ["a"]
        snapshot.append("junk")
        assert dfs.read_lines("/f") == ["a", "b"]


class TestBlocksAndReplication:
    """Deletes: a deleted path leaves the namespace."""

    def test_delete_releases_datanode_space(self):
        # The file is gone: no status, no lines, no listing.
        dfs = DistributedFileSystem()
        dfs.write_lines("/f", ["hello"] * 100)
        dfs.write_lines("/g", ["kept"])
        dfs.delete("/f")
        assert not dfs.exists("/f")
        assert dfs.list_files() == ["/g"]
        for read in (dfs.status, dfs.read_lines, dfs.file_size):
            with pytest.raises(DfsError):
                read("/f")

    def test_delete_missing_raises(self):
        with pytest.raises(DfsError):
            DistributedFileSystem().delete("/missing")

    def test_delete_if_exists_is_quiet(self):
        DistributedFileSystem().delete_if_exists("/missing")


class TestNamespace:
    def test_list_files_prefix(self):
        dfs = DistributedFileSystem()
        dfs.write_lines("/a/1", [])
        dfs.write_lines("/a/2", [])
        dfs.write_lines("/b/1", [])
        assert dfs.list_files("/a/") == ["/a/1", "/a/2"]
        assert dfs.list_files() == ["/a/1", "/a/2", "/b/1"]

    def test_status_reports_sizes(self):
        dfs = DistributedFileSystem()
        dfs.write_lines("/f", ["ab", "cd"])
        status = dfs.status("/f")
        assert status.size_bytes == 6
        assert status.num_lines == 2


class TestConcurrentWriters:
    """Async ingest writes repository files from its registrar thread
    while the submit thread's engine writes outputs: neither thread may
    lose or tear the other's files, and a listing must not see the
    namespace change under it."""

    def test_two_writer_threads(self):
        dfs = DistributedFileSystem()
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
        paths = dfs.list_files()
        assert paths == sorted(f"/{prefix}/{index}" for prefix in "ab"
                               for index in range(3000))
        for path in paths:
            assert dfs.status(path).version == 1
            assert dfs.read_lines(path) == [f"r{path.rsplit('/', 1)[1]}"]


_PATHS = st.sampled_from(["/a", "/b", "/c/d"])
_LINES = st.lists(st.text(alphabet="ab\té", max_size=3), max_size=4)
_OPS = st.lists(st.one_of(
    st.tuples(st.just("write"), _PATHS, _LINES, st.booleans()),
    st.tuples(st.just("append"), _PATHS, _LINES, st.just(False)),
    st.tuples(st.just("delete"), _PATHS, st.just([]), st.just(False)),
), max_size=30)


@given(_OPS)
def test_property_namespace_matches_a_dict_model(ops):
    """Writes (with and without overwrite), appends, deletes and
    re-creates against a dict model: every path's lines, size and version
    (a re-created path continues its deleted versions, which eviction
    Rule 4 depends on), and a sorted listing, after every operation."""
    dfs = DistributedFileSystem()
    files = {}          # path -> (lines, version)
    deleted = {}        # path -> version it had when deleted
    for op, path, lines, overwrite in ops:
        current = files.get(path)
        if op == "delete":
            if current is None:
                with pytest.raises(DfsError):
                    dfs.delete(path)
            else:
                dfs.delete(path)
                deleted[path] = files.pop(path)[1]
        elif op == "write" and current is not None and not overwrite:
            with pytest.raises(DfsError):
                dfs.write_lines(path, lines)
        else:
            if op == "write":
                dfs.write_lines(path, lines, overwrite=overwrite)
            else:
                dfs.append_lines(path, lines)
            if current is None:
                files[path] = (lines, deleted.get(path, 0) + 1)
            elif op == "append" and lines:
                files[path] = (current[0] + lines, current[1] + 1)
            elif op == "write" and lines != current[0]:
                files[path] = (lines, current[1] + 1)
        assert dfs.list_files() == sorted(files)
        assert dfs.list_files("/c/") == (["/c/d"] if "/c/d" in files else [])
        for name, (want, version) in files.items():
            status = dfs.status(name)
            assert dfs.read_lines(name) == want
            assert status.size_bytes == dfs.file_size(name) == sum(
                map(encoded_size, want))
            assert (status.num_lines, status.version) == (len(want), version)


class TestOverwriteCrashSafety:
    """Overwrite is write-new-then-swap — a failure while sizing the
    replacement must leave the old file fully readable (the crash window
    the persistence manifest swap relies on)."""

    def test_failed_overwrite_preserves_old_file(self, monkeypatch):
        dfs = DistributedFileSystem()
        dfs.write_lines("/data/a", ["old-1", "old-2"])
        before = dfs.status("/data/a")
        size_before = dfs.file_size("/data/a")

        import repro.dfs.filesystem as fsmod

        def crash(line):
            raise RuntimeError("disk lost mid-write")

        monkeypatch.setattr(fsmod, "encoded_size", crash)
        with pytest.raises(RuntimeError):
            dfs.write_lines("/data/a", ["new"], overwrite=True)
        monkeypatch.undo()

        assert dfs.read_lines("/data/a") == ["old-1", "old-2"]
        after = dfs.status("/data/a")
        assert after.version == before.version
        assert after.modified_tick == before.modified_tick
        assert (after.size_bytes, after.num_lines) == (before.size_bytes,
                                                      before.num_lines)
        assert dfs.file_size("/data/a") == size_before

        # Once the fault clears, the same overwrite goes through.
        status = dfs.write_lines("/data/a", ["new"], overwrite=True)
        assert status.version == before.version + 1
        assert dfs.read_lines("/data/a") == ["new"]
