"""The DFS facade: a versioned namespace of line files."""

import threading

from repro.common.errors import DfsError
from repro.data.codec import encoded_size


class FileStatus:
    """Namenode metadata for one file."""

    __slots__ = ("path", "size_bytes", "num_lines", "version", "created_tick", "modified_tick")

    def __init__(self, path, size_bytes, num_lines, version, created_tick, modified_tick):
        self.path = path
        self.size_bytes = size_bytes
        self.num_lines = num_lines
        self.version = version
        self.created_tick = created_tick
        self.modified_tick = modified_tick

    def __repr__(self):
        return (
            f"FileStatus(path={self.path!r}, bytes={self.size_bytes}, "
            f"lines={self.num_lines}, version={self.version})"
        )


class _FileEntry:
    __slots__ = ("status", "lines")

    def __init__(self, status, lines):
        self.status = status
        self.lines = lines


class DistributedFileSystem:
    """Simulated HDFS instance: each file is its status and its lines.

    A file's size is the exact encoded size of its lines. Block splits
    and replication are the cost model's business
    (:class:`~repro.mapreduce.costmodel.CostModelConfig`'s
    ``hdfs_block_bytes`` and ``replication``), which reads the size only.

    ``clock`` (a :class:`repro.common.LogicalClock`) stamps creation and
    modification ticks; without one, ticks stay at zero and only versions
    distinguish rewrites.

    One lock serializes every change to the namespace and every walk over
    it: async ingest writes repository files from its registrar thread
    while the submit thread's engine writes outputs. Lookups and reads
    take no lock: a writer publishes a new file with one dictionary
    assignment and extends an appended file's lines before its status.
    """

    GUARDED_BY = {"_deleted_versions": "_namespace_lock"}

    def __init__(self, clock=None):
        self._files = {}
        # Last version of every deleted path: a re-created file must keep
        # counting from there, or a delete + re-create would reset to v1
        # and collide with versions recorded before the delete (stale
        # repository entries would keep matching — Rule 4 would miss a
        # "deleted AND re-created" input).
        self._deleted_versions = {}
        self._clock = clock
        self._namespace_lock = threading.RLock()

    def __getstate__(self):
        state = dict(self.__dict__)
        del state["_namespace_lock"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._namespace_lock = threading.RLock()

    # Namespace operations -------------------------------------------------

    def exists(self, path):
        return path in self._files

    def status(self, path):
        return self._entry(path).status

    def list_files(self, prefix=""):
        """Paths under ``prefix`` in sorted order."""
        with self._namespace_lock:
            return sorted(path for path in self._files
                          if path.startswith(prefix))

    def delete(self, path):
        with self._namespace_lock:
            entry = self._files.pop(path, None)
            if entry is None:
                raise DfsError(f"cannot delete {path!r}: no such file")
            self._deleted_versions[path] = entry.status.version

    def delete_if_exists(self, path):
        with self._namespace_lock:
            if path in self._files:
                self.delete(path)

    # Read/write ------------------------------------------------------------

    def write_lines(self, path, lines, overwrite=False):
        """Create (or overwrite) ``path`` with ``lines``; returns FileStatus.

        Versions are *content-stable*: overwriting a file with different
        content bumps the version and modification tick (what eviction
        Rule 4 observes); rewriting identical content leaves both alone —
        the dataset was not modified. Re-creating a previously *deleted*
        path continues its old version sequence (the deletion itself was
        a modification, and the old content is gone so stability cannot
        be checked) — versions recorded before the delete never match
        the re-created file.

        An overwrite is write-new-then-swap: the replacement is sized
        *before* the old entry leaves the namespace, and the single
        ``self._files[path] = ...`` assignment is the commit point — a
        failure before it (the crash window the persistence layer's
        manifest swap relies on, see docs/PERSISTENCE.md) leaves the old
        file fully readable.
        """
        if not path or not path.startswith("/"):
            raise DfsError(f"paths must be absolute, got {path!r}")
        lines = list(lines)
        with self._namespace_lock:
            previous = self._files.get(path)
            if previous is not None and not overwrite:
                raise DfsError(f"{path!r} already exists "
                               f"(pass overwrite=True to replace)")
            if previous is not None and previous.lines == lines:
                return previous.status
            if previous is not None:
                version = previous.status.version + 1
                created = previous.status.created_tick
            else:
                version = self._deleted_versions.get(path, 0) + 1
                created = self._now()
            status = FileStatus(path, sum(map(encoded_size, lines)),
                                len(lines), version, created, self._now())
            if previous is None:
                self._deleted_versions.pop(path, None)
            self._files[path] = _FileEntry(status, lines)
            return status

    def append_lines(self, path, lines):
        """Append ``lines`` to ``path`` (creating it when absent); returns
        FileStatus.

        The accounting mirrors :meth:`write_lines`: appending content is a
        modification, so the version and modification tick advance; an
        empty append touches nothing. Only the new lines are sized, so the
        cost is O(appended), not O(file). This is what makes an
        append-only repository log cheaper than rewriting the snapshot
        (see :mod:`repro.restore.wal`).
        """
        lines = list(lines)
        with self._namespace_lock:
            previous = self._files.get(path)
            if previous is None:
                return self.write_lines(path, lines)
            if not lines:
                return previous.status
            old = previous.status
            status = FileStatus(
                path,
                old.size_bytes + sum(map(encoded_size, lines)),
                old.num_lines + len(lines),
                old.version + 1,
                old.created_tick,
                self._now(),
            )
            # Extend in place: the read paths hand out copies, so nobody
            # aliases this list, and copying it here would make every
            # append O(file) — exactly what this method exists to avoid.
            previous.lines.extend(lines)
            previous.status = status
            return status

    def read_lines(self, path):
        """All lines of ``path`` (the whole-file read used by Load)."""
        return list(self._entry(path).lines)

    def read_first_line(self, path):
        """Line 0 of ``path`` (None when the file is empty), in O(1)."""
        lines = self._entry(path).lines
        return lines[0] if lines else None

    # Accounting ------------------------------------------------------------

    def file_size(self, path):
        """Size in bytes: the encoded size of the file's lines."""
        return self._entry(path).status.size_bytes

    # Internals ---------------------------------------------------------------

    def _entry(self, path):
        try:
            return self._files[path]
        except KeyError as exc:
            raise DfsError(f"no such file: {path!r}") from exc

    def _now(self):
        return self._clock.now() if self._clock is not None else 0
