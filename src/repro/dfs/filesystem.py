"""The DFS facade: namespace, block placement, replication, versions."""

import threading
import zlib

from repro.common.errors import DfsError
from repro.data.codec import encoded_size
from repro.dfs.blocks import Block
from repro.dfs.datanode import DataNode

DEFAULT_BLOCK_SIZE = 64 * 1024
DEFAULT_REPLICATION = 3
DEFAULT_NUM_DATANODES = 14


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
    __slots__ = ("status", "lines", "blocks")

    def __init__(self, status, lines, blocks):
        self.status = status
        self.lines = lines
        self.blocks = blocks


class DistributedFileSystem:
    """Simulated HDFS instance.

    ``clock`` (a :class:`repro.common.LogicalClock`) stamps creation and
    modification ticks; without one, ticks stay at zero and only versions
    distinguish rewrites.

    One lock serializes every change to the namespace and the datanodes
    (block ids included) and every walk over the namespace: async ingest
    writes repository files from its registrar thread while the submit
    thread's engine writes outputs. Lookups and reads take no lock: a
    writer publishes a new file with one dictionary assignment and
    extends an appended file's lines before its blocks.
    """

    GUARDED_BY = {"_deleted_versions": "_namespace_lock",
                  "_next_block_id": "_namespace_lock"}

    def __init__(
        self,
        block_size=DEFAULT_BLOCK_SIZE,
        replication=DEFAULT_REPLICATION,
        num_datanodes=DEFAULT_NUM_DATANODES,
        clock=None,
    ):
        if block_size < 1:
            raise DfsError(f"block size must be positive, got {block_size}")
        if not 1 <= replication <= num_datanodes:
            raise DfsError(
                f"replication {replication} must be between 1 and #datanodes {num_datanodes}"
            )
        self.block_size = block_size
        self.replication = replication
        self.datanodes = [DataNode(node_id) for node_id in range(num_datanodes)]
        self._files = {}
        # Last version of every deleted path: a re-created file must keep
        # counting from there, or a delete + re-create would reset to v1
        # and collide with versions recorded before the delete (stale
        # repository entries would keep matching — Rule 4 would miss a
        # "deleted AND re-created" input).
        self._deleted_versions = {}
        self._clock = clock
        self._next_block_id = 0
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
            for block in entry.blocks:
                for node_id in block.replicas:
                    self.datanodes[node_id].remove_block(block.block_id)

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

        An overwrite is write-new-then-swap: the replacement's blocks
        are placed *before* the old entry leaves the namespace, and the
        single ``self._files[path] = ...`` assignment is the commit
        point — a failure while placing (the crash window the
        persistence layer's manifest swap relies on, see
        docs/PERSISTENCE.md) leaves the old file fully readable.
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
            blocks = self._place_blocks(path, lines)
            size_bytes = sum(block.num_bytes for block in blocks)
            status = FileStatus(path, size_bytes, len(lines), version,
                                created, self._now())
            if previous is not None:
                # Swap: retire the replaced blocks without delete()'s
                # tombstone — the path was never observably deleted, the
                # version carries over from `previous` directly.
                for block in previous.blocks:
                    for node_id in block.replicas:
                        self.datanodes[node_id].remove_block(block.block_id)
            else:
                self._deleted_versions.pop(path, None)
            self._files[path] = _FileEntry(status, lines, blocks)
            return status

    def append_lines(self, path, lines):
        """Append ``lines`` to ``path`` (creating it when absent); returns
        FileStatus.

        The accounting mirrors :meth:`write_lines`: appending content is a
        modification, so the version and modification tick advance; an
        empty append touches nothing. Unlike an overwrite, only the new
        lines are placed into (fresh tail) blocks — the existing blocks
        and their replicas are untouched, so the cost is O(appended), not
        O(file). This is what makes an append-only repository log cheaper
        than rewriting the snapshot (see :mod:`repro.restore.wal`).
        """
        lines = list(lines)
        with self._namespace_lock:
            previous = self._files.get(path)
            if previous is None:
                return self.write_lines(path, lines)
            if not lines:
                return previous.status
            new_blocks = self._place_blocks(
                path, lines, base_index=len(previous.blocks),
                start_line=len(previous.lines))
            old = previous.status
            status = FileStatus(
                path,
                old.size_bytes + sum(block.num_bytes for block in new_blocks),
                old.num_lines + len(lines),
                old.version + 1,
                old.created_tick,
                self._now(),
            )
            # Extend in place: the read paths hand out copies/slices, so
            # nobody aliases these lists, and copying them here would make
            # every append O(file) — exactly what this method exists to avoid.
            previous.lines.extend(lines)
            previous.blocks.extend(new_blocks)
            previous.status = status
            return status

    def read_lines(self, path):
        """All lines of ``path`` (the whole-file read used by Load)."""
        return list(self._entry(path).lines)

    def read_block_lines(self, path, block_index):
        """Lines of one block — what a single map task sees."""
        entry = self._entry(path)
        try:
            block = entry.blocks[block_index]
        except IndexError as exc:
            raise DfsError(
                f"{path!r} has {len(entry.blocks)} blocks, no index {block_index}"
            ) from exc
        return entry.lines[block.start_line : block.end_line]

    def blocks_of(self, path):
        return list(self._entry(path).blocks)

    # Accounting ------------------------------------------------------------

    def file_size(self, path):
        """Logical size in bytes (before replication)."""
        return self._entry(path).status.size_bytes

    def replicated_size(self, path):
        """Physical bytes across all replicas."""
        return self.file_size(path) * self.replication

    def total_used_bytes(self):
        """Physical bytes used across all datanodes (replication included)."""
        return sum(node.used_bytes for node in self.datanodes)

    # Internals ---------------------------------------------------------------

    def _entry(self, path):
        try:
            return self._files[path]
        except KeyError as exc:
            raise DfsError(f"no such file: {path!r}") from exc

    def _now(self):
        return self._clock.now() if self._clock is not None else 0

    def _place_blocks(self, path, lines, base_index=0, start_line=0):
        """Chop ``lines`` into blocks and place replicas round-robin.

        Placement starts at a path-derived offset so different files spread
        across different datanodes, like HDFS's randomized placement but
        deterministic. ``base_index``/``start_line`` shift the block index
        and line coordinates when the new blocks extend an existing file
        (:meth:`append_lines`): the replica rotation simply continues from
        where the last block left off (the base offset depends only on the
        path, so it needs no carrying over).
        """
        blocks = []
        start = 0
        current_bytes = 0
        base = zlib.crc32(path.encode("utf-8")) % len(self.datanodes)
        for position, line_size in enumerate(map(encoded_size, lines)):
            current_bytes += line_size
            if current_bytes >= self.block_size:
                blocks.append(self._make_block(
                    path, base_index + len(blocks), start_line + start,
                    start_line + position + 1, current_bytes, base))
                start = position + 1
                current_bytes = 0
        if current_bytes > 0 or (not blocks and base_index == 0):
            blocks.append(self._make_block(
                path, base_index + len(blocks), start_line + start,
                start_line + len(lines), current_bytes, base))
        return blocks

    def _make_block(self, path, index, start_line, end_line, num_bytes, base):  # statlint: holds=_namespace_lock
        replicas = [
            (base + index + offset) % len(self.datanodes) for offset in range(self.replication)
        ]
        block = Block(self._next_block_id, path, index, start_line, end_line, num_bytes, replicas)
        self._next_block_id += 1
        for node_id in replicas:
            self.datanodes[node_id].add_block(block)
        return block
