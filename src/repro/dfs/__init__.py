"""Simulated HDFS: a versioned namespace of line files.

The simulation is faithful where ReStore's behaviour depends on it:

* every file has an exact size in bytes (the encoded size of its lines),
  which the cost model turns into input splits for map tasks and into
  the replicated Store overhead (its ``hdfs_block_bytes`` and
  ``replication`` settings, not this package, own both);
* files carry a version and modification tick — eviction Rule 4 ("evict if
  an input was deleted or modified") checks these.
"""

from repro.dfs.filesystem import DistributedFileSystem, FileStatus

__all__ = ["DistributedFileSystem", "FileStatus"]
