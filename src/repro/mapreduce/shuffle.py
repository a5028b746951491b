"""Shuffle machinery: stable partitioning, sorting, grouping.

Partitioning must be deterministic across processes (Python's builtin
``hash`` is salted), so keys are hashed with CRC32 over a canonical text
form.
"""

import zlib
from operator import itemgetter

from repro.data.comparators import key_sort_key

_first = itemgetter(0)


def stable_hash(key):
    """Deterministic 32-bit hash of a shuffle key (scalar or tuple)."""
    return zlib.crc32(_canonical_bytes(key))


def _canonical_bytes(key):
    if key is None:
        return b"\x00N"
    if isinstance(key, bool):
        return b"\x00B" + (b"1" if key else b"0")
    if isinstance(key, int):
        return b"\x00I" + str(key).encode("ascii")
    if isinstance(key, float):
        if key == int(key):  # 2.0 must hash like 2 (they compare equal)
            return b"\x00I" + str(int(key)).encode("ascii")
        return b"\x00F" + repr(key).encode("ascii")
    if isinstance(key, str):
        return b"\x00S" + key.encode("utf-8")
    if isinstance(key, tuple):
        return b"\x00T" + b"|".join(_canonical_bytes(item) for item in key)
    raise TypeError(f"cannot hash shuffle key of type {type(key).__name__}")


def partition_index(key, num_partitions):
    return stable_hash(key) % num_partitions


def estimate_row_bytes(row):
    """Cheap serialized-size estimate used for shuffle-volume accounting."""
    total = 0
    for value in row:
        if value is None:
            total += 1
        elif isinstance(value, str):
            total += len(value) + 1
        elif isinstance(value, tuple):  # bag
            total += 2 + sum(estimate_row_bytes(inner) + 2 for inner in value)
        else:
            total += len(str(value)) + 1
    return total


def grouped_partitions(keyed_rows, num_partitions):
    """Partition, sort, and group (branch-tagged) keyed rows.

    ``keyed_rows`` is an iterable of (branch_index, key, row). Returns a
    list of partitions; each partition is a list of (key, groups) where
    ``groups`` maps branch_index -> list of rows, in deterministic order
    (partitions by index, keys ascending, rows in arrival order).

    Rows are grouped by key first, so a key is hashed and given its sort
    key once, however many rows carry it. Keys that compare equal (``2``
    and ``2.0``) share a group, which reports the first one to arrive.
    """
    groups = {}
    for branch, key, row in keyed_rows:
        by_branch = groups.get(key)
        if by_branch is None:
            groups[key] = by_branch = {}
        rows = by_branch.get(branch)
        if rows is None:
            by_branch[branch] = [row]
        else:
            rows.append(row)
    buckets = [[] for _ in range(num_partitions)]
    for key, by_branch in groups.items():
        buckets[partition_index(key, num_partitions)].append(
            (key_sort_key(key), key, by_branch))
    for bucket in buckets:
        # Distinct keys have distinct sort keys: no tie reaches the keys.
        bucket.sort(key=_first)
    return [[(key, by_branch) for _, key, by_branch in bucket]
            for bucket in buckets]
