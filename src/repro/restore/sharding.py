"""A sharded ReStore repository: a partitioned layout, global semantics.

This module partitions the entry set across N **shards**. A shard is a
layout: it decides which partition's segment and section files hold an
entry (:mod:`repro.restore.wal`), which worker process replicates it
under ``executor="processes"`` (:mod:`repro.restore.service`), and
whose statistics a probe touches. It is not a second probe path: the
serial executor answers ``match_candidates`` with the inherited
fingerprint lookup.

Sharding layout
---------------

* Every entry is owned by **exactly one** shard, chosen by a stable hash
  (CRC-32, process-independent — persistence and restarts reproduce the
  layout) of the entry's *representative leaf-load key*: the minimum
  ``(path, version)`` pair of its load set. Entries whose loads cannot
  be keyed (or that read nothing) live in a dedicated **catch-all**
  partition, to which every probe is routed, because no load filter can
  rule them out.

* Containment requires an entry's load set to be a *subset* of the
  job's (see :mod:`repro.restore.index`), so an entry that can match a
  job has its representative key among the job's load keys. A probe for
  a job touching ``k`` load keys is therefore routed to **at most k
  shards** (plus the occupied catch-all), and every candidate it
  returns is owned by one of them.

* The **canonical-fingerprint dict** is kept globally, not per shard: it
  is the cross-shard dedup channel that keeps ``find_equivalent`` O(1)
  for the whole repository and guarantees an equivalent computation is
  never stored twice, whichever shard would own the duplicate.

* Under ``executor="processes"`` the routed workers filter their slices
  by load keys and the front-end keeps the entries filed under the job
  digest's sites, in global scan order: the unsharded repository's
  candidate sequence, bit for bit.

:class:`ShardedRepository` subclasses :class:`Repository` for the global
view: scan order, ``find_equivalent``, candidate lookup, insert/remove
bookkeeping, and the subsumption machinery are shared code, which is
what makes the observational-equivalence property ("sharding changes no
decision") testable and true by construction. The shards add the
partition layout and per-shard statistics; the property suite drives
``ShardedRepository(n ∈ {1, 2, 8})`` in lock-step against the unsharded
and the seed linear-scan repositories.
"""

import zlib

from repro.common.errors import RepositoryError
from repro.restore.repository import Repository
from repro.restore.stats import ShardStats

#: shard id of the catch-all partition in reports and persistence manifests
CATCHALL_SHARD = -1


def shard_index_for_key(load_key, num_shards):
    """Stable shard index for one ``(path, version)`` leaf-load key.

    CRC-32 of ``"{path}@v{version}"`` — deterministic across processes
    (unlike the salted builtin ``hash``), so a persisted repository
    reloads into the same layout it was saved from.
    """
    path, version = load_key
    return zlib.crc32(f"{path}@v{version}".encode("utf-8")) % num_shards


class RepositoryShard:
    """One partition of a :class:`ShardedRepository`: its subset of
    entries (insertion-ordered) and its statistics."""

    __slots__ = ("shard_id", "stats", "_entries")

    def __init__(self, shard_id):
        self.shard_id = shard_id
        self.stats = ShardStats(shard_id)
        self._entries = {}            # entry_id -> entry, insertion order

    def __len__(self):
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries.values())

    def add(self, entry):
        self._entries[entry.entry_id] = entry
        self.stats.occupancy = len(self._entries)

    def discard(self, entry):
        self._entries.pop(entry.entry_id, None)
        self.stats.occupancy = len(self._entries)


class ShardedRepository(Repository):
    """A :class:`Repository` whose entries are partitioned into shards.

    Parameters:

    * ``num_shards`` — number of hash partitions (≥ 1);
    * ``executor`` — how probes run: ``"serial"`` (default; the
      inherited fingerprint lookup) or ``"processes"`` (one worker
      process per partition behind the routing front-end,
      :class:`~repro.restore.service.ShardWorkerPool`);
    * ``response_timeout`` — with ``executor="processes"``, seconds one
      worker response wait may stay silent before the worker is
      declared crashed (defaults to the service module's 60 s ceiling).

    All repository semantics are **identical** to the unsharded
    :class:`Repository`: same scan order (the paper Section 3 priority
    order over the global entry set), same ``find_equivalent`` answers
    (the fingerprint dict is global — the cross-shard dedup channel),
    same ``match_candidates`` sequences. What the shards add is the
    partition layout persistence and the worker pool are built on, and
    per-shard counters.
    """

    def __init__(self, num_shards=4, executor="serial",
                 response_timeout=None):
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        if executor not in ("serial", "processes"):
            raise ValueError(
                f"executor must be 'serial' or 'processes', got {executor!r}")
        super().__init__()
        self.num_shards = num_shards
        self._shards = [RepositoryShard(index) for index in range(num_shards)]
        self._catchall = RepositoryShard(CATCHALL_SHARD)
        self._shard_of = {}           # entry_id -> owning RepositoryShard
        # executor="processes": a pool of worker-process replicas of the
        # partitions answers probes by shard id; otherwise the inherited
        # fingerprint lookup does.
        self._pool = None
        if executor == "processes":
            # Imported lazily: the service module imports persistence
            # (for the entry wire format), which imports this module's
            # shard constants — resolving at call time breaks the cycle.
            from repro.restore.service import ShardWorkerPool
            self._pool = ShardWorkerPool(response_timeout=response_timeout)
            self._pool.bind(self)
        self._logical_probes = 0      # match_candidates calls
        #: manifest header of the persisted file this repository was
        #: loaded from (set by ``load_repository``), or None.
        self.manifest_metadata = None

    # Shard layout -----------------------------------------------------------

    def owning_shard(self, entry_loads):
        """The shard that owns an entry reading ``entry_loads``.

        Keyed entries hash their representative (minimum) load key;
        unkeyable or load-free entries go to the catch-all partition.
        """
        if not entry_loads:  # None (unkeyable) or empty
            return self._catchall
        return self._shards[shard_index_for_key(min(entry_loads),
                                                self.num_shards)]

    def shards(self):
        """The regular shards, in shard-id order (catch-all excluded)."""
        return tuple(self._shards)

    def partitions(self):
        """All partitions: the regular shards, then the catch-all."""
        return tuple(self._shards) + (self._catchall,)

    def shard_report(self):
        """Per-shard occupancy/probe/hit counters as a list of dicts
        (catch-all last, shard id ``-1``), for operational reporting.

        Per-shard ``probes`` counts *routings*: one logical match probe
        routed to an owned shard **and** the occupied catch-all shows up
        in both rows. Use :meth:`merged_shard_stats` for
        repository-level totals — summing this column double-counts
        every such probe.
        """
        return [shard.stats.as_dict() for shard in self.partitions()]

    def merged_shard_stats(self):
        """Repository-level totals across all partitions.

        ``probes`` is the number of **logical** ``match_candidates``
        calls, counted once per call at the repository level — summing
        the per-shard probe counters instead would double-count any
        probe routed to both an owned shard and the occupied catch-all
        (each partition counts its own routing). The summed figure is
        still reported as ``shard_consults``. ``candidates_returned``
        (the returned candidates, each credited to its owning shard) and
        ``match_hits`` are exact sums of the per-partition counters —
        with the caveat that an unkeyable-plan probe is routed to no
        partition, so it contributes to ``probes`` but to neither
        ``shard_consults`` nor ``candidates_returned`` (its rewrites are
        still credited to the owning shard's ``match_hits``).
        """
        return {
            "entries": len(self),
            "probes": self._logical_probes,
            "shard_consults": sum(shard.stats.probes
                                  for shard in self.partitions()),
            "candidates_returned": sum(shard.stats.candidates_returned
                                       for shard in self.partitions()),
            "match_hits": sum(shard.stats.match_hits
                              for shard in self.partitions()),
        }

    def record_match_hit(self, entry):
        """Credit a successful rewrite to the shard owning ``entry``
        (called by the manager after the matcher picks a candidate)."""
        shard = self._shard_of.get(entry.entry_id)
        if shard is not None:
            shard.stats.match_hits += 1

    def close(self):
        """Stop the worker processes, if any (idempotent).

        An attached :class:`~repro.restore.wal.RepositoryLog` is flushed
        first, so closing the repository loses no pending record."""
        log = getattr(self, "persistence_log", None)
        if log is not None and getattr(log, "repository", None) is self:
            log.flush()
        if self._pool is not None:
            self._pool.close()

    def shard_id_of(self, entry):
        """The id of the shard owning ``entry`` (catch-all is ``-1``),
        or None when the entry is not registered with any shard."""
        shard = self._shard_of.get(entry.entry_id)
        return shard.shard_id if shard is not None else None

    def shard_sizes(self):
        """Entry count per partition, ``{shard_id: entries}``, every
        partition included (the catch-all under ``-1``, empty shards at
        0) — the denominator of segmented persistence's per-shard dirty
        ratio, and the partition universe its manifest records."""
        return {shard.shard_id: len(shard) for shard in self.partitions()}

    def shard_members(self, shard_id):
        """The entries owned by partition ``shard_id``
        (insertion-ordered; the segmented snapshot writer re-sorts by
        scan rank). O(shard), not O(repository) — what keeps a
        dirty-shard section rewrite proportional to the shard."""
        for shard in self.partitions():
            if shard.shard_id == shard_id:
                return tuple(shard)
        raise RepositoryError(f"no shard {shard_id!r} in this repository")

    # Mutation ---------------------------------------------------------------
    #
    # Inserts and removals are the inherited global operations; the
    # _post_insert/_post_remove hooks register the entry with its owning
    # shard so that change-event listeners (incremental persistence)
    # observe a consistent shard layout when the event fires.

    def _post_insert(self, entry):
        shard = self.owning_shard(entry.digest.loads)
        shard.add(entry)
        self._shard_of[entry.entry_id] = shard
        if self._pool is not None:
            self._pool.record_insert(shard.shard_id, entry)

    def _post_remove(self, entry):
        shard = self._shard_of.pop(entry.entry_id, None)
        if shard is not None:
            shard.discard(entry)
            if self._pool is not None:
                self._pool.record_remove(shard.shard_id, entry)

    def record_use(self, entry, tick):
        super().record_use(entry, tick)
        # Worker replicas mirror the partition state, stats included:
        # route the freshly stamped values into the owning worker's
        # mutation stream, exactly as inserts and removals are.
        if self._pool is not None:
            shard = self._shard_of.get(entry.entry_id)
            if shard is not None:
                self._pool.record_use(shard.shard_id, entry)

    # Matching ---------------------------------------------------------------

    def _filtered_candidates(self, digest):
        """The inherited lookup, plus per-shard statistics; with a worker
        pool, the routed workers' answer instead of the lookup.

        The probe counts once per partition it is routed to (the owners
        of the job's load keys, plus the occupied catch-all), and each
        returned candidate once for its owning partition, whichever
        executor answers. An unkeyable plan is routed nowhere. Either
        way this is **one** logical probe (see
        :meth:`merged_shard_stats`).
        """
        self._logical_probes += 1
        job_loads = digest.loads
        if job_loads is None:
            return super()._filtered_candidates(digest)
        shard_ids = self._consulted_shard_ids(job_loads)
        for shard_id in shard_ids:
            self._partition_by_id(shard_id).stats.probes += 1
        if self._pool is None:
            candidates = super()._filtered_candidates(digest)
        else:
            candidates = self._merge_pool_answer(
                self._pool.match_probe(shard_ids, job_loads), digest)
        for entry in candidates:
            self._shard_of[entry.entry_id].stats.candidates_returned += 1
        return candidates

    def _consulted_shard_ids(self, job_loads):
        """The partition ids a probe for ``job_loads`` is routed to: the
        owners of the job's load keys, plus the catch-all when occupied."""
        shard_ids = sorted({shard_index_for_key(key, self.num_shards)
                            for key in job_loads})
        if len(self._catchall):
            shard_ids.append(CATCHALL_SHARD)
        return shard_ids

    def _partition_by_id(self, shard_id):
        return (self._catchall if shard_id == CATCHALL_SHARD
                else self._shards[shard_id])

    def _merge_pool_answer(self, answers, digest):
        """Resolve one pool probe's ``{shard_id: [entry ids]}`` answer to
        the entries filed under ``digest``'s sites, in global scan order
        — the inherited lookup's sequence."""
        sites = digest.sites
        entries = (self._by_id[key] for keys in answers.values()
                   for key in keys)
        rank = self.scan_rank()
        return tuple(sorted(
            (entry for entry in entries if entry.fingerprint in sites),
            key=lambda entry: rank[entry.entry_id]))

    @property
    def worker_pool(self):
        """The :class:`~repro.restore.service.ShardWorkerPool` routing
        this repository's probes, or None under ``executor="serial"``."""
        return self._pool

    def describe(self):
        lines = [
            f"ShardedRepository: {len(self)} entr(ies) across "
            f"{self.num_shards} shard(s) "
            f"(+{len(self._catchall)} catch-all), "
            f"executor={'serial' if self._pool is None else 'processes'}"
        ]
        for shard in self.partitions():
            lines.append(f"- {shard.stats.describe()}")
        lines.extend(f"- {entry.describe()}" for entry in self.scan())
        return "\n".join(lines)
