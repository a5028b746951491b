"""The ReStore repository of stored MapReduce job outputs.

Each record holds (paper Section 2.2): the physical plan of the job that
produced the output, the output's filename in the DFS, and statistics
about the producing job and about reuse frequency.

The matcher tries entries in the paper's Section 3 order:

1. a plan that subsumes another (contains all its operators) comes first;
2. otherwise, higher input/output size ratio first, then longer producing
   job execution time first.

That order is the *priority-greedy topological order* of the strict
subsumption DAG: repeatedly emit the ready entry with the best rule-2
metrics, ties broken by insertion sequence. It is a pure function of the
entry set, so the repository keeps no order at all. It keeps the DAG's
edges and two dicts keyed by Merkle fingerprint
(:mod:`repro.restore.matcher`): the *buckets* file every entry under its
frontier fingerprint, and the *site index* files every entry under each
of its plan's site fingerprints. An entry ``b`` can only be contained in
a plan whose digest has ``b``'s frontier fingerprint among its sites, so:

* ``find_equivalent`` is a fingerprint-bucket lookup (O(1) plus an exact
  confirmation of the bucket) instead of a full scan;
* on ``insert``, only the buckets of the new entry's sites (what it may
  contain) and the site index under its fingerprint (what may contain
  it) get a subsumption test;
* ``match_candidates`` gives the matcher the buckets of the job digest's
  sites, ordered on demand — exactly the entries that can match, so the
  first match is the seed's full scan's;
* ``remove`` prunes the edge sets, the buckets and the site index, so
  eviction-heavy retention policies no longer leak.

Why a probe can order its few candidates alone: take the candidates plus
their transitive subsumption ancestors. Every blocker of a member is a
member, so nothing outside the set ever changes its ready set, and its
greedy order is the whole repository's order restricted to it.
:meth:`Repository._in_scan_order` runs Kahn's algorithm over that
closure (2-4 entries on the benchmark streams); ``scan()`` runs it over
every entry. A removal needs no work on the order: the next probe sees
the paper's order of the entries that are left.

Containment tests run on each entry's cached
:class:`~repro.restore.matcher.PlanDigest`: two dict lookups per
subsumption check, plus an exact confirmation of the rare hit.

The frozen seed implementation lives in :mod:`repro.restore.baseline` and
the property suite asserts order- and decision-equivalence against it.
"""

from operator import attrgetter

from repro.common.errors import RepositoryError
from repro.restore.matcher import contains, PlanDigest


class RepositoryEntry:
    """One stored job output (paper Section 2.2).

    Holds the producing job's physical plan (``Loads → … → Store``), the
    output's DFS path, execution/reuse statistics
    (:class:`~repro.restore.stats.EntryStats` — the ordering and
    retention rules read them), the versions of the datasets the plan
    read (Rule 4 invalidation), whether ReStore owns the stored file
    (safe to delete on evict), and whole-job/sub-job provenance.

    An entry has one identity, its ``_sequence``: the repository that
    admits it assigns the sequence and derives ``entry_id`` from it
    (:meth:`Repository.insert`), and both are fixed from then on.
    """

    def __init__(self, plan, output_path, stats, input_versions=None,
                 owns_file=True, origin="whole-job"):
        self.entry_id = None
        self._sequence = None
        #: canonical physical plan: Loads -> ... -> Store(output_path)
        self.plan = plan
        self.output_path = output_path
        self.stats = stats
        #: dataset versions read by the producing job: {path: version}
        self.input_versions = dict(input_versions or {})
        #: whether the DFS file belongs to ReStore (safe to delete on evict)
        self.owns_file = owns_file
        #: "whole-job" or "sub-job" (provenance, for reporting)
        self.origin = origin
        self._digest = None

    @property
    def digest(self):
        """:class:`~repro.restore.matcher.PlanDigest` of the entry's
        immutable plan: built on first use, never serialized. Filling it
        is idempotent and happens under locks that exist already:
        ``insert`` files the entry under its fingerprint before any
        other thread can reach it, and matching and registration read
        it holding the manager's ingest lock."""
        if self._digest is None:
            self._digest = PlanDigest(self.plan)
        return self._digest

    @property
    def fingerprint(self):
        """Canonical structural hash of the entry's plan (computed once,
        round-tripped by persistence)."""
        return self.digest.fingerprint

    @property
    def num_operators(self):
        return len(self.plan.operators())

    def describe(self):
        return (
            f"{self.entry_id} [{self.origin}] -> {self.output_path} "
            f"({self.stats.output_bytes} B, ratio {self.stats.reduction_ratio:.1f})"
        )

    def __repr__(self):
        return f"<RepositoryEntry {self.entry_id} {self.output_path}>"


_NO_EDGES = frozenset()
_SCAN_KEY = attrgetter("_scan_key")


def _priority(entry):
    # higher ratio first, then longer producing time, then age; cached on
    # the entry as _scan_key (the stats it reads never change)
    return (-entry.stats.reduction_ratio,
            -entry.stats.producing_job_time,
            entry._sequence)


class Repository:
    """Collection of :class:`RepositoryEntry`, in sequence order.

    ``scan()`` yields entries in match-priority order, computed on
    demand; ``find_equivalent`` deduplicates re-registrations of the
    same computation; ``match_candidates`` narrows a matcher pass to the
    entries filed under the job's site fingerprints.
    """

    def __init__(self):
        # entry_id -> entry, in sequence order: a live repository assigns
        # sequences as it inserts, and the loader restores the order
        self._by_id = {}
        self._order = None            # cached immutable scan() snapshot
        self._sequence = 0
        self._buckets = {}            # fingerprint -> [entries, insert order]
        self._by_site = {}            # site fingerprint -> {entry ids}
        self._edges_out = {}          # a subsumes b: edges_out[a] ∋ b (ids)
        self._edges_in = {}
        # Change-event channel: callables invoked as listener(op, entry)
        # with op in {"insert", "remove", "use"} after each mutation.
        # This is what incremental persistence (repro.restore.wal)
        # subscribes to; an empty list costs one truth test per mutation.
        self._listeners = []

    # Change events ---------------------------------------------------------

    def add_listener(self, listener):
        """Subscribe ``listener(op, entry)`` to insert/remove/use events."""
        self._listeners.append(listener)

    def remove_listener(self, listener):
        """Unsubscribe a listener previously added (no-op when absent)."""
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    def _notify(self, op, entry):
        for listener in self._listeners:
            listener(op, entry)

    def record_use(self, entry, tick):
        """Stamp a reuse on ``entry`` and emit a ``"use"`` change event.

        The manager routes use-stamps through here (instead of mutating
        ``entry.stats`` directly) so that Rule 3 reuse windows survive a
        restart when a :class:`~repro.restore.wal.RepositoryLog` is
        attached.
        """
        entry.stats.record_use(tick)
        self._notify("use", entry)

    def shard_id_of(self, entry):
        """The shard id owning ``entry`` — None for an unsharded
        repository (overridden by
        :class:`~repro.restore.sharding.ShardedRepository`)."""
        return None

    def shard_sizes(self):
        """Entry count per partition, ``{shard_id: entries}`` — the
        denominator of segmented persistence's per-shard dirty ratio
        (:meth:`~repro.restore.wal.RepositoryLog.dirty_shards`). An
        unsharded repository is one partition under the ``None`` id,
        matching the shard tag its change events carry."""
        return {None: len(self)}

    def shard_members(self, shard_id):
        """The entries owned by partition ``shard_id`` (unordered — the
        segmented snapshot writer sorts by sequence). The unsharded
        repository owns everything in its single ``None`` partition."""
        if shard_id is not None:
            raise RepositoryError(
                f"an unsharded repository has no shard {shard_id!r}")
        return tuple(self._by_id.values())

    def close(self):
        """Release any resources the repository holds. The plain
        repository holds none; the sharded subclass flushes its attached
        log and stops its worker processes, if any, here — having the
        method on the base class lets :meth:`ReStore.close` treat every
        repository flavor uniformly."""

    def __len__(self):
        return len(self._by_id)

    def __iter__(self):
        """The entries in sequence order (not scan order)."""
        return iter(self._by_id.values())

    def scan(self):
        """Every entry in the order the matcher must try them.

        Returns an immutable snapshot; the same tuple object is handed
        out until an insert or removal changes the entry set, so rescan
        loops no longer allocate a fresh list per pass.
        """
        if self._order is None:
            self._order = tuple(self._greedy_order(self._by_id))
        return self._order

    def match_candidates(self, plan, digest=None):
        """Entries that could be contained in ``plan``, in try order.

        An entry is contained in ``plan`` only if its frontier
        fingerprint is one of the sites of ``plan``'s
        :class:`~repro.restore.matcher.PlanDigest`, so the candidates are
        the buckets of those sites, in the paper's Section 3 priority
        order restricted to the entries that can match. Pass ``digest``
        when the caller already holds it (the manager's scan pass does).
        """
        return self._filtered_candidates(
            digest if digest is not None else PlanDigest(plan))

    @property
    def worker_pool(self):
        """The worker-process pool routing this repository's probes —
        None unless this is a :class:`ShardedRepository` built with
        ``executor="processes"``."""
        return None

    def _filtered_candidates(self, digest):
        """The lookup half of :meth:`match_candidates`: the entries filed
        under ``digest``'s site fingerprints, in scan order."""
        buckets = self._buckets
        return self._in_scan_order([
            entry for fingerprint in digest.sites
            for entry in buckets.get(fingerprint, ())])

    def _in_scan_order(self, entries):
        """``entries`` in scan order: the greedy order of their ancestor
        closure, restricted to them (the module docstring says why that
        is the whole repository's order)."""
        if len(entries) < 2:
            return tuple(entries)
        edges_in = self._edges_in
        wanted = {entry.entry_id for entry in entries}
        frontier = [entry_id for entry_id in wanted if edges_in[entry_id]]
        if not frontier:
            # No ancestors: no edge joins the entries either, so the
            # greedy order is the priority order.
            return tuple(sorted(entries, key=_SCAN_KEY))
        closure = set(wanted)
        while frontier:
            ancestors = edges_in[frontier.pop()] - closure
            closure |= ancestors
            frontier.extend(ancestors)
        return tuple(entry for entry in self._greedy_order(closure)
                     if entry.entry_id in wanted)

    def subsumption_edges_among(self, entry_ids):
        """Strict-subsumption edges restricted to ``entry_ids``:
        ``{a: {b, ...}}`` where entry ``a``'s plan strictly contains
        entry ``b``'s — the paper's rule 1 relation (a container is
        tried before everything it subsumes) that the scan order is
        computed from, exposed for the edge oracles that check it."""
        ids = set(entry_ids)
        return {entry_id: self._edges_out.get(entry_id, _NO_EDGES) & ids
                for entry_id in ids}

    def entry(self, entry_id):
        """The entry with ``entry_id`` (:class:`RepositoryError` if absent)."""
        try:
            return self._by_id[entry_id]
        except KeyError:
            raise RepositoryError(f"no entry {entry_id!r}") from None

    def total_stored_bytes(self):
        return sum(entry.stats.output_bytes for entry in self)

    # Insertion ------------------------------------------------------------

    def insert(self, entry):
        """Admit ``entry``: give it its sequence, id and priority key,
        record its subsumption edges and file it in every index.

        Rule 1 (subsumption) is a hard constraint: a plan that contains
        another's operators scans first. Containment is transitive, so the
        strict-subsumption relation is a DAG; the scan order is its
        topological order, with rule 2's metrics (input/output ratio, then
        producing-job time — higher first) breaking ties among entries no
        constraint relates. Edges are discovered only against entries a
        fingerprint lookup offers; nothing is sorted here.

        A fresh entry gets the next sequence. One that carries a
        sequence already (the loader sets the recorded one) keeps it;
        either way the counter moves past it, so no sequence is ever
        handed out twice.
        """
        if entry._sequence is None:
            entry._sequence = self._sequence
        self._sequence = max(self._sequence, entry._sequence + 1)
        entry.entry_id = entry_id = f"e{entry._sequence}"
        entry._scan_key = _priority(entry)
        self._discover_edges(entry)
        self._by_id[entry_id] = entry
        self._buckets.setdefault(entry.fingerprint, []).append(entry)
        for site in entry.digest.sites:
            self._by_site.setdefault(site, set()).add(entry_id)
        self._edges_out.setdefault(entry_id, set())
        self._edges_in.setdefault(entry_id, set())
        self._order = None
        self._post_insert(entry)
        self._notify("insert", entry)
        return entry

    def _post_insert(self, entry):
        """Subclass hook, called after ``entry`` is fully indexed but
        before the insert change event fires (sharding registers the
        entry with its owning shard here, so listeners observing the
        event see a consistent shard layout)."""

    def _post_remove(self, entry):
        """Subclass hook, the removal counterpart of :meth:`_post_insert`
        (called after the remove change event fires, so listeners can
        still resolve the entry's shard via :meth:`shard_id_of`)."""

    def _discover_edges(self, entry):
        """Record subsumption edges between ``entry`` and the entries a
        fingerprint lookup offers."""
        entry_id = entry.entry_id
        digest = entry.digest
        # Entries the new plan could strictly contain: filed under one of
        # its site fingerprints.
        for site in digest.sites:
            for other in self._buckets.get(site, ()):
                if self._subsumes(entry, other):
                    self._edges_out.setdefault(entry_id, set()).add(
                        other.entry_id)
                    self._edges_in[other.entry_id].add(entry_id)
        # Entries that could strictly contain the new plan: its frontier
        # fingerprint is one of their sites.
        for other_id in self._by_site.get(digest.fingerprint, ()):
            if self._subsumes(self._by_id[other_id], entry):
                self._edges_out[other_id].add(entry_id)
                self._edges_in.setdefault(entry_id, set()).add(other_id)

    def _subsumes(self, a, b):
        """Does entry ``a``'s plan strictly contain entry ``b``'s? Asked
        once per pair, when the younger one is inserted; the yeses live
        on as subsumption edges."""
        return (contains(b.digest, a.digest)
                and not contains(a.digest, b.digest))

    def _greedy_order(self, ids):
        """Priority-greedy topological order of the entries ``ids``, a
        set closed under ``_edges_in`` (every blocker of a member is a
        member).

        Repeatedly emit the best-keyed entry whose blockers have all been
        emitted — the seed's rule. The priority key is total (the
        insertion sequence is unique), so the order is too. Candidate
        sets hold a handful of entries, so a pass over the waiting list,
        sorted once by key, beats keeping a heap of the ready ones.
        """
        edges_in = self._edges_in
        waiting = sorted(map(self._by_id.__getitem__, ids), key=_SCAN_KEY)
        emitted = set()
        ordered = []
        while waiting:
            for index, entry in enumerate(waiting):
                if edges_in[entry.entry_id] <= emitted:
                    break
            else:
                raise RepositoryError("subsumption relation is cyclic (bug)")
            del waiting[index]
            ordered.append(entry)
            emitted.add(entry.entry_id)
        return ordered

    def find_equivalent(self, plan):
        """An entry computing exactly ``plan`` (mutual containment), if any.

        Fingerprint-equal entries are the only possible equivalents, so
        only that bucket is confirmed with the exact mutual-containment
        test; among several equivalents (possible via direct inserts) the
        one earliest in scan order is returned, as the seed's linear scan
        would.
        """
        probe = PlanDigest(plan)
        # A probe without a single match frontier has no fingerprint:
        # fall back to the seed's literal scan so behavior stays
        # bit-identical — an empty repository answers None instead of
        # raising.
        candidates = (self._buckets.get(probe.fingerprint, ())
                      if len(plan.stores()) == 1 else self)
        matches = [entry for entry in candidates
                   if contains(entry.digest, probe)
                   and contains(probe, entry.digest)]
        if len(matches) > 1:
            return self._in_scan_order(matches)[0]
        return matches[0] if matches else None

    # Removal --------------------------------------------------------------------

    def remove(self, entry, dfs=None):
        """Drop ``entry``; delete its file when ReStore owns it.

        Afterwards no index, bucket or edge set mentions the entry (the
        seed left subsumption pairs behind to grow without bound under
        eviction-heavy retention policies).
        """
        entry_id = entry.entry_id
        if self._by_id.get(entry_id) is not entry:
            raise RepositoryError(f"{entry!r} is not in the repository")
        del self._by_id[entry_id]
        self._order = None
        for site in entry.digest.sites:
            ids = self._by_site[site]
            ids.discard(entry_id)
            if not ids:
                del self._by_site[site]
        bucket = self._buckets.get(entry.fingerprint)
        if bucket is not None:
            bucket[:] = [kept for kept in bucket if kept is not entry]
            if not bucket:
                del self._buckets[entry.fingerprint]
        for other_id in self._edges_out.pop(entry_id, ()):
            self._edges_in.get(other_id, set()).discard(entry_id)
        for other_id in self._edges_in.pop(entry_id, ()):
            self._edges_out.get(other_id, set()).discard(entry_id)
        self._notify("remove", entry)
        self._post_remove(entry)
        if dfs is not None and entry.owns_file:
            dfs.delete_if_exists(entry.output_path)

    def describe(self):
        lines = [f"Repository: {len(self)} entr(ies)"]
        lines.extend(f"- {entry.describe()}" for entry in self.scan())
        return "\n".join(lines)
