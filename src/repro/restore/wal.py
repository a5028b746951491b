"""The repository's one durable writer: per-shard segmented change logs.

The paper's repository is long-lived durable state ("Facebook stores the
result of any query ... for seven days"), and rewriting all of it on
every checkpoint — what :func:`save_repository`, one full compaction,
costs — is O(repository) per save, which defeats the production-scale
goal once the repository holds thousands of entries.
:class:`RepositoryLog` makes the steady-state checkpoint cost O(delta) —
and, since the log is **segmented along the shard layout**, the
steady-state *compaction* cost O(dirty shards):

* it subscribes to the repository's **change-event channel**
  (``Repository.add_listener``) and turns every mutation — insert,
  remove, use-stamp — into one JSONL record tagged with a monotonic
  sequence number and the owning shard id;
* records are buffered per partition and :meth:`flush` appends each
  group to that shard's own **segment file** through
  :meth:`~repro.dfs.filesystem.DistributedFileSystem.append_lines`
  (which places blocks only for the new lines), so the per-checkpoint
  write is proportional to what changed since the last one;
* when one shard's segment outgrows its slice of the repository
  (``segment records / shard entries > compact_ratio``), :meth:`compact`
  amortizes it away **for that shard only**: the dirty shard's snapshot
  *section file* is rewritten (a fresh immutable generation), the
  manifest is re-pointed, and just that shard's segment is truncated.
  No file records the scan order, a function of the entries. Clean
  shards' sections are reused
  at the file level — a mutation burst confined to one of N shards
  compacts in O(n/N), not O(n).

Crash safety is positional, not transactional, per shard: new section
files land under *new* names, then the manifest swap makes them
authoritative, and only then are the dirty segments truncated. A crash
before the manifest swap leaves unreferenced section files (garbage,
collected by the next compaction); a crash after it leaves old segment
records at or below the new section's ``base_seq`` watermark — replay
skips them as stale. A crash mid-append leaves a torn final line in one
segment — replay drops it. Either way ``load_repository`` rebuilds
exactly the durable state, and a re-attached ``RepositoryLog`` resumes
from the loader's replay state (healing with a full compaction when the
files show crash damage). Use-stamps are logged as absolute counter
values, so replaying one twice converges instead of double-counting.

Entries are identified across restarts by their **insertion
sequence**: the ``key`` field of section and segment records is
:func:`~repro.restore.persistence.log_key` of it, derived when a record
is written. The repository assigns the sequence once, the loader
restores it, and no sequence a durable record names is handed out again.
All records of one entry (insert, use-stamps, remove) land in one
segment: the owning shard is a pure function of the entry's loads, fixed
for its lifetime.
"""

import json
import threading

from repro.common.errors import RepositoryError
from repro.restore.persistence import (
    DEFAULT_REPOSITORY_PATH,
    MANIFEST_VERSION,
    entry_to_json,
    log_key,
    MANIFEST_KEY,
    read_manifest_line,
    section_file_path,
    section_file_prefix,
    segment_file_path,
    shard_label,
)

class RepositoryLog:
    """Segmented append-only change log + dirty-only compaction.

    Parameters:

    * ``dfs`` — the file system holding manifest, sections and segments;
    * ``path`` — the manifest path (shared with ``load_repository``);
      section files live at ``<path>.sec-<label>.g<generation>``;
    * ``log_path`` — the segment *base* path (default ``<path>.log``):
      shard ``s``'s segment is ``<log_path>.<s>``, the catch-all's (and
      a plain repository's single partition's) is ``<log_path>.catchall``;
    * ``compact_ratio`` — per-shard compaction threshold: a shard is
      *dirty* when its segment records per owned entry exceed this
      (≤ 0 is rejected; large values effectively disable compaction,
      which the ablation benchmark uses to isolate the append cost).

    Call :meth:`attach` to bind a repository (the indexed
    :class:`~repro.restore.repository.Repository` or the sharded
    subclass — the frozen seed baseline has no change-event channel),
    then :meth:`checkpoint` whenever the on-DFS state should catch up
    with the live one; :class:`~repro.restore.manager.ReStore` does this
    every ``checkpoint_every`` submits.
    """

    #: Locking contract, enforced by `repro.tools.statlint`
    #: (``lock-discipline``): every piece of log-side checkpoint state
    #: is only touched inside ``with self._mutex:`` — the change-event
    #: listener fires on whichever thread mutates the repository (the
    #: registrar under async ingest) while flush/compact/snapshot run
    #: elsewhere. ``*_locked`` methods assert "caller holds the mutex".
    GUARDED_BY = {"_seq": "_mutex", "_pending": "_mutex",
                  "_segment_records": "_mutex", "_sections": "_mutex",
                  "_generation": "_mutex",
                  "snapshot_reads": "_mutex"}

    def __init__(self, dfs, path=DEFAULT_REPOSITORY_PATH, log_path=None,
                 compact_ratio=1.0):
        if compact_ratio <= 0:
            raise ValueError(
                f"compact_ratio must be positive, got {compact_ratio}")
        self.dfs = dfs
        self.path = path
        self.log_path = log_path if log_path is not None else f"{path}.log"
        self.compact_ratio = compact_ratio
        self.repository = None
        # Event intake, durable reads and checkpointing share one
        # re-entrant mutex: under async ingest the registrar thread
        # mutates the repository (each mutation lands here via the
        # change-event channel) while the submit thread may flush or a
        # worker recovery may read a partition snapshot. Delivery order
        # through the channel IS the durable order — the lock only makes
        # each record's intake (seq assignment + buffer append) and each
        # flush/compact/snapshot atomic, it never reorders. Re-entrant
        # because checkpoint() nests compact()/flush().
        self._mutex = threading.RLock()
        self._seq = 0                # last sequence number assigned
        self._pending = {}           # label -> serialized records not on DFS
        self._segment_records = {}   # label -> complete records in its segment
        self._sections = {}          # label -> manifest section descriptor
        # Section-file generation counter. Strictly monotonic and
        # *decoupled from the sequence counter*: a healing or repeated
        # compaction can run at an unchanged seq, and naming files by
        # seq alone would overwrite the currently-referenced section in
        # place — a crash before the manifest swap would then brick the
        # restart. attach() seeds it above every generation on disk.
        self._generation = 0
        #: how many partition_snapshot() replays this log has served —
        #: the durable-read witness of a cold worker recovery
        self.snapshot_reads = 0

    # Lifecycle --------------------------------------------------------------

    def attach(self, repository):
        """Bind ``repository`` and subscribe to its change events.

        A repository freshly rebuilt by ``load_repository`` from this
        manifest resumes seamlessly: sequence numbers, per-segment
        record counts and the clean sections' file pointers continue
        from the loader's replay state. Anything else — a live
        repository, a reload whose files had crash damage (torn tails,
        stale records), or one whose keys are not derived from sequences
        (a file written before they were) — is checkpointed immediately:
        attach writes a fresh full snapshot (every section) and
        truncates every segment.
        """
        if self.repository is not None:
            if self.repository is repository:
                return self
            raise RepositoryError(
                "this RepositoryLog is already attached to a different "
                "repository; detach() it first")
        # Checked before any state mutates, so a failed attach leaves
        # the log reusable.
        _require_event_channel(repository)
        if getattr(repository, "persistence_log", None) is not None:
            # Two logs on one repository would buffer every mutation
            # twice (one of them usually forever) and, at shared paths,
            # interleave records with independent sequence counters.
            raise RepositoryError(
                "repository already has an attached RepositoryLog; "
                "detach()/close() it first")
        loaded_from_here = (
            getattr(repository, "loader_report", None) is not None
            and repository.loader_report.snapshot_path == self.path
            # Identity, not just a matching path string: a load from a
            # *different* DFS must not vouch for this one (an empty
            # repository loaded from fresh dfs_A would otherwise bypass
            # the wipe guard and compact over dfs_B's durable state).
            and getattr(repository.loader_report, "dfs", None) is self.dfs
            # And a file must actually have been read: a load that found
            # nothing (e.g. the manifest was deleted while segments
            # still hold records) vouches for nothing — the wipe
            # guard must still protect the segments.
            and repository.loader_report.format_version is not None)
        probe = None  # lazy: the clean-resume path never needs it
        if len(repository) == 0 and not loaded_from_here:
            probe = self._probe_durable_state()
            if probe[0]:
                # Almost certainly a restart that forgot
                # load_repository(): attaching would compact the empty
                # live state over the snapshot and silently wipe it. (A
                # repository genuinely emptied after loading from this
                # path is exempt — its loader report vouches for it.)
                raise RepositoryError(
                    f"refusing to attach an empty repository over the "
                    f"snapshot at {self.path!r}, which holds {probe[0]} "
                    f"record(s): the initial compaction would wipe it. "
                    f"Load it first (load_repository) or delete the "
                    f"stale snapshot to really start fresh")
        self.repository = repository
        # The whole rebind holds the mutex: add_listener() below makes
        # the change-event channel live, and under async ingest events
        # can arrive from the registrar thread the moment it does.
        with self._mutex:
            self._bind_locked(repository, probe)
        return self

    def _bind_locked(self, repository, probe):
        # A fresh binding: records buffered for a previously attached
        # repository describe state this one does not share — flushing
        # them into the new segments would inject ghost mutations and
        # reused sequence numbers (detach() warns to flush/close first
        # if they were wanted).
        self._pending = {}
        self._segment_records = {}
        self._sections = {}
        report = getattr(repository, "loader_report", None)
        resumable = (
            report is not None
            and report.format_version == MANIFEST_VERSION
            and report.snapshot_path == self.path
            and report.log_path == self.log_path
            and getattr(report, "dfs", None) is self.dfs
            # The replay state is single-use: it describes the repository
            # as loaded. A later attach (after mutations possibly logged
            # and compacted by another RepositoryLog) must not rewind the
            # sequence counter to load time — records appended after a
            # rewind would sit at or below the on-DFS watermarks and be
            # silently skipped as stale on the next reload.
            and not report.replay_state_consumed
            and self.dfs.exists(self.path)
            # The on-DFS partition layout must be the live one: a
            # file loaded into a repository with a different shard count
            # would tag events with shard ids its sections do not cover.
            and self._layout_matches(report)
        )
        if report is not None:
            report.replay_state_consumed = True
        if resumable:
            self._seq = report.last_seq
        repository.add_listener(self._on_event)
        repository.persistence_log = self
        self._seed_generation_locked()
        clean = (resumable
                 # Mutations applied between load and attach happened
                 # before the listener subscribed, so the log never saw
                 # them: an insert or a removal changes the set of
                 # entries, a use-stamp their stats.
                 and report.use_stats == {
                     entry.entry_id: (entry.stats.use_count,
                                      entry.stats.last_used_tick)
                     for entry in repository}
                 # The records this log appends name entries by derived
                 # key; a file keyed otherwise is rewritten first.
                 and report.foreign_keys == 0
                 and report.torn_tail_dropped == 0
                 and report.stale_records == 0
                 and report.dangling_records == 0)
        if clean:
            self._segment_records = dict(report.segment_records)
            self._sections = {label: dict(state)
                              for label, state in report.section_state.items()}
        else:
            # The healing compaction must not hand out watermarks below
            # sequence numbers already durable at this path: if the
            # compaction crashes between the manifest swap and the
            # segment truncation, leftover records above the watermark
            # would replay as fresh mutations on top of sections that
            # never saw them.
            if probe is None:
                probe = self._probe_durable_state()
            self._seq = max(self._seq, probe[1])
            self.compact()

    def _seed_generation_locked(self):
        """Start the generation counter above every section generation
        on disk, referenced or orphaned."""
        self._generation = 1 + max(
            (_section_generation(file) for file in
             self.dfs.list_files(prefix=section_file_prefix(self.path))),
            default=-1)

    def _save_unattached(self, repository):
        """:func:`save_repository`'s standalone path: one full
        compaction of ``repository`` through this fresh log without
        subscribing to it. The sequence floor is taken over whatever is
        durable at the path, exactly as a healing attach takes it."""
        _require_event_channel(repository)
        with self._mutex:
            self.repository = repository
            try:
                self._seed_generation_locked()
                self._seq = self._probe_durable_state()[1]
                self._compact_locked(None)
            finally:
                self.repository = None

    def _layout_matches(self, report):
        """Does the loaded manifest's partition layout (labels and
        segment paths) match what this log would write for the live
        repository?"""
        expected = {shard_label(shard_id)
                    for shard_id in self.repository.shard_sizes()}
        if set(report.section_state) != expected:
            return False
        return all(state.get("segment") == self._segment_path(label)
                   for label, state in report.section_state.items())

    def _probe_durable_state(self):
        """One pass over the durable files at this path, returning
        ``(records, max_seq)``: how many records they hold (snapshot
        entries plus outstanding segment lines — state can live entirely
        in the segments before the first compaction; conservative,
        possibly-stale lines included) and the highest sequence number
        among the manifest's watermarks and the segment records
        (unparseable lines, e.g. a torn tail, are skipped). Runs once
        per :meth:`attach` — the wipe guard needs the count, the
        non-resumable compaction needs the sequence floor."""
        records = 0
        top = 0
        manifest = read_manifest_line(self.dfs, self.path)
        if (manifest or {}).get(MANIFEST_KEY) == MANIFEST_VERSION:
            records += manifest.get(
                "entries", self.dfs.status(self.path).num_lines)
            if isinstance(manifest.get("last_seq"), int):
                top = max(top, manifest["last_seq"])
            for section in manifest.get("sections", ()):
                if (isinstance(section, dict)
                        and isinstance(section.get("base_seq"), int)):
                    top = max(top, section["base_seq"])
        elif self.dfs.exists(self.path):
            # Not a manifest the loader reads: every line still counts,
            # so the wipe guard protects a file the loader would refuse.
            records += self.dfs.status(self.path).num_lines
        for log_file in self.dfs.list_files(prefix=f"{self.log_path}."):
            log_lines = self.dfs.read_lines(log_file)
            records += len(log_lines)
            for line in log_lines:
                try:
                    record = json.loads(line)
                except ValueError:
                    continue
                if isinstance(record, dict) and isinstance(record.get("seq"),
                                                           int):
                    top = max(top, record["seq"])
        return records, top

    def detach(self):
        """Unsubscribe from the repository (pending records are kept;
        flush or compact first if they must reach the DFS)."""
        if self.repository is not None:
            self.repository.remove_listener(self._on_event)
            if getattr(self.repository, "persistence_log", None) is self:
                self.repository.persistence_log = None
            self.repository = None

    def close(self):
        """Flush pending deltas, then detach."""
        if self.repository is not None:
            self.flush()
            self.detach()

    def _require_attached(self, operation):
        """Checkpointing needs the live repository (shard sizes and
        members); fail with a clean error instead of the bare
        AttributeError an unattached ``self.repository`` would raise."""
        if self.repository is None:
            raise RepositoryError(
                f"cannot {operation}(): this RepositoryLog is not "
                f"attached to a repository (call attach() first)")

    # Change events ----------------------------------------------------------

    def _on_event(self, op, entry):
        with self._mutex:
            self._intake_locked(op, entry)

    def _intake_locked(self, op, entry):
        if entry._sequence is None:
            # An entry no repository admitted, so nothing durable
            # references it: a record for it would be pure noise the
            # loader could only drop. Skip it — and skip *before* taking
            # a sequence number, so the durable stream has no phantom
            # gap.
            return
        shard_id = self.repository.shard_id_of(entry)
        record = {"op": op, "shard": shard_id, "key": log_key(entry)}
        if op == "insert":
            record["entry"] = entry_to_json(entry)
        elif op == "use":
            # Absolute values, not increments: replay is idempotent.
            record["use_count"] = entry.stats.use_count
            record["last_used_tick"] = entry.stats.last_used_tick
        elif op != "remove":
            return  # an event this release does not persist
        self._seq += 1
        record["seq"] = self._seq
        self._pending.setdefault(shard_label(shard_id), []).append(
            json.dumps(record, sort_keys=True))

    # Checkpointing ----------------------------------------------------------

    def segment_path(self, shard_id):
        """The segment file holding ``shard_id``'s change records."""
        return self._segment_path(shard_label(shard_id))

    def _segment_path(self, label):
        return segment_file_path(self.log_path, label)

    @property
    def pending_records(self):
        """Buffered change records not yet appended to any segment."""
        with self._mutex:
            return sum(len(lines) for lines in self._pending.values())

    @property
    def log_records(self):
        """Complete change records across all DFS segments."""
        with self._mutex:
            return sum(self._segment_records.values())

    def segment_record_counts(self):
        """Complete on-DFS records per partition label (observability)."""
        with self._mutex:
            return {label: count
                    for label, count in sorted(self._segment_records.items())
                    if count}

    def partition_snapshot(self, shard_id):
        """One partition's durable-plus-pending state: ``{log key:
        entry json}`` after replaying its section entries, its segment
        records, and this log's still-buffered pending records for the
        label (stale records at or below the section's ``base_seq``
        skipped, unparseable lines — a torn tail — dropped).

        Reads only that partition's files — the point of the per-shard
        section/segment split: a crashed shard *worker* is re-seeded
        from here without touching any other partition
        (:class:`~repro.restore.service.ShardWorkerPool` recovery).

        Holds the log mutex for the whole read — it *is* the compaction
        barrier. A snapshot taken without it could observe the window
        between the manifest swap and the segment truncation (a fresh
        section plus the stale records it subsumes, i.e. a double
        replay), or a section file mid-GC. The concurrent
        snapshot-during-compact test in ``tests/test_restore_wal.py``
        hammers exactly this interleaving.
        """
        self._require_attached("partition_snapshot")
        with self._mutex:
            return self._partition_snapshot_locked(shard_id)

    def _partition_snapshot_locked(self, shard_id):
        self.snapshot_reads += 1
        label = shard_label(shard_id)
        state = self._sections.get(label)
        alive = {}
        base_seq = 0
        if state is not None:
            base_seq = state.get("base_seq", 0)
            file = state.get("file")
            if file is not None and self.dfs.exists(file):
                for line in self.dfs.read_lines(file):
                    record = json.loads(line)
                    alive[record["key"]] = record["entry"]
        segment = self._segment_path(label)
        lines = self.dfs.read_lines(segment) if self.dfs.exists(segment) else []
        lines = list(lines) + list(self._pending.get(label, ()))
        records = []
        for line in lines:
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if isinstance(record, dict) and isinstance(record.get("seq"), int):
                records.append(record)
        records.sort(key=lambda record: record["seq"])
        for record in records:
            if record["seq"] <= base_seq:
                continue
            op, key = record.get("op"), record.get("key")
            if key is None:
                continue
            if op == "insert":
                alive[key] = record["entry"]
            elif op == "remove":
                alive.pop(key, None)
            elif op == "use" and key in alive:
                stats = alive[key].get("stats")
                if isinstance(stats, dict):
                    stats["use_count"] = record["use_count"]
                    stats["last_used_tick"] = record["last_used_tick"]
        return alive

    def log_ratio(self):
        """(on-DFS + pending) change records per repository entry,
        across all segments (0 entries count as 1; an unattached log
        reports over the empty repository). Compaction triggers on the
        *per-shard* ratios — see :meth:`dirty_shards` — this global view
        is kept for reporting."""
        size = len(self.repository) if self.repository is not None else 0
        return (self.log_records + self.pending_records) / max(1, size)

    def _sizes_by_label(self):
        if self.repository is None:
            return {}
        return {shard_label(shard_id): size
                for shard_id, size in self.repository.shard_sizes().items()}

    def dirty_shards(self):
        """Labels of partitions whose segments outgrew their slice:
        (segment + pending records) per owned entry above
        ``compact_ratio``. These are the shards :meth:`checkpoint` will
        compact — the others' sections are reused untouched."""
        sizes = self._sizes_by_label()
        dirty = []
        with self._mutex:
            for label in sorted(set(self._segment_records)
                                | set(self._pending)):
                records = (self._segment_records.get(label, 0)
                           + len(self._pending.get(label, ())))
                if records > 0 and (records / max(1, sizes.get(label, 0))
                                    > self.compact_ratio):
                    dirty.append(label)
        return dirty

    def should_compact(self):
        return bool(self.dirty_shards())

    def flush(self):
        """Append pending change records to their segments; O(delta),
        one tail-block append per touched partition."""
        with self._mutex:
            return self._flush_labels_locked(sorted(self._pending))

    def _flush_labels_locked(self, labels):
        appended = 0
        for label in labels:
            lines = self._pending.get(label)
            if not lines:
                continue
            self.dfs.append_lines(self._segment_path(label), lines)
            self._segment_records[label] = (
                self._segment_records.get(label, 0) + len(lines))
            # Cleared per label as soon as its append lands, so a
            # failure on a later segment cannot double-append this one.
            self._pending[label] = []
            appended += len(lines)
        self._pending = {label: lines
                         for label, lines in self._pending.items() if lines}
        return appended

    def checkpoint(self):
        """Bring the on-DFS state up to the live repository.

        Appends the pending deltas — except for partitions whose
        segments outgrew the ``compact_ratio`` threshold, which are
        compacted instead (their pending deltas are subsumed by the
        fresh section rewrite). Returns ``{"appended": n,
        "compacted": bool, "compacted_shards": [labels]}``; ``appended``
        counts every pending record made durable either way.
        """
        self._require_attached("checkpoint")
        with self._mutex:
            dirty = self.dirty_shards()
            if dirty:
                durable = self.pending_records
                self.compact(dirty)
                return {"appended": durable, "compacted": True,
                        "compacted_shards": dirty}
            return {"appended": self.flush(), "compacted": False,
                    "compacted_shards": []}

    def compact(self, shards=None):
        """Streaming snapshot rewrite of ``shards`` (labels; default:
        every partition) + truncation of just those shards' segments.

        Per dirty shard, in crash-safe order:

        1. clean shards' pending records are flushed first, so every
           record at or below the new manifest's ``last_seq`` is durable
           before the manifest references that sequence number;
        2. each compacted shard's entries are rewritten, in sequence
           order, into a **new** generation-suffixed section file —
           never in place, so a crash here leaves the old manifest's
           files intact (the new ones are unreferenced garbage, collected
           by the next compaction);
        3. the manifest swap makes the new sections authoritative;
        4. only then are the compacted shards' segments truncated — a
           crash between 3 and 4 leaves records at or below the new
           sections' ``base_seq``, skipped as stale on replay;
        5. superseded section generations are deleted, and so are the
           scan-order files (``<path>.order.g<gen>``) an older writer
           kept: nothing reads them.

        The cost is O(entries of the compacted shards) serialization.
        """
        self._require_attached("compact")
        with self._mutex:
            return self._compact_locked(shards)

    def _compact_locked(self, shards):
        repository = self.repository
        labels = {shard_label(shard_id): shard_id
                  for shard_id in repository.shard_sizes()}
        if shards is None:
            targets = dict(labels)
        else:
            unknown = sorted(set(shards) - set(labels))
            if unknown:
                raise RepositoryError(
                    f"cannot compact unknown partition(s) {unknown}; "
                    f"this repository has {sorted(labels)}")
            targets = {label: labels[label] for label in shards}
        for label, shard_id in labels.items():
            # A partition with no recorded section state must be
            # rewritten too, or the new manifest could not reference it.
            if label not in targets and label not in self._sections:
                targets[label] = shard_id
        self._flush_labels_locked([label for label in sorted(self._pending)
                                   if label not in targets])
        watermark = self._seq
        # A fresh generation per compaction, even at an unchanged seq:
        # the referenced section files must never be rewritten in place.
        generation = self._generation
        self._generation += 1
        sections = {}
        for label in sorted(labels):
            if label not in targets:
                sections[label] = self._sections[label]
                continue
            members = sorted(repository.shard_members(labels[label]),
                             key=lambda entry: entry._sequence)
            file = None
            if members:
                file = section_file_path(self.path, label, generation)
                self.dfs.write_lines(file, [
                    json.dumps({"key": log_key(entry),
                                "entry": entry_to_json(entry)},
                               sort_keys=True)
                    for entry in members], overwrite=True)
            sections[label] = {"shard": labels[label], "file": file,
                               "entries": len(members),
                               "base_seq": watermark,
                               "segment": self._segment_path(label)}
        header = {MANIFEST_KEY: MANIFEST_VERSION,
                  "num_shards": getattr(repository, "num_shards", 0),
                  "entries": len(repository),
                  "last_seq": watermark,
                  "log": self.log_path,
                  "sections": [sections[label] for label in sorted(sections)]}
        self.dfs.write_lines(self.path, [json.dumps(header, sort_keys=True)],
                             overwrite=True)
        for label in sorted(targets):
            segment = sections[label]["segment"]
            if self.dfs.exists(segment):
                self.dfs.write_lines(segment, [], overwrite=True)
        # Only now are the buffered records subsumed by sections that
        # actually landed — a failed write must leave them pending, or a
        # caller that catches the error and retries would silently lose
        # those mutations.
        for label in targets:
            self._pending.pop(label, None)
            self._segment_records[label] = 0
        self._sections = sections
        referenced = {state["file"] for state in sections.values()
                      if state["file"] is not None}
        for old in self.dfs.list_files(prefix=section_file_prefix(self.path)):
            if old not in referenced:
                self.dfs.delete_if_exists(old)
        for old in self.dfs.list_files(prefix=f"{self.path}.order.g"):
            self.dfs.delete_if_exists(old)
        return sorted(targets)

    def describe(self):
        with self._mutex:
            state = ("unattached" if self.repository is None
                     else f"seq {self._seq}")
            dirty = ", ".join(self.dirty_shards()) or "none"
            return (
                f"RepositoryLog[{self.path} + {self.log_path}.*]: "
                f"{state}, {self.log_records} logged record(s) across "
                f"{sum(1 for count in self._segment_records.values() if count)} "
                f"segment(s), {self.pending_records} pending, "
                f"ratio {self.log_ratio():.2f}/{self.compact_ratio}, "
                f"dirty: {dirty}"
            )

    def __repr__(self):
        return f"<{self.describe()}>"


def save_repository(repository, dfs, path=DEFAULT_REPOSITORY_PATH):
    """Persist the repository through the DFS: the authoritative full
    save, one full compaction (every section rewritten, every segment
    truncated) in :meth:`RepositoryLog.compact`'s crash
    ordering. Returns the manifest's file status.

    When the repository's attached :class:`RepositoryLog` owns ``path``
    on ``dfs``, this *is* ``log.compact()`` — the log keeps appending to
    the files the new manifest references. Anywhere else it writes a
    standalone snapshot through a throwaway log that never subscribes (a
    log attached elsewhere is not disturbed); reloaded, it is a clean
    resume point for ``attach()``.
    """
    log = getattr(repository, "persistence_log", None)
    if log is not None and log.dfs is dfs and log.path == path:
        log.compact()
    else:
        # Keep the segment base of whatever manifest is being
        # overwritten, so its segments are the ones probed for the
        # sequence floor and truncated — none is left stranded.
        previous = (read_manifest_line(dfs, path) or {}).get("log")
        RepositoryLog(
            dfs, path,
            log_path=previous if isinstance(previous, str) else None,
        )._save_unattached(repository)
    return dfs.status(path)


def _require_event_channel(repository):
    """Both durable paths drive the indexed repository's primitives
    (change events, shard sizes and members); the frozen
    seed baseline has none of them."""
    if not hasattr(repository, "add_listener"):
        raise RepositoryError(
            f"{type(repository).__name__} has no change-event channel "
            f"(add_listener); the frozen seed baseline cannot be "
            f"persisted through a RepositoryLog")


def _section_generation(file):
    """The integer generation suffix of a section file name
    (``"....g17"`` → 17); unparseable names count as -1 so the
    allocator simply skips past them."""
    _, _, suffix = file.rpartition(".g")
    if suffix.isdigit():
        return int(suffix)
    return -1
