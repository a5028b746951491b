"""Repository persistence: survive a ReStore restart.

The paper's repository is durable state ("Facebook stores the result of
any query ... for seven days"); this module saves/loads it through the
DFS itself.

Plan matching needs only operator **signatures and DAG structure** — not
executable closures — so entries are serialized as *skeleton plans*: one
record per operator carrying its kind, canonical signature, schema, and
input edges. A reloaded repository matches and rewrites exactly like the
original (rewriting takes its schema from the *input* plan's frontier, so
skeletons never need to execute). Statistics, input versions, ownership,
provenance, and the plan fingerprint round-trip too; Load records are
rebuilt as real :class:`~repro.physical.operators.POLoad` operators (the
path and version are recovered from the canonical signature) so a
reloaded repository rebuilds its leaf-load and fingerprint indexes
identically to the original's.

The on-disk format (spec in ``docs/PERSISTENCE.md``) has one version,
written only by :class:`~repro.restore.wal.RepositoryLog` — per
checkpoint, or as the one full compaction that is
:func:`~repro.restore.wal.save_repository`. This module holds the record
grammar both sides share and the loader:

* the file at ``path`` holds only the **manifest** line
  (``{"restore-manifest": 5, "num_shards": N, "last_seq": S, ...}``):
  one descriptor per partition pointing at that shard's immutable,
  generation-suffixed snapshot **section file** and its append-only
  **segment file**, with a per-section ``base_seq`` watermark;
* a section line wraps an entry record with its log ``key``, one line
  per entry in sequence order; a segment line is one mutation (insert /
  remove / use-stamp) tagged with a monotonic sequence number. The
  writer derives the key from the entry's insertion sequence
  (:func:`log_key`); the loader treats keys as opaque strings;
* no file records the scan order: it is a function of the entries
  (:mod:`repro.restore.repository`), and each entry record carries the
  sequence that breaks its ties.

``load_repository`` refuses anything but that manifest with one
:class:`~repro.common.errors.RepositoryError`, and attaches a
:class:`LoaderReport` to the repository it returns: its counters, and
the replay state a :class:`~repro.restore.wal.RepositoryLog` needs to
resume appending.
"""

import gc
import json
import warnings

from repro.common.errors import RepositoryError
from repro.data.schema import Field, Schema
from repro.data.types import DataType
from repro.physical.operators import PhysOp, POLoad, POStore
from repro.physical.plan import PhysicalPlan
from repro.restore.index import parse_load_signature
from repro.restore.repository import Repository, RepositoryEntry
from repro.restore.sharding import ShardedRepository
from repro.restore.stats import EntryStats


class SkeletonOp(PhysOp):
    """A deserialized operator: fixed signature, no executable payload."""

    def __init__(self, kind, signature, schema, inputs):
        super().__init__(inputs, schema)
        self.kind = kind
        self._signature = signature

    def signature(self):
        return self._signature

    def copy_with_inputs(self, inputs):
        return self._carry(
            SkeletonOp(self.kind, self._signature, self.schema, list(inputs))
        )


# --- Schema (de)serialization ---------------------------------------------------


def schema_to_json(schema):
    if schema is None:
        return None
    return [
        {
            "name": field.name,
            "dtype": field.dtype.value,
            "element": schema_to_json(field.element),
        }
        for field in schema.fields
    ]


def schema_from_json(data, memo=None):
    """The :class:`Schema` of a :func:`schema_to_json` record. A load
    passes one ``memo`` dict down, keyed on whole records (bag elements
    included), so identical records share one immutable Schema."""
    if data is None:
        return None
    memo = {} if memo is None else memo
    key = _schema_key(data)
    if key not in memo:
        memo[key] = Schema([Field(item["name"], DataType(item["dtype"]),
                                  schema_from_json(item["element"], memo))
                            for item in data])
    return memo[key]


def _schema_key(data):
    return None if data is None else tuple(
        (item["name"], item["dtype"], _schema_key(item["element"]))
        for item in data)


# --- Plan (de)serialization -----------------------------------------------------


def plan_to_json(plan):
    """Topologically-ordered operator records with input indices."""
    operators = plan.operators()
    index = {id(op): position for position, op in enumerate(operators)}
    records = []
    for op in operators:
        records.append(
            {
                "kind": op.kind,
                "signature": op.signature(),
                "schema": schema_to_json(op.schema),
                "inputs": [index[id(parent)] for parent in op.inputs],
                "store_path": op.path if isinstance(op, POStore) else None,
            }
        )
    return records


def plan_from_json(records, memo=None):
    operators = []
    for record in records:
        inputs = [operators[i] for i in record["inputs"]]
        if record["store_path"] is not None:
            op = POStore(inputs[0], record["store_path"])
        else:
            op = _operator_from_record(record, inputs, memo)
        operators.append(op)
    sinks = [op for op in operators if isinstance(op, POStore)]
    if len(sinks) != 1:
        raise RepositoryError(
            f"a serialized entry plan must have exactly one Store, got {len(sinks)}"
        )
    return PhysicalPlan(sinks)


def _operator_from_record(record, inputs, memo):
    """Rebuild one non-Store operator.

    Loads come back as real POLoads (path/version recovered from the
    canonical signature) so the repository's leaf-load index can key a
    reloaded entry exactly as it keyed the original; everything else is a
    signature-preserving skeleton.
    """
    schema = schema_from_json(record["schema"], memo)
    if record["kind"] == "load" and not inputs:
        parsed = parse_load_signature(record["signature"])
        if parsed is not None:
            path, version = parsed
            return POLoad(path, schema, version)
    return SkeletonOp(record["kind"], record["signature"], schema, inputs)


# --- Repository (de)serialization ---------------------------------------------------


def log_key(entry):
    """The key the log writes for ``entry``: its insertion sequence,
    which the repository assigns once and the loader restores, so the
    key names the same entry in every process."""
    return f"k{entry._sequence}"


def entry_to_json(entry):
    """One entry as a JSON-able dict — the ``entry`` payload of section
    records (and of the worker pool's ``add`` mutations). Every field is
    fixed at insert time except the mutable pair (``use_count``,
    ``last_used_tick``). ``sequence`` is restored by the loader, not by
    :func:`entry_from_json`: the repository that admits the entry
    assigns it."""
    stats = entry.stats
    return {
        "plan": plan_to_json(entry.plan),
        "fingerprint": entry.fingerprint,
        # The insertion sequence is the entry's identity (its id and
        # log key) and the scan order's final tie-break. It must
        # round-trip: a subsumption-edge-constrained scan order can
        # invert metric-tied entries relative to insertion order, so an
        # order computed with other sequences would break those ties
        # differently than the live repository.
        "sequence": entry._sequence,
        "output_path": entry.output_path,
        "input_versions": entry.input_versions,
        "owns_file": entry.owns_file,
        "origin": entry.origin,
        "stats": {
            "input_bytes": stats.input_bytes,
            "output_bytes": stats.output_bytes,
            "producing_job_time": stats.producing_job_time,
            "map_time": stats.map_time,
            "reduce_time": stats.reduce_time,
            "created_tick": stats.created_tick,
            "last_used_tick": stats.last_used_tick,
            "use_count": stats.use_count,
        },
    }


def entry_from_json(data, report=None, memo=None):
    raw = data["stats"]
    stats = EntryStats(
        raw["input_bytes"], raw["output_bytes"], raw["producing_job_time"],
        map_time=raw["map_time"], reduce_time=raw["reduce_time"],
        created_tick=raw["created_tick"],
    )
    stats.last_used_tick = raw["last_used_tick"]
    stats.use_count = raw["use_count"]
    entry = RepositoryEntry(
        plan_from_json(data["plan"], {} if memo is None else memo),
        data["output_path"],
        stats,
        input_versions=data["input_versions"],
        owns_file=data["owns_file"],
        origin=data["origin"],
    )
    # The saved fingerprint is derivable state: the plan round-trips its
    # signatures, so the recomputed hash is authoritative. A stale saved
    # value (e.g. after a signature-canonicalization change in a newer
    # release) must not brick the restart — the recomputed fingerprint
    # wins, and the repository re-indexes with it. But the drift itself
    # must be observable, not invisible: verify the saved value and
    # surface mismatches through the loader counter and a warning.
    saved_fingerprint = data.get("fingerprint")
    if saved_fingerprint is not None and saved_fingerprint != entry.fingerprint:
        if report is not None:
            # Count only: the loader emits one aggregated warning at the
            # end (a drift hits every entry of a large repository at
            # once) through a path that cannot brick the restart.
            report.fingerprint_mismatches += 1
        else:
            warnings.warn(
                f"saved fingerprint for entry {entry.output_path!r} does "
                f"not match the recomputed one (signature "
                f"canonicalization drift since the save?); the "
                f"recomputed value wins",
                RuntimeWarning, stacklevel=2)
    return entry


DEFAULT_REPOSITORY_PATH = "/restore/repository.jsonl"

#: manifest marker key; its value is the format version
MANIFEST_KEY = "restore-manifest"
#: the one supported format version
MANIFEST_VERSION = 5

#: section/segment file name of the catch-all partition (and of a plain
#: repository, whose single partition is the catch-all)
CATCHALL_LABEL = "catchall"


def shard_label(shard_id):
    """The file-name label of one partition: ``"0"``, ``"1"``, … for
    regular shards, :data:`CATCHALL_LABEL` for the catch-all (sharded
    id ``-1``) and for a plain repository's single partition (``None``).
    """
    if shard_id is None or shard_id < 0:
        return CATCHALL_LABEL
    return str(shard_id)


def section_file_path(path, label, generation):
    """The immutable section file for one partition: generation-
    suffixed so a dirty-shard compaction writes a *new* file and
    re-points the manifest instead of overwriting in place (a crash
    between the two leaves the old manifest's files intact)."""
    return f"{path}.sec-{label}.g{generation}"


def section_file_prefix(path):
    """Every section file of ``path`` starts with this prefix —
    compaction garbage-collects unreferenced generations under it."""
    return f"{path}.sec-"


def segment_file_path(log_base, label):
    """The append-only segment file of one partition, derived from
    the manifest's ``log`` base path (default ``<path>.log``)."""
    return f"{log_base}.{label}"


class LoaderReport:
    """What ``load_repository`` observed while rebuilding a repository.

    Attached to every returned repository as ``loader_report``. The
    counters make restart anomalies observable instead of silent —
    ``fingerprint_mismatches`` flags signature-canonicalization drift
    between the saving and loading release, ``torn_tail_dropped`` /
    ``stale_records`` / ``dangling_records`` account for every segment
    record that was not replayed — and ``last_seq`` / ``use_stats`` are
    the replay state a :class:`~repro.restore.wal.RepositoryLog`
    resumes from when it re-attaches after a restart.
    """

    def __init__(self, path, dfs=None):
        self.snapshot_path = path
        #: the filesystem the load read from — resume checks compare it
        #: by identity, so a report cannot vouch for a different DFS
        #: that merely shares the path string
        self.dfs = dfs
        self.format_version = None     # 5 (None: no file found)
        #: the segment *base* path (each partition's segment is
        #: ``<base>.<label>``)
        self.log_path = None
        self.entries_loaded = 0        # entries in the final repository
        self.log_records = 0           # lines found in the change log(s)
        self.replayed_records = 0      # log records applied
        self.stale_records = 0         # records at or below base_seq
        self.dangling_records = 0      # records whose target was gone
        self.torn_tail_dropped = 0     # partial final line from a crash
        self.orphaned_log_records = 0  # segment lines with no manifest
        self.fingerprint_mismatches = 0
        #: entry records (removed entries' included) whose key is not
        #: :func:`log_key` of their recorded sequence, or whose sequence
        #: another entry held — a file written before keys were derived.
        #: A re-attaching RepositoryLog rewrites it under the derived
        #: keys, since its later records could otherwise name a key an
        #: old record still uses.
        self.foreign_keys = 0
        self.last_seq = 0              # highest sequence number seen
        #: resume state: manifest num_shards, plus one descriptor per
        #: partition label ({"shard", "file", "entries", "base_seq",
        #: "segment"}) and the count of complete records per segment —
        #: what a re-attaching RepositoryLog needs to keep appending and
        #: to reuse clean sections at the next compaction.
        self.num_shards = None
        self.section_state = {}        # label -> section descriptor
        self.segment_records = {}      # label -> complete records
        #: entry_id -> (use_count, last_used_tick) of every entry the
        #: file loaded — lets a re-attaching RepositoryLog detect
        #: inserts, removals and use-stamps applied between load and
        #: attach (which its listener never saw) and heal with a
        #: compaction instead of silently losing them.
        self.use_stats = {}
        # The replay state (last_seq/use_stats) is only valid until the first
        # RepositoryLog attaches — it describes the repository *as
        # loaded*, not as later mutated — so attach() consumes it.
        self.replay_state_consumed = False

    def as_dict(self):
        return {
            "snapshot_path": self.snapshot_path,
            "format_version": self.format_version,
            "log_path": self.log_path,
            "entries_loaded": self.entries_loaded,
            "log_records": self.log_records,
            "replayed_records": self.replayed_records,
            "stale_records": self.stale_records,
            "dangling_records": self.dangling_records,
            "torn_tail_dropped": self.torn_tail_dropped,
            "orphaned_log_records": self.orphaned_log_records,
            "fingerprint_mismatches": self.fingerprint_mismatches,
            "last_seq": self.last_seq,
        }

    def describe(self):
        return (
            f"loaded {self.entries_loaded} entr(ies) from "
            f"{self.snapshot_path!r} (format v{self.format_version}): "
            f"{self.replayed_records} log record(s) replayed, "
            f"{self.stale_records} stale, {self.dangling_records} dangling, "
            f"{self.torn_tail_dropped} torn-tail dropped, "
            f"{self.fingerprint_mismatches} fingerprint mismatch(es)"
        )

    def __repr__(self):
        return f"LoaderReport({self.describe()})"


def read_manifest_line(dfs, path):
    """The manifest dict on ``path``'s first line, or None (missing or
    empty file, unparseable first line, or a first line that is not a
    manifest).

    Reads only the file's first block — line 0 always lives there — so
    sniffing the format of a large snapshot costs O(block), not O(file).
    """
    if not dfs.exists(path):
        return None
    lines = dfs.read_block_lines(path, 0)
    if not lines:
        return None
    try:
        first = json.loads(lines[0])
    except ValueError:
        return None
    if isinstance(first, dict) and MANIFEST_KEY in first:
        return first
    return None


def load_repository(dfs, path=DEFAULT_REPOSITORY_PATH, repository=None):
    """Rebuild a repository from a saved file; missing file -> empty.

    ``repository`` is the target to load into. When omitted, the
    manifest decides: ``num_shards >= 1`` builds a
    :class:`~repro.restore.sharding.ShardedRepository` with that shard
    count, ``0`` a plain :class:`Repository`. An explicit target loads
    across layouts in either direction with identical scan order and
    match decisions (the shard layout is a pure function of the entries'
    load keys). A first line that is not a version-5 manifest raises
    :class:`~repro.common.errors.RepositoryError`.

    Entries are inserted, which sorts nothing: the scan order is computed
    from the loaded entries when asked for. Each distinct schema record
    is decoded once per load.

    The cyclic garbage collector is suspended for the duration of the
    load (and put back as it was): a reload allocates tens of thousands
    of objects that all stay alive, so every collection it triggers
    walks a growing heap and frees nothing — and whether a full pass
    happened to land inside the load moved its time by a quarter from
    one run to the next. ``hot_probe``'s 739-entry reload (seed 7,
    2 vCPU, CPython 3.11.7, median of 9) took 0.056 s with the collector
    off, 0.066 s with it on. The switch is
    the interpreter's, not this thread's: other threads (such as ingest)
    also run uncollected until the load returns, and cyclic garbage
    already on the heap stays there under the loaded repository until
    the next collection after it.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _load_repository(dfs, path, repository)
    finally:
        if was_enabled:
            gc.enable()


def _load_repository(dfs, path, repository):
    report = LoaderReport(path, dfs)
    lines = dfs.read_lines(path) if dfs.exists(path) else []
    if not lines:
        repository = repository if repository is not None else Repository()
        repository.loader_report = report
        # The manifest is gone (or empty) but segment files are not:
        # records there cannot be replayed without it, and silence would
        # hide the loss.
        report.orphaned_log_records = sum(
            dfs.status(file).num_lines
            for file in dfs.list_files(prefix=f"{path}.log."))
        if report.orphaned_log_records:
            _warn_unbrickable(
                f"no repository snapshot at {path!r}, but sibling "
                f"change-log file(s) hold "
                f"{report.orphaned_log_records} record(s) that cannot "
                f"be replayed without it; loading empty")
        return repository
    manifest = _supported_manifest(path, lines[0])
    repository = _load_segmented(dfs, manifest, lines[1:], repository, report)
    # Surface the manifest (shard count, generation) to the caller;
    # harmless on a plain Repository target, which gains the attribute.
    repository.manifest_metadata = dict(manifest)
    report.entries_loaded = len(repository)
    repository.loader_report = report
    if report.fingerprint_mismatches:
        _warn_unbrickable(
            f"{report.fingerprint_mismatches} saved fingerprint(s) in "
            f"{path!r} did not match the recomputed ones (signature "
            f"canonicalization drift since the save?); recomputed "
            f"values won — see loader_report.fingerprint_mismatches")
    return repository


def _supported_manifest(path, first_line):
    """The manifest on a repository file's first line, or one
    RepositoryError saying what was found there instead."""
    try:
        manifest = json.loads(first_line)
    except ValueError:
        found = "a first line that is not JSON"
    else:
        if not (isinstance(manifest, dict) and MANIFEST_KEY in manifest):
            found = ("a first line that is not a manifest (the shape of a "
                     "pre-manifest, version-1 file)")
        elif manifest[MANIFEST_KEY] != MANIFEST_VERSION:
            found = f"format version {manifest[MANIFEST_KEY]!r}"
        else:
            return manifest
    raise RepositoryError(
        f"cannot load the repository at {path!r}: found {found}; the only "
        f"supported format is version {MANIFEST_VERSION}")


def _warn_unbrickable(message):
    """Warn loudly without ever bricking the restart: forces print-only
    so an escalating filter (``-W error``) cannot turn the documented
    recovery path into a load failure."""
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        # 4: this helper, _load_repository, load_repository, its caller.
        warnings.warn(message, RuntimeWarning, stacklevel=4)


def _admit(record, repository, by_key, taken, report, memo):
    """Insert the entry a section or insert record carries, under the
    sequence it was recorded with. A sequence that a loaded entry holds
    already (``taken``) — possible only in a file whose keys were not
    derived from sequences — is left to the repository to replace. A
    record whose key or sequence the entry does not keep is counted in
    ``report.foreign_keys``."""
    entry = entry_from_json(record["entry"], report, memo)
    sequence = record["entry"].get("sequence")
    if type(sequence) is int and sequence not in taken:
        entry._sequence = sequence
    repository.insert(entry)
    taken.add(entry._sequence)
    if entry._sequence != sequence or record.get("key") != log_key(entry):
        report.foreign_keys += 1
    if record.get("key") is not None:
        by_key[record["key"]] = entry


def _apply_log_record(record, repository, by_key, taken, report, memo):
    op = record["op"]
    if op == "insert":
        _admit(record, repository, by_key, taken, report, memo)
        report.replayed_records += 1
    elif op == "remove":
        if record.get("key") is None:
            # Legacy '"key": null' remove records (written for entries
            # that were never keyed, before the writer learned to skip
            # them) reference nothing durable by construction — they are
            # no-ops, not dangling anomalies.
            return
        entry = by_key.pop(record["key"], None)
        if entry is None:
            # The target is already gone (e.g. a duplicated record, or a
            # remove whose insert never made the log): count, don't die.
            report.dangling_records += 1
            return
        # No dfs argument: the live removal already deleted any owned
        # file — replay only restores the in-memory state.
        repository.remove(entry)
        report.replayed_records += 1
    elif op == "use":
        if record.get("key") is None:
            return  # legacy unkeyed use-stamp: a no-op, like the remove
        entry = by_key.get(record["key"])
        if entry is None:
            report.dangling_records += 1
            return
        # Use-stamps are absolute values, so replay is idempotent and a
        # record for an already-stamped entry converges to live state.
        entry.stats.use_count = record["use_count"]
        entry.stats.last_used_tick = record["last_used_tick"]
        report.replayed_records += 1
    else:
        # An op from a newer release: skip it rather than brick the
        # restart (the counter keeps it observable).
        report.dangling_records += 1


# --- The loader: sections, then segments -------------------------------------


def _load_segmented(dfs, manifest, body, repository, report):
    """Rebuild a repository from per-shard section + segment files.

    Every section entry is inserted (in recorded sequence order), then
    every segment record above its section's ``base_seq`` watermark is
    replayed, merged across segments in global sequence order. Records
    at or below the watermark are *stale* (a crash between that shard's
    section rewrite and its segment truncation leaves them behind); each
    segment independently tolerates a torn final line. Segments can
    therefore be read in any order — the per-record sequence numbers,
    not file order, define the replay.

    Every entry keeps the insertion sequence it was recorded with, so
    its id and log key are the ones the writing process used, and the
    repository's counter resumes above every sequence the files name —
    removed entries' included: a record that names a removed entry's key
    must never act on a new entry at a later reload. Manifest keys this
    loader does not know (such as the scan-order log an older writer
    pointed at) are ignored.
    """
    report.format_version = MANIFEST_VERSION
    report.log_path = manifest.get("log")
    report.num_shards = manifest.get("num_shards", 0)
    if body:
        raise RepositoryError(
            f"a repository manifest file must hold only the manifest "
            f"line, found {len(body)} extra line(s)")
    if repository is None:
        repository = (ShardedRepository(num_shards=report.num_shards)
                      if report.num_shards >= 1 else Repository())
    # Sections: the compacted state of each partition, immutable files.
    section_records = []
    for section in manifest.get("sections", ()):
        label = shard_label(section.get("shard"))
        file = section.get("file")
        lines = (dfs.read_lines(file)
                 if file is not None and dfs.exists(file) else [])
        expected = section.get("entries", len(lines))
        if len(lines) != expected:
            raise RepositoryError(
                f"repository section {file!r} truncated: manifest "
                f"promises {expected} entr(ies), file holds {len(lines)}")
        section_records.extend(json.loads(line) for line in lines)
        report.section_state[label] = {
            "shard": section.get("shard"),
            "file": file,
            "entries": expected,
            "base_seq": section.get("base_seq", 0),
            "segment": section.get("segment"),
        }
    # Segments: parse each independently (torn tails are per-file),
    # drop the records at or below its section's watermark, then merge
    # by global sequence number.
    records = []
    sequences = [record["entry"].get("sequence") for record in section_records]
    for label in sorted(report.section_state):
        state = report.section_state[label]
        segment = state.get("segment")
        lines = (dfs.read_lines(segment)
                 if segment is not None and dfs.exists(segment) else [])
        report.log_records += len(lines)
        parsed = _parse_segment(lines, segment, report)
        report.segment_records[label] = len(parsed)
        for record in parsed:
            if record["seq"] <= state["base_seq"]:
                report.stale_records += 1
                continue
            if record["op"] == "insert":
                sequences.append(record["entry"].get("sequence"))
            records.append(record)
    repository._sequence = max(
        [repository._sequence] + [sequence + 1 for sequence in sequences
                                  if type(sequence) is int])
    by_key = {}
    memo = {}   # schema records decoded by this load
    taken = {entry._sequence for entry in repository}
    section_records.sort(key=lambda record:
                         record["entry"].get("sequence") or 0)
    for record in section_records:
        _admit(record, repository, by_key, taken, report, memo)
    records.sort(key=lambda record: record["seq"])
    report.last_seq = manifest.get("last_seq", 0)
    for record in records:
        _apply_log_record(record, repository, by_key, taken, report, memo)
        report.last_seq = max(report.last_seq, record["seq"])
    # A live repository holds its entries in sequence order, the order it
    # assigned them in, and iterates (and so sweeps) in it. Sections were
    # read before segments, so restore that order.
    repository._by_id = dict(sorted(repository._by_id.items(),
                                    key=lambda item: item[1]._sequence))
    report.use_stats = {
        entry.entry_id: (entry.stats.use_count, entry.stats.last_used_tick)
        for entry in by_key.values()}
    return repository


def _parse_segment(lines, segment, report):
    """Complete records of one segment file, dropping a torn final line
    (a crash mid-append) and failing on mid-file corruption."""
    records = []
    last = len(lines) - 1
    for index, line in enumerate(lines):
        try:
            record = json.loads(line)
        except ValueError:
            record = None
        if not (isinstance(record, dict)
                and isinstance(record.get("seq"), int) and "op" in record):
            if index == last:
                report.torn_tail_dropped += 1
                break
            raise RepositoryError(
                f"corrupt repository segment {segment!r}: unreadable "
                f"record at line {index} is not the final line")
        records.append(record)
    return records
